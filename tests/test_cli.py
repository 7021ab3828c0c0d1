"""Command-line surface: exit codes, JSON report round-tripping, the report
writer's bytes, input file parsing, and the reproduction diff.
"""

import io
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg.cli as cli
import parreg.density as density
from parreg.classify import (
    EquationSpec,
    SystemSpec,
    classify_equation,
    classify_system,
)
from parreg.cli import (
    EXIT_BUDGET,
    EXIT_DIFF,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    canonical_json,
    decode_value,
    encode_value,
    main,
    parse_rational,
    read_matrix_file,
    read_rows_file,
)
from parreg.witness import WitnessPrime


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# JSON codec


def roundtrip(v):
    return decode_value(json.loads(json.dumps(encode_value(v))))


def test_codec_scalars_and_containers():
    cases = [
        None,
        True,
        7,
        -3,
        "text",
        1.5,
        Fraction(-3, 7),
        (1, (2, 3), Fraction(1, 2)),
        frozenset({1, 2, 3}),
        [1, [2], {"k": (1, 2)}],
        {"plain": 1, "nested": {"deep": Fraction(9, 4)}},
        {(0, 1): 5, (2,): Fraction(1, 3)},
        WitnessPrime(43, 2, ((Fraction(2), False), (Fraction(3), False)), True),
        EquationSpec(2, 3, 1, 1, 2),
        SystemSpec(((16, 17, 1), (33, 4063, 1)), 8),
    ]
    for v in cases:
        assert roundtrip(v) == v


def test_codec_verdicts_exact():
    small = SimpleNamespace(witness_bound=5000)
    verdicts = [
        classify_equation(EquationSpec(2, 3, 1, 1, 2)),
        classify_equation(EquationSpec(1, 7, 1, 1, 3)),
        classify_equation(EquationSpec(1, 1, -1, 1, 3)),
        classify_equation(EquationSpec(3, 13, 1, 1, 8), config=small),
        classify_system(SystemSpec(((1, 2, 1), (2, 4, 2)), 2)),
        classify_system(SystemSpec(((16, 17, 1), (33, 4063, 1)), 8), config=small),
    ]
    for v in verdicts:
        back = roundtrip(v)
        assert back == v
        assert back.certificates == v.certificates


def test_codec_rejects_unknown_type():
    with pytest.raises(TypeError):
        encode_value(object())


# ---------------------------------------------------------------------------
# report writer: the bytes of json.dumps(v, indent=2, sort_keys=True)


def stdlib_bytes(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True)


# every character, lone surrogates and control characters included
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
)
json_ints = st.one_of(st.integers(-(2**200), 2**200), st.sampled_from([2**200, -(2**200)]))
json_leaves = st.one_of(st.none(), st.booleans(), json_ints, json_floats, any_text)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=20,
)

nonzero = st.integers(-(10**6), 10**6).filter(bool)
hashable_leaves = st.one_of(st.integers(-(2**70), 2**70), any_text, st.fractions())
equation_specs = st.builds(
    EquationSpec, nonzero, nonzero, nonzero, st.integers(1, 12), st.integers(1, 12)
)
witness_primes = st.builds(
    WitnessPrime,
    st.integers(2, 10**6),
    st.integers(1, 24),
    st.lists(st.tuples(st.fractions(), st.booleans()), max_size=3).map(tuple),
    st.booleans(),
)
program_values = st.recursive(
    st.one_of(
        json_leaves, st.fractions(), equation_specs, witness_primes,
        st.frozensets(hashable_leaves, max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(any_text, inner, max_size=3),
        st.dictionaries(hashable_leaves, inner, max_size=3),
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_writer_matches_stdlib_on_json_values(v):
    assert canonical_json(v) == stdlib_bytes(v)


@given(program_values)
@settings(max_examples=300, deadline=None)
def test_writer_matches_stdlib_on_encoded_values(v):
    encoded = encode_value(v)
    assert canonical_json(encoded) == stdlib_bytes(encoded)


def test_writer_fixed_cases():
    cases = [
        [], {}, [[]], {"a": {}}, [{}, []], "", "\ud800x\udfff", "\x00\x1f\x7f\u2028",
        2**200, -(2**200), -0.0, math.nan, [math.inf, -math.inf, 1e300, 5e-324],
        {"b": [1, True, None], "a": (False, 2.5), "é": "ü😀"},
    ]
    for v in cases:
        assert canonical_json(v) == stdlib_bytes(v), v


def test_writer_rejects_non_str_keys():
    for key in (1, None, True, 1.5, (1, 2)):
        with pytest.raises(TypeError):
            canonical_json({key: 1})
    with pytest.raises(TypeError):
        canonical_json([object()])


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(cli.DegenerateInput):
        RunConfig(witness_bound=0)
    with pytest.raises(cli.DegenerateInput):
        RunConfig(threads=-1)
    assert run(["classify", "2", "3", "1", "1", "2", "--bound", "-5"])[0] == EXIT_USAGE
    assert run(["classify", "2", "3", "1", "1", "2", "--threads", "-1"])[0] == EXIT_USAGE
    assert RunConfig(output="json").output == "json"
    for bad in ("JSON", "Text", "", "yaml"):
        with pytest.raises(cli.DegenerateInput):
            RunConfig(output=bad)


def test_zero_options_are_rejected():
    for opt in ("--bound", "--box", "--threads"):
        assert run(["classify", "2", "3", "1", "1", "2", opt, "0"])[0] == EXIT_USAGE, opt
    assert run(["density", "2", "3", "--bound", "0"])[0] == EXIT_USAGE


def test_coefficients_above_witness_bound():
    code, text = run(["classify", "1000036000083", "16", "1", "1", "8"])
    assert code == EXIT_OK
    assert "reason: Q:witness:threshold-above-bound:1000000" in text


# ---------------------------------------------------------------------------
# classify / system


def test_classify_text():
    code, text = run(["classify", "2", "3", "1", "1", "2"])
    assert code == EXIT_OK
    assert "equation 2x + 3y = 1 w^1 z^2" in text
    assert "N: NOT_PR" in text and "Q\\{0}: NOT_PR" in text
    assert "[R7] square NOT_PR over Q" in text
    assert "p=43" in text and "(supporting)" in text


def test_classify_json_report():
    code, text = run(["classify", "2", "3", "1", "1", "2", "--json"])
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["schema"] == "parreg-report/1"
    assert rep["command"] == "classify"
    assert rep["config"]["output"] == "json"
    v = decode_value(rep["result"])
    assert v == classify_equation(EquationSpec(2, 3, 1, 1, 2))


def test_classify_rejects_degenerate():
    assert run(["classify", "0", "1", "1", "1", "1"])[0] == EXIT_USAGE
    assert run(["classify", "1", "1", "1", "0", "1"])[0] == EXIT_USAGE


def test_argparse_usage_errors():
    assert main(["classify", "1", "2"]) == EXIT_USAGE  # missing arguments
    assert main(["no-such-command"]) == EXIT_USAGE


def test_system_from_file(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("# obstructed pair\n16 17 1\n33 4063 1  # second row\n")
    code, text = run(["system", str(rows), "8", "--bound", "2000"])
    assert code == EXIT_OK
    assert "system n=8 rows (16,17,1); (33,4063,1)" in text
    assert "[S3] system_intersection NOT_PR over Z I={33}" in text
    assert "p=23" in text
    assert "reason: Q:system:scope-Z-only" in text


def test_system_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing but comments\n")
    assert run(["system", str(empty), "2"])[0] == EXIT_USAGE
    short = tmp_path / "short.txt"
    short.write_text("1 2\n")
    assert run(["system", str(short), "2"])[0] == EXIT_USAGE
    frac = tmp_path / "frac.txt"
    frac.write_text("1/2 1 1\n")
    assert run(["system", str(frac), "2"])[0] == EXIT_USAGE
    assert run(["system", str(tmp_path / "missing.txt"), "2"])[0] == EXIT_USAGE


# ---------------------------------------------------------------------------
# witness / verify


def test_witness_command():
    code, text = run(["witness", "2", "2", "3", "5"])
    assert code == EXIT_OK
    assert "witness prime 43 (n=2)" in text
    assert "2: n-th power residue = False" in text


def test_witness_exhausted():
    code, text = run(["witness", "8", "3", "13", "16", "--bound", "20000"])
    assert code == EXIT_OK
    assert "no witness prime <= 20000" in text


def test_witness_bad_target():
    assert run(["witness", "2", "abc"])[0] == EXIT_USAGE
    assert run(["witness", "2", "0"])[0] == EXIT_USAGE


def test_verify_needs_a_coloring():
    assert run(["verify", "1", "1", "1", "1", "1"])[0] == EXIT_USAGE


def test_verify_takes_one_valid_coloring():
    eq = ["verify", "1", "1", "1", "1", "1", "--lo", "1", "--hi", "12"]
    # both flags used to scan silently with the mod coloring
    assert run(eq + ["--p", "5", "--mod", "3"])[0] == EXIT_USAGE
    assert run(eq + ["--p", "4"])[0] == EXIT_USAGE
    assert run(eq + ["--mod", "0"])[0] == EXIT_USAGE


def test_verify_valuation_coloring():
    code, text = run(
        ["verify", "1", "1", "1", "1", "1", "--p", "43", "--lo", "1", "--hi", "50"]
    )
    assert code == EXIT_OK
    assert "box [1,50] engine=bucketed scanned=125000" in text
    assert "first (1, 1, 43, 44)" in text


def test_verify_json_result():
    code, text = run(
        [
            "verify", "1", "1", "1", "1", "1",
            "--p", "43", "--lo", "1", "--hi", "50", "--json",
        ]
    )
    assert code == EXIT_OK
    result = decode_value(json.loads(text)["result"])
    assert result["found"] == (1, 1, 43, 44)
    assert result["candidates_scanned"] == 125000
    # color 1 is {1, 43, 44}, colors 2-7 pair k with k + 43, the other 35
    # values of [1, 50] are alone in their class: 9 + 6 * 4 + 35
    assert result["pairs_indexed"] == result["lookups"] == 68
    assert result["subject"] == ("equation", 1, 1, 1, 1, 1)


def test_verify_mod_probe():
    code, text = run(
        [
            "verify", "1", "1", "1", "1", "1",
            "--mod", "3", "--lo", "1", "--hi", "12", "--stop-on-find",
        ]
    )
    assert code == EXIT_OK
    assert "monochromatic solutions: 1" in text


def test_verify_stop_on_find_ignores_threads():
    code, text = run(
        [
            "verify", "1", "1", "1", "1", "1", "--mod", "3", "--lo", "1",
            "--hi", "12", "--stop-on-find", "--threads", "2", "--json",
        ]
    )
    assert code == EXIT_OK
    result = decode_value(json.loads(text)["result"])
    assert result["solutions_found"] == 1
    w, x, y, z = result["found"]
    assert x + y == w * z
    assert len({v % 3 for v in (w, x, y, z)}) == 1
    assert all(1 <= v <= 12 for v in (w, x, y, z))


# ---------------------------------------------------------------------------
# columns


def test_columns_certified(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("# Schur triple\n1 1 -1\n")
    code, text = run(["columns", str(mat)])
    assert code == EXIT_OK
    assert "columns condition holds" in text
    assert "C1 = {1, 3}" in text
    assert "C2 = {2}" in text


def test_columns_refused(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("2 3 -1\n")
    code, text = run(["columns", str(mat)])
    assert code == EXIT_OK
    assert "no columns-condition certificate" in text


def test_columns_rational_entries(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("1/2 1/2 -1/2\n")
    code, text = run(["columns", str(mat), "--json"])
    assert code == EXIT_OK
    result = decode_value(json.loads(text)["result"])
    assert result["ordered_partition"][0] == frozenset({1, 3})


def test_columns_dimension_budget(tmp_path):
    mat = tmp_path / "wide.txt"
    mat.write_text(" ".join(["1"] * 17) + "\n")
    assert run(["columns", str(mat)])[0] == EXIT_BUDGET


# ---------------------------------------------------------------------------
# density


def test_density_single_target():
    code, text = run(["density", "3", "2", "--bound", "1000"])
    assert code == EXIT_OK
    assert "admissible=167 hits=111 density=111/167" in text


def test_density_joint():
    code, text = run(["density", "4", "36", "9", "--bound", "1000"])
    assert code == EXIT_OK
    assert "targets 36, 9 n=4 bound=1000" in text
    assert "none=" in text


def test_density_csv(tmp_path):
    path = tmp_path / "rows.csv"
    code, text = run(["density", "2", "2", "3", "--bound", "100", "--csv", str(path)])
    assert code == EXIT_OK
    assert f"wrote 23 rows to {path}" in text
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "prime,mod24,hit_2,hit_3"
    assert len(lines) == 24


def test_density_bound_is_the_sieve_bound(tmp_path, capsys):
    # --bound is how far a survey runs, so the report's config names it as
    # the sieve bound and leaves the witness bound at its default
    witness_default = RunConfig().witness_bound
    for argv in (["density", "3", "2"], ["density", "4", "36", "9"]):
        code, text = run(argv + ["--bound", "1000", "--json"])
        assert code == EXIT_OK
        rep = json.loads(text)
        assert rep["config"]["sieve_bound"] == rep["result"]["prime_bound"] == 1000
        assert rep["config"]["witness_bound"] == witness_default
    path = tmp_path / "rows.csv"
    code, text = run(["density", "2", "2", "3", "--bound", "100", "--csv", str(path), "--json"])
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["config"]["sieve_bound"] == 100
    assert rep["config"]["witness_bound"] == witness_default
    assert rep["result"]["rows"] == 23
    capsys.readouterr()
    assert run(["density", "2", "3", "--bound", "0"])[0] == EXIT_USAGE
    assert "sieve_bound must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sieve cache plumbing


def test_sieve_cache_flag(tmp_path):
    cache = tmp_path / "primes.bin"
    code, text = run(
        ["witness", "2", "2", "3", "5", "--bound", "5000", "--sieve-cache", str(cache)]
    )
    assert code == EXIT_OK and "witness prime 43" in text
    assert cache.exists()


def test_sieve_cache_env(tmp_path, monkeypatch):
    cache = tmp_path / "env_primes.bin"
    monkeypatch.setenv("PARREG_SIEVE_CACHE", str(cache))
    code, text = run(["witness", "2", "2", "3", "5", "--bound", "5000"])
    assert code == EXIT_OK and "witness prime 43" in text
    assert cache.exists()


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_matches_fixture():
    code, text = run(["reproduce"])
    assert code == EXIT_OK
    assert "21/21 rows match" in text
    assert text.count("PASS") == 21
    assert "FAIL" not in text


def test_reproduction_table_builds_each_column_once(monkeypatch):
    # 16 at n = 8, then one pass over 4, -4, 9 and 36 at n = 4
    built = {"columns": 0, "exponents": 0}

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(density, "_residue_column", counted("columns", density._residue_column))
    monkeypatch.setattr(density, "_exponents", counted("exponents", density._exponents))
    cli.reproduction_table(RunConfig())
    assert built == {"columns": 5, "exponents": 2}


def test_reproduce_diff_detected(monkeypatch):
    monkeypatch.setattr(
        cli, "reproduction_table", lambda config, prime_sieve=None: {"x": 1, "y": 2}
    )
    monkeypatch.setattr(cli, "_fixture", lambda: {"x": 1, "y": 3})
    code, text = run(["reproduce"])
    assert code == EXIT_DIFF
    assert "PASS  x" in text and "FAIL  y" in text
    assert "1/2 rows match" in text


def test_reproduce_json_report():
    code, text = run(["reproduce", "--json"])
    assert code == EXIT_OK
    rep = json.loads(text)
    assert (rep["schema"], rep["command"]) == ("parreg-report/1", "reproduce")
    assert rep["config"]["output"] == "json"
    assert rep["result"] == {"matched": 21, "rows": 21, "failures": []}
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"


def test_reproduce_json_reports_drift(monkeypatch):
    fixture = cli._fixture()
    drifted = dict(fixture)
    drifted["identity-16-eighth-powers"] = {"density": "1", "admissible": 9590}
    drifted["gone"] = {"none": 0}
    monkeypatch.setattr(cli, "_fixture", lambda: drifted)
    code, text = run(["reproduce", "--json"])
    assert code == EXIT_DIFF
    result = json.loads(text)["result"]
    assert result == {
        "matched": 20,
        "rows": 22,
        "failures": [
            {"name": "gone", "expected": {"none": 0}, "got": None},
            {
                "name": "identity-16-eighth-powers",
                "expected": {"density": "1", "admissible": 9590},
                "got": fixture["identity-16-eighth-powers"],
            },
        ],
    }
    code, text = run(["reproduce"])
    assert code == EXIT_DIFF
    assert "FAIL  gone" in text and "FAIL  identity-16-eighth-powers" in text
    assert text.endswith("20/22 rows match\n")


def test_reproduce_emit(monkeypatch):
    monkeypatch.setattr(
        cli, "reproduction_table", lambda config, prime_sieve=None: {"x": 1}
    )
    code, text = run(["reproduce", "--emit"])
    assert code == EXIT_OK
    assert json.loads(text) == {"x": 1}
    assert run(["reproduce", "--emit", "--json"]) == (EXIT_OK, text)


def test_reproduce_emit_bytes(monkeypatch):
    tables = []
    real = cli.reproduction_table

    def recorded(config, prime_sieve=None):
        tables.append(real(config, prime_sieve=prime_sieve))
        return tables[-1]

    monkeypatch.setattr(cli, "reproduction_table", recorded)
    code, text = run(["reproduce", "--emit"])
    assert code == EXIT_OK
    assert text == json.dumps(tables[0], indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# every --json report is in canonical form, checked with json alone


def test_json_reports_are_canonical(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("16 17 1\n33 4063 1\n")
    mat = tmp_path / "m.txt"
    mat.write_text("1 1 -1\n")
    commands = [
        ["classify", "2", "3", "1", "1", "2"],
        ["classify", "16", "17", "1", "1", "8", "--bound", "2000"],
        ["system", str(rows), "8", "--bound", "2000"],
        ["witness", "2", "2", "3", "5"],
        ["witness", "8", "3", "13", "16", "--bound", "20000"],
        ["verify", "1", "1", "1", "1", "1", "--p", "43", "--lo", "1", "--hi", "50"],
        ["columns", str(mat)],
        ["density", "3", "2", "--bound", "1000"],
        ["density", "4", "36", "9", "--bound", "1000"],
    ]
    seen = set()
    for argv in commands:
        code, text = run(argv + ["--json"])
        assert code == EXIT_OK, argv
        rep = json.loads(text)
        seen.add(rep["command"])
        assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n", argv
    assert seen == {"classify", "system", "witness", "verify", "columns", "density"}


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(cli.DegenerateInput):
        parse_rational("x")
    with pytest.raises(cli.DegenerateInput):
        parse_rational("1/0")


def test_read_files_strip_comments(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("# leading comment\n1 1 -1  # trailing\n\n2 0 1\n")
    M = read_matrix_file(str(mat))
    assert M.entries == ((Fraction(1), Fraction(1), Fraction(-1)),
                         (Fraction(2), Fraction(0), Fraction(1)))
    rows = tmp_path / "r.txt"
    rows.write_text("1 -1 1\n2 3 1\n")
    assert read_rows_file(str(rows)) == ((1, -1, 1), (2, 3, 1))


def test_error_messages_go_to_stderr(capsys):
    code = main(["classify", "0", "1", "1", "1", "1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err
