"""Command-line surface: exit codes, JSON report round-tripping, the report
writer's bytes, input file parsing, and the reproduction diff.
"""

import io
import json
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg.arith as arith
import parreg.cli as cli
from parreg.arith import load_sieve, save_sieve
from parreg.classify import (
    Certificate,
    EquationSpec,
    SystemSpec,
    Verdict,
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
from parreg.density import joint_survey, survey
from parreg.radolinear import QMatrix, columns_condition
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
# report writer: canonical_json(v) is the bytes of
# json.dumps(T, indent=2, sort_keys=True) for v's tagged form T


def reference_encode(v):
    """The tagged form, built as a tree one value at a time: the oracle the
    one-walk writer is pinned against."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str, float)):
        return v
    if isinstance(v, Fraction):
        return {"$rat": f"{v.numerator}/{v.denominator}"}
    if isinstance(v, tuple):
        return {"$tuple": [reference_encode(x) for x in v]}
    if isinstance(v, list):
        return [reference_encode(x) for x in v]
    if isinstance(v, frozenset):
        return {"$frozenset": sorted((reference_encode(x) for x in v), key=repr)}
    if isinstance(v, WitnessPrime):
        return {
            "$wp": {
                "p": v.p,
                "n": v.n,
                "targets": reference_encode(v.targets),
                "lower_bound_satisfied": v.lower_bound_satisfied,
            }
        }
    if isinstance(v, EquationSpec):
        return {"$eq": [v.a, v.b, v.c, v.m, v.n]}
    if isinstance(v, SystemSpec):
        return {"$sys": {"rows": reference_encode(v.rows), "n": v.n}}
    if isinstance(v, Certificate):
        return {
            "$cert": {
                "kind": v.kind,
                "rule": v.rule,
                "domain": v.domain,
                "verdict": v.verdict,
                "data": reference_encode(v.data),
            }
        }
    if isinstance(v, Verdict):
        return {
            "$verdict": {
                "subject": reference_encode(v.subject),
                "status_N": v.status_N,
                "status_Z": v.status_Z,
                "status_Q": v.status_Q,
                "certificates": reference_encode(v.certificates),
                "reasons": reference_encode(v.reasons),
            }
        }
    if isinstance(v, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in v):
            return {k: reference_encode(x) for k, x in v.items()}
        return {"$map": [[reference_encode(k), reference_encode(x)] for k, x in v.items()]}
    raise TypeError(f"cannot encode {type(v).__name__}")


def stdlib_bytes(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True)


def reference_bytes(v) -> str:
    return stdlib_bytes(reference_encode(v))


def has_dollar_key(v) -> bool:
    if isinstance(v, list):
        return any(map(has_dollar_key, v))
    if isinstance(v, dict):
        return any(k.startswith("$") or has_dollar_key(x) for k, x in v.items())
    return False


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
equation_specs = st.builds(
    EquationSpec, nonzero, nonzero, nonzero, st.integers(1, 12), st.integers(1, 12)
)
system_specs = st.builds(
    SystemSpec,
    st.lists(st.tuples(nonzero, nonzero, nonzero), min_size=1, max_size=3).map(tuple),
    st.integers(1, 12),
)
witness_primes = st.builds(
    WitnessPrime,
    st.integers(2, 10**6),
    st.integers(1, 24),
    st.lists(st.tuples(st.fractions(), st.booleans()), max_size=3).map(tuple),
    st.booleans(),
)
# frozenset members of every hashable tagged type: their order is the repr
# of their tagged form
hashable_leaves = st.one_of(
    st.integers(-(2**70), 2**70), any_text, st.fractions(), st.booleans(), st.none(),
)
hashable_values = st.recursive(
    st.one_of(hashable_leaves, equation_specs, system_specs, witness_primes),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.frozensets(inner, max_size=3)
    ),
    max_leaves=8,
)
program_values = st.recursive(
    st.one_of(
        json_leaves, st.fractions(), equation_specs, system_specs, witness_primes,
        st.frozensets(hashable_values, max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(any_text, inner, max_size=3),
        st.dictionaries(hashable_values, inner, max_size=3),
        st.builds(
            Certificate, any_text, any_text, any_text, any_text,
            st.dictionaries(any_text, inner, max_size=3),
        ),
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_writer_matches_stdlib_on_json_values(v):
    text = canonical_json(v)
    assert text == reference_bytes(v)
    # a "$" key makes a dict a $map; every other JSON value is its own form
    if not has_dollar_key(v):
        assert text == stdlib_bytes(v)


@given(program_values)
@settings(max_examples=300, deadline=None)
def test_writer_matches_stdlib_on_encoded_values(v):
    text = canonical_json(v)
    assert text == reference_bytes(v)
    # compared as text, where NaN equals itself
    assert stdlib_bytes(encode_value(v)) == text
    assert canonical_json(decode_value(json.loads(text))) == text


def test_writer_fixed_cases():
    cases = [
        [], {}, [[]], {"a": {}}, [{}, []], "", "\ud800x\udfff", "\x00\x1f\x7f\u2028",
        2**200, -(2**200), -0.0, math.nan, [math.inf, -math.inf, 1e300, 5e-324],
        {"b": [1, True, None], "a": (False, 2.5), "é": "ü😀"},
        (), frozenset(), frozenset({10, 2, -1}), {"$x": 1},
        # field order and sorted key order sort these members differently
        frozenset({WitnessPrime(5, 1, (), False), WitnessPrime(43, 1, (), True)}),
        frozenset({SystemSpec(((1, 1, 1),), 9), SystemSpec(((2, 1, 1),), 1)}),
    ]
    for v in cases:
        assert canonical_json(v) == reference_bytes(v), v
    assert '"$tuple": [' in canonical_json({"a": (False, 2.5)})
    # members sort by the repr of their form: "10" before "2"
    assert json.loads(canonical_json(frozenset({10, 2, -1}))) == {"$frozenset": [-1, 10, 2]}


def test_writer_rejects_non_str_keys():
    # a dict with a key that is not a string, or that starts with "$", is
    # written as a $map; only values with no tagged form are refused
    for key in (1, None, True, 1.5, (1, 2), "$rat"):
        text = canonical_json({key: 1})
        assert text == reference_bytes({key: 1})
        assert json.loads(text) == {"$map": [[reference_encode(key), 1]]}
        assert decode_value(json.loads(text)) == {key: 1}
    for bad in ([object()], {"k": {1, 2}}, {object(): 1}):
        with pytest.raises(TypeError):
            canonical_json(bad)


def _draw_equation(rng):
    def signed(hi):
        v = max(1, round(hi ** rng.random()))
        return v if rng.random() < 0.5 else -v

    a, b, c = signed(10**6), signed(10**6), signed(100)
    return EquationSpec(a, b, c, rng.randint(1, 4), rng.randint(1, 12))


def _draw_system(rng):
    def signed(hi):
        v = rng.randint(1, hi)
        return v if rng.random() < 0.5 else -v

    rows = tuple((signed(10**4), signed(10**4), signed(10)) for _ in range(rng.randint(2, 3)))
    return SystemSpec(rows, rng.randint(2, 12))


def _draw_matrix(rng):
    rows, cols = rng.randint(1, 3), rng.randint(4, 8)
    return QMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])


def _columns_value(M):
    cert = columns_condition(M)
    if cert is None:
        return None
    return {"ordered_partition": cert.ordered_partition, "span_witnesses": cert.span_witnesses}


def test_report_bytes_match_reference_on_traffic():
    rng = random.Random(20211)
    config = RunConfig(output="json")
    requests = [("classify", classify_equation, _draw_equation(rng)) for _ in range(200)]
    requests += [("system", classify_system, _draw_system(rng)) for _ in range(40)]
    requests += [("columns", None, _draw_matrix(rng)) for _ in range(20)]
    kinds = set()
    for command, fn, subject in requests:
        value = _columns_value(subject) if fn is None else fn(subject, config=config)
        text = canonical_json(cli.report(command, config, value))
        want = {
            "schema": "parreg-report/1",
            "command": command,
            "config": asdict(config),
            "result": reference_encode(value),
        }
        assert text == stdlib_bytes(want), subject
        assert decode_value(json.loads(text)["result"]) == value, subject
        kinds.add(type(value).__name__)
        if fn is not None:
            kinds.update(c.kind for c in value.certificates)
    # the sample reaches every tagged form a report holds
    assert {"Verdict", "dict", "NoneType", "witness", "rule", "system_intersection"} <= kinds


RAT_BODIES = [
    "3/7", "-3/7", "6/14", "3/-7", " 3/7", "3 /7", "+3/7", "1_0/3", "3/0", "1.5", "3/7/1", "",
]


@pytest.mark.parametrize("body", RAT_BODIES)
def test_rat_decoding_matches_fraction_str(body):
    try:
        want = Fraction(body)
    except Exception as e:  # the exception type is what must agree
        with pytest.raises(type(e)):
            decode_value({"$rat": body})
    else:
        got = decode_value({"$rat": body})
        assert type(got) is Fraction and got == want


# ---------------------------------------------------------------------------
# config


def _refused_by_config(argv, field, capsys) -> None:
    """argv exits 2 with RunConfig's refusal of field, not argparse's."""
    capsys.readouterr()
    assert run(argv)[0] == EXIT_USAGE, argv
    assert f"{field} must be positive" in capsys.readouterr().err, argv


def test_config_validation(capsys):
    with pytest.raises(cli.DegenerateInput):
        RunConfig(witness_bound=0)
    with pytest.raises(cli.DegenerateInput):
        RunConfig(threads=-1)
    _refused_by_config(["classify", "2", "3", "1", "1", "2", "--bound", "-5"], "witness_bound", capsys)
    _refused_by_config(["verify", "2", "3", "1", "1", "2", "--p", "43", "--threads", "-1"], "threads", capsys)
    assert RunConfig(output="json").output == "json"
    for bad in ("JSON", "Text", "", "yaml"):
        with pytest.raises(cli.DegenerateInput):
            RunConfig(output=bad)


def test_config_refuses_inexact_numbers():
    # "5" raised TypeError from `<`; 10.5 was accepted and failed later,
    # inside classify_equation
    for name in ("witness_bound", "box_half_width", "factor_budget", "sieve_bound", "threads"):
        for bad in ("5", 10.5, 2.0, None):
            with pytest.raises(cli.DegenerateInput):
                RunConfig(**{name: bad})


def test_zero_options_are_rejected(capsys):
    verify = ["verify", "2", "3", "1", "1", "2", "--p", "43"]
    _refused_by_config(verify + ["--box", "0"], "box_half_width", capsys)
    _refused_by_config(verify + ["--threads", "0"], "threads", capsys)
    _refused_by_config(["classify", "2", "3", "1", "1", "2", "--bound", "0"], "witness_bound", capsys)
    _refused_by_config(["density", "2", "3", "--bound", "0"], "sieve_bound", capsys)


# each subcommand, its positional arguments, and the common options it reads
COMMANDS = {
    "classify": (["2", "3", "1", "1", "2"], {"--bound", "--json", "--sieve-cache"}),
    "system": (["rows.txt", "8"], {"--bound", "--json", "--sieve-cache"}),
    "witness": (["2", "2", "3"], {"--bound", "--json", "--sieve-cache"}),
    "verify": (["2", "3", "1", "1", "2", "--p", "43"], {"--box", "--json", "--threads"}),
    "columns": (["matrix.txt"], {"--json"}),
    "density": (["2", "3"], {"--bound", "--json", "--sieve-cache"}),
    "reproduce": ([], {"--bound", "--json", "--sieve-cache"}),
}
# each common option, its argument, and what it sets: a RunConfig field
# (--bound sets density's sieve bound) or, for --sieve-cache, args itself
COMMON = {
    "--bound": (["7"], "witness_bound", 7),
    "--box": (["7"], "box_half_width", 7),
    "--json": ([], "output", "json"),
    "--threads": (["7"], "threads", 7),
    "--sieve-cache": (["primes.bin"], "sieve_cache", "primes.bin"),
}


@pytest.mark.parametrize("option", sorted(COMMON))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_options_it_reads(command, option, capsys):
    positional, reads = COMMANDS[command]
    value, field, want = COMMON[option]
    argv = [command] + positional + [option] + value
    if option not in reads:
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option}" in err and "Traceback" not in err
        return
    args = cli.build_parser().parse_args(argv)
    if field == "sieve_cache":
        assert args.sieve_cache == want
        return
    config = cli._config_from(args)
    if command == "density" and field == "witness_bound":
        field = "sieve_bound"
    # the option sets its field and no other; the rest keep their defaults
    assert asdict(config) == {**asdict(RunConfig()), field: want}


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


def test_verify_refuses_a_box_without_nonzero_integers(capsys):
    eq = ["verify", "2", "3", "1", "1", "2", "--p", "43"]
    # --hi -301 is below the default --lo -300
    for box in (["--lo", "5", "--hi", "-5"], ["--lo", "0", "--hi", "0"], ["--hi", "-301"]):
        assert run(eq + box) == (EXIT_USAGE, ""), box
        assert run(eq + box + ["--json"]) == (EXIT_USAGE, ""), box
        assert "holds no nonzero integer" in capsys.readouterr().err
    for box in (["--lo", "1", "--hi", "1"], ["--lo", "-1", "--hi", "0"]):
        code, text = run(eq + box)
        assert code == EXIT_OK and "scanned=1 " in text, box


def test_verify_json_is_byte_stable():
    argv = ["verify", "2", "3", "1", "1", "2", "--p", "5", "--lo", "1", "--hi", "30", "--json"]
    code, text = run(argv)
    assert code == EXIT_OK
    assert "elapsed" not in json.loads(text)["result"]
    assert run(argv) == (code, text)


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


def test_sieve_cache_serves_every_search(tmp_path, monkeypatch):
    # the file holds primes to 6000, past the 5000 and 4000 asked for, so a
    # run that reads it sieves to 6000, to check it, and no further
    cache = str(tmp_path / "primes.bin")
    save_sieve(arith.sieve(6000), cache)
    sieved = []
    odd_flags = arith._odd_flags

    def counted(bound):
        sieved.append(bound)
        return odd_flags(bound)

    monkeypatch.setattr(arith, "_odd_flags", counted)
    # the process-wide sieve outlives tests: start each run without one
    monkeypatch.setattr(arith, "_sieve_cache", None)
    code, text = run(["witness", "2", "2", "3", "5", "--bound", "5000", "--sieve-cache", cache])
    assert code == EXIT_OK and "witness prime 43" in text
    assert sieved == [6000] and arith._sieve_cache.bound == 6000
    monkeypatch.setattr(arith, "_sieve_cache", None)
    code, text = run(["density", "2", "2", "--bound", "4000", "--sieve-cache", cache])
    assert code == EXIT_OK and "admissible=549" in text
    assert sieved == [6000, 6000] and arith._sieve_cache.bound == 6000


def _cut_by_3(path):
    path.write_bytes(path.read_bytes()[:-3])


def _header_only(path):
    path.write_bytes(path.read_bytes()[:12])


def _first_three_primes(path):
    path.write_bytes(path.read_bytes()[:16] + array("Q", [2, 3, 5]).tobytes())


@pytest.mark.parametrize("damage", [_cut_by_3, _header_only, _first_three_primes])
def test_malformed_sieve_cache_is_rebuilt(tmp_path, monkeypatch, damage):
    cache = tmp_path / "primes.bin"
    save_sieve(arith.sieve(5000), str(cache))
    damage(cache)
    # an empty process-wide sieve, so the file's primes would be the ones used
    monkeypatch.setattr(arith, "_sieve_cache", None)
    code, text = run(
        ["witness", "2", "2", "3", "5", "--bound", "5000", "--sieve-cache", str(cache)]
    )
    assert code == EXIT_OK and "witness prime 43" in text
    assert load_sieve(str(cache)) == arith.sieve(5000)


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_matches_fixture():
    code, text = run(["reproduce"])
    assert code == EXIT_OK
    assert "21/21 rows match" in text
    assert text.count("PASS") == 21
    assert "FAIL" not in text


def test_reproduction_table_builds_each_column_once(monkeypatch):
    # one pass for 16 at n = 8, one for 4, -4, 9 and 36 at n = 4; their
    # elements are 2^4, then the coprime base {2^2, 3^2}, each with n | 2j,
    # so both build one table and count classes of p, with no column per
    # prime
    built = {"table": 0, "fold": 0, "table columns": 0, "power columns": 0}
    elements = []

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)

        return wrapper

    def based(*args):
        base = residue_base(*args)
        elements.append(base[0])
        return base

    residue_base = arith._residue_base
    monkeypatch.setattr(arith, "_residue_base", based)
    for name, fn in (
        ("table", "_quadratic_tables"),
        ("fold", "_table_counts"),
        ("table columns", "_table_columns"),
        ("power columns", "_power_columns"),
    ):
        monkeypatch.setattr(arith, fn, counted(name, getattr(arith, fn)))
    cli.reproduction_table(RunConfig())
    assert built == {"table": 2, "fold": 2, "table columns": 0, "power columns": 0}
    assert elements == [[(2, 4)], [(2, 2), (3, 2)]]


def test_main_builds_one_parser(monkeypatch, capsys):
    # a run of commands through the one parser gives the bytes and exit
    # codes of a fresh parser per call
    argvs = [["reproduce"], ["classify", "2", "3", "1", "1", "2"], ["classify", "x"], ["reproduce"]]

    def through():
        got = []
        for argv in argvs:
            code, text = run(argv)
            got.append((code, text, capsys.readouterr().err))
        return got

    assert cli._parser() is cli._parser()
    once = through()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert through() == once
    assert [code for code, _, _ in once] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert "invalid int value" in once[2][2]


def test_reproduce_diff_detected(monkeypatch):
    monkeypatch.setattr(cli, "reproduction_table", lambda config: {"x": 1, "y": 2})
    monkeypatch.setattr(cli, "_fixture", lambda: {"x": 1, "y": 3})
    code, text = run(["reproduce"])
    assert code == EXIT_DIFF
    assert "PASS  x" in text and "FAIL  y" in text
    assert "1/2 rows match" in text


def test_reproduction_table_is_plain_json():
    # `cmd_reproduce` compares and emits the table as it is built
    table = cli.reproduction_table(RunConfig())
    assert json.loads(json.dumps(table)) == table


def test_reproduce_reads_one_unmutated_fixture(monkeypatch):
    committed = json.loads(
        (Path(cli.__file__).parent / "data" / "reproduce_expected.json").read_text()
    )
    assert cli._fixture() is cli._fixture()
    code, text = run(["reproduce"])
    assert code == EXIT_OK and "21/21 rows match" in text
    built = cli.reproduction_table

    def drifted(config):
        table = built(config)
        table["padic-3x+13y=wz8"]["padic_p"] = 5
        table["identity-4,-4-fourth-powers"]["none"] += 1
        return table

    monkeypatch.setattr(cli, "reproduction_table", drifted)
    code, text = run(["reproduce", "--json"])
    assert code == EXIT_DIFF
    failures = json.loads(text)["result"]["failures"]
    assert [f["name"] for f in failures] == [
        "identity-4,-4-fourth-powers",
        "padic-3x+13y=wz8",
    ]
    monkeypatch.undo()
    code, text = run(["reproduce"])
    assert code == EXIT_OK and "21/21 rows match" in text
    assert cli._fixture() == committed


def test_density_reports_predictions_up_to_the_cap():
    # the reproduction table drops the predictions; every other survey keeps them
    for n in (1, 2, 8, 12, 24):
        assert survey(3, n, 500).predicted is not None, n
        j = joint_survey([2, -3, Fraction(5, 4)], n, 500)
        assert j.predicted_none is not None and j.predicted_subset_hits is not None, n
        code, text = run(["density", str(n), "3", "--bound", "500", "--json"])
        assert code == EXIT_OK and decode_value(json.loads(text)["result"])["predicted"] is not None
        code, text = run(["density", str(n), "2", "-3", "5/4", "--bound", "500", "--json"])
        result = decode_value(json.loads(text)["result"])
        assert code == EXIT_OK
        assert result["predicted_none"] is not None and result["predicted_subset_hits"] is not None


def test_density_text_names_the_prediction_caps():
    # the prediction factors nothing: it is None only past its two caps
    code, text = run(["density", "25", "2", "--bound", "1000"])
    assert code == EXIT_OK
    assert "predicted=unknown (n > 24 or more than 3 targets)" in text.splitlines()
    code, text = run(["density", "2", "2", "3", "5", "7", "--bound", "1000"])
    assert code == EXIT_OK
    assert "predicted none=unknown (n > 24 or more than 3 targets)" in text.splitlines()


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
    monkeypatch.setattr(cli, "reproduction_table", lambda config: {"x": 1})
    code, text = run(["reproduce", "--emit"])
    assert code == EXIT_OK
    assert json.loads(text) == {"x": 1}
    assert run(["reproduce", "--emit", "--json"]) == (EXIT_OK, text)


def test_reproduce_emit_bytes(monkeypatch):
    tables = []
    real = cli.reproduction_table

    def recorded(config):
        tables.append(real(config))
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


def test_python_m_parreg_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["classify", "2", "3", "1", "1", "2"]
    out = subprocess.run(
        [sys.executable, "-m", "parreg", *argv], env=env, capture_output=True, text=True
    )
    assert (out.returncode, out.stdout) == run(argv)
    probe = "import sys, parreg; print('parreg.__main__' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
