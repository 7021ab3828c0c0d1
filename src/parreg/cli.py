"""Command-line surface: classify, system, witness, verify, columns, density,
reproduce.  Reports print as text or as versioned JSON ("parreg-report/1")
with exact round-tripping of every verdict.

Exit codes: 0 completed (UNKNOWN included), 1 reproduction diff failed,
2 invalid input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_str

from .arith import (
    BadReduction,
    DEFAULT_FACTOR_BUDGET,
    DegenerateInput,
    FactorizationBudgetExceeded,
    load_or_build_sieve,
)
from .classify import (
    Certificate,
    EquationSpec,
    SystemSpec,
    Verdict,
    classify_equation,
    classify_system,
)
from .coloring import (
    ModColoring,
    SearchBox,
    ValuationColoring,
    verify_no_mono_solution,
)
from .density import (
    MAX_PREDICTED_N,
    MAX_PREDICTED_TARGETS,
    _hits_outside,
    _joint_survey,
    _pass,
    _targets,
    joint_survey,
    survey,
    write_csv,
)
from .radolinear import (
    DimensionLimitExceeded,
    QMatrix,
    columns_condition,
    verify_columns_certificate,
)
from .witness import WitnessPrime, find_witness_prime

SCHEMA = "parreg-report/1"

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    witness_bound: int = 10**6
    box_half_width: int = 300
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    sieve_bound: int = 10**5
    output: str = "text"
    threads: int = 1

    def __post_init__(self):
        if self.output not in ("text", "json"):
            raise DegenerateInput(f"output must be 'text' or 'json', not {self.output!r}")
        for name in ("witness_bound", "box_half_width", "factor_budget", "sieve_bound", "threads"):
            if getattr(self, name) < 1:
                raise DegenerateInput(f"{name} must be positive")


# ---------------------------------------------------------------------------
# JSON encoding: tagged, exact, reversible


def encode_value(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str, float)):
        return v
    if isinstance(v, Fraction):
        return {"$rat": f"{v.numerator}/{v.denominator}"}
    if isinstance(v, tuple):
        return {"$tuple": [encode_value(x) for x in v]}
    if isinstance(v, list):
        return [encode_value(x) for x in v]
    if isinstance(v, frozenset):
        return {"$frozenset": sorted((encode_value(x) for x in v), key=repr)}
    if isinstance(v, WitnessPrime):
        return {
            "$wp": {
                "p": v.p,
                "n": v.n,
                "targets": encode_value(v.targets),
                "lower_bound_satisfied": v.lower_bound_satisfied,
            }
        }
    if isinstance(v, EquationSpec):
        return {"$eq": [v.a, v.b, v.c, v.m, v.n]}
    if isinstance(v, SystemSpec):
        return {"$sys": {"rows": encode_value(v.rows), "n": v.n}}
    if isinstance(v, Certificate):
        return {
            "$cert": {
                "kind": v.kind,
                "rule": v.rule,
                "domain": v.domain,
                "verdict": v.verdict,
                "data": encode_value(v.data),
            }
        }
    if isinstance(v, Verdict):
        return {
            "$verdict": {
                "subject": encode_value(v.subject),
                "status_N": v.status_N,
                "status_Z": v.status_Z,
                "status_Q": v.status_Q,
                "certificates": encode_value(v.certificates),
                "reasons": encode_value(v.reasons),
            }
        }
    if isinstance(v, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in v):
            return {k: encode_value(x) for k, x in v.items()}
        return {"$map": [[encode_value(k), encode_value(x)] for k, x in v.items()]}
    raise TypeError(f"cannot encode {type(v).__name__}")


_TAGS = {"$rat", "$tuple", "$frozenset", "$wp", "$eq", "$sys", "$cert", "$verdict", "$map"}


def decode_value(v):
    if isinstance(v, list):
        return [decode_value(x) for x in v]
    if not isinstance(v, dict):
        return v
    if len(v) == 1:
        (tag, body), = v.items()
        if tag in _TAGS:
            if tag == "$rat":
                return Fraction(body)
            if tag == "$tuple":
                return tuple(decode_value(x) for x in body)
            if tag == "$frozenset":
                return frozenset(decode_value(x) for x in body)
            if tag == "$wp":
                return WitnessPrime(
                    p=body["p"],
                    n=body["n"],
                    targets=decode_value(body["targets"]),
                    lower_bound_satisfied=body["lower_bound_satisfied"],
                )
            if tag == "$eq":
                return EquationSpec(*body)
            if tag == "$sys":
                return SystemSpec(decode_value(body["rows"]), body["n"])
            if tag == "$cert":
                return Certificate(
                    kind=body["kind"],
                    rule=body["rule"],
                    domain=body["domain"],
                    verdict=body["verdict"],
                    data=decode_value(body["data"]),
                )
            if tag == "$verdict":
                return Verdict(
                    subject=decode_value(body["subject"]),
                    status_N=body["status_N"],
                    status_Z=body["status_Z"],
                    status_Q=body["status_Q"],
                    certificates=decode_value(body["certificates"]),
                    reasons=decode_value(body["reasons"]),
                )
            if tag == "$map":
                return {decode_value(k): decode_value(x) for k, x in body}
    return {k: decode_value(x) for k, x in v.items()}


def report(command: str, config: RunConfig, result) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": asdict(config),
        "result": encode_value(result),
    }


def canonical_json(v) -> str:
    """The bytes of ``json.dumps(v, indent=2, sort_keys=True)``, written in
    one walk.  CPython's C encoder ignores ``indent``, so ``json`` would run
    its pure-Python generator chain instead, at about three times the cost.

    Exact ``str`` and ``int`` values, dicts, lists and tuples are written
    here; every other value goes to ``json.dumps``, so floats (``NaN``,
    ``Infinity``), ``int``/``str`` subclasses and unencodable objects come
    out, or fail, exactly as ``json`` has them.  Dict keys must be strings
    (``encode_value`` makes no other kind); any other key raises
    ``TypeError``.
    """
    parts = []
    _write(v, "\n", parts.append)
    return "".join(parts)


def _write(v, nl, put) -> None:
    # module-level rather than a closure in canonical_json: a recursive
    # closure is a reference cycle per report, which only the cyclic
    # collector frees
    t = type(v)
    if t is str:
        put(_json_str(v))
    elif t is int:
        put(int.__repr__(v))
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            put(sep + _json_str(k) + ": ")
            _write(v[k], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            put(sep)
            _write(x, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif v is None:
        put("null")
    elif v is True:
        put("true")
    elif v is False:
        put("false")
    else:
        put(json.dumps(v))


def emit(out, rep: dict, config: RunConfig, text_lines) -> None:
    if config.output == "json":
        out.write(canonical_json(rep) + "\n")
    else:
        for line in text_lines:
            out.write(line + "\n")


# ---------------------------------------------------------------------------
# Text rendering


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cert_line(cert: Certificate) -> str:
    bits = [f"[{cert.rule}]", cert.kind, f"{cert.verdict} over {cert.domain}"]
    d = cert.data
    if cert.kind == "rational_root":
        bits.append(f"{d['which']} = {_frac(d['ratio'])} = ({_frac(d['root'])})^{d['n']}")
    elif cert.kind == "witness":
        w = d["witness"]
        bits.append(f"p={w.p}")
        if d.get("supporting"):
            bits.append("(supporting)")
    elif cert.kind == "padic":
        bits.append(f"p={d['p']} v={d['v']}")
    elif cert.kind == "system_intersection":
        inter = ", ".join(_frac(q) for q in d["intersection"])
        bits.append(f"I={{{inter}}}")
    return "  " + " ".join(bits)


def verdict_lines(v: Verdict) -> list:
    if isinstance(v.subject, EquationSpec):
        e = v.subject
        head = f"equation {e.a}x + {e.b}y = {e.c} w^{e.m} z^{e.n}"
    else:
        rows = "; ".join(f"({a},{b},{c})" for a, b, c in v.subject.rows)
        head = f"system n={v.subject.n} rows {rows}"
    lines = [
        head,
        f"  N: {v.status_N}   Z\\{{0}}: {v.status_Z}   Q\\{{0}}: {v.status_Q}",
    ]
    lines.extend(_cert_line(c) for c in v.certificates)
    for r in v.reasons:
        lines.append(f"  reason: {r}")
    return lines


# ---------------------------------------------------------------------------
# Input files


def parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise DegenerateInput(f"bad rational {tok!r}") from e


def _data_lines(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    out = []
    for line in raw:
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def read_matrix_file(path: str) -> QMatrix:
    rows = [[parse_rational(t) for t in line.split()] for line in _data_lines(path)]
    if not rows:
        raise DegenerateInput(f"{path}: no matrix rows")
    return QMatrix.from_rows(rows)


def read_rows_file(path: str):
    rows = []
    for line in _data_lines(path):
        toks = line.split()
        if len(toks) != 3:
            raise DegenerateInput(f"{path}: each row needs exactly a b c")
        vals = []
        for t in toks:
            q = parse_rational(t)
            if q.denominator != 1:
                raise DegenerateInput(f"{path}: row coefficients must be integers")
            vals.append(q.numerator)
        rows.append(tuple(vals))
    if not rows:
        raise DegenerateInput(f"{path}: no rows")
    return tuple(rows)


# ---------------------------------------------------------------------------
# Commands


def _config_from(args, bound_field: str = "witness_bound") -> RunConfig:
    """The command's `RunConfig`; `--bound` sets `bound_field`."""
    bound = {} if args.bound is None else {bound_field: args.bound}
    return RunConfig(
        box_half_width=args.box if args.box is not None else 300,
        factor_budget=DEFAULT_FACTOR_BUDGET,
        output="json" if args.json else "text",
        threads=args.threads if args.threads is not None else 1,
        **bound,
    )


def _sieve_from(args, bound: int):
    path = args.sieve_cache or os.environ.get("PARREG_SIEVE_CACHE")
    if not path:
        return None
    return load_or_build_sieve(path, bound)


def cmd_classify(args, out) -> int:
    config = _config_from(args)
    eq = EquationSpec(args.a, args.b, args.c, args.m, args.n)
    sieve = _sieve_from(args, config.witness_bound)
    v = classify_equation(eq, config=config, prime_sieve=sieve)
    emit(out, report("classify", config, v), config, verdict_lines(v))
    return EXIT_OK


def cmd_system(args, out) -> int:
    config = _config_from(args)
    rows = read_rows_file(args.rows_file)
    sys_spec = SystemSpec(rows, args.n)
    sieve = _sieve_from(args, config.witness_bound)
    v = classify_system(sys_spec, config=config, prime_sieve=sieve)
    emit(out, report("system", config, v), config, verdict_lines(v))
    return EXIT_OK


def cmd_witness(args, out) -> int:
    config = _config_from(args)
    targets = [parse_rational(t) for t in args.targets]
    sieve = _sieve_from(args, config.witness_bound)
    w = find_witness_prime(
        targets,
        args.n,
        min_exclusive=args.min_exclusive,
        search_bound=config.witness_bound,
        prime_sieve=sieve,
        workers=config.threads,
    )
    if w is None:
        lines = [f"no witness prime <= {config.witness_bound}"]
    else:
        lines = [f"witness prime {w.p} (n={w.n})"] + [
            f"  {_frac(q)}: n-th power residue = {flag}" for q, flag in w.targets
        ]
    emit(out, report("witness", config, w), config, lines)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    config = _config_from(args)
    eq = EquationSpec(args.a, args.b, args.c, args.m, args.n)
    if args.mod is not None:
        coloring = ModColoring(args.mod, tuple(range(args.mod)))
    else:
        coloring = ValuationColoring(args.p)
    lo = args.lo if args.lo is not None else -config.box_half_width
    hi = args.hi if args.hi is not None else config.box_half_width
    box = SearchBox(lo, hi)
    rep = verify_no_mono_solution(
        eq,
        coloring,
        box,
        engine=args.engine,
        workers=config.threads,
        stop_on_find=args.stop_on_find,
    )
    lines = [
        f"box [{lo},{hi}] engine={args.engine} scanned={rep.candidates_scanned}"
        f" pairs_indexed={rep.pairs_indexed} lookups={rep.lookups}",
        f"monochromatic solutions: {rep.solutions_found}"
        + (f", first {rep.found}" if rep.found else ""),
        f"caveat: {rep.caveat}",
    ]
    result = {
        "subject": rep.subject,
        "box": (box.lo, box.hi, box.exclude_zero),
        "found": rep.found,
        "candidates_scanned": rep.candidates_scanned,
        "pairs_indexed": rep.pairs_indexed,
        "lookups": rep.lookups,
        "solutions_found": rep.solutions_found,
        "elapsed": rep.elapsed,
        "caveat": rep.caveat,
    }
    emit(out, report("verify", config, result), config, lines)
    return EXIT_OK


def cmd_columns(args, out) -> int:
    config = _config_from(args)
    M = read_matrix_file(args.matrix_file)
    cert = columns_condition(M)
    if cert is None:
        lines = ["no columns-condition certificate"]
        result = None
    else:
        if not verify_columns_certificate(M, cert):
            raise AssertionError("produced certificate failed re-verification")
        lines = ["columns condition holds"]
        for i, block in enumerate(cert.ordered_partition, start=1):
            lines.append(f"  C{i} = {{{', '.join(str(j) for j in sorted(block))}}}")
        result = {
            "ordered_partition": cert.ordered_partition,
            "span_witnesses": cert.span_witnesses,
        }
    emit(out, report("columns", config, result), config, lines)
    return EXIT_OK


def _predicted(d) -> str:
    if d is None:
        return (
            f"unknown (n > {MAX_PREDICTED_N}, more than {MAX_PREDICTED_TARGETS}"
            " targets, or factoring budget spent)"
        )
    return f"{_frac(d)} ~ {float(d):.4f}"


def cmd_density(args, out) -> int:
    config = _config_from(args, "sieve_bound")
    targets = [parse_rational(t) for t in args.targets]
    bound = config.sieve_bound
    sieve = _sieve_from(args, bound)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            rows = write_csv(fh, targets, args.n, bound, prime_sieve=sieve)
        lines = [f"wrote {rows} rows to {args.csv}"]
        result = {"csv": args.csv, "rows": rows}
    elif len(targets) == 1:
        s = survey(targets[0], args.n, bound, prime_sieve=sieve)
        lines = [
            f"target {_frac(s.target)} n={s.n} bound={s.prime_bound}",
            f"admissible={s.admissible_count} hits={s.hit_count} "
            f"density={_frac(s.density)} ~ {float(s.density):.4f}",
            f"predicted={_predicted(s.predicted)}",
        ]
        result = asdict(s)
    else:
        j = joint_survey(targets, args.n, bound, prime_sieve=sieve)
        lines = [
            f"targets {', '.join(_frac(q) for q in j.targets)} n={j.n} bound={j.prime_bound}",
            f"admissible={j.admissible_count} at_least_one={j.at_least_one} "
            f"all={j.all_targets} none={j.none}",
            f"predicted none={_predicted(j.predicted_none)}",
        ]
        result = asdict(j)
    emit(out, report("density", config, result), config, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reproduction suite


def _verdict_row(v: Verdict) -> dict:
    row = {
        "status_N": v.status_N,
        "status_Z": v.status_Z,
        "status_Q": v.status_Q,
        "rules": sorted({c.rule for c in v.certificates}),
    }
    padic = [c for c in v.certificates if c.kind == "padic"]
    if padic:
        row["padic_p"] = padic[0].data["p"]
    return row


def reproduction_table(config: RunConfig, prime_sieve=None) -> dict:
    """Every reproducible claim as one named row; values must match the
    committed fixture exactly.
    """
    rows = {}

    def eq(name, a, b, c, m, n):
        v = classify_equation(
            EquationSpec(a, b, c, m, n), config=config, prime_sieve=prime_sieve
        )
        rows[name] = _verdict_row(v)

    def system(name, srows, n):
        v = classify_system(
            SystemSpec(srows, n), config=config, prime_sieve=prime_sieve
        )
        rows[name] = _verdict_row(v)

    eq("padic-3x+13y=wz8", 3, 13, 1, 1, 8)
    eq("padic-16x+16y=wz8", 16, 16, 1, 1, 8)
    eq("padic-60x+90y=wz2", 60, 90, 1, 1, 2)
    eq("padic-81x+729y=wz12", 81, 729, 1, 1, 12)
    eq("padic-32400x+57600y=wz4", 32400, 57600, 1, 1, 4)
    eq("open-16x+17y=wz8", 16, 17, 1, 1, 8)
    eq("open-33x+4063y=wz8", 33, 4063, 1, 1, 8)

    system("system-i", ((32400, 57600, 1), (15210000, 87609600, 1)), 4)
    system("system-ii", ((16, 17, 1), (33, 4063, 1)), 8)
    system("system-iii", ((8, 27, 1), (27, 343, 1), (343, 8, 1)), 3)
    iv = ((9, 16, 1), (25, -9, 1), (25, -16, 1), (9, 7, 1))
    system("system-iv", iv, 2)
    for drop in range(4):
        kept = tuple(r for i, r in enumerate(iv) if i != drop)
        system(f"system-iv-minus-row{drop + 1}", kept, 2)
    system("open-system-16,17-33,-17", ((16, 17, 1), (33, -17, 1)), 8)
    system("open-system-625,729--104,729", ((625, 729, 1), (-104, 729, 1)), 12)

    bound = config.sieve_bound
    s16 = survey(16, 8, bound, prime_sieve=prime_sieve)
    rows["identity-16-eighth-powers"] = {
        "density": _frac(s16.density),
        "admissible": s16.admissible_count,
    }
    # one pass over the columns of 4, -4, 9 and 36 at n = 4 gives every row below
    qs = _targets((4, -4, 9, 36))
    counts = _pass(qs, 4, bound, prime_sieve)
    j4 = _joint_survey(qs, 4, bound, counts, (0, 1))
    rows["identity-4,-4-fourth-powers"] = {"none": j4.none, "admissible": j4.admissible_count}
    j36 = _joint_survey(qs, 4, bound, counts, (3, 2))
    rows["pair-36,9-fourth-powers"] = {
        "none": j36.none,
        "admissible": j36.admissible_count,
        "hits36-is-p-not-13-mod-24": _hits_outside(counts, 3, {13}),
        "hits36-is-p-not-13-17-mod-24": _hits_outside(counts, 3, {13, 17}),
    }
    j6 = _joint_survey(qs, 4, bound, counts, (0, 2, 3))
    rows["identity-4,9,36-fourth-powers"] = {
        "none": j6.none,
        "admissible": j6.admissible_count,
    }
    return rows


def _fixture() -> dict:
    ref = resources.files("parreg").joinpath("data/reproduce_expected.json")
    with ref.open(encoding="utf-8") as fh:
        return json.load(fh)


def cmd_reproduce(args, out) -> int:
    config = _config_from(args)
    sieve = _sieve_from(args, config.witness_bound)
    table = reproduction_table(config, prime_sieve=sieve)
    current = json.loads(json.dumps(table, sort_keys=True))
    if args.emit:
        out.write(canonical_json(current) + "\n")
        return EXIT_OK
    expected = _fixture()
    names = sorted(set(expected) | set(current))
    failures = [
        {"name": name, "expected": expected.get(name), "got": current.get(name)}
        for name in names
        if expected.get(name) != current.get(name)
    ]
    failed = {f["name"] for f in failures}
    matched = len(names) - len(failures)
    lines = [f"{'FAIL' if name in failed else 'PASS'}  {name}" for name in names]
    lines += [f"  {f['name']}: expected {f['expected']!r}, got {f['got']!r}" for f in failures]
    lines.append(f"{matched}/{len(names)} rows match")
    result = {"matched": matched, "rows": len(names), "failures": failures}
    emit(out, report("reproduce", config, result), config, lines)
    return EXIT_OK if not failures else EXIT_DIFF


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=int, default=None, help="witness/prime search bound")
    p.add_argument("--box", type=int, default=None, help="box half-width for scans")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--threads", type=int, default=None, help="worker processes")
    p.add_argument("--sieve-cache", default=None, help="prime sieve cache file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parreg",
        description="partition-regularity verdicts and certificates for a*x + b*y = c*w^m*z^n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one equation")
    for name in ("a", "b", "c", "m", "n"):
        p.add_argument(name, type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("system", help="classify a system from a rows file")
    p.add_argument("rows_file")
    p.add_argument("n", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("witness", help="smallest witness prime for targets")
    p.add_argument("n", type=int)
    p.add_argument("targets", nargs="+")
    p.add_argument("--min-exclusive", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="exhaustive monochromatic-solution scan")
    for name in ("a", "b", "c", "m", "n"):
        p.add_argument(name, type=int)
    coloring = p.add_mutually_exclusive_group(required=True)
    coloring.add_argument("--p", type=int, help="valuation coloring prime")
    coloring.add_argument("--mod", type=int, help="probe: residue coloring")
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.add_argument("--engine", choices=("bucketed", "full"), default="bucketed")
    p.add_argument("--stop-on-find", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("columns", help="columns condition for a matrix file")
    p.add_argument("matrix_file")
    _add_common(p)
    p.set_defaults(fn=cmd_columns)

    p = sub.add_parser("density", help="power-residue density survey")
    p.add_argument("n", type=int)
    p.add_argument("targets", nargs="+")
    p.add_argument("--csv", default=None, help="write per-prime rows to a CSV file")
    _add_common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("reproduce", help="re-run the regression table and diff")
    p.add_argument("--emit", action="store_true", help="print the current table")
    _add_common(p)
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.fn(args, out)
    except (DegenerateInput, BadReduction, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionLimitExceeded, FactorizationBudgetExceeded) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
