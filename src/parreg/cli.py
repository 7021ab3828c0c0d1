"""Command-line surface: classify, system, witness, verify, columns, density,
reproduce.  Reports print as text or as versioned JSON ("parreg-report/1")
with exact round-tripping of every verdict.

Exit codes: 0 completed (UNKNOWN included), 1 reproduction diff failed,
2 invalid input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .arith import (
    BadReduction,
    DEFAULT_FACTOR_BUDGET,
    DegenerateInput,
    FactorizationBudgetExceeded,
    _as_int,
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
    _survey,
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
from .witness import DEFAULT_SEARCH_BOUND, WitnessPrime, find_witness_prime

SCHEMA = "parreg-report/1"

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    witness_bound: int = DEFAULT_SEARCH_BOUND
    box_half_width: int = 300
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    sieve_bound: int = 10**5
    output: str = "text"
    threads: int = 1

    def __post_init__(self):
        if self.output not in ("text", "json"):
            raise DegenerateInput(f"output must be 'text' or 'json', not {self.output!r}")
        for name in ("witness_bound", "box_half_width", "factor_budget", "sieve_bound", "threads"):
            if _as_int(getattr(self, name)) < 1:
                raise DegenerateInput(f"{name} must be positive")


# ---------------------------------------------------------------------------
# JSON encoding: tagged, exact, reversible
#
# A report's JSON is the tagged form of a program value.  A Fraction is
# {"$rat": "n/d"}, a tuple {"$tuple": [...]}, a frozenset {"$frozenset":
# [...]}, a WitnessPrime, EquationSpec, SystemSpec, Certificate or Verdict
# {"$wp" | "$eq" | "$sys" | "$cert" | "$verdict": body}, and a dict with a key
# that is not a string or that starts with "$" is {"$map": [[key, value],
# ...]}.  Lists, other dicts and JSON leaves stand for themselves.


def canonical_json(v) -> str:
    """The canonical text of v's tagged form T: the bytes of
    ``json.dumps(T, indent=2, sort_keys=True)``, written in one walk from v.
    CPython's C encoder ignores ``indent``, so ``json`` would run its
    pure-Python generator chain instead, at about three times the cost.

    Floats and ``int``/``str`` subclasses go to ``json.dumps``, so they come
    out exactly as ``json`` has them (``NaN``, ``Infinity``).  A value of any
    other type raises ``TypeError``.
    """
    parts = []
    _write(v, 0, parts.append)
    return "".join(parts)


def encode_value(v):
    """v's tagged form as a tree of JSON values."""
    return json.loads(canonical_json(v))


def _write(v, d, put) -> None:
    # module-level rather than a closure in canonical_json: a recursive
    # closure is a reference cycle per report, which only the cyclic
    # collector frees
    leaf = _LEAF_TEXT.get(type(v))
    if leaf is not None:
        put(leaf(v))
    else:
        (_WRITERS.get(type(v)) or _subclass_writer(v))(v, d, put)


def _subclass_writer(v):
    """The writer of the first base of type(v) in `_WRITERS`."""
    for base, write in _WRITERS.items():
        if isinstance(v, base):
            return write
    raise TypeError(f"cannot encode {type(v).__name__}")


# the text of the leaves met most often, inlined by the container writers
_LEAF_TEXT = {
    str: _json_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda v: "null",
}

# Every writer takes the indent level d of its value.  Text that depends only
# on d (punctuation, a tag's opening, a record's field names) is made the
# first time its level is met and kept for levels below _DEPTHS; a deeper
# level's is made each time, so no table grows with the input.  The deepest
# `corpus` report reaches level 15.
_DEPTHS = 24


class _ByLevel(dict):
    """make(d) for every indent level d, kept for d < _DEPTHS."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, d):
        text = self.make(d)
        if d < _DEPTHS:
            self[d] = text
        return text


def _nl(d: int) -> str:
    return "\n" + "  " * d


# a container's opening, separator and closer at level d
_LIST = _ByLevel(lambda d: ("[" + _nl(d + 1), "," + _nl(d + 1), _nl(d) + "]"))
_OBJECT = _ByLevel(lambda d: ("{" + _nl(d + 1), "," + _nl(d + 1), _nl(d) + "}"))
_RAT = _ByLevel(lambda d: ("{" + _nl(d + 1) + '"$rat": "', '"' + _nl(d) + "}"))


def _write_json(v, d, put) -> None:
    put(json.dumps(v))


def _write_rat(v, d, put) -> None:
    head, close = _RAT[d]
    put(f"{head}{v.numerator}/{v.denominator}{close}")


def _write_items(items, d, put) -> None:
    if not items:
        put("[]")
        return
    sep, comma, close = _LIST[d]
    d += 1
    for x in items:
        leaf = _LEAF_TEXT.get(type(x))
        if leaf is not None:
            put(sep + leaf(x))
        else:
            put(sep)
            (_WRITERS.get(type(x)) or _subclass_writer(x))(x, d, put)
        sep = comma
    put(close)


def _write_fields(heads, values, d, put) -> None:
    """Each value at level d after its head, the text before it."""
    for head, x in zip(heads, values):
        leaf = _LEAF_TEXT.get(type(x))
        if leaf is not None:
            put(head + leaf(x))
        else:
            put(head)
            (_WRITERS.get(type(x)) or _subclass_writer(x))(x, d, put)


def _write_dict(v, d, put) -> None:
    for k in v:
        if not isinstance(k, str) or k.startswith("$"):
            _write_map(v, d, put)
            return
    if not v:
        put("{}")
        return
    sep, comma, close = _OBJECT[d]
    keys = sorted(v)
    heads = [f"{comma if i else sep}{_json_str(k)}: " for i, k in enumerate(keys)]
    _write_fields(heads, [v[k] for k in keys], d + 1, put)
    put(close)


def _tagged(tag: str, write_body, body=None):
    """The writer of {tag: body(v)}; `body` defaults to v itself."""
    texts = _ByLevel(lambda d: (f'{{{_nl(d + 1)}"{tag}": ', _nl(d) + "}"))

    def write(v, d, put):
        head, close = texts[d]
        put(head)
        write_body(v if body is None else body(v), d + 1, put)
        put(close)

    return write


def _record(tag: str, cls):
    """The writer of a dataclass as {tag: {field: value, ...}}."""
    names = sorted(f.name for f in fields(cls))
    values = attrgetter(*names)
    keys = [_json_str(n) for n in names]

    def make(d):
        # the text before each field's value, the first with both openings
        inner = _nl(d + 2)
        heads = [f'{{{_nl(d + 1)}"{tag}": {{{inner}{keys[0]}: ']
        heads += [f",{inner}{k}: " for k in keys[1:]]
        return heads, _nl(d + 1) + "}" + _nl(d) + "}"

    texts = _ByLevel(make)

    def write(v, d, put):
        heads, close = texts[d]
        _write_fields(heads, values(v), d + 2, put)
        put(close)

    return write


def _member_key(x) -> str:
    """The order of frozenset members: the repr of each member's tagged form
    as a Python tree, whose record bodies hold their fields in declaration
    order.  Only hashable values are members."""
    if isinstance(x, Fraction):
        return repr({"$rat": f"{x.numerator}/{x.denominator}"})
    if isinstance(x, tuple):
        return "{'$tuple': [" + ", ".join(map(_member_key, x)) + "]}"
    if isinstance(x, frozenset):
        return "{'$frozenset': [" + ", ".join(sorted(map(_member_key, x))) + "]}"
    if isinstance(x, EquationSpec):
        return repr({"$eq": [x.a, x.b, x.c, x.m, x.n]})
    tag = next((tag for cls, tag in _RECORDS.items() if isinstance(x, cls)), None)
    if tag is None:
        return repr(x)
    body = ", ".join(f"'{f.name}': {_member_key(getattr(x, f.name))}" for f in fields(x))
    return f"{{'{tag}': {{{body}}}}}"


# the dataclasses written as {tag: {field: value, ...}}
_RECORDS = {WitnessPrime: "$wp", SystemSpec: "$sys", Certificate: "$cert", Verdict: "$verdict"}

_write_map = _tagged("$map", _write_items, lambda v: [[k, x] for k, x in v.items()])


@dataclass(frozen=True)
class _Report:
    """A report document, {"command", "config", "result", "schema"}."""

    command: str
    config: RunConfig
    result: object


@lru_cache(maxsize=16, typed=True)
def _report_text(command, config, d) -> tuple[str, str]:
    """A report's text at level d before and after its result's value.  It
    depends only on (command, config, d), which repeat from report to report:
    a command is one name and a RunConfig's fields are ints and a str, so
    equal keys give equal text."""
    sep, comma, close = _OBJECT[d]
    parts = [sep + '"command": ']
    _write(command, d + 1, parts.append)
    parts.append(comma + '"config": ')
    _write(dict(vars(config)), d + 1, parts.append)
    parts.append(comma + '"result": ')
    return "".join(parts), f'{comma}"schema": {_json_str(SCHEMA)}{close}'


def _write_report(v, d, put) -> None:
    head, tail = _report_text(v.command, v.config, d)
    put(head)
    _write(v.result, d + 1, put)
    put(tail)


# in the order a subclass is matched
_WRITERS = {
    float: _write_json,
    int: _write_json,
    str: _write_json,
    Fraction: _write_rat,
    tuple: _tagged("$tuple", _write_items),
    list: _write_items,
    frozenset: _tagged("$frozenset", _write_items, lambda v: sorted(v, key=_member_key)),
    EquationSpec: _tagged("$eq", _write_items, attrgetter("a", "b", "c", "m", "n")),
    **{cls: _record(tag, cls) for cls, tag in _RECORDS.items()},
    _Report: _write_report,
    dict: _write_dict,
}


# ---------------------------------------------------------------------------
# JSON decoding

_LEAVES = frozenset({str, int, bool, float, type(None)})


def decode_value(v):
    """The program value of a tagged form, as ``json.loads`` returns it."""
    if isinstance(v, dict):
        if len(v) == 1:
            for tag, body in v.items():
                decode = _DECODERS.get(tag)
                if decode is not None:
                    return decode(body)
        return {k: x if type(x) in _LEAVES else decode_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return _decode_items(v)
    return v


def _decode_items(body) -> list:
    return [x if type(x) in _LEAVES else decode_value(x) for x in body]


def _decode_rat(body) -> Fraction:
    """Fraction(body) for a string body, with the writer's own "n/d" parsed
    from its two integer halves; any other string goes to Fraction(body), so
    the bodies accepted and refused are exactly those of Fraction(str).  A
    body that is not a string is refused: Fraction would take a float or a
    bool, and the writer never puts one there."""
    if not isinstance(body, str):
        raise DegenerateInput(f"a $rat body is a string, not {type(body).__name__}")
    num, slash, den = body.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if slash and digits.isascii() and digits.isdigit() and den.isascii() and den.isdigit():
        return Fraction(int(num), int(den))
    return Fraction(body)


def _record_decoder(cls):
    return lambda body: cls(
        **{k: x if type(x) in _LEAVES else decode_value(x) for k, x in body.items()}
    )


_DECODERS = {
    "$rat": _decode_rat,
    "$tuple": lambda body: tuple(_decode_items(body)),
    "$frozenset": lambda body: frozenset(_decode_items(body)),
    "$eq": lambda body: EquationSpec(*body),
    "$map": lambda body: {decode_value(k): decode_value(x) for k, x in body},
    **{tag: _record_decoder(cls) for cls, tag in _RECORDS.items()},
}


def report(command: str, config: RunConfig, result) -> _Report:
    """The report document; `canonical_json` writes `result` in tagged form
    after the text of the command and config, made once per pair."""
    return _Report(command, config, result)


def emit(out, rep: _Report, config: RunConfig, text_lines) -> None:
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


def _config_from(args) -> RunConfig:
    """The command's `RunConfig`: the fields its options were given for,
    and the defaults elsewhere."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def _load_sieve_cache(args, bound: int) -> None:
    """With --sieve-cache, serve every search of the process from that file
    (see `load_or_build_sieve`)."""
    path = getattr(args, "sieve_cache", None)
    if path:
        load_or_build_sieve(path, bound)


def cmd_classify(args, out) -> int:
    config = _config_from(args)
    eq = EquationSpec(args.a, args.b, args.c, args.m, args.n)
    _load_sieve_cache(args, config.witness_bound)
    v = classify_equation(eq, config=config)
    emit(out, report("classify", config, v), config, verdict_lines(v))
    return EXIT_OK


def cmd_system(args, out) -> int:
    config = _config_from(args)
    rows = read_rows_file(args.rows_file)
    sys_spec = SystemSpec(rows, args.n)
    _load_sieve_cache(args, config.witness_bound)
    v = classify_system(sys_spec, config=config)
    emit(out, report("system", config, v), config, verdict_lines(v))
    return EXIT_OK


def cmd_witness(args, out) -> int:
    config = _config_from(args)
    targets = [parse_rational(t) for t in args.targets]
    _load_sieve_cache(args, config.witness_bound)
    w = find_witness_prime(
        targets,
        args.n,
        min_exclusive=args.min_exclusive,
        search_bound=config.witness_bound,
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
    if lo > hi or lo == hi == 0:
        # an empty scan would print "0 solutions" as if it were evidence
        raise DegenerateInput(f"box [{lo},{hi}] holds no nonzero integer")
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
        return f"unknown (n > {MAX_PREDICTED_N} or more than {MAX_PREDICTED_TARGETS} targets)"
    return f"{_frac(d)} ~ {float(d):.4f}"


def cmd_density(args, out) -> int:
    config = _config_from(args)
    targets = [parse_rational(t) for t in args.targets]
    bound = config.sieve_bound
    _load_sieve_cache(args, bound)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            rows = write_csv(fh, targets, args.n, bound)
        lines = [f"wrote {rows} rows to {args.csv}"]
        result = {"csv": args.csv, "rows": rows}
    elif len(targets) == 1:
        s = survey(targets[0], args.n, bound)
        lines = [
            f"target {_frac(s.target)} n={s.n} bound={s.prime_bound}",
            f"admissible={s.admissible_count} hits={s.hit_count} "
            f"density={_frac(s.density)} ~ {float(s.density):.4f}",
            f"predicted={_predicted(s.predicted)}",
        ]
        result = asdict(s)
    else:
        j = joint_survey(targets, args.n, bound)
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


def reproduction_table(config: RunConfig) -> dict:
    """Every reproducible claim as one named row; values must match the
    committed fixture exactly.
    """
    rows = {}

    def eq(name, a, b, c, m, n):
        v = classify_equation(EquationSpec(a, b, c, m, n), config=config)
        rows[name] = _verdict_row(v)

    def system(name, srows, n):
        v = classify_system(SystemSpec(srows, n), config=config)
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

    # the table reads counts only: no survey below builds its predictions
    bound = config.sieve_bound
    q16 = _targets((16,))
    s16 = _survey(q16, 8, bound, _pass(q16, 8, bound), 0, None)
    rows["identity-16-eighth-powers"] = {
        "density": _frac(s16.density),
        "admissible": s16.admissible_count,
    }
    # one pass over the columns of 4, -4, 9 and 36 at n = 4 gives every row below
    qs = _targets((4, -4, 9, 36))
    counts = _pass(qs, 4, bound)
    j4 = _joint_survey(qs, 4, bound, counts, (0, 1), None)
    rows["identity-4,-4-fourth-powers"] = {"none": j4.none, "admissible": j4.admissible_count}
    j36 = _joint_survey(qs, 4, bound, counts, (3, 2), None)
    rows["pair-36,9-fourth-powers"] = {
        "none": j36.none,
        "admissible": j36.admissible_count,
        "hits36-is-p-not-13-mod-24": _hits_outside(counts, 3, {13}),
        "hits36-is-p-not-13-17-mod-24": _hits_outside(counts, 3, {13, 17}),
    }
    j6 = _joint_survey(qs, 4, bound, counts, (0, 2, 3), None)
    rows["identity-4,9,36-fourth-powers"] = {
        "none": j6.none,
        "admissible": j6.admissible_count,
    }
    return rows


@cache
def _fixture() -> dict:
    """The committed table, parsed once per process; callers only read it."""
    ref = resources.files("parreg").joinpath("data/reproduce_expected.json")
    with ref.open(encoding="utf-8") as fh:
        return json.load(fh)


def cmd_reproduce(args, out) -> int:
    config = _config_from(args)
    _load_sieve_cache(args, config.witness_bound)
    # rows hold only str, int, bool and lists of str: already plain JSON
    current = reproduction_table(config)
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


# The common options.  Each but --sieve-cache has for its dest the RunConfig
# field it sets, and one not given leaves no attribute on args, so the field
# keeps its one default (`_config_from`).
_JSON = "--json", dict(action="store_const", const="json", dest="output", help="emit a JSON report")
_BOX = "--box", dict(type=int, dest="box_half_width", metavar="BOX", help="box half-width")
_THREADS = "--threads", dict(type=int, help="worker processes of --engine full")


def _search_options(bound_field: str = "witness_bound") -> tuple:
    """The common options of a command that walks primes; --bound sets
    bound_field."""
    bound = dict(type=int, dest=bound_field, metavar="BOUND", help="witness/prime search bound")
    return ("--bound", bound), _JSON, ("--sieve-cache", dict(help="prime sieve cache file"))


def _add_options(p: argparse.ArgumentParser, options) -> None:
    for flag, kw in options:
        p.add_argument(flag, default=argparse.SUPPRESS, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parreg",
        description="partition-regularity verdicts and certificates for a*x + b*y = c*w^m*z^n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one equation")
    for name in ("a", "b", "c", "m", "n"):
        p.add_argument(name, type=int)
    _add_options(p, _search_options())
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("system", help="classify a system from a rows file")
    p.add_argument("rows_file")
    p.add_argument("n", type=int)
    _add_options(p, _search_options())
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("witness", help="smallest witness prime for targets")
    p.add_argument("n", type=int)
    p.add_argument("targets", nargs="+")
    p.add_argument("--min-exclusive", type=int, default=1)
    _add_options(p, _search_options())
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
    _add_options(p, [_BOX, _JSON, _THREADS])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("columns", help="columns condition for a matrix file")
    p.add_argument("matrix_file")
    _add_options(p, [_JSON])
    p.set_defaults(fn=cmd_columns)

    p = sub.add_parser("density", help="power-residue density survey")
    p.add_argument("n", type=int)
    p.add_argument("targets", nargs="+")
    p.add_argument("--csv", default=None, help="write per-prime rows to a CSV file")
    _add_options(p, _search_options("sieve_bound"))
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("reproduce", help="re-run the regression table and diff")
    p.add_argument("--emit", action="store_true", help="print the current table")
    _add_options(p, _search_options())
    p.set_defaults(fn=cmd_reproduce)

    return ap


# Building the parser costs 1.5-2 ms (2-vCPU host), about a fifth of an
# in-process `reproduce`, so `main` builds it once per process.  `set_defaults` binds
# each cmd_* function when the parser is built: patch what a command reads
# when it runs (`reproduction_table`, `_fixture`), not cli.cmd_* itself.
_parser = cache(build_parser)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _parser()
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
