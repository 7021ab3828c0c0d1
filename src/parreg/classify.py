"""Partition-regularity verdicts for a*x + b*y = c*w^m*z^n over N, Z\\{0} and
Q\\{0}, and for systems a_i*x_i + b_i*y_i = c_i*w_i*z_i^n, with re-verifiable
certificates attached to every decided status.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    DegenerateInput,
    FactorizationBudgetExceeded,
    ParregError,
    _as_int,
    _check_prime_arg,
    _int_rows,
    _is_qp_power,
    _is_residue,
    _split,
    factor,
    nth_power_in_Q,
)
from .witness import (
    DEFAULT_SEARCH_BOUND,
    _equation_obstruction,
    _ratio_pairs,
    _search,
    _system_obstruction,
    _union_intersection,
    _witness_holds,
    check_hypotheses,
    verify_system_witness,
)

PR = "PR"
NOT_PR = "NOT_PR"
UNKNOWN = "UNKNOWN"

DOMAIN_N = "N"
DOMAIN_Z = "Z"
DOMAIN_Q = "Q"

KIND_RATIONAL_ROOT = "rational_root"
KIND_WITNESS = "witness"
KIND_PADIC = "padic"
KIND_SIGN = "sign"
KIND_SQUARE = "square"
KIND_SYSTEM_INTERSECTION = "system_intersection"
KIND_RULE = "rule"

RATIO_LABELS = ("a/c", "b/c", "(a+b)/c")


class ContradictionError(ParregError):
    """A positive and a negative rule fired on the same ground set.  That can
    only be an implementation bug, never a property of the input.
    """


@dataclass(frozen=True)
class EquationSpec:
    """a*x + b*y = c*w^m*z^n with nonzero a, b, c and m, n >= 1.

    w and z are interchangeable, so the exponents are stored with m <= n.
    """

    a: int
    b: int
    c: int
    m: int
    n: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v == 0:
                raise DegenerateInput(f"{name} must be a nonzero integer")
        for name in ("m", "n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise DegenerateInput(f"{name} must be a positive integer")
        if self.m > self.n:
            m, n = self.m, self.n
            object.__setattr__(self, "m", n)
            object.__setattr__(self, "n", m)

    @cached_property
    def ratios(self) -> tuple[Fraction, Fraction, Fraction]:
        """a/c, b/c and (a+b)/c, made once per spec: classify and reverify
        read the same Fractions."""
        return (
            Fraction(self.a, self.c),
            Fraction(self.b, self.c),
            Fraction(self.a + self.b, self.c),
        )


@dataclass(frozen=True)
class SystemSpec:
    """Rows (a_i, b_i, c_i) of a_i*x_i + b_i*y_i = c_i*w_i*z_i^n, shared n."""

    rows: tuple[tuple[int, int, int], ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "rows", _int_rows(self.rows))
        if not self.rows:
            raise DegenerateInput("need at least one row")
        if any(a == 0 or b == 0 or c == 0 for a, b, c in self.rows):
            raise DegenerateInput("row coefficients must be nonzero")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise DegenerateInput("n must be a positive integer")


@dataclass
class Certificate:
    """One re-checkable piece of evidence: kind selects the verification
    routine, rule names the decision rule (R1-R9, S1-S4), domain and verdict
    say what status the certificate supports.
    """

    kind: str
    rule: str
    domain: str
    verdict: str
    data: dict


@dataclass
class Verdict:
    subject: object
    status_N: str
    status_Z: str
    status_Q: str
    certificates: tuple
    reasons: tuple

    def __post_init__(self):
        order = (self.status_N, self.status_Z, self.status_Q)
        for low, high in zip(order, order[1:]):
            if low == PR and high != PR:
                raise ContradictionError("PR must propagate upward N->Z->Q")
            if high == NOT_PR and low != NOT_PR:
                raise ContradictionError("NOT_PR must propagate downward Q->Z->N")
        for st in order:
            if st not in (PR, NOT_PR, UNKNOWN):
                raise ContradictionError(f"bad status {st!r}")


_DOMAINS = (DOMAIN_N, DOMAIN_Z, DOMAIN_Q)

# rule -> (the kind of certificate that proves it, the domain and verdict it
# proves).  A witness prime proves NOT_PR over Q, so it may also stand
# behind a NOT_PR rule.  R4's domain is N for a non-negative root, Z else.
_CLAIMS = {
    "R1": (KIND_RULE, DOMAIN_N, PR),
    "R2": (KIND_RULE, DOMAIN_Z, NOT_PR),
    "R3": (KIND_RULE, DOMAIN_N, PR),
    "R4": (KIND_RATIONAL_ROOT, DOMAIN_Z, PR),
    "R4'": (KIND_SIGN, DOMAIN_N, NOT_PR),
    "R5": (KIND_RULE, DOMAIN_Q, NOT_PR),
    "R6": (KIND_RULE, DOMAIN_Q, NOT_PR),
    "R7": (KIND_SQUARE, DOMAIN_Q, NOT_PR),
    "R8": (KIND_WITNESS, DOMAIN_Q, NOT_PR),
    "R9": (KIND_PADIC, DOMAIN_Z, NOT_PR),
    "S1": (KIND_SYSTEM_INTERSECTION, DOMAIN_Z, PR),
    "S2": (KIND_SYSTEM_INTERSECTION, DOMAIN_Z, NOT_PR),
    "S3": (KIND_SYSTEM_INTERSECTION, DOMAIN_Z, NOT_PR),
    "S4": (KIND_WITNESS, DOMAIN_Q, NOT_PR),
}

# (domain, verdict) -> the domains a certificate decides: PR propagates
# upward N -> Z -> Q, NOT_PR downward Q -> Z -> N
_DECIDES = {
    (DOMAIN_N, PR): (DOMAIN_N, DOMAIN_Z, DOMAIN_Q),
    (DOMAIN_Z, PR): (DOMAIN_Z, DOMAIN_Q),
    (DOMAIN_Q, PR): (DOMAIN_Q,),
    (DOMAIN_N, NOT_PR): (DOMAIN_N,),
    (DOMAIN_Z, NOT_PR): (DOMAIN_N, DOMAIN_Z),
    (DOMAIN_Q, NOT_PR): (DOMAIN_N, DOMAIN_Z, DOMAIN_Q),
}


def _claim(rule: str, data: dict) -> tuple[str, str, str]:
    kind, domain, verdict = _CLAIMS[rule]
    if rule == "R4" and data["root"] >= 0:
        domain = DOMAIN_N
    return kind, domain, verdict


def _cert(kind: str, rule: str, data: dict) -> Certificate:
    """A certificate for rule, at the domain and verdict the rule proves."""
    _, domain, verdict = _claim(rule, data)
    return Certificate(kind=kind, rule=rule, domain=domain, verdict=verdict, data=data)


def _statuses(certs) -> dict:
    """The status of each domain under certs, UNKNOWN where none decides it.
    Two certificates that disagree on a domain are an implementation bug."""
    st = dict.fromkeys(_DOMAINS, UNKNOWN)
    for cert in certs:
        for domain in _DECIDES[cert.domain, cert.verdict]:
            if st[domain] not in (UNKNOWN, cert.verdict):
                raise ContradictionError(
                    f"{domain}: PR and NOT_PR both derived; implementation bug"
                )
            st[domain] = cert.verdict
    return st


def _verdict(subject, certs, pending) -> Verdict:
    """The verdict certs give, keeping only the pending reasons whose
    domain they leave UNKNOWN."""
    st = _statuses(certs)
    reasons = tuple(r for r in pending if st[r.split(":", 1)[0]] == UNKNOWN)
    return Verdict(
        subject=subject,
        status_N=st[DOMAIN_N],
        status_Z=st[DOMAIN_Z],
        status_Q=st[DOMAIN_Q],
        certificates=tuple(certs),
        reasons=reasons,
    )


def _config_int(config, name: str, default: int) -> int:
    """config's field name (default when config or the field is absent),
    refused as `cli.RunConfig` refuses it: an exact integer of at least 1."""
    value = _as_int(default if config is None else getattr(config, name, default))
    if value < 1:
        raise DegenerateInput(f"{name} must be positive")
    return value


def _sign_infeasible(a: int, b: int, c: int) -> bool:
    """True when {a*x + b*y : x,y in N} cannot meet {c*w^m*z^n : w,z in N} for
    sign reasons alone: a, b one sign, c strictly the other.
    """
    return (a > 0 and b > 0 and c < 0) or (a < 0 and b < 0 and c > 0)


def _power_checks(ratios, k: int) -> tuple:
    return tuple(
        (label, q, nth_power_in_Q(q, k) is None)
        for label, q in zip(RATIO_LABELS, ratios)
    )


def _padic_candidates(gamma: Fraction, budget) -> list[int]:
    f = factor(gamma, budget=budget)
    return sorted(abs(p) for p in f.exponents)


def _padic_case(gamma: Fraction, ratios, p: int, n: int):
    """The two halves of the p-adic obstruction at p.

    A: (a+b)/c is not of the shape p^(jn) * (n-th power residue unit);
    B: none of the three ratios is an n-th power in Q_p.

    p is checked once, before anything is split at it; each value is then
    split at p once (`_split`) and tested on the ints of its split.
    """
    _check_prime_arg(p)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    v, num, den = _split(gamma, p)
    unit_residue_ok = _is_residue(num, den, (p - 1) // gcd(n, p - 1), p)
    a_holds = not (v >= 0 and v % n == 0 and unit_residue_ok)
    qp = tuple((q, _is_qp_power(*_split(q, p), p, n)) for q in ratios)
    b_holds = not any(flag for _, flag in qp)
    return a_holds, b_holds, v, Fraction(num, den), unit_residue_ok, qp


def _lemma_certificate(ratios, n: int, checks_n) -> Certificate | None:
    """The certificate of the first of R5, R6 and R7 whose hypotheses hold,
    or None.  checks_n are the ratios' n-th power checks, taken once for R4.
    """
    if n % 2 == 1:
        if not all(ok for _, _, ok in checks_n):
            return None
        return _cert(KIND_RULE, "R5", {"n": n, "checks": checks_n})
    # at n = 2 the (n/2)-th power checks are first powers, which always hold
    if n not in (2, 4, 8):
        checks = _power_checks(ratios, n // 2)
        if all(ok for _, _, ok in checks):
            if n % 4 == 0:
                # a/c + b/c = (a+b)/c rules out three simultaneous
                # (n/4)-th powers (no Fermat triple), so the last
                # hypothesis of the even-n lemma holds for free
                assert any(nth_power_in_Q(q, n // 4) is None for q in ratios)
            return _cert(KIND_RULE, "R6", {"n": n, "half": n // 2, "checks": checks})
    sq = checks_n if n == 2 else _power_checks(ratios, 2)
    if not all(ok for _, _, ok in sq):
        return None
    product = ratios[0] * ratios[1] * ratios[2]
    if nth_power_in_Q(product, 2) is not None:
        return None
    return _cert(KIND_SQUARE, "R7", {"n": n, "checks": sq + (("product", product, True),)})


def _q_obstruction(obstruction, k, lemma, rule, tag, bound):
    """The unit-colouring obstruction over Q: for the subject's (targets,
    threshold, bad) (`witness._equation_obstruction`,
    `witness._system_obstruction`), the smallest prime p with threshold <
    p <= bound, not dividing bad, modulo which no target is a k-th power
    residue (`witness._search`).  Colouring each rational by its unit mod
    p after stripping p then leaves no monochromatic solution.

    A lemma certificate promises such a prime, which the search's prefix
    nearly always holds, so that search scans first; without one the
    search asks first whether any such prime can exist.  The witness
    certificate supports the lemma under its rule, or stands alone under
    rule; tag is the data it records besides the witness.  Returns the
    certificates, lemma first, and whether the decision cut the search
    short: None when threshold >= bound leaves no prime to scan.
    """
    targets, threshold, bad = obstruction
    certs = [] if lemma is None else [lemma]
    if threshold >= bound:
        return certs, None
    witness, decided = _search(targets, bad, k, threshold, bound, lemma is None)
    if witness is not None:
        data = {"witness": witness, **tag}
        if lemma is not None:
            data["supporting"] = True
        certs.append(_cert(KIND_WITNESS, rule if lemma is None else lemma.rule, data))
    return certs, decided


def _m1_track(
    eq: EquationSpec, witness_bound: int, factor_budget: int
) -> tuple[list, list]:
    """The certificates and pending reasons when m = 1 and a + b != 0: R4 on
    a rational root; else the first lemma of R5 to R7 that holds, with its
    supporting witness; else a witness (R8); else the p-adic rule (R9).
    """
    a, b, c, n = eq.a, eq.b, eq.c, eq.n
    ratios = eq.ratios
    roots = [nth_power_in_Q(q, n) for q in ratios]
    hits = [hit for hit in zip(RATIO_LABELS, ratios, roots) if hit[2] is not None]
    if hits:
        # a non-negative root proves PR over N, any other root over Z
        nonneg = [hit for hit in hits if hit[2].numerator >= 0]
        label, q, root = (nonneg or hits)[0]
        # an n-th power in Q is one mod every prime and in every Q_p, so no
        # witness, lemma or p-adic case can hold
        data = {"which": label, "ratio": q, "root": root, "n": n}
        return [_cert(KIND_RATIONAL_ROOT, "R4", data)], []

    checks_n = tuple(
        (label, q, root is None) for label, q, root in zip(RATIO_LABELS, ratios, roots)
    )
    lemma = _lemma_certificate(ratios, n, checks_n)
    obstruction = _equation_obstruction(a, b, c, ratios)
    targets, min_exclusive, _ = obstruction
    tag = {"min_exclusive": min_exclusive}
    certs, decided = _q_obstruction(obstruction, n, lemma, "R8", tag, witness_bound)
    if certs:
        return certs, []
    if decided is None:
        pending = [f"Q:witness:threshold-above-bound:{witness_bound}"]
    # a satisfied lemma gives infinitely many witness primes, so a search
    # that the decision cut short has its hypotheses unmet
    elif not decided and check_hypotheses(targets, n).satisfied:
        pending = [f"Q:witness:bound-exhausted:{witness_bound}"]
    else:
        pending = ["Q:witness:hypotheses-unmet"]

    gamma = ratios[2]
    try:
        candidates = _padic_candidates(gamma, factor_budget)
    except FactorizationBudgetExceeded:
        return [], pending + ["Z:padic:budget-exceeded"]
    for p in candidates:
        a_holds, b_holds, v, unit, unit_ok, qp = _padic_case(gamma, ratios, p, n)
        if a_holds and b_holds:
            data = {
                "p": p,
                "n": n,
                "v": v,
                "unit": unit,
                "unit_is_residue": unit_ok,
                "ratios_qp": qp,
            }
            return [_cert(KIND_PADIC, "R9", data)], pending + ["Q:padic:scope-Z-only"]
    # also with no candidate at all, as for gamma = -1, which has no prime
    return [], pending + ["Z:padic:no-candidate-fired"]


def classify_equation(eq: EquationSpec, config=None) -> Verdict:
    """Decide the equation on one of three tracks: a + b = 0 (R1 when m >= 2,
    R3 when m = 1), else m >= 2 (R2), else the m = 1 track.  Sign feasibility
    (R4') then decides status_N when nothing else did.  Undecided statuses
    stay UNKNOWN with machine-readable reasons.  A config witness_bound or
    factor_budget that is not an integer of at least 1 raises
    DegenerateInput.
    """
    if not isinstance(eq, EquationSpec):
        eq = EquationSpec(*eq)
    witness_bound = _config_int(config, "witness_bound", DEFAULT_SEARCH_BOUND)
    factor_budget = _config_int(config, "factor_budget", DEFAULT_FACTOR_BUDGET)
    a, b, c, m, n = eq.a, eq.b, eq.c, eq.m, eq.n
    if a + b == 0:
        if m >= 2:
            certs = [_cert(KIND_RULE, "R1", {"a": a, "b": b, "m": m, "n": n})]
        else:
            certs = [_cert(KIND_RULE, "R3", {"a": a, "b": b, "n": n})]
        pending = []
    elif m >= 2:
        certs = [_cert(KIND_RULE, "R2", {"a": a, "b": b, "m": m, "n": n})]
        pending = ["Q:m-reduction-open"]
    else:
        certs, pending = _m1_track(eq, witness_bound, factor_budget)

    # sign feasibility decides status_N when nothing else did
    if _statuses(certs)[DOMAIN_N] == UNKNOWN:
        if _sign_infeasible(a, b, c):
            certs.append(_cert(KIND_SIGN, "R4'", {"a": a, "b": b, "c": c}))
        else:
            pending.append("N:sign-analysis-inconclusive")
    return _verdict(eq, certs, pending)


def classify_system(sys_spec: SystemSpec, config=None) -> Verdict:
    """S1: the row-ratio intersection I contains an n-th power, partition
    regular over Z\\{0}.  S2/S3: no n-th (or (n/2)-th when 4 | n) power in I,
    not partition regular over Z\\{0}; applied only when |I| <= 2 and no row
    has a + b = 0, where the supporting prime always exists.  S4: a directly
    verified witness prime.  Single rows delegate to classify_equation.  A
    config witness_bound or factor_budget that is not an integer of at least
    1 raises DegenerateInput.
    """
    if not isinstance(sys_spec, SystemSpec):
        rows, n = sys_spec
        sys_spec = SystemSpec(tuple(tuple(r) for r in rows), n)
    n = sys_spec.n
    witness_bound = _config_int(config, "witness_bound", DEFAULT_SEARCH_BOUND)
    # only a one-row system factors, but a bad budget is refused on every track
    _config_int(config, "factor_budget", DEFAULT_FACTOR_BUDGET)
    if len(sys_spec.rows) == 1:
        a, b, c = sys_spec.rows[0]
        v = classify_equation(EquationSpec(a, b, c, 1, n), config=config)
        return replace(v, subject=sys_spec)

    obstruction = _system_obstruction(sys_spec.rows)
    inter = obstruction[0]
    no_zero_rows = all(a + b != 0 for a, b, _ in sys_spec.rows)

    for q in inter:
        root = nth_power_in_Q(q, n)
        if root is not None:
            data = {"intersection": inter, "n": n, "power": q, "root": root}
            certs = [_cert(KIND_SYSTEM_INTERSECTION, "S1", data)]
            return _verdict(sys_spec, certs, ["N:system:open-over-N"])

    exponent = n // 2 if n % 4 == 0 else n
    lemma = None
    if no_zero_rows and len(inter) <= 2:
        # at exponent n the S1 scan has just found no member a root
        checks = tuple(
            (q, exponent == n or nth_power_in_Q(q, exponent) is None) for q in inter
        )
        if all(ok for _, ok in checks):
            data = {"intersection": inter, "n": n, "exponent": exponent, "checks": checks}
            lemma = _cert(KIND_SYSTEM_INTERSECTION, "S2" if n % 4 else "S3", data)
    # a row with a + b = 0 makes the product B of `witness._reduce_system`
    # 0, so no prime qualifies
    certs, _ = _q_obstruction(obstruction, n, lemma, "S4", {"system": True}, witness_bound)
    if lemma is not None:
        pending = ["Q:system:scope-Z-only"]
    elif certs:
        pending = []
    elif not no_zero_rows:
        pending = ["Z:system:zero-sum-row"]
    elif len(inter) > 2:
        pending = ["Z:system:intersection-size-3-open"]
        pending.append(f"Z:system-witness:bound-exhausted:{witness_bound}")
    else:
        pending = [f"Z:system-witness:bound-exhausted:{witness_bound}"]
    return _verdict(sys_spec, certs, pending)


# ---------------------------------------------------------------------------
# Re-verification


def _reverify_cert(subject, cert: Certificate, pairs) -> bool:
    """Whether cert holds for subject.  pairs are the subject's ratios as
    reduced (num, den) pairs (None for a system), which the values a
    certificate stores are compared with."""
    data = cert.data
    kind, domain, verdict = _claim(cert.rule, data)
    if (cert.domain, cert.verdict) != (domain, verdict):
        return False
    if cert.kind != kind and (cert.kind != KIND_WITNESS or verdict != NOT_PR):
        return False
    # only the m = 1 track makes these; m >= 2 is decided by R1 or R2
    if (
        cert.kind in (KIND_RATIONAL_ROOT, KIND_SQUARE, KIND_PADIC)
        or cert.rule in ("R5", "R6")
        or (cert.kind == KIND_WITNESS and not data.get("system"))
    ) and subject.m != 1:
        return False
    if cert.kind == KIND_RULE and cert.rule in ("R1", "R2", "R3"):
        eq = subject
        if (eq.a, eq.b) != (data["a"], data["b"]):
            return False
        if cert.rule == "R1":
            return eq.m >= 2 and eq.a + eq.b == 0
        if cert.rule == "R2":
            return eq.m >= 2 and eq.a + eq.b != 0
        return eq.m == 1 and eq.a + eq.b == 0
    if cert.kind == KIND_RULE and cert.rule in ("R5", "R6"):
        if data["n"] != subject.n:
            return False
        if cert.rule == "R5":
            k = data["n"]
            if k % 2 == 0:
                return False
        else:
            k = data["half"]
            if subject.n % 2 or subject.n in (4, 8) or k != subject.n // 2:
                return False
        for label, q, ok in data["checks"]:
            if not ok or nth_power_in_Q(q, k) is not None:
                return False
        labels = [label for label, _, _ in data["checks"]]
        return labels == list(RATIO_LABELS) and tuple(
            (q.numerator, q.denominator) for _, q, _ in data["checks"]
        ) == pairs
    if cert.kind == KIND_RATIONAL_ROOT:
        q, root, n = data["ratio"], data["root"], data["n"]
        if n != subject.n or Fraction(root) ** n != q:
            return False
        idx = RATIO_LABELS.index(data["which"])
        return pairs[idx] == (q.numerator, q.denominator)
    if cert.kind == KIND_SQUARE:
        # a non-square mod p is a non-n-th-power residue only for even n
        checks = data["checks"]
        if data["n"] != subject.n or subject.n % 2 or len(checks) != 4:
            return False
        (n0, d0), (n1, d1), (n2, d2) = pairs
        num, den = n0 * n1 * n2, d0 * d1 * d2
        g = gcd(num, den)
        expect = pairs + ((num // g, den // g),)
        for (label, q, ok), want in zip(checks, expect):
            if (q.numerator, q.denominator) != want or not ok or nth_power_in_Q(q, 2) is not None:
                return False
        return True
    if cert.kind == KIND_WITNESS:
        # a system's witness is checked by `witness.verify_system_witness`,
        # which makes the same `_witness_holds` check on its obstruction
        if data.get("system"):
            return verify_system_witness(data["witness"], subject.rows, subject.n)
        obstruction = _equation_obstruction(subject.a, subject.b, subject.c, subject.ratios)
        return data["min_exclusive"] == obstruction[1] and _witness_holds(
            data["witness"], subject.n, *obstruction
        )
    if cert.kind == KIND_PADIC:
        p, n = data["p"], data["n"]
        if n != subject.n:
            return False
        ratios = tuple(Fraction(*t) for t in pairs)
        a_holds, b_holds, v, unit, unit_ok, qp = _padic_case(ratios[2], ratios, p, n)
        if not (a_holds and b_holds):
            return False
        return (
            v == data["v"]
            and unit == data["unit"]
            and unit_ok == data["unit_is_residue"]
            and qp == data["ratios_qp"]
        )
    if cert.kind == KIND_SIGN:
        eq = subject
        if (eq.a, eq.b, eq.c) != (data["a"], data["b"], data["c"]):
            return False
        return _sign_infeasible(eq.a, eq.b, eq.c)
    if cert.kind == KIND_SYSTEM_INTERSECTION:
        inter = _union_intersection(subject.rows)[1]
        if inter != data["intersection"]:
            return False
        if cert.rule == "S1":
            q, root = data["power"], data["root"]
            return data["n"] == subject.n and q in inter and Fraction(root) ** data["n"] == q
        exponent = data["exponent"]
        # S2 at n not divisible by 4, S3 at exponent n/2 otherwise
        if subject.n % 4:
            want = "S2", subject.n
        else:
            want = "S3", subject.n // 2
        if (cert.rule, exponent) != want or len(inter) > 2:
            return False
        if any(a + b == 0 for a, b, _ in subject.rows):
            return False
        return all(nth_power_in_Q(q, exponent) is None for q in inter)
    return False


def reverify(verdict: Verdict) -> bool:
    """Recompute every certificate from primitives and re-derive the statuses;
    any tampering makes this return False rather than raise.
    """
    try:
        subject = equation = verdict.subject
        # a one-row system's equation certificates are checked on its row
        if isinstance(subject, SystemSpec) and len(subject.rows) == 1:
            a, b, c = subject.rows[0]
            equation = EquationSpec(a, b, c, 1, subject.n)
        pairs = None
        if isinstance(equation, EquationSpec):
            pairs = _ratio_pairs(equation.a, equation.b, equation.c)
        for cert in verdict.certificates:
            one = subject if equation is subject or cert.rule.startswith("S") else equation
            if not _reverify_cert(one, cert, pairs):
                return False
        st = _statuses(verdict.certificates)
        return (st[DOMAIN_N], st[DOMAIN_Z], st[DOMAIN_Q]) == (
            verdict.status_N,
            verdict.status_Z,
            verdict.status_Q,
        )
    except (ParregError, KeyError, ValueError, IndexError, TypeError, AttributeError):
        return False
