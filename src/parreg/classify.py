"""Partition-regularity verdicts for a*x + b*y = c*w^m*z^n over N, Z\\{0} and
Q\\{0}, and for systems a_i*x_i + b_i*y_i = c_i*w_i*z_i^n, with re-verifiable
certificates attached to every decided status.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
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
    WitnessPrime,
    _ordered,
    _ratio_pairs,
    _system_search,
    _union_intersection,
    _witness_search,
    check_hypotheses,
    verify_system_witness,
    verify_witness,
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
            if not isinstance(v, int) or v == 0:
                raise DegenerateInput(f"{name} must be a nonzero integer")
        for name in ("m", "n"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise DegenerateInput(f"{name} must be a positive integer")
        if self.m > self.n:
            m, n = self.m, self.n
            object.__setattr__(self, "m", n)
            object.__setattr__(self, "n", m)

    @property
    def ratios(self) -> tuple[Fraction, Fraction, Fraction]:
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
        if not isinstance(self.n, int) or self.n < 1:
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


_UP = {DOMAIN_N: (DOMAIN_N, DOMAIN_Z, DOMAIN_Q), DOMAIN_Z: (DOMAIN_Z, DOMAIN_Q), DOMAIN_Q: (DOMAIN_Q,)}
_DOWN = {DOMAIN_Q: (DOMAIN_Q, DOMAIN_Z, DOMAIN_N), DOMAIN_Z: (DOMAIN_Z, DOMAIN_N), DOMAIN_N: (DOMAIN_N,)}


class _Statuses:
    def __init__(self, certs=()):
        self.by_domain = {DOMAIN_N: UNKNOWN, DOMAIN_Z: UNKNOWN, DOMAIN_Q: UNKNOWN}
        for cert in certs:
            self.apply(cert)

    def _set(self, domain: str, status: str):
        cur = self.by_domain[domain]
        if cur != UNKNOWN and cur != status:
            raise ContradictionError(
                f"{domain}: {cur} and {status} both derived; implementation bug"
            )
        self.by_domain[domain] = status

    def positive(self, domain: str):
        for d in _UP[domain]:
            self._set(d, PR)

    def negative(self, domain: str):
        for d in _DOWN[domain]:
            self._set(d, NOT_PR)

    def apply(self, cert: Certificate):
        if cert.verdict == PR:
            self.positive(cert.domain)
        elif cert.verdict == NOT_PR:
            self.negative(cert.domain)
        else:
            raise ContradictionError(f"certificate with verdict {cert.verdict!r}")


def _verdict(subject, st: _Statuses, certs, pending) -> Verdict:
    """The verdict the statuses st give, keeping only the pending reasons
    whose domain st leaves UNKNOWN."""
    reasons = tuple(r for r in pending if st.by_domain[r.split(":", 1)[0]] == UNKNOWN)
    return Verdict(
        subject=subject,
        status_N=st.by_domain[DOMAIN_N],
        status_Z=st.by_domain[DOMAIN_Z],
        status_Q=st.by_domain[DOMAIN_Q],
        certificates=tuple(certs),
        reasons=reasons,
    )


def _config_get(config, name: str, default):
    return default if config is None else getattr(config, name, default)


def _sign_infeasible(a: int, b: int, c: int) -> bool:
    """True when {a*x + b*y : x,y in N} cannot meet {c*w^m*z^n : w,z in N} for
    sign reasons alone: a, b one sign, c strictly the other.
    """
    return (a > 0 and b > 0 and c < 0) or (a < 0 and b < 0 and c > 0)


def _witness_targets(ratios) -> list[Fraction]:
    """sorted(set(ratios)), deduped and ordered as (num, den) pairs
    (`_ordered`), so no Fraction is hashed or compared."""
    by_pair = {(q.numerator, q.denominator): q for q in ratios}
    return [by_pair[t] for t in _ordered(by_pair)]


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
        return Certificate(
            kind=KIND_RULE,
            rule="R5",
            domain=DOMAIN_Q,
            verdict=NOT_PR,
            data={"n": n, "checks": checks_n},
        )
    # at n = 2 the (n/2)-th power checks are first powers, which always hold
    if n not in (2, 4, 8):
        checks = _power_checks(ratios, n // 2)
        if all(ok for _, _, ok in checks):
            if n % 4 == 0:
                # a/c + b/c = (a+b)/c rules out three simultaneous
                # (n/4)-th powers (no Fermat triple), so the last
                # hypothesis of the even-n lemma holds for free
                assert any(nth_power_in_Q(q, n // 4) is None for q in ratios)
            return Certificate(
                kind=KIND_RULE,
                rule="R6",
                domain=DOMAIN_Q,
                verdict=NOT_PR,
                data={"n": n, "half": n // 2, "checks": checks},
            )
    sq = checks_n if n == 2 else _power_checks(ratios, 2)
    if not all(ok for _, _, ok in sq):
        return None
    prod = ratios[0] * ratios[1] * ratios[2]
    if nth_power_in_Q(prod, 2) is not None:
        return None
    return Certificate(
        kind=KIND_SQUARE,
        rule="R7",
        domain=DOMAIN_Q,
        verdict=NOT_PR,
        data={"n": n, "checks": sq + (("product", prod, True),)},
    )


def _m1_track(eq: EquationSpec, config) -> tuple[list, list]:
    """The certificates and pending reasons when m = 1 and a + b != 0: R4 on
    a rational root; else the first lemma of R5 to R7 that holds, with its
    supporting witness; else a witness (R8); else the p-adic rule (R9).

    The lemma is decided before the witness search, which it orders: a
    lemma promises a witness, which the search's prefix nearly always
    holds, so that search scans first; without one the search asks first
    whether any witness can exist.
    """
    a, b, c, n = eq.a, eq.b, eq.c, eq.n
    ratios = eq.ratios
    roots = [nth_power_in_Q(q, n) for q in ratios]
    hits = [hit for hit in zip(RATIO_LABELS, ratios, roots) if hit[2] is not None]
    if hits:
        # a non-negative root proves PR over N, any other root over Z
        nonneg = [hit for hit in hits if hit[2].numerator >= 0]
        label, q, root = (nonneg or hits)[0]
        cert = Certificate(
            kind=KIND_RATIONAL_ROOT,
            rule="R4",
            domain=DOMAIN_N if nonneg else DOMAIN_Z,
            verdict=PR,
            data={"which": label, "ratio": q, "root": root, "n": n},
        )
        # an n-th power in Q is one mod every prime and in every Q_p, so no
        # witness, lemma or p-adic case can hold
        return [cert], []

    checks_n = tuple(
        (label, q, root is None) for label, q, root in zip(RATIO_LABELS, ratios, roots)
    )
    lemma = _lemma_certificate(ratios, n, checks_n)
    witness_bound = _config_get(config, "witness_bound", DEFAULT_SEARCH_BOUND)
    min_exclusive = max(abs(a) + abs(b), abs(c))
    targets = _witness_targets(ratios)
    witness, impossible = None, False
    # with min_exclusive >= witness_bound no prime is left to scan
    scanned = min_exclusive < witness_bound
    if scanned:
        witness, impossible = _witness_search(
            targets, n, min_exclusive, witness_bound, decide_first=lemma is None
        )
    certs = [] if lemma is None else [lemma]
    if witness is not None:
        data = {"witness": witness, "min_exclusive": min_exclusive}
        if lemma is not None:
            data["supporting"] = True
        certs.append(
            Certificate(
                kind=KIND_WITNESS,
                rule="R8" if lemma is None else lemma.rule,
                domain=DOMAIN_Q,
                verdict=NOT_PR,
                data=data,
            )
        )
    if certs:
        return certs, []
    if not scanned:
        pending = [f"Q:witness:threshold-above-bound:{witness_bound}"]
    # a satisfied lemma gives infinitely many witness primes, so a search
    # that the decision cut short has its hypotheses unmet
    elif not impossible and check_hypotheses(targets, n).satisfied:
        pending = [f"Q:witness:bound-exhausted:{witness_bound}"]
    else:
        pending = ["Q:witness:hypotheses-unmet"]

    gamma = ratios[2]
    factor_budget = _config_get(config, "factor_budget", DEFAULT_FACTOR_BUDGET)
    try:
        candidates = _padic_candidates(gamma, factor_budget)
    except FactorizationBudgetExceeded:
        candidates = []
        pending.append("Z:padic:budget-exceeded")
    for p in candidates:
        a_holds, b_holds, v, unit, unit_ok, qp = _padic_case(gamma, ratios, p, n)
        if a_holds and b_holds:
            certs.append(
                Certificate(
                    kind=KIND_PADIC,
                    rule="R9",
                    domain=DOMAIN_Z,
                    verdict=NOT_PR,
                    data={
                        "p": p,
                        "n": n,
                        "v": v,
                        "unit": unit,
                        "unit_is_residue": unit_ok,
                        "ratios_qp": qp,
                    },
                )
            )
            pending.append("Q:padic:scope-Z-only")
            break
    else:
        if candidates:
            pending.append("Z:padic:no-candidate-fired")
    return certs, pending


def classify_equation(eq: EquationSpec, config=None) -> Verdict:
    """Decide the equation on one of three tracks: a + b = 0 (R1 when m >= 2,
    R3 when m = 1), else m >= 2 (R2), else the m = 1 track.  Sign feasibility
    (R4') then decides status_N when nothing else did.  Undecided statuses
    stay UNKNOWN with machine-readable reasons.
    """
    if not isinstance(eq, EquationSpec):
        eq = EquationSpec(*eq)
    a, b, c, m, n = eq.a, eq.b, eq.c, eq.m, eq.n
    if a + b == 0:
        cert = Certificate(
            kind=KIND_RULE,
            rule="R1" if m >= 2 else "R3",
            domain=DOMAIN_N,
            verdict=PR,
            data={"a": a, "b": b, "m": m, "n": n} if m >= 2 else {"a": a, "b": b, "n": n},
        )
        certs, pending = [cert], []
    elif m >= 2:
        cert = Certificate(
            kind=KIND_RULE,
            rule="R2",
            domain=DOMAIN_Z,
            verdict=NOT_PR,
            data={"a": a, "b": b, "m": m, "n": n},
        )
        certs, pending = [cert], ["Q:m-reduction-open"]
    else:
        certs, pending = _m1_track(eq, config)

    st = _Statuses(certs)
    # sign feasibility decides status_N when nothing else did
    if st.by_domain[DOMAIN_N] == UNKNOWN:
        if _sign_infeasible(a, b, c):
            cert = Certificate(
                kind=KIND_SIGN,
                rule="R4'",
                domain=DOMAIN_N,
                verdict=NOT_PR,
                data={"a": a, "b": b, "c": c},
            )
            certs.append(cert)
            st.apply(cert)
        else:
            pending.append("N:sign-analysis-inconclusive")
    return _verdict(eq, st, certs, pending)


def classify_system(sys_spec: SystemSpec, config=None) -> Verdict:
    """S1: the row-ratio intersection I contains an n-th power, partition
    regular over Z\\{0}.  S2/S3: no n-th (or (n/2)-th when 4 | n) power in I,
    not partition regular over Z\\{0}; applied only when |I| <= 2 and no row
    has a + b = 0, where the supporting prime always exists.  S4: a directly
    verified witness prime.  Single rows delegate to classify_equation.
    """
    if not isinstance(sys_spec, SystemSpec):
        rows, n = sys_spec
        sys_spec = SystemSpec(tuple(tuple(r) for r in rows), n)
    n = sys_spec.n
    witness_bound = _config_get(config, "witness_bound", DEFAULT_SEARCH_BOUND)
    if len(sys_spec.rows) == 1:
        a, b, c = sys_spec.rows[0]
        v = classify_equation(EquationSpec(a, b, c, 1, n), config=config)
        return replace(v, subject=sys_spec)

    inter = _union_intersection(sys_spec.rows)[1]
    certs: list[Certificate] = []
    pending: list[str] = []
    no_zero_rows = all(a + b != 0 for a, b, _ in sys_spec.rows)

    for q in inter:
        root = nth_power_in_Q(q, n)
        if root is not None:
            certs.append(
                Certificate(
                    kind=KIND_SYSTEM_INTERSECTION,
                    rule="S1",
                    domain=DOMAIN_Z,
                    verdict=PR,
                    data={"intersection": inter, "n": n, "power": q, "root": root},
                )
            )
            pending.append("N:system:open-over-N")
            return _verdict(sys_spec, _Statuses(certs), certs, pending)

    exponent = n // 2 if n % 4 == 0 else n
    checks = None
    if no_zero_rows and len(inter) <= 2:
        # at exponent n the S1 scan has just found no member a root
        checks = tuple(
            (q, exponent == n or nth_power_in_Q(q, exponent) is None) for q in inter
        )
    lemma = checks is not None and all(ok for _, ok in checks)
    witness = None
    if no_zero_rows:
        # S2/S3 promise a witness: scan first; otherwise decide first
        witness = _system_search(sys_spec.rows, n, witness_bound, decide_first=not lemma)
    if lemma:
        rule = "S2" if n % 4 else "S3"
        certs.append(
            Certificate(
                kind=KIND_SYSTEM_INTERSECTION,
                rule=rule,
                domain=DOMAIN_Z,
                verdict=NOT_PR,
                data={
                    "intersection": inter,
                    "n": n,
                    "exponent": exponent,
                    "checks": checks,
                },
            )
        )
        if witness is not None:
            certs.append(
                Certificate(
                    kind=KIND_WITNESS,
                    rule=rule,
                    domain=DOMAIN_Z,
                    verdict=NOT_PR,
                    data={"witness": witness, "system": True, "supporting": True},
                )
            )
        pending.append("Q:system:scope-Z-only")
    elif witness is not None:
        certs.append(
            Certificate(
                kind=KIND_WITNESS,
                rule="S4",
                domain=DOMAIN_Q,
                verdict=NOT_PR,
                data={"witness": witness, "system": True},
            )
        )
    elif not no_zero_rows:
        pending.append("Z:system:zero-sum-row")
    elif len(inter) > 2:
        pending.append("Z:system:intersection-size-3-open")
        pending.append(f"Z:system-witness:bound-exhausted:{witness_bound}")
    else:
        pending.append(f"Z:system-witness:bound-exhausted:{witness_bound}")

    return _verdict(sys_spec, _Statuses(certs), certs, pending)


# ---------------------------------------------------------------------------
# Re-verification


def _reverify_cert(subject, cert: Certificate, pairs) -> bool:
    """Whether cert holds for subject.  pairs are the subject's ratios as
    reduced (num, den) pairs (None for a system), which the values a
    certificate stores are compared with."""
    data = cert.data
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
            return eq.m >= 2 and eq.a + eq.b == 0 and cert.verdict == PR
        if cert.rule == "R2":
            return eq.m >= 2 and eq.a + eq.b != 0 and cert.verdict == NOT_PR
        return eq.m == 1 and eq.a + eq.b == 0 and cert.verdict == PR
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
        if pairs[idx] != (q.numerator, q.denominator):
            return False
        if cert.domain == DOMAIN_N and Fraction(root) < 0:
            return False
        return True
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
        w: WitnessPrime = data["witness"]
        if data.get("system"):
            return verify_system_witness(w, subject.rows, subject.n)
        if not verify_witness(w):
            return False
        if any(flag for _, flag in w.targets):
            return False
        stored = [(q.numerator, q.denominator) for q, _ in w.targets]
        if stored != _ordered(pairs):
            return False
        if w.n != subject.n:
            return False
        need = max(abs(subject.a) + abs(subject.b), abs(subject.c))
        if data["min_exclusive"] != need:
            return False
        return w.p > need and w.lower_bound_satisfied
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
        want = subject.n // 2 if subject.n % 4 == 0 else subject.n
        if exponent != want or len(inter) > 2:
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
        st = _Statuses()
        for cert in verdict.certificates:
            one = subject if equation is subject or cert.rule.startswith("S") else equation
            if not _reverify_cert(one, cert, pairs):
                return False
            st.apply(cert)
        return (
            st.by_domain[DOMAIN_N] == verdict.status_N
            and st.by_domain[DOMAIN_Z] == verdict.status_Z
            and st.by_domain[DOMAIN_Q] == verdict.status_Q
        )
    except (ParregError, KeyError, ValueError, IndexError, TypeError, AttributeError):
        return False
