"""Partition-regularity verdicts for a*x + b*y = c*w^m*z^n over N, Z\\{0} and
Q\\{0}, and for systems a_i*x_i + b_i*y_i = c_i*w_i*z_i^n, with re-verifiable
certificates attached to every decided status.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    DegenerateInput,
    FactorizationBudgetExceeded,
    ParregError,
    _int_rows,
    factor,
    nth_power_in_Q,
    nth_power_in_Q_nonneg,
    nth_power_in_Qp,
    nth_power_mod_p,
    valuation,
)
from .witness import (
    DEFAULT_SEARCH_BOUND,
    WitnessPrime,
    check_hypotheses,
    find_system_witness,
    find_witness_prime,
    system_intersection,
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
    return sorted(set(ratios))


def _first_root(ratios, n: int, nonneg: bool):
    fn = nth_power_in_Q_nonneg if nonneg else nth_power_in_Q
    for label, q in zip(RATIO_LABELS, ratios):
        root = fn(q, n)
        if root is not None:
            return label, q, root
    return None


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
    """
    v = valuation(gamma, p)
    unit = gamma / Fraction(p) ** v
    unit_residue_ok = nth_power_mod_p(unit, n, p)
    a_holds = not (v >= 0 and v % n == 0 and unit_residue_ok)
    qp = tuple((q, nth_power_in_Qp(q, p, n)) for q in ratios)
    b_holds = not any(flag for _, flag in qp)
    return a_holds, b_holds, v, unit, unit_residue_ok, qp


def classify_equation(eq: EquationSpec, config=None) -> Verdict:
    """Apply the positive rules (R1, R3, R4) and the negative rules (R2, R5 to
    R9) in order; the first applicable rule on each side records certificates.
    Undecided statuses stay UNKNOWN with machine-readable reasons.
    """
    if not isinstance(eq, EquationSpec):
        eq = EquationSpec(*eq)
    a, b, c, m, n = eq.a, eq.b, eq.c, eq.m, eq.n
    witness_bound = _config_get(config, "witness_bound", DEFAULT_SEARCH_BOUND)
    factor_budget = _config_get(config, "factor_budget", DEFAULT_FACTOR_BUDGET)
    ratios = eq.ratios
    certs: list[Certificate] = []
    pending: list[str] = []

    # positive track
    if m >= 2:
        if a + b == 0:
            certs.append(
                Certificate(
                    kind=KIND_RULE,
                    rule="R1",
                    domain=DOMAIN_N,
                    verdict=PR,
                    data={"a": a, "b": b, "m": m, "n": n},
                )
            )
    else:
        if a + b == 0:
            certs.append(
                Certificate(
                    kind=KIND_RULE,
                    rule="R3",
                    domain=DOMAIN_N,
                    verdict=PR,
                    data={"a": a, "b": b, "n": n},
                )
            )
        else:
            # a non-negative root proves PR over N, any other root over Z
            domain, hit = DOMAIN_N, _first_root(ratios, n, nonneg=True)
            if hit is None:
                domain, hit = DOMAIN_Z, _first_root(ratios, n, nonneg=False)
            if hit is not None:
                label, q, root = hit
                certs.append(
                    Certificate(
                        kind=KIND_RATIONAL_ROOT,
                        rule="R4",
                        domain=domain,
                        verdict=PR,
                        data={"which": label, "ratio": q, "root": root, "n": n},
                    )
                )

    # negative track
    negative_fired = False
    if m >= 2:
        if a + b != 0:
            certs.append(
                Certificate(
                    kind=KIND_RULE,
                    rule="R2",
                    domain=DOMAIN_Z,
                    verdict=NOT_PR,
                    data={"a": a, "b": b, "m": m, "n": n},
                )
            )
            pending.append("Q:m-reduction-open")
            negative_fired = True
    else:
        min_exclusive = max(abs(a) + abs(b), abs(c))
        targets = _witness_targets(ratios)
        witness = None
        # when a positive rule fired, some ratio is an n-th power in Q, hence
        # an n-th power residue mod every prime: the scan cannot succeed
        wanted = a + b != 0 and not certs
        # with min_exclusive >= witness_bound no prime is left to scan
        scanned = wanted and min_exclusive < witness_bound
        if scanned:
            witness = find_witness_prime(
                targets,
                n,
                min_exclusive=min_exclusive,
                search_bound=witness_bound,
            )

        def supporting():
            if witness is None:
                return []
            return [
                Certificate(
                    kind=KIND_WITNESS,
                    rule=rule,
                    domain=DOMAIN_Q,
                    verdict=NOT_PR,
                    data={
                        "witness": witness,
                        "min_exclusive": min_exclusive,
                        "supporting": True,
                    },
                )
            ]

        rule = None
        if a + b != 0:
            if n % 2 == 1:
                checks = _power_checks(ratios, n)
                if all(ok for _, _, ok in checks):
                    rule = "R5"
                    certs.append(
                        Certificate(
                            kind=KIND_RULE,
                            rule="R5",
                            domain=DOMAIN_Q,
                            verdict=NOT_PR,
                            data={"n": n, "checks": checks},
                        )
                    )
                    certs.extend(supporting())
            else:
                if n not in (4, 8):
                    checks = _power_checks(ratios, n // 2)
                    if all(ok for _, _, ok in checks):
                        rule = "R6"
                        if n % 4 == 0:
                            # a/c + b/c = (a+b)/c rules out three simultaneous
                            # (n/4)-th powers (no Fermat triple), so the last
                            # hypothesis of the even-n lemma holds for free
                            assert any(
                                nth_power_in_Q(q, n // 4) is None for q in ratios
                            )
                        certs.append(
                            Certificate(
                                kind=KIND_RULE,
                                rule="R6",
                                domain=DOMAIN_Q,
                                verdict=NOT_PR,
                                data={"n": n, "half": n // 2, "checks": checks},
                            )
                        )
                        certs.extend(supporting())
                if rule is None:
                    sq = _power_checks(ratios, 2)
                    prod = ratios[0] * ratios[1] * ratios[2]
                    prod_ok = nth_power_in_Q(prod, 2) is None
                    if all(ok for _, _, ok in sq) and prod_ok:
                        rule = "R7"
                        certs.append(
                            Certificate(
                                kind=KIND_SQUARE,
                                rule="R7",
                                domain=DOMAIN_Q,
                                verdict=NOT_PR,
                                data={
                                    "n": n,
                                    "checks": sq + (("product", prod, prod_ok),),
                                },
                            )
                        )
                        certs.extend(supporting())
            if rule is None and witness is not None:
                rule = "R8"
                certs.append(
                    Certificate(
                        kind=KIND_WITNESS,
                        rule="R8",
                        domain=DOMAIN_Q,
                        verdict=NOT_PR,
                        data={"witness": witness, "min_exclusive": min_exclusive},
                    )
                )
            if rule is None and scanned:
                report = check_hypotheses(targets, n)
                if report.satisfied:
                    pending.append(f"Q:witness:bound-exhausted:{witness_bound}")
                else:
                    pending.append("Q:witness:hypotheses-unmet")
            elif rule is None and wanted:
                pending.append(f"Q:witness:threshold-above-bound:{witness_bound}")
            negative_fired = rule is not None

        if not negative_fired and a + b != 0:
            gamma = ratios[2]
            try:
                candidates = _padic_candidates(gamma, factor_budget)
            except FactorizationBudgetExceeded:
                candidates = []
                pending.append("Z:padic:budget-exceeded")
            fired_p = None
            for p in candidates:
                a_holds, b_holds, v, unit, unit_ok, qp = _padic_case(
                    gamma, ratios, p, n
                )
                if a_holds and b_holds:
                    fired_p = p
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
                    break
            if fired_p is not None:
                negative_fired = True
                pending.append("Q:padic:scope-Z-only")
            elif candidates:
                pending.append("Z:padic:no-candidate-fired")

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

    inter = system_intersection(sys_spec.rows)
    sorted_i = sorted(inter)
    certs: list[Certificate] = []
    pending: list[str] = []
    no_zero_rows = all(a + b != 0 for a, b, _ in sys_spec.rows)

    fired = False
    for q in sorted_i:
        root = nth_power_in_Q(q, n)
        if root is not None:
            certs.append(
                Certificate(
                    kind=KIND_SYSTEM_INTERSECTION,
                    rule="S1",
                    domain=DOMAIN_Z,
                    verdict=PR,
                    data={"intersection": tuple(sorted_i), "n": n, "power": q, "root": root},
                )
            )
            pending.append("N:system:open-over-N")
            fired = True
            break

    if not fired:
        exponent = n // 2 if n % 4 == 0 else n
        structural_ok = (
            no_zero_rows
            and len(sorted_i) <= 2
            and all(nth_power_in_Q(q, exponent) is None for q in sorted_i)
        )
        witness = None
        if no_zero_rows:
            witness = find_system_witness(sys_spec.rows, n, search_bound=witness_bound)
        if structural_ok:
            rule = "S2" if n % 4 else "S3"
            certs.append(
                Certificate(
                    kind=KIND_SYSTEM_INTERSECTION,
                    rule=rule,
                    domain=DOMAIN_Z,
                    verdict=NOT_PR,
                    data={
                        "intersection": tuple(sorted_i),
                        "n": n,
                        "exponent": exponent,
                        "checks": tuple(
                            (q, nth_power_in_Q(q, exponent) is None) for q in sorted_i
                        ),
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
            fired = True
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
            fired = True
        else:
            if not no_zero_rows:
                pending.append("Z:system:zero-sum-row")
            elif len(sorted_i) > 2:
                pending.append("Z:system:intersection-size-3-open")
                pending.append(f"Z:system-witness:bound-exhausted:{witness_bound}")
            else:
                pending.append(f"Z:system-witness:bound-exhausted:{witness_bound}")

    return _verdict(sys_spec, _Statuses(certs), certs, pending)


# ---------------------------------------------------------------------------
# Re-verification


def _reverify_cert(subject, cert: Certificate) -> bool:
    data = cert.data
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
            q for _, q, _ in data["checks"]
        ) == subject.ratios
    if cert.kind == KIND_RATIONAL_ROOT:
        q, root, n = data["ratio"], data["root"], data["n"]
        if Fraction(root) ** n != q:
            return False
        idx = RATIO_LABELS.index(data["which"])
        if subject.ratios[idx] != q:
            return False
        if cert.domain == DOMAIN_N and Fraction(root) < 0:
            return False
        return True
    if cert.kind == KIND_SQUARE:
        checks = data["checks"]
        if len(checks) != 4:
            return False
        ratios = subject.ratios
        expect = list(ratios) + [ratios[0] * ratios[1] * ratios[2]]
        for (label, q, ok), want in zip(checks, expect):
            if q != want or not ok or nth_power_in_Q(q, 2) is not None:
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
        stored = tuple(q for q, _ in w.targets)
        if stored != tuple(_witness_targets(subject.ratios)):
            return False
        if w.n != subject.n:
            return False
        need = max(abs(subject.a) + abs(subject.b), abs(subject.c))
        if data["min_exclusive"] != need:
            return False
        return w.p > need and w.lower_bound_satisfied
    if cert.kind == KIND_PADIC:
        eq = subject
        gamma = eq.ratios[2]
        p, n = data["p"], data["n"]
        if n != eq.n:
            return False
        a_holds, b_holds, v, unit, unit_ok, qp = _padic_case(gamma, eq.ratios, p, n)
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
        inter = tuple(sorted(system_intersection(subject.rows)))
        if inter != data["intersection"]:
            return False
        if cert.rule == "S1":
            q, root = data["power"], data["root"]
            return q in inter and Fraction(root) ** data["n"] == q
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
        st = _Statuses()
        for cert in verdict.certificates:
            subject = verdict.subject
            if (
                isinstance(subject, SystemSpec)
                and len(subject.rows) == 1
                and not cert.rule.startswith("S")
            ):
                a, b, c = subject.rows[0]
                subject = EquationSpec(a, b, c, 1, subject.n)
            if not _reverify_cert(subject, cert):
                return False
            st.apply(cert)
        return (
            st.by_domain[DOMAIN_N] == verdict.status_N
            and st.by_domain[DOMAIN_Z] == verdict.status_Z
            and st.by_domain[DOMAIN_Q] == verdict.status_Q
        )
    except (ParregError, KeyError, ValueError, IndexError, TypeError, AttributeError):
        return False
