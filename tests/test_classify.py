"""Decision-rule classifier: rule selection, status propagation, reasons,
and certificate re-verification including tamper detection.
"""

import hashlib
import itertools
import os
import random
import re
import signal
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg
import parreg.classify as classify_module
from parreg import arith, coloring, radolinear, witness
from parreg.arith import DegenerateInput, nth_power_in_Q
from parreg.classify import (
    NOT_PR,
    PR,
    UNKNOWN,
    Certificate,
    ContradictionError,
    EquationSpec,
    SystemSpec,
    Verdict,
    classify_equation,
    classify_system,
    reverify,
)
from parreg.cli import RunConfig, canonical_json, report, reproduction_table


def rules_of(v):
    return {c.rule for c in v.certificates}


def statuses(v):
    return (v.status_N, v.status_Z, v.status_Q)


def witness_cert(v):
    hits = [c for c in v.certificates if c.kind == "witness"]
    assert len(hits) == 1
    return hits[0]


SMALL = SimpleNamespace(witness_bound=5000)


# ---------------------------------------------------------------------------
# specs


def test_equation_spec_validation():
    with pytest.raises(DegenerateInput):
        EquationSpec(0, 1, 1, 1, 1)
    with pytest.raises(DegenerateInput):
        EquationSpec(1, 1, 0, 1, 1)
    with pytest.raises(DegenerateInput):
        EquationSpec(1, 1, 1, 0, 2)
    eq = EquationSpec(1, 2, 1, 5, 2)  # exponents are order-free
    assert (eq.m, eq.n) == (2, 5)
    assert EquationSpec(2, 3, 4, 1, 1).ratios == (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(5, 4),
    )


def test_system_spec_validation():
    with pytest.raises(DegenerateInput):
        SystemSpec((), 2)
    with pytest.raises(DegenerateInput):
        SystemSpec(((1, 0, 1),), 2)
    with pytest.raises(DegenerateInput):
        SystemSpec(((1, 1, 1),), 0)


def test_system_spec_refuses_inexact_coefficients():
    # int() used to read the row (2.5, 3, 1) as (2, 3, 1)
    for row in ((2.5, 3, 1), (Fraction(5, 2), 3, 1)):
        with pytest.raises(DegenerateInput):
            SystemSpec((row, (4, 1, 1)), 2)


def test_bool_is_not_an_integer():
    # True passed every integer check as 1: it coloured as 1, served as a
    # factoring budget, a witness bound, a coefficient and an exponent
    for fn in (
        lambda: arith._as_int(True),
        lambda: coloring.color_of(True, coloring.ValuationColoring(3)),
        lambda: arith.factor(12, budget=True),
        lambda: RunConfig(witness_bound=True),
        lambda: EquationSpec(True, 3, 1, 1, 2),
        lambda: EquationSpec(2, 3, 1, 1, True),
        lambda: SystemSpec(((True, 2, 1), (1, 2, 1)), 2),
        lambda: SystemSpec(((1, 2, 1), (1, 3, 1)), True),
        # and every rational check took it as the rational 1
        lambda: arith._as_rat(True),
        lambda: nth_power_in_Q(True, 2),
        lambda: witness.find_witness_prime([True, 2], 2, search_bound=100),
        lambda: radolinear.QMatrix.from_rows([[True, 2]]),
    ):
        with pytest.raises(DegenerateInput):
            fn()


def test_system_spec_refuses_rows_that_are_not_triples():
    # unpacking (1, 2) raised ValueError, and unpacking 5 raised TypeError
    for rows in (((1, 2),), (5,), ((1, 2, 3, 4),), ((1, 2, 3), "ab")):
        with pytest.raises(DegenerateInput):
            SystemSpec(rows, 2)
    # a list row is a sequence of three, as a decoded JSON report gives it
    assert SystemSpec([[1, 2, 3]], 2).rows == ((1, 2, 3),)


# ---------------------------------------------------------------------------
# positive rules


def test_cancelling_pair_high_power():
    v = classify_equation(EquationSpec(1, -1, 1, 2, 3))
    assert statuses(v) == (PR, PR, PR)
    assert rules_of(v) == {"R1"}
    assert v.reasons == ()


def test_cancelling_pair_linear():
    v = classify_equation((2, -2, 5, 1, 4))
    assert statuses(v) == (PR, PR, PR)
    assert rules_of(v) == {"R3"}


def test_rational_root_over_n():
    v = classify_equation(EquationSpec(1, 7, 1, 1, 3))
    assert statuses(v) == (PR, PR, PR)
    assert rules_of(v) == {"R4"}
    cert = v.certificates[0]
    assert cert.data["which"] == "a/c"
    assert cert.data["root"] == 1
    assert v.reasons == ()


def test_rational_root_over_z_only():
    v = classify_equation(EquationSpec(-8, 3, 1, 1, 3))
    assert statuses(v) == (UNKNOWN, PR, PR)
    assert rules_of(v) == {"R4"}
    cert = v.certificates[0]
    assert cert.data["root"] == -2 and cert.domain == "Z"
    assert "N:sign-analysis-inconclusive" in v.reasons


def test_sign_infeasibility_beats_open_n():
    # x + y = -w*z^3: no solutions over N at all, yet x = y = -z, w = 1
    # settles Z and Q
    v = classify_equation(EquationSpec(1, 1, -1, 1, 3))
    assert statuses(v) == (NOT_PR, PR, PR)
    assert rules_of(v) == {"R4", "R4'"}
    assert v.reasons == ()


# ---------------------------------------------------------------------------
# negative rules


def test_repeated_w_power():
    v = classify_equation(EquationSpec(2, 3, 1, 2, 2))
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"R2"}
    assert v.reasons == ("Q:m-reduction-open",)


def test_odd_exponent_rule():
    v = classify_equation(EquationSpec(2, 2, 1, 1, 3))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R5"}
    assert witness_cert(v).data["witness"].p == 7
    assert witness_cert(v).data["supporting"]


def test_even_exponent_rule():
    v = classify_equation(EquationSpec(2, 2, 1, 1, 6))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R6"}
    assert witness_cert(v).data["witness"].p == 7


def test_square_rule():
    v = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R7"}
    w = witness_cert(v).data
    assert w["witness"].p == 43
    assert w["min_exclusive"] == 5


def test_direct_witness_rule():
    v = classify_equation(EquationSpec(4, 4, 1, 1, 4))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R8"}
    w = witness_cert(v).data["witness"]
    assert w.p == 13 and w.lower_bound_satisfied


def test_direct_witness_square_target():
    # 9 blocks the square rule but 17 still certifies
    v = classify_equation(EquationSpec(9, 2, 1, 1, 8))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R8"}
    assert witness_cert(v).data["witness"].p == 17


def test_witness_bound_exhaustion_reason():
    v = classify_equation(
        EquationSpec(9, 2, 1, 1, 8), config=SimpleNamespace(witness_bound=13)
    )
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert rules_of(v) == set()
    assert v.reasons == (
        "Q:witness:bound-exhausted:13",
        "Z:padic:no-candidate-fired",
        "N:sign-analysis-inconclusive",
    )


def test_smaller_bound_falls_back_to_padic():
    v = classify_equation(
        EquationSpec(4, 4, 1, 1, 4), config=SimpleNamespace(witness_bound=12)
    )
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"R9"}
    assert v.reasons == ("Q:witness:hypotheses-unmet", "Q:padic:scope-Z-only")


def test_padic_rule():
    v = classify_equation(EquationSpec(3, 13, 1, 1, 8), config=SMALL)
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"R9"}
    cert = v.certificates[0]
    assert cert.data["p"] == 2
    assert cert.data["v"] == 4
    assert v.reasons == ("Q:witness:hypotheses-unmet", "Q:padic:scope-Z-only")


def test_fully_open_equation():
    v = classify_equation(EquationSpec(16, 17, 1, 1, 8), config=SMALL)
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert rules_of(v) == set()
    assert v.reasons == (
        "Q:witness:hypotheses-unmet",
        "Z:padic:no-candidate-fired",
        "N:sign-analysis-inconclusive",
    )


def test_symmetries():
    cases = [(2, 3, 1, 1, 2), (2, 2, 1, 1, 3), (1, -1, 1, 2, 3), (4, 4, 1, 1, 4)]
    for a, b, c, m, n in cases:
        base = classify_equation(EquationSpec(a, b, c, m, n))
        swapped = classify_equation(EquationSpec(b, a, c, m, n))
        negated = classify_equation(EquationSpec(-a, -b, -c, m, n))
        assert statuses(base) == statuses(swapped) == statuses(negated)


# ---------------------------------------------------------------------------
# status lattice


def test_verdict_rejects_non_monotone_statuses():
    with pytest.raises(ContradictionError):
        Verdict(None, PR, UNKNOWN, UNKNOWN, (), ())
    with pytest.raises(ContradictionError):
        Verdict(None, UNKNOWN, UNKNOWN, NOT_PR, (), ())
    with pytest.raises(ContradictionError):
        Verdict(None, "MAYBE", UNKNOWN, UNKNOWN, (), ())


# ---------------------------------------------------------------------------
# systems


def test_system_shared_power():
    v = classify_system(SystemSpec(((1, 2, 1), (2, 4, 2)), 2))
    assert statuses(v) == (UNKNOWN, PR, PR)
    assert rules_of(v) == {"S1"}
    cert = v.certificates[0]
    assert cert.data["intersection"] == (1, 2, 3)
    assert cert.data["power"] == 1 and cert.data["root"] == 1
    assert v.reasons == ("N:system:open-over-N",)


IV = ((9, 16, 1), (25, -9, 1), (25, -16, 1), (9, 7, 1))


def test_system_shared_square_after_row_removal():
    v = classify_system(SystemSpec(IV[:1] + IV[2:], 2))
    assert statuses(v) == (UNKNOWN, PR, PR)
    cert = v.certificates[0]
    assert cert.rule == "S1"
    assert cert.data["intersection"] == (9,)
    assert cert.data["root"] == 3


def test_system_empty_intersection_even():
    rows = ((32400, 57600, 1), (15210000, 87609600, 1))
    v = classify_system(SystemSpec(rows, 4))
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"S3"}
    assert v.certificates[0].data["intersection"] == ()
    assert witness_cert(v).data["witness"].p == 37
    assert v.reasons == ("Q:system:scope-Z-only",)


def test_system_singleton_intersection():
    v = classify_system(SystemSpec(((16, 17, 1), (33, 4063, 1)), 8))
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"S3"}
    cert = v.certificates[0]
    assert cert.data["intersection"] == (33,)
    assert cert.data["exponent"] == 4
    assert witness_cert(v).data["witness"].p == 23


def test_system_empty_intersection_odd():
    v = classify_system(SystemSpec(((8, 27, 1), (27, 343, 1), (343, 8, 1)), 3))
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"S2"}
    assert witness_cert(v).data["witness"].p == 17


def test_system_four_rows():
    v = classify_system(SystemSpec(IV, 2))
    assert statuses(v) == (NOT_PR, NOT_PR, UNKNOWN)
    assert rules_of(v) == {"S2"}
    assert witness_cert(v).data["witness"].p == 11


def test_system_direct_witness_large_intersection():
    v = classify_system(SystemSpec(((2, 3, 1), (2, 3, 1)), 2))
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"S4"}
    assert witness_cert(v).data["witness"].p == 43
    assert v.reasons == ()


def test_system_zero_sum_row_is_open():
    v = classify_system(SystemSpec(((1, -1, 1), (2, 3, 1)), 2))
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert rules_of(v) == set()
    assert v.reasons == ("Z:system:zero-sum-row",)


def test_system_large_intersection_open():
    v = classify_system(SystemSpec(((16, 17, 1), (16, 17, 1)), 8), config=SMALL)
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert v.reasons == (
        "Z:system:intersection-size-3-open",
        "Z:system-witness:bound-exhausted:5000",
    )


def test_system_open_pair():
    v = classify_system(SystemSpec(((16, 17, 1), (33, -17, 1)), 8), config=SMALL)
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert rules_of(v) == set()
    assert v.reasons == ("Z:system-witness:bound-exhausted:5000",)


def test_single_row_system_delegates():
    v = classify_system(SystemSpec(((2, 3, 1),), 2))
    e = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    assert statuses(v) == statuses(e)
    assert rules_of(v) == {"R7"}
    assert isinstance(v.subject, SystemSpec)
    assert reverify(v)


# ---------------------------------------------------------------------------
# re-verification


def fresh_verdicts():
    return [
        classify_equation(EquationSpec(1, -1, 1, 2, 3)),
        classify_equation(EquationSpec(2, -2, 5, 1, 4)),
        classify_equation(EquationSpec(1, 7, 1, 1, 3)),
        classify_equation(EquationSpec(-8, 3, 1, 1, 3)),
        classify_equation(EquationSpec(1, 1, -1, 1, 3)),
        classify_equation(EquationSpec(2, 3, 1, 2, 2)),
        classify_equation(EquationSpec(2, 2, 1, 1, 3)),
        classify_equation(EquationSpec(2, 2, 1, 1, 6)),
        classify_equation(EquationSpec(2, 3, 1, 1, 2)),
        classify_equation(EquationSpec(4, 4, 1, 1, 4)),
        classify_equation(EquationSpec(3, 13, 1, 1, 8), config=SMALL),
        classify_equation(EquationSpec(16, 17, 1, 1, 8), config=SMALL),
        classify_system(SystemSpec(((1, 2, 1), (2, 4, 2)), 2)),
        classify_system(SystemSpec(((16, 17, 1), (33, 4063, 1)), 8)),
        classify_system(SystemSpec(((8, 27, 1), (27, 343, 1), (343, 8, 1)), 3)),
        classify_system(SystemSpec(((2, 3, 1), (2, 3, 1)), 2)),
        classify_system(SystemSpec(((2, 3, 1),), 2)),
    ]


def test_reverify_accepts_everything_fresh():
    for v in fresh_verdicts():
        assert reverify(v), v.subject


def test_reverify_rejects_flipped_status():
    v = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    v.status_Q = UNKNOWN
    assert not reverify(v)


@contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, when the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_reverify_rejects_tampered_padic_prime():
    v = classify_equation(EquationSpec(3, 13, 1, 1, 8), config=SMALL)
    cert = v.certificates[0]
    assert cert.rule == "R9" and reverify(v)
    # a valuation at p = 1 or -1 never ended, and p = 0 divided by zero
    for p in (3, 1, -1, 0, True, 4):
        cert.data["p"] = p
        with _deadline(10):
            assert reverify(v) is False, p


def test_reverify_rejects_a_changed_ratio():
    # each stored ratio is compared with the subject's own: 2 -> 5 keeps
    # every power check of R5, R6 and R7 true, and the product of R7 is
    # the subject's only with 2 in place
    for n in (3, 6, 2):
        eq = EquationSpec(2, 3, 1, 1, n)
        v = classify_equation(eq)
        assert reverify(v)
        cert = v.certificates[0]
        (label, q, ok), *rest = cert.data["checks"]
        cert.data["checks"] = ((label, q + 3, ok), *rest)
        assert not reverify(v), eq
    v = classify_equation(EquationSpec(1, 7, 1, 1, 3))
    assert v.certificates[0].rule == "R4" and reverify(v)
    v.certificates[0].data["which"] = "b/c"
    assert not reverify(v)
    v = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    w = witness_cert(v).data["witness"]
    witness_cert(v).data["witness"] = type(w)(
        p=w.p, n=w.n, targets=w.targets[:2], lower_bound_satisfied=True
    )
    assert not reverify(v)


def test_reverify_rejects_an_m1_certificate_on_m_at_least_2():
    # R4 of (1, 1, 1, 1, 3) reads a/c = 1 = 1^3, and (1, 8, 1) has a/c = 1
    # too, but (1, 8, 1, 2, 3) is NOT_PR over N and Z by R2
    cert = classify_equation(EquationSpec(1, 1, 1, 1, 3)).certificates[0]
    assert cert.rule == "R4"
    forged = Verdict(EquationSpec(1, 8, 1, 2, 3), PR, PR, PR, (cert,), ())
    assert not reverify(forged)
    assert reverify(Verdict(EquationSpec(1, 8, 1, 1, 3), PR, PR, PR, (cert,), ()))


def test_reverify_rejects_a_certificate_for_another_n():
    # R4 with n = 1 and root = ratio holds for any ratio
    forged = Certificate(
        kind="rational_root",
        rule="R4",
        domain="N",
        verdict=PR,
        data={"which": "a/c", "ratio": Fraction(2), "root": Fraction(2), "n": 1},
    )
    assert not reverify(Verdict(EquationSpec(2, 3, 1, 1, 3), PR, PR, PR, (forged,), ()))
    # R7 of (8, 19, 1, 1, 2): 8, 19, 27 and their product are no squares,
    # but at n = 3 the equation is PR by R4 (8 = 2^3)
    v = classify_equation(EquationSpec(8, 19, 1, 1, 2))
    r7 = next(cert for cert in v.certificates if cert.kind == "square")
    assert reverify(Verdict(v.subject, NOT_PR, NOT_PR, NOT_PR, (r7,), ()))
    assert not reverify(Verdict(EquationSpec(8, 19, 1, 1, 3), NOT_PR, NOT_PR, NOT_PR, (r7,), ()))
    # S1 with n = 1 and power = root on a system whose intersection 2, 3, 5
    # holds no square
    v = classify_system(SystemSpec(((2, 3, 1), (2, 3, 1)), 2))
    inter = (Fraction(2), Fraction(3), Fraction(5))
    forged = Certificate(
        kind="system_intersection",
        rule="S1",
        domain="Z",
        verdict=PR,
        data={"intersection": inter, "n": 1, "power": Fraction(2), "root": Fraction(2)},
    )
    assert not reverify(Verdict(v.subject, UNKNOWN, PR, PR, (forged,), ()))


def test_reverify_rejects_missing_field():
    v = classify_equation(EquationSpec(3, 13, 1, 1, 8), config=SMALL)
    v.certificates[0].data.pop("p")
    assert not reverify(v)


def test_reverify_rejects_fake_witness():
    v = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    w = witness_cert(v).data["witness"]
    # 41 is not a witness: 2 is a quadratic residue mod 41
    witness_cert(v).data["witness"] = type(w)(
        p=41, n=w.n, targets=w.targets, lower_bound_satisfied=True
    )
    assert not reverify(v)


def test_reverify_rejects_contradictory_extra_certificate():
    v = classify_equation(EquationSpec(2, 3, 1, 1, 2))
    fake = Certificate(
        kind="rule", rule="R3", domain="N", verdict=PR, data={"a": 2, "b": 3, "n": 2}
    )
    v.certificates = v.certificates + (fake,)
    assert not reverify(v)


def _alone(subject, cert):
    """A verdict resting on cert alone, with the statuses its domain and
    verdict prove: PR from its domain up, NOT_PR from its domain down."""
    i = "NZQ".index(cert.domain)
    st = [
        cert.verdict if (j >= i if cert.verdict == PR else j <= i) else UNKNOWN
        for j in range(3)
    ]
    return Verdict(subject, *st, (cert,), ())


def test_reverify_refuses_a_forged_claim():
    # every certificate alone re-verifies; moved to any other domain or
    # verdict, with the statuses re-derived from it, it must not, or a
    # flipped verdict or a stronger domain would stand
    forged = 0
    for v in fresh_verdicts():
        for cert in v.certificates:
            assert reverify(_alone(v.subject, cert)), cert
            for domain, verdict in itertools.product("NZQ", (PR, NOT_PR)):
                if (domain, verdict) != (cert.domain, cert.verdict):
                    claim = replace(cert, domain=domain, verdict=verdict)
                    assert not reverify(_alone(v.subject, claim)), (cert, domain, verdict)
                    forged += 1
    assert forged == 115


def test_reverify_refuses_a_certificate_under_another_rule():
    # a certificate proves its own rule's claim only, except that a witness
    # prime, which proves NOT_PR over Q, may stand behind any NOT_PR rule:
    # the sign check of R4' renamed R1 would otherwise prove PR over N
    for v in fresh_verdicts():
        for cert in v.certificates:
            for rule, (_, domain, verdict) in classify_module._CLAIMS.items():
                if rule == cert.rule or (cert.kind == "witness" and verdict == NOT_PR):
                    continue
                claim = replace(cert, rule=rule, domain=domain, verdict=verdict)
                assert not reverify(_alone(v.subject, claim)), (cert, rule)


def test_statuses_refuse_disagreeing_certificates():
    r3 = Certificate(kind="rule", rule="R3", domain="N", verdict=PR, data={})
    r2 = Certificate(kind="rule", rule="R2", domain="Z", verdict=NOT_PR, data={})
    assert classify_module._statuses([r3]) == {"N": PR, "Z": PR, "Q": PR}
    assert classify_module._statuses([r2]) == {"N": NOT_PR, "Z": NOT_PR, "Q": UNKNOWN}
    for certs in ([r3, r2], [r2, r3]):
        with pytest.raises(ContradictionError):
            classify_module._statuses(certs)


def test_reverify_rejects_tampered_intersection():
    v = classify_system(SystemSpec(((16, 17, 1), (33, 4063, 1)), 8))
    v.certificates[0].data["intersection"] = (Fraction(35),)
    assert not reverify(v)


def test_reverify_rejects_tampered_shared_power():
    v = classify_system(SystemSpec(((1, 2, 1), (2, 4, 2)), 2))
    v.certificates[0].data["power"] = Fraction(2)
    assert not reverify(v)


@pytest.mark.parametrize(
    "subject",
    [EquationSpec(2, 3, 1, 1, 2), SystemSpec(((4, 1, 1), (4, 3, 1)), 4)],
)
def test_reverify_rejects_a_witness_marked_below_its_threshold(subject):
    # the system witness (S4, p = 13) was accepted with its lower bound
    # marked unmet, which the equation witness (R7's, p = 43) was not
    v = (classify_equation if isinstance(subject, EquationSpec) else classify_system)(subject)
    assert reverify(v)
    cert = witness_cert(v)
    cert.data["witness"] = replace(cert.data["witness"], lower_bound_satisfied=False)
    assert not reverify(v)


def test_reverify_rejects_wrong_system_witness():
    v = classify_system(SystemSpec(((2, 3, 1), (2, 3, 1)), 2))
    w = witness_cert(v).data["witness"]
    witness_cert(v).data["witness"] = type(w)(
        p=41, n=w.n, targets=w.targets, lower_bound_satisfied=True
    )
    assert not reverify(v)


# ---------------------------------------------------------------------------
# inputs that once escaped as exceptions


def test_default_config_has_a_factor_budget():
    # (a+b)/c = 1000036000099 needs Pollard rho to factor for the p-adic rule
    v = classify_equation(EquationSpec(1000036000098, 1, 1, 1, 2))
    assert statuses(v) == (PR, PR, PR)
    assert reverify(v)


def test_threshold_above_witness_bound():
    # min_exclusive = |a| + |b| exceeds the default witness bound of 10^6
    v = classify_equation(EquationSpec(1000036000083, 16, 1, 1, 8))
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert rules_of(v) == set()
    assert v.reasons[0] == "Q:witness:threshold-above-bound:1000000"
    assert reverify(v)
    # min_exclusive == witness_bound leaves no prime to scan either
    v = classify_equation(
        EquationSpec(9, 2, 1, 1, 8), config=SimpleNamespace(witness_bound=11)
    )
    assert v.reasons == (
        "Q:witness:threshold-above-bound:11",
        "Z:padic:no-candidate-fired",
        "N:sign-analysis-inconclusive",
    )


@pytest.mark.parametrize("subject", [EquationSpec(-1, 81, -80, 1, 2), EquationSpec(-4, 1, 3, 1, 2)])
def test_gamma_minus_one_has_a_z_reason(subject):
    # (a+b)/c = -1 at even n: factor(-1) gives no prime, so there is no
    # p-adic candidate, and the UNKNOWN Z status had no Z: reason
    v = classify_equation(subject)
    assert statuses(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert v.reasons == (
        "Q:witness:hypotheses-unmet",
        "Z:padic:no-candidate-fired",
        "N:sign-analysis-inconclusive",
    )
    assert reverify(v)


@pytest.mark.parametrize("bound", [11.0, 12.0, 0, -5])
def test_classify_refuses_a_bad_witness_bound(bound):
    # the rule of RunConfig, whatever the threshold and the track: 11.0 and
    # -5 used to give a verdict with the bound in its reasons, 12.0 raised
    # from the sieve
    config = SimpleNamespace(witness_bound=bound)
    message = "expected an integer" if isinstance(bound, float) else "witness_bound must be positive"
    for subject in (EquationSpec(9, 2, 1, 1, 8), EquationSpec(1, -1, 1, 2, 2)):
        with pytest.raises(DegenerateInput, match=message):
            classify_equation(subject, config=config)
    for rows in (((1, 2, 1), (3, 5, 1)), ((2, 3, 1),)):
        with pytest.raises(DegenerateInput, match=message):
            classify_system(SystemSpec(rows, 2), config=config)


@pytest.mark.parametrize("budget", ["x", None, 0, -3, 1.5])
def test_classify_refuses_a_bad_factor_budget(budget):
    # the rule of RunConfig, as for witness_bound: with (a+b)/c a semiprime
    # past trial division, "x" and None raised TypeError from Pollard rho
    # and 0, -3 and 1.5 gave Z:padic:budget-exceeded; where trial division
    # factors (a+b)/c the budget went unread
    big = (10**12 + 39) * (10**12 + 61)
    config = SimpleNamespace(factor_budget=budget)
    message = "factor_budget must be positive" if isinstance(budget, int) else "expected an integer"
    for subject in (EquationSpec(16, big - 16, 1, 1, 8), EquationSpec(3, 13, 1, 1, 8)):
        with pytest.raises(DegenerateInput, match=message):
            classify_equation(subject, config=config)
    for rows in (((1, 2, 1), (3, 5, 1)), ((3, 13, 1),)):
        with pytest.raises(DegenerateInput, match=message):
            classify_system(SystemSpec(rows, 8), config=config)


def test_threshold_above_bound_leaves_hypothesis_rules():
    # R7 needs no witness: Q is still decided, only the supporting prime goes
    v = classify_equation(
        EquationSpec(2, 3, 1, 1, 2), config=SimpleNamespace(witness_bound=5)
    )
    assert statuses(v) == (NOT_PR, NOT_PR, NOT_PR)
    assert rules_of(v) == {"R7"}
    assert not [c for c in v.certificates if c.kind == "witness"]
    assert reverify(v)


coefficient = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(st.integers(1, 100), st.integers(1, 10**6), st.integers(1, 10**15)),
    st.booleans(),
)


@given(coefficient, coefficient, coefficient, st.integers(1, 4), st.integers(1, 24))
@settings(max_examples=150, deadline=None)
def test_every_equation_gets_a_checkable_verdict(a, b, c, m, n):
    # default config: the witness decision, factoring budget and bounds as shipped
    v = classify_equation(EquationSpec(a, b, c, m, n))
    assert reverify(v)
    for domain, status in zip("NZQ", statuses(v)):
        if status == UNKNOWN:
            assert any(r.startswith(domain + ":") for r in v.reasons), (domain, v.reasons)


@given(
    st.one_of(
        st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=4),
        # few values, so that duplicates are common
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=6
        ),
        st.builds(
            lambda a, b, c: EquationSpec(a, b, c, 1, 1).ratios, coefficient, coefficient, coefficient
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_witness_targets_match_the_sorted_set(ratios):
    # the oracle: Fractions hashed into a set and sorted by their compares;
    # the coefficients set only the threshold
    targets, threshold, bad = witness._equation_obstruction(2, -7, 3, ratios)
    assert list(targets) == sorted(set(ratios))
    assert threshold == 9
    assert bad == prod(q.numerator * q.denominator for q in set(ratios))


# ---------------------------------------------------------------------------
# pinned report bytes and root counts over a box of small inputs

BOX_COEFFICIENTS = [v for v in range(-6, 7) if v]


def box_subjects():
    """9,216 equations and 80 two-row systems; at bound 10^6 they reach R1 to
    R9, R4', S1, S2 and S3, and at bound 10 also every witness reason."""
    for a, b, c, m, n in itertools.product(
        BOX_COEFFICIENTS, BOX_COEFFICIENTS, (1, -1, 2, 3), (1, 2), range(1, 9)
    ):
        yield "classify", EquationSpec(a, b, c, m, n)
    for a, b, n in itertools.product((1, 2, 4, 9, 16), (1, 3, 5, 17), (2, 3, 4, 8)):
        yield "system", SystemSpec(((a, b, 1), (b, a + 1, 1)), n)


@pytest.mark.parametrize(
    "bound, digest, counts",
    [
        (
            10**6,
            "e1023f1bff0ddf96d2bff6d91ae201b5356e34fd6059e4ff80d87ad62a8aebae",
            {
                (NOT_PR, NOT_PR, NOT_PR): 2781,
                (NOT_PR, NOT_PR, UNKNOWN): 3784,
                (NOT_PR, PR, PR): 295,
                (PR, PR, PR): 2234,
                (UNKNOWN, PR, PR): 194,
                (UNKNOWN, UNKNOWN, UNKNOWN): 8,
            },
        ),
        (
            10,
            "19f6dcba4b912ca20ad19533316f79137db0bf891264f88fb71071d5d0d765dc",
            {
                (NOT_PR, NOT_PR, NOT_PR): 2649,
                (NOT_PR, NOT_PR, UNKNOWN): 3874,
                (NOT_PR, PR, PR): 295,
                (PR, PR, PR): 2234,
                (UNKNOWN, PR, PR): 194,
                (UNKNOWN, UNKNOWN, UNKNOWN): 50,
            },
        ),
    ],
    ids=("bound-1000000", "bound-10"),
)
def test_box_reports_are_pinned(bound, digest, counts):
    # one sha256 over the JSON reports, in box order
    config = RunConfig(witness_bound=bound, output="json")
    h = hashlib.sha256()
    seen = Counter()
    for command, subject in box_subjects():
        classify = classify_equation if command == "classify" else classify_system
        v = classify(subject, config=config)
        assert reverify(v), subject
        h.update(canonical_json(report(command, config, v)).encode())
        seen[statuses(v)] += 1
    assert dict(seen) == counts
    assert h.hexdigest() == digest


def _signed(rng, magnitude):
    return magnitude if rng.random() < 0.5 else -magnitude


def _log_uniform(rng, hi):
    return max(1, round(hi ** rng.random()))


def corpus_subjects(seed, size):
    """size seeded requests shaped like everyday traffic: 85% equations with
    |a|, |b| log-uniform on [1, 10^6], |c| on [1, 100], m = 1 with
    probability 3/4 (else 2 to 4) and n in 1..12; 15% systems of 2 or 3
    rows with |a|, |b| <= 10^4, |c| <= 10 and n in 2..12."""
    rng = random.Random(seed)
    for _ in range(size):
        if rng.random() < 0.85:
            a = _signed(rng, _log_uniform(rng, 10**6))
            b = _signed(rng, _log_uniform(rng, 10**6))
            c = _signed(rng, _log_uniform(rng, 100))
            m = 1 if rng.random() < 0.75 else rng.randint(2, 4)
            yield "classify", EquationSpec(a, b, c, m, rng.randint(1, 12))
        else:
            rows = tuple(
                (
                    _signed(rng, rng.randint(1, 10**4)),
                    _signed(rng, rng.randint(1, 10**4)),
                    _signed(rng, rng.randint(1, 10)),
                )
                for _ in range(rng.randint(2, 3))
            )
            yield "system", SystemSpec(rows, rng.randint(2, 12))


def test_corpus_reports_are_pinned():
    # one sha256 over the --json reports of 300 seeded requests at the CLI's
    # defaults, in draw order; they reach R2 to R8, S2 and S3
    config = RunConfig(output="json")
    h = hashlib.sha256()
    rules = set()
    for command, subject in corpus_subjects(23, 300):
        classify = classify_equation if command == "classify" else classify_system
        v = classify(subject, config=config)
        assert reverify(v)
        rules |= rules_of(v)
        h.update(canonical_json(report(command, config, v)).encode())
    assert {"R2", "R4", "R5", "R6", "R7", "R8", "S2", "S3"} <= rules
    assert h.hexdigest() == "8f7b3834b5453e984c9a04bd11f00dfdd48f998d3493509f3c96929b7b4f5e88"


# the seven equations of the reproduction table
FIXTURE_EQUATIONS = [
    EquationSpec(3, 13, 1, 1, 8),
    EquationSpec(16, 16, 1, 1, 8),
    EquationSpec(60, 90, 1, 1, 2),
    EquationSpec(81, 729, 1, 1, 12),
    EquationSpec(32400, 57600, 1, 1, 4),
    EquationSpec(16, 17, 1, 1, 8),
    EquationSpec(33, 4063, 1, 1, 8),
]


def test_classify_reads_the_sieve_flags_not_a_prime_tuple(monkeypatch):
    # the witness searches and the residue counts walk the flags of the
    # 10^6 sieve, so classifying and re-verifying never builds its tuple of
    # 78,498 primes
    monkeypatch.setattr(arith, "_sieve_cache", None)
    held = arith.sieve(10**6)
    config = RunConfig(output="json")
    subjects = [("classify", eq) for eq in FIXTURE_EQUATIONS]
    subjects += corpus_subjects(1, 200)
    for command, subject in subjects:
        classify = classify_equation if command == "classify" else classify_system
        assert reverify(classify(subject, config=config))
    assert arith._sieve_cache is held and "primes" not in vars(held)


def counting_roots(monkeypatch, modules):
    calls = []

    def counted(q, k):
        calls.append((q, k))
        return nth_power_in_Q(q, k)

    for module in modules:
        monkeypatch.setattr(module, "nth_power_in_Q", counted)
    return calls


def test_each_root_is_taken_once(monkeypatch):
    # per exponent k, one call per ratio position and, at k = 2, the
    # product's square test; a = b makes two ratios equal, so values repeat
    calls = counting_roots(monkeypatch, (classify_module,))
    for command, eq in box_subjects():
        if command != "classify":
            continue
        ratios = eq.ratios
        calls.clear()
        classify_equation(eq, config=SMALL)
        per_k = Counter(k for _, k in calls)
        for k, count in per_k.items():
            assert count <= 3 + (k == 2), (eq, per_k)
        product = ratios[0] * ratios[1] * ratios[2]
        assert all(q in ratios or (k, q) == (2, product) for q, k in calls), (eq, calls)


def test_no_first_power_check_at_n_2(monkeypatch):
    # R6's (n/2)-th power checks are first powers at n = 2, which every
    # rational is, so R6 is not tried there
    calls = counting_roots(monkeypatch, (classify_module,))
    for command, eq in box_subjects():
        if command == "classify" and eq.n == 2:
            classify_equation(eq, config=SMALL)
    assert calls and all(k != 1 for _, k in calls)


def test_system_roots_are_taken_once(monkeypatch):
    # S1 has tested every member of I at exponent n, which S2 reuses
    calls = counting_roots(monkeypatch, (classify_module,))
    for command, system in box_subjects():
        if command == "system":
            calls.clear()
            classify_system(system)
            assert len(calls) == len(set(calls)), (system, calls)


def test_reproduction_table_root_count(monkeypatch):
    calls = counting_roots(monkeypatch, (arith, witness, classify_module))
    reproduction_table(RunConfig())
    assert 0 < len(calls) <= 65


# ---------------------------------------------------------------------------
# the package's top level is the documented verdict API


def test_top_level_exports_are_the_documented_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    listing = library.split("(`parreg.__all__`):", 1)[1].strip().split("\n\n", 1)[0]
    documented = set(re.findall(r"`(\w+)`", listing))
    assert len(parreg.__all__) == len(set(parreg.__all__))
    assert sorted(parreg.__all__) == sorted(documented)
    for name in parreg.__all__:
        getattr(parreg, name)


def test_import_leaves_process_pools_unloaded():
    # the pools are imported where a sharded scan starts one, and csv where
    # density.write_csv writes, not at import
    probe = (
        "import sys, parreg; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'csv'} & set(sys.modules)))"
    )
    src = str(Path(parreg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
