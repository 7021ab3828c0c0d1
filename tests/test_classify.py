"""Decision-rule classifier: rule selection, status propagation, reasons,
and certificate re-verification including tamper detection.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg
from parreg.arith import DegenerateInput
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


def test_reverify_rejects_tampered_padic_prime():
    v = classify_equation(EquationSpec(3, 13, 1, 1, 8), config=SMALL)
    v.certificates[0].data["p"] = 3
    assert not reverify(v)


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


def test_reverify_rejects_tampered_intersection():
    v = classify_system(SystemSpec(((16, 17, 1), (33, 4063, 1)), 8))
    v.certificates[0].data["intersection"] = (Fraction(35),)
    assert not reverify(v)


def test_reverify_rejects_tampered_shared_power():
    v = classify_system(SystemSpec(((1, 2, 1), (2, 4, 2)), 2))
    v.certificates[0].data["power"] = Fraction(2)
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
