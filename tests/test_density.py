"""Power-residue density surveys: exact counts, inclusion-exclusion, the
classical residue identities, and the heuristic odd-exponent prediction.
"""

import csv
import io
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg.arith as arith
from parreg.arith import (
    DegenerateInput,
    factor,
    is_probable_prime,
    load_or_build_sieve,
    nth_power_mod_p,
    save_sieve,
    sieve,
)
from parreg.density import (
    MAX_PREDICTED_N,
    _hits_outside,
    _joint_survey,
    _pass,
    _residue_model,
    _span_walk,
    _survey,
    _unit_table,
    admissible_primes,
    hit_primes,
    joint_survey,
    nonresidue_pattern_occurs,
    residue_pattern_densities,
    survey,
    write_csv,
)
from parreg.witness import find_witness_prime

BOUND = 10**5


# ---------------------------------------------------------------------------
# oracle: brute-force residue sets, no Euler criterion


def brute_residues(p, n):
    return {pow(x, n, p) for x in range(1, p)}


def brute_hit(q, p, n):
    q = Fraction(q)
    r = q.numerator * pow(q.denominator, p - 2, p) % p
    return r in brute_residues(p, n)


def test_survey_matches_brute_force_small():
    for target, n in [(2, 2), (2, 3), (Fraction(3, 5), 4), (-6, 3)]:
        s = survey(target, n, 300)
        q = Fraction(target)
        admissible = [
            p
            for p in sieve(300).primes
            if q.numerator % p and q.denominator % p
        ]
        hits = sum(1 for p in admissible if brute_hit(q, p, n))
        assert s.admissible_count == len(admissible)
        assert s.hit_count == hits
        assert s.density == Fraction(hits, len(admissible))


def test_survey_of_a_target_past_2048_bits():
    # 10^700 and the T = 10^690 of 1/10^30 at n = 24 have more bits than a
    # float exponent can hold
    for target, n in [(10**700, 2), (Fraction(1, 10**30), 24), (3**1500 + 2, 6)]:
        s = survey(target, n, 300)
        q = Fraction(target)
        admissible = [p for p in sieve(300).primes if q.numerator % p and q.denominator % p]
        assert s.admissible_count == len(admissible)
        assert s.hit_count == sum(1 for p in admissible if brute_hit(q, p, n))


def test_survey_validation():
    with pytest.raises(DegenerateInput):
        survey(0, 2, 100)
    with pytest.raises(DegenerateInput):
        survey(2, 0, 100)
    with pytest.raises(DegenerateInput):
        joint_survey([], 2, 100)


def test_survey_refuses_float_targets():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(DegenerateInput):
        survey(0.1, 2, 1000)


def test_trivial_target_density_one():
    s = survey(1, 7, 10**4)
    assert s.density == 1
    assert s.admissible_count == s.hit_count == len(sieve(10**4).primes)


def test_sixteen_is_everywhere_an_eighth_power():
    s = survey(16, 8, BOUND)
    assert s.density == 1
    assert s.admissible_count == 9591


def test_cube_density_two_thirds():
    s = survey(2, 3, BOUND)
    assert abs(s.density - Fraction(2, 3)) <= Fraction(2, 100)
    # frozen regression point at a small bound
    small = survey(2, 3, 1000)
    assert (small.hit_count, small.admissible_count) == (111, 167)


def test_admissible_and_hit_primes():
    assert admissible_primes(6, 30) == (5, 7, 11, 13, 17, 19, 23, 29)
    assert hit_primes(2, 2, 50) == (7, 17, 23, 31, 41, 47)
    sq = survey(4, 2, 10**4)
    assert sq.density == 1  # 4 = 2^2 is a square residue everywhere


def test_joint_survey_matches_brute_force_small():
    js = joint_survey([2, 3, 5], 2, 300)
    admissible = [p for p in sieve(300).primes if p not in (2, 3, 5)]
    flags = {p: tuple(brute_hit(t, p, 2) for t in (2, 3, 5)) for p in admissible}
    assert js.admissible_count == len(admissible)
    assert js.none == sum(1 for f in flags.values() if not any(f))
    assert js.at_least_one == sum(1 for f in flags.values() if any(f))
    assert js.all_targets == sum(1 for f in flags.values() if all(f))
    for s, count in js.subset_hits.items():
        assert count == sum(1 for f in flags.values() if all(f[i] for i in s))


def test_inclusion_exclusion_identity():
    js = joint_survey([2, 3, 5], 2, 10**4)
    ie = sum(
        (-1) ** (len(s) + 1) * c for s, c in js.subset_hits.items()
    )
    assert ie == js.at_least_one
    assert js.none == js.admissible_count - js.at_least_one


def test_four_and_minus_four():
    js = joint_survey([4, -4], 4, BOUND)
    assert js.none == 0
    assert js.admissible_count == 9591


def test_squares_of_two_three_six():
    js = joint_survey([4, 9, 36], 4, BOUND)
    assert js.none == 0
    assert js.admissible_count == 9590


def test_thirty_six_and_nine():
    # 36 is a fourth-power residue exactly at the admissible primes with
    # p mod 24 outside {13, 17}; for p = 17 mod 24 both targets miss, so the
    # none-count is far from zero
    law = {
        p
        for p in admissible_primes(36, BOUND)
        if p % 24 not in (13, 17)
    }
    hits36 = set(hit_primes(36, 4, BOUND))
    assert hits36 == law
    for p in (p for p in sieve(300).primes if p > 3):
        assert brute_hit(36, p, 4) == (p % 24 not in (13, 17))
    js = joint_survey([36, 9], 4, BOUND)
    # joint admissibility excludes p = 2 (divides 36) even for target 9
    hits9 = set(hit_primes(9, 4, BOUND)) & set(admissible_primes(36, BOUND))
    assert js.none == js.admissible_count - len(hits36 | hits9)
    assert js.none == 1203
    assert js.admissible_count == 9590


def test_none_density_three_squares():
    js = joint_survey([2, 3, 5], 2, BOUND)
    dens = Fraction(js.none, js.admissible_count)
    assert js.none > 0
    assert abs(dens - Fraction(1, 8)) <= Fraction(2, 100)


def test_density_monotone_under_exponent_multiples():
    for target, n, k in [(2, 3, 2), (2, 2, 2), (3, 3, 3)]:
        finer = set(hit_primes(target, n * k, 10**4))
        coarser = set(hit_primes(target, n, 10**4))
        assert finer <= coarser
        assert survey(target, n, 10**4).density >= survey(target, n * k, 10**4).density


def test_odd_exponent_prediction():
    for target, n in [(2, 3), (2, 5), (3, 3)]:
        s = survey(target, n, BOUND)
        admissible = admissible_primes(target, BOUND)
        ones = sum(1 for p in admissible if p % n == 1)
        rest = len(admissible) - ones
        pred = (Fraction(ones, n) + rest) / len(admissible)
        assert abs(s.density - pred) <= Fraction(3, 100)


def test_explicit_sieve_gives_same_answer(tmp_path, monkeypatch):
    expected = survey(2, 3, 2000)
    path = str(tmp_path / "primes.bin")
    save_sieve(sieve(2000), path)

    def unavailable(bound):
        raise AssertionError("the survey built a sieve instead of reading the file")

    # the process-wide sieve outlives tests: start from the file alone, whose
    # load sieves once to check it; no sieve is built after that
    monkeypatch.setattr(arith, "_sieve_cache", None)
    load_or_build_sieve(path, 2000)
    monkeypatch.setattr(arith, "_odd_flags", unavailable)
    assert survey(2, 3, 2000) == expected


def test_csv_output():
    out = io.StringIO()
    rows = write_csv(out, [2, 3], 2, 100)
    assert rows == 23
    parsed = list(csv.reader(io.StringIO(out.getvalue())))
    assert parsed[0] == ["prime", "mod24", "hit_2", "hit_3"]
    assert len(parsed) == rows + 1
    for prime, cls, h2, h3 in parsed[1:]:
        p = int(prime)
        assert int(cls) == p % 24
        assert int(h2) == (1 if brute_hit(2, p, 2) else 0)
        assert int(h3) == (1 if brute_hit(3, p, 2) else 0)


def test_csv_flags_match_brute_force_rational_targets():
    targets = [Fraction(-3, 5), 12, Fraction(7, 4)]
    for n in (3, 4, 6):
        out = io.StringIO()
        rows = write_csv(out, targets, n, 400)
        parsed = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        admissible = [p for p in sieve(400).primes if p not in (2, 3, 5, 7)]
        assert rows == len(parsed) == len(admissible)
        for (prime, cls, *flags), p in zip(parsed, admissible):
            assert (int(prime), int(cls)) == (p, p % 24)
            assert [int(f) for f in flags] == [int(brute_hit(q, p, n)) for q in targets]


# Counts over the 1,225 primes below 10^4 admissible for 2, -3/5 and 7,
# produced by brute-force residue sets.
PINNED = {
    3: (815, 809, 808, 683, 677, 675, 643, 185, 810),
    4: (450, 462, 461, 183, 183, 189, 84, 323, 463),
    6: (401, 401, 400, 169, 165, 165, 80, 442, 402),
}


def test_pinned_counts_unchanged():
    targets = [2, Fraction(-3, 5), 7]
    for n, (h0, h1, h2, h01, h02, h12, h012, none, single) in PINNED.items():
        js = joint_survey(targets, n, 10**4)
        assert js.admissible_count == 1225
        assert js.subset_hits == {
            (0,): h0, (1,): h1, (2,): h2,
            (0, 1): h01, (0, 2): h02, (1, 2): h12, (0, 1, 2): h012,
        }
        assert (js.none, js.all_targets) == (none, h012)
        out = io.StringIO()
        assert write_csv(out, targets, n, 10**4) == 1225
        parsed = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        assert [sum(int(row[2 + i]) for row in parsed) for i in range(3)] == [h0, h1, h2]
        s = survey(Fraction(-3, 5), n, 10**4)
        assert (s.hit_count, s.admissible_count) == (single, 1227)


def test_every_entry_point_validates():
    with pytest.raises(DegenerateInput):
        admissible_primes(0, 100)
    with pytest.raises(DegenerateInput):
        hit_primes(2, 0, 100)
    with pytest.raises(DegenerateInput):
        write_csv(io.StringIO(), [2, 0], 2, 100)
    with pytest.raises(DegenerateInput):
        write_csv(io.StringIO(), [2], 0, 100)


@pytest.mark.parametrize(
    "call",
    [
        lambda: survey(2, 2.0, 50),
        lambda: joint_survey([2, 3], 2.5, 50),
        lambda: hit_primes(2, 2.0, 50),
        lambda: write_csv(io.StringIO(), [2, 3], 2.0, 50),
        lambda: residue_pattern_densities([2], 2.0),
    ],
    ids=["survey", "joint_survey", "hit_primes", "write_csv", "residue_pattern_densities"],
)
def test_every_entry_point_refuses_a_float_exponent(call):
    with pytest.raises(DegenerateInput):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: survey(2, 2, 50.0),
        lambda: joint_survey([2, 3], 2, 50.0),
        lambda: admissible_primes(2, 50.0),
        lambda: hit_primes(2, 2, 50.0),
        lambda: write_csv(io.StringIO(), [2, 3], 2, 50.0),
    ],
    ids=["survey", "joint_survey", "admissible_primes", "hit_primes", "write_csv"],
)
def test_every_entry_point_refuses_a_float_bound(call):
    with pytest.raises(DegenerateInput):
        call()


# ---------------------------------------------------------------------------
# predicted densities


def test_predicted_densities_pinned():
    # AC9's windows: 2 is a cube residue with density 2/3, a square with 1/2
    assert survey(2, 3, 1000).predicted == Fraction(2, 3)
    assert survey(2, 2, 1000).predicted == Fraction(1, 2)
    # the {36, 9} none-set is p = 17 (mod 24): one unit class of eight
    js = joint_survey([36, 9], 4, BOUND)
    assert (js.none, js.admissible_count) == (1203, 9590)
    assert js.predicted_none == Fraction(1, 8)
    assert js.predicted_subset_hits == {
        (0,): Fraction(3, 4), (1,): Fraction(3, 4), (0, 1): Fraction(5, 8)
    }
    assert survey(16, 8, 1000).predicted == 1
    assert joint_survey([4, -4], 4, 1000).predicted_none == 0


def test_predicted_is_none_outside_the_model():
    assert survey(2, 25, 100).predicted is None
    js = joint_survey([2, 3, 5, 7], 2, 100)
    assert js.predicted_none is None and js.predicted_subset_hits is None
    assert residue_pattern_densities([2], 24) is not None


SUPPORT = (2, 3, 5, 7, 13, 17)


def _target(negative: bool, exps: dict) -> Fraction:
    q = prod((Fraction(ell) ** e for ell, e in exps.items()), start=Fraction(1))
    return -q if negative else q


targets_st = st.lists(
    st.builds(
        _target,
        st.booleans(),
        st.dictionaries(st.sampled_from(SUPPORT), st.integers(-6, 24), max_size=3),
    ),
    min_size=1,
    max_size=3,
)


def _euler_flags(qs, n, p):
    e = (p - 1) // gcd(n, p - 1)
    return tuple(
        pow(q.numerator * pow(q.denominator, -1, p), e, p) == 1 for q in qs
    )


@given(targets_st, st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_observed_patterns_are_predicted(qs, n):
    """Every prime not dividing 2n or a target shows a pattern of positive
    predicted density; so a predicted 0 is never observed, and the witness
    search (which skips the scan past its prefix on a predicted 0) returns
    the first prime a full scan finds."""
    densities = residue_pattern_densities(qs, n)
    assert sum(densities.values()) == 1
    bound = 2 * 10**4
    first = None
    for p in sieve(bound).primes:
        if any(q.numerator % p == 0 or q.denominator % p == 0 for q in qs):
            continue
        flags = _euler_flags(qs, n, p)
        if 2 * n % p:
            assert densities.get(flags, 0) > 0, (p, flags)
        if first is None and gcd(n, p - 1) > 1 and not any(flags):
            first = p
    w = find_witness_prime(qs, n, search_bound=bound)
    assert (None if w is None else w.p) == first


def _oracle_densities(qs, n):
    """Every generator's class enumerated explicitly: at p = a (mod M) the
    class of -1 is (p-1)/2, the class of a prime dividing 2n keeps the parity
    of its Euler square test at an actual prime p = a (mod M) when g is even,
    and every other class ranges over all of Z/g (2^r cases at n = 2)."""
    exps = [{ell: 0 for ell in SUPPORT} for _ in qs]
    for q, e in zip(qs, exps):
        for ell in SUPPORT:
            for part, sign in ((q.numerator, 1), (q.denominator, -1)):
                while part % ell == 0:
                    part //= ell
                    e[ell] += sign
    gens = [ell for ell in SUPPORT if any(e[ell] for e in exps)]
    modulus = lcm(8, 2 * n)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    primes = sieve(10**4).primes
    out = Counter()
    for a in units:
        p = next(p for p in primes if p % modulus == a and p > 2 * n)
        g = gcd(n, p - 1)
        choices = []
        for ell in gens:
            if g % 2 == 0 and 2 * n % ell == 0:
                parity = 0 if pow(ell, (p - 1) // 2, p) == 1 else 1
                choices.append(range(parity, g, 2))
            else:
                choices.append(range(g))
        cases = list(product(*choices))
        for classes in cases:
            flags = tuple(
                ((p - 1) // 2 * (q < 0) + sum(e[ell] * c for ell, c in zip(gens, classes))) % g == 0
                for q, e in zip(qs, exps)
            )
            out[flags] += Fraction(1, len(units) * len(cases))
    return dict(out)


small_targets_st = st.lists(
    st.builds(
        _target,
        st.booleans(),
        st.dictionaries(st.sampled_from((2, 3, 5)), st.integers(-4, 12), max_size=2),
    ),
    min_size=1,
    max_size=3,
)


@given(small_targets_st, st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_densities_match_explicit_enumeration(qs, n):
    assert residue_pattern_densities(qs, n) == _oracle_densities(qs, n)


def test_densities_match_explicit_enumeration_grid():
    singles = [-1, 2, -2, 3, -3, 5, 6, -12, 18, 45, Fraction(3, 4), Fraction(-5, 18)]
    for n in range(1, 13):
        for q in singles:
            assert residue_pattern_densities([q], n) == _oracle_densities([Fraction(q)], n), (q, n)
    for n in (4, 6, 8, 12):
        for qs in ([36, 9], [4, -4], [-3, 12], [2, 3, 6], [Fraction(-1, 2), 10, 15]):
            qs = [Fraction(q) for q in qs]
            assert residue_pattern_densities(qs, n) == _oracle_densities(qs, n), (qs, n)


@given(small_targets_st, st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_nonresidue_decision_matches_explicit_enumeration(qs, n):
    assert nonresidue_pattern_occurs(qs, n) == ((False,) * len(qs) in _oracle_densities(qs, n))


@given(targets_st, st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_nonresidue_decision_reads_the_densities(qs, n):
    densities = residue_pattern_densities(qs, n)
    assert nonresidue_pattern_occurs(qs, n) == ((False,) * len(qs) in densities)


def test_nonresidue_decision_grid():
    singles = [-1, 2, -2, 3, -3, 5, 6, -12, 18, 45, Fraction(3, 4), Fraction(-5, 18), 16, 4096]
    for n in range(1, 13):
        for q in singles:
            want = (False,) in _oracle_densities([Fraction(q)], n)
            assert nonresidue_pattern_occurs([q], n) == want, (q, n)
    for n in (2, 4, 6, 8, 12):
        for qs in ([36, 9], [4, -4], [-3, 12], [2, 3, 6], [Fraction(-1, 2), 10, 15], [16, 17, 33]):
            qs = [Fraction(q) for q in qs]
            want = (False,) * len(qs) in _oracle_densities(qs, n)
            assert nonresidue_pattern_occurs(qs, n) == want, (qs, n)
    # the two n = 11 decisions of a corpus pass (seed 1), whose primes 43,
    # 941, 67, 151, 19 and 73 lie past the explicit oracle's support
    for qs in ([5, 40463, 40468], [Fraction(-1387, 8), Fraction(-1365, 8), Fraction(11, 4)]):
        want = (False,) * 3 in _factored_densities(qs, 11)
        assert nonresidue_pattern_occurs(qs, 11) == want, qs
    # 16 is an 8th-power residue mod every odd prime (Grunwald-Wang)
    assert nonresidue_pattern_occurs([16], 8) is False
    assert nonresidue_pattern_occurs([2], 25) is None
    assert nonresidue_pattern_occurs([2, 3, 5, 7], 2) is None


def test_nonresidue_decision_coordinate_branches():
    """Each way a coset is settled by its coordinates, against the explicit
    enumeration (d_i is the gcd of g and the i-th generator entries)."""
    cases = (
        # every coset has d_i = g and target_i = 0 for one coordinate: 16 and
        # 4096 are 8th-power residues mod every prime, so all are skipped
        ([16], 8),
        ([4096], 8),
        ([16, 4096], 8),
        # a dropped coordinate: d_i does not divide target_i, at d_i = g
        # ([-1]) and at d_i < g (4 at the third coset of [2, 4], after two
        # skipped ones), and no coordinate left
        ([-1], 4),
        ([2, 4], 4),
        ([-1, -2], 4),
        # a single live coordinate, alone or next to a dropped one
        ([3], 3),
        ([-1, 3], 4),
        # all coordinates live: the walk ends on the whole subgroup
        # (60*90*150 is a square) or stops at an element
        ([60, 90, 150], 2),
        ([12, 18], 6),
    )
    for qs, n in cases:
        qs = [Fraction(q) for q in qs]
        want = (False,) * len(qs) in _oracle_densities(qs, n)
        assert nonresidue_pattern_occurs(qs, n) == want, (qs, n)
    assert not nonresidue_pattern_occurs([16], 8) and not nonresidue_pattern_occurs([60, 90, 150], 2)
    assert nonresidue_pattern_occurs([2, 4], 4) and nonresidue_pattern_occurs([12, 18], 6)
    # the two n = 11 corpus sets: every coordinate is live at g = 11
    for qs in ([5, 40463, 40468], [Fraction(-1387, 8), Fraction(-1365, 8), Fraction(11, 4)]):
        assert (False,) * 3 in _factored_densities(qs, 11)
        assert nonresidue_pattern_occurs(qs, 11) is True, qs


def _span(gens, g: int, k: int) -> set:
    """The subgroup of (Z/g)^k generated by `gens`, as a set: the oracle of
    `_span_walk`."""
    span = {(0,) * k}
    for v in gens:
        v = tuple(x % g for x in v)
        if v in span:
            continue
        # H + <v> is the union of H + j*v up to the first j*v already in H
        steps, m = [(0,) * k], v
        while m not in span:
            steps.append(m)
            m = tuple((x + y) % g for x, y in zip(m, v))
        span = {tuple((x + y) % g for x, y in zip(h, s)) for h in span for s in steps}
    return span


@given(st.integers(1, 24), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_span_walk_yields_the_span_once(g, k, data):
    gens = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=k, max_size=k), max_size=4))
    walk = list(_span_walk(gens, g, k))
    assert len(walk) == len(set(walk))
    assert set(walk) == _span(gens, g, k)


def _factored_densities(qs, n, exps=None):
    """`residue_pattern_densities` from a factorization of every target, one
    generator per prime: `exps` gives the exponents, or `factor` finds them."""
    qs = [Fraction(q) for q in qs]
    if exps is None:
        exps = [factor(q).exponents for q in qs]
    primes = sorted(set().union(*exps))
    fixed = [ell for ell in primes if 2 * n % ell == 0]
    modulus = lcm(8, 2 * n)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    out = Counter()
    for a in units:
        g = gcd(n, a - 1)
        shift = [(a - 1) // 2 if q < 0 else 0 for q in qs]
        gens = [[e.get(ell, 0) for e in exps] for ell in primes]
        if g % 2 == 0:
            for i, ell in enumerate(primes):
                if ell in fixed:
                    gens[i] = [2 * x for x in gens[i]]
                    # (ell|p) by Euler's criterion at an actual p = a (mod M)
                    p = next(p for p in sieve(10**4).primes if p % modulus == a and p > 2 * n)
                    if pow(ell, (p - 1) // 2, p) != 1:
                        shift = [s + e.get(ell, 0) for s, e in zip(shift, exps)]
        span = {(0,) * len(qs)}
        for v in gens:
            span = {tuple((x + t * y) % g for x, y in zip(h, v)) for h in span for t in range(g)}
        for x in span:
            flags = tuple((s + h) % g == 0 for s, h in zip(shift, x))
            out[flags] += Fraction(1, len(units) * len(span))
    return dict(out)


@given(targets_st, st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_densities_match_the_factored_oracle(qs, n):
    assert residue_pattern_densities(qs, n) == _factored_densities(qs, n)


def _per_unit_model(targets, n):
    """`_residue_model` as it stood with its loop over every unit a mod M,
    each unit's g, (a-1)/2 and Jacobi symbols worked out on the spot: the
    reference for the per-n unit table."""
    qs = [Fraction(q) for q in targets]
    fixed = [ell for ell in sieve(2 * n).primes if 2 * n % ell == 0]
    exps, rests = [], []
    for q in qs:
        e, rest = {}, []
        for part, sign in ((abs(q.numerator), 1), (q.denominator, -1)):
            for ell in fixed:
                while part % ell == 0:
                    part //= ell
                    e[ell] = e.get(ell, 0) + sign
            rest.append(part)
        exps.append(e)
        rests.append(Fraction(*rest))
    free = []
    for b in arith._coprime_base([part for r in rests for part in (r.numerator, r.denominator)]):
        s, j = b, 1
        for ell in fixed:
            while n % (j * ell) == 0 and (root := arith.integer_nth_root(s, ell)) ** ell == s:
                s, j = root, j * ell
        free.append([j * arith._split(r, b)[0] for r in rests])
    rows = [[e.get(ell, 0) for e in exps] for ell in fixed]
    negative = [q.numerator < 0 for q in qs]
    modulus = lcm(8, 2 * n)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    cosets = Counter()
    for a in units:
        g = gcd(n, a - 1)
        half = (a - 1) // 2
        shift = [half if neg else 0 for neg in negative]
        if g % 2 == 0:
            for ell, row in zip(fixed, rows):
                if arith._jacobi(ell, a) == -1:
                    shift = [x + y for x, y in zip(shift, row)]
        cosets[g, tuple(-x % g for x in shift)] += 1
    odd = rows + free
    even = [[2 * x for x in row] for row in rows] + free
    gens = {g: even if g % 2 == 0 else odd for g, _ in cosets}
    return cosets, gens, len(units)


@given(targets_st, st.integers(1, 24))
@settings(max_examples=100, deadline=None)
def test_unit_table_model_matches_the_per_unit_loop(qs, n):
    assert _residue_model(qs, n) == _per_unit_model(qs, n)
    densities = residue_pattern_densities(qs, n)
    assert densities == _factored_densities(qs, n)
    assert nonresidue_pattern_occurs(qs, n) == ((False,) * len(qs) in densities)
    # the table is keyed by n alone, and no n past the cap reaches it
    assert _residue_model(qs, MAX_PREDICTED_N + 1) is None
    assert _unit_table.cache_info().currsize <= MAX_PREDICTED_N


def _prime_after(x):
    while not is_probable_prime(x):
        x += 1
    return x


def test_densities_of_unfactored_targets():
    # products of 40-bit primes, which no trial division reaches; `factor`
    # splits a semiprime of them in under a second but their powers in
    # seconds, so the oracle is given their exponents but at n = 8
    p1 = _prime_after(2**39 + 11)
    p2 = _prime_after(p1 + 2)
    p3 = _prime_after(p2 + 2)
    cases = [
        ([p1 * p2], {p1: 1, p2: 1}),
        ([-(p1**2) * p2**4], {p1: 2, p2: 4}),
        ([(p1 * p2) ** 4 * 3], {p1: 4, p2: 4, 3: 1}),
        ([Fraction(p1 * p2, 9)], {p1: 1, p2: 1, 3: -2}),
    ]
    for n in (2, 3, 4, 6, 8, 12, 24):
        for qs, e in cases:
            assert residue_pattern_densities(qs, n) == _factored_densities(qs, n, [e]), (qs, n)
        qs = [p1 * p2 * 16, -p1 * p3, Fraction(p2**2, p3**2)]
        exps = [{p1: 1, p2: 1, 2: 4}, {p1: 1, p3: 1}, {p2: 2, p3: -2}]
        assert residue_pattern_densities(qs, n) == _factored_densities(qs, n, exps), n
    qs = [p1 * p2 * 16, -p1 * p3]
    assert residue_pattern_densities(qs, 8) == _factored_densities(qs, 8)
    # a target past 2048 bits needs no factoring either: it is no perfect
    # power and prime to 6, so it hits with the mean of 1/gcd(6, p-1)
    assert residue_pattern_densities([3**1500 + 2], 6) == {
        (True,): Fraction(1, 3), (False,): Fraction(2, 3)
    }


def test_decision_is_fast():
    for n in (12, 16, 20, 23, 24):
        start = time.perf_counter()
        residue_pattern_densities([-2 * 3 * 5 * 7, Fraction(13, 17), -2 * 11 * 19 * 23], n)
        assert time.perf_counter() - start < 0.5, n


# ---------------------------------------------------------------------------
# every survey entry point against per-prime nth_power_mod_p


def _oracle_rows(qs, n, bound):
    """(p, flags) at each prime <= bound admissible for every target."""
    return [
        (p, tuple(nth_power_mod_p(q, n, p) for q in qs))
        for p in sieve(bound).primes
        if all(q.numerator % p and q.denominator % p for q in qs)
    ]


_smooth = st.lists(st.sampled_from((2, 3, 5, 7, 13, 17, 101)), max_size=5).map(prod)
survey_target_st = st.builds(
    lambda sign, a, x, b: Fraction(sign * a * x, b),
    st.sampled_from((1, -1)),
    _smooth,
    st.integers(1, 10**6),
    _smooth,
)
survey_targets_st = st.lists(survey_target_st, min_size=1, max_size=3)


@given(survey_targets_st, st.integers(1, 24), st.one_of(st.integers(2, 12), st.integers(2, 3000)))
@settings(max_examples=60, deadline=None)
def test_surveys_match_the_scalar_oracle(qs, n, bound):
    one = _oracle_rows(qs[:1], n, bound)
    hits = [p for p, (hit,) in one if hit]
    s = survey(qs[0], n, bound)
    assert (s.admissible_count, s.hit_count) == (len(one), len(hits))
    assert s.density == (Fraction(len(hits), len(one)) if one else 0)
    assert hit_primes(qs[0], n, bound) == tuple(hits)
    assert admissible_primes(qs[0], bound) == tuple(p for p, _ in one)

    rows = _oracle_rows(qs, n, bound)
    js = joint_survey(qs, n, bound)
    assert js.admissible_count == len(rows)
    assert js.none == sum(1 for _, f in rows if not any(f))
    for subset, count in js.subset_hits.items():
        assert count == sum(1 for _, f in rows if all(f[i] for i in subset)), subset

    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["prime", "mod24"] + [f"hit_{q}" for q in qs])
    for p, f in rows:
        w.writerow([p, p % 24] + [int(x) for x in f])
    got = io.StringIO()
    assert write_csv(got, qs, n, bound) == len(rows)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# one counted pass, every survey projected from it


def _law_holds(q, n, bound, classes):
    """The literal class law: q hits exactly at its admissible primes whose
    class mod 24 is outside `classes`."""
    law = {p for p in admissible_primes(q, bound) if p % 24 not in classes}
    return set(hit_primes(q, n, bound)) == law


@given(
    st.lists(survey_target_st, min_size=1, max_size=4),
    st.integers(1, 24),
    st.integers(2, 3000),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_projected_surveys_equal_direct_surveys(qs, n, bound, data):
    qs = tuple(qs)
    counts = _pass(qs, n, bound)
    idx = data.draw(st.lists(st.integers(0, len(qs) - 1), min_size=1, unique=True))
    direct = joint_survey([qs[i] for i in idx], n, bound)
    predicted = residue_pattern_densities([qs[i] for i in idx], n)
    assert _joint_survey(qs, n, bound, counts, idx, predicted) == direct
    # without a prediction the counts are the same and nothing is predicted
    assert _joint_survey(qs, n, bound, counts, idx, None) == replace(
        direct, predicted_none=None, predicted_subset_hits=None
    )
    for j in range(len(qs)):
        direct = survey(qs[j], n, bound)
        predicted = residue_pattern_densities(qs[j : j + 1], n)
        assert _survey(qs, n, bound, counts, j, predicted) == direct
        assert _survey(qs, n, bound, counts, j, None) == replace(direct, predicted=None)
    i = idx[0]
    # a random class set, and the classes where qs[i] never hits, which makes
    # the law hold whenever no class mixes hits and misses
    hitless = {p % 24 for p in admissible_primes(qs[i], bound)} - {
        p % 24 for p in hit_primes(qs[i], n, bound)
    }
    for classes in (data.draw(st.sets(st.integers(0, 23))), hitless):
        assert _hits_outside(counts, i, classes) == _law_holds(qs[i], n, bound, classes)


def test_class_law_of_thirty_six():
    qs = (Fraction(4), Fraction(-4), Fraction(9), Fraction(36))
    counts = _pass(qs, 4, BOUND)
    assert _hits_outside(counts, 3, {13, 17})
    assert not _hits_outside(counts, 3, {13})
    assert not _hits_outside(counts, 3, {13, 17, 1})
    # -1 is a square residue exactly at p = 1 (mod 4)
    assert _hits_outside(_pass((Fraction(-1),), 2, 2000), 0, {3, 7, 11, 15, 19, 23})
