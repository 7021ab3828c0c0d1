"""Power-residue density surveys: exact counts, inclusion-exclusion, the
classical residue identities, and the heuristic odd-exponent prediction.
"""

import csv
import io
from fractions import Fraction

import pytest

from parreg.arith import DegenerateInput, sieve
from parreg.density import (
    admissible_primes,
    hit_primes,
    joint_survey,
    survey,
    write_csv,
)

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


def test_survey_validation():
    with pytest.raises(DegenerateInput):
        survey(0, 2, 100)
    with pytest.raises(DegenerateInput):
        survey(2, 0, 100)
    with pytest.raises(DegenerateInput):
        joint_survey([], 2, 100)


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


def test_explicit_sieve_gives_same_answer():
    ps = sieve(2000)
    assert survey(2, 3, 2000, prime_sieve=ps) == survey(2, 3, 2000)


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
        rows = write_csv(out, targets, n, 400, residue_modulus=12)
        parsed = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        admissible = [p for p in sieve(400).primes if p not in (2, 3, 5, 7)]
        assert rows == len(parsed) == len(admissible)
        for (prime, cls, *flags), p in zip(parsed, admissible):
            assert (int(prime), int(cls)) == (p, p % 12)
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
