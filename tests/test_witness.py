"""Witness primes: hypothesis checks, single-target and system searches.

Brute-force residue oracles live in this file; frozen values below were
produced by those oracles, not by the code under test.
"""

import concurrent.futures
from bisect import bisect_right
from fractions import Fraction
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parreg import classify, density, witness
import parreg.arith as arith
from parreg.arith import (
    DegenerateInput,
    _is_residue,
    load_or_build_sieve,
    save_sieve,
    sieve,
)
from parreg.classify import EquationSpec, SystemSpec, classify_equation, classify_system
from parreg.density import MAX_PREDICTED_N
from parreg.witness import (
    _DECIDE_AFTER,
    MODE_EVEN_N,
    MODE_ODD_N,
    MODE_SQUARES,
    MODE_TWO_VAR,
    WitnessPrime,
    _first_witness,
    _ratio_pairs,
    _reduce_system,
    _system_conditions,
    _union_intersection,
    check_hypotheses,
    find_system_witness,
    find_witness_prime,
    verify_system_witness,
    verify_witness,
)


def ratio_set(a, b, c):
    """The value set {a/c, b/c, (a+b)/c} of one row (duplicates collapse)."""
    return frozenset(Fraction(*t) for t in _ratio_pairs(a, b, c))


def system_intersection(rows):
    return frozenset(_union_intersection(rows)[1])


def naive_primes(bound):
    out = []
    for k in range(2, bound + 1):
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
    return out


def brute_is_witness(p, targets, n):
    powers = {pow(x, n, p) for x in range(1, p)}
    for q in targets:
        q = Fraction(q)
        if q.numerator % p == 0 or q.denominator % p == 0:
            return False
        if q.numerator * pow(q.denominator, -1, p) % p in powers:
            return False
    return True


# ---------------------------------------------------------------------------
# hypothesis reports


def test_modes_on_pinned_inputs():
    assert check_hypotheses([2, 3, 5], 2).mode == MODE_SQUARES
    assert check_hypotheses([2, 3, 5], 3).mode == MODE_ODD_N
    assert check_hypotheses([2, 3, 5], 6).mode == MODE_EVEN_N
    assert check_hypotheses([2, 3], 8).mode == MODE_TWO_VAR
    assert check_hypotheses([2, 2, 2], 5).mode == MODE_TWO_VAR  # dedupes to one target


def test_squares_mode_detects_square_product():
    # 60 * 90 * 150 = 810000 = 900^2 blocks the square route
    rep = check_hypotheses([60, 90, 150], 2)
    assert rep.mode == MODE_SQUARES
    assert not rep.satisfied
    assert any("product" in c.description for c in rep.checks if not c.passed)


def test_squares_mode_satisfied():
    rep = check_hypotheses([2, 3, 5], 2)
    assert rep.satisfied
    assert all(c.passed for c in rep.checks)


def test_even_mode_with_fourth_power_row():
    # n = 12: checks are 6th powers plus the any-not-cube row
    rep = check_hypotheses([2, 3, 5], 12)
    assert rep.mode == MODE_EVEN_N
    assert rep.satisfied
    rep = check_hypotheses([81, 729, 810], 12)
    assert not rep.satisfied  # 729 = 3^6


def test_two_var_exponent_halves_when_4_divides_n():
    # 4 | 8: targets must fail to be 4th powers; 16 = 2^4 trips it
    assert not check_hypotheses([16, 17], 8).satisfied
    assert check_hypotheses([17, 33], 8).satisfied


def test_degenerate_targets():
    with pytest.raises(DegenerateInput):
        check_hypotheses([], 2)
    with pytest.raises(DegenerateInput):
        check_hypotheses([0, 2], 2)
    with pytest.raises(DegenerateInput):
        check_hypotheses([1, 2, 3, 4], 2)


def test_witness_search_refuses_float_targets():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(DegenerateInput):
        find_witness_prime([0.1], 2)
    assert find_witness_prime([Fraction(1, 10)], 2, search_bound=100).p == 7


def test_system_witness_refuses_inexact_rows():
    with pytest.raises(DegenerateInput):
        find_system_witness(((2.5, 3, 1), (4, 1, 1)), 2)


def test_witness_searches_refuse_a_float_bound():
    with pytest.raises(DegenerateInput):
        find_witness_prime([2, 3], 2, search_bound=100.0)
    with pytest.raises(DegenerateInput):
        find_system_witness(((2, 3, 1), (4, 1, 1)), 2, search_bound=100.0)
    # both arguments are compared before any search: a string raised
    # TypeError from `<`, and min_exclusive=1.5 was accepted (p = 5)
    for kwargs in ({"search_bound": "100"}, {"min_exclusive": "3"}, {"min_exclusive": 1.5}):
        with pytest.raises(DegenerateInput):
            find_witness_prime([2, 3], 2, **kwargs)


def test_witness_search_refuses_inexact_workers():
    # workers="2" was accepted while the prefix found the witness
    for workers in ("2", 2.0, None):
        with pytest.raises(DegenerateInput):
            find_witness_prime([2, 3, 5], 2, workers=workers)


def test_witness_searches_refuse_a_float_exponent():
    with pytest.raises(DegenerateInput):
        find_witness_prime([2, 3], 2.0, search_bound=100)
    with pytest.raises(DegenerateInput):
        find_system_witness(((2, 3, 1), (4, 1, 1)), 2.0, search_bound=100)
    with pytest.raises(DegenerateInput):
        check_hypotheses([2], 2.0)


# ---------------------------------------------------------------------------
# single search


def test_brute_force_oracle_pins_43():
    qualifying = [p for p in naive_primes(100) if brute_is_witness(p, [2, 3, 5], 2)]
    assert qualifying[0] == 43  # oracle for the frozen expectation below


def test_find_witness_prime_returns_43():
    w = find_witness_prime([2, 3, 5], 2)
    assert w is not None
    assert w.p == 43
    assert w.n == 2
    assert all(flag is False for _, flag in w.targets)
    assert verify_witness(w)


def test_no_smaller_prime_qualifies():
    for p in naive_primes(42):
        if p > 5:
            assert not brute_is_witness(p, [2, 3, 5], 2), p


def test_min_exclusive_skips_small_primes():
    w = find_witness_prime([2, 3, 5], 2, min_exclusive=43)
    assert w is not None and w.p > 43
    assert brute_is_witness(w.p, [2, 3, 5], 2)


def test_exhaustion_returns_none():
    # 16 is an 8th-power residue modulo every prime
    assert find_witness_prime([3, 13, 16], 8, search_bound=20000) is None


def test_one_is_never_witnessable():
    assert find_witness_prime([1], 3, search_bound=1000) is None


def test_rational_targets():
    w = find_witness_prime([Fraction(2, 3), 5], 2, search_bound=10**4)
    assert w is not None
    assert brute_is_witness(w.p, [Fraction(2, 3), 5], 2)


def test_workers_start_no_process(monkeypatch):
    # at n = 32 the decision gives no answer, so this search scans every
    # prime to the bound: the case a process pool would shard
    def refused(*args, **kwargs):
        raise AssertionError("the witness search started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    targets, n = [65536, 65537, 131073], 32
    assert density.nonresidue_pattern_occurs(targets, n) is None
    serial = find_witness_prime(targets, n, search_bound=10**5, workers=1)
    assert find_witness_prime(targets, n, search_bound=10**5, workers=2) == serial


def test_explicit_sieve_reuse(tmp_path, monkeypatch):
    path = str(tmp_path / "primes.bin")
    save_sieve(sieve(10**4), path)

    def unavailable(bound):
        raise AssertionError("the search built primes instead of reading the file")

    # the process-wide sieve outlives tests: start from the file alone
    monkeypatch.setattr(arith, "_eratosthenes", unavailable)
    monkeypatch.setattr(arith, "_sieve_cache", None)
    load_or_build_sieve(path, 10**4)
    w = find_witness_prime([2, 3, 5], 2, search_bound=10**4)
    assert w is not None and w.p == 43


def test_verify_witness_rejects_tampering():
    w = find_witness_prime([2, 3, 5], 2)
    assert verify_witness(w)
    assert not verify_witness(WitnessPrime(41, w.n, w.targets, w.lower_bound_satisfied))
    bad_flags = tuple((q, True) for q, _ in w.targets)
    assert not verify_witness(WitnessPrime(w.p, w.n, bad_flags, w.lower_bound_satisfied))
    # 2 is a cube mod 43, so rewriting n to 3 makes the stored flags false
    assert not verify_witness(WitnessPrime(w.p, 3, w.targets, w.lower_bound_satisfied))


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=3),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_found_witness_always_passes_brute_force(targets, n):
    w = find_witness_prime(targets, n, search_bound=3000)
    if w is not None:
        assert brute_is_witness(w.p, targets, n)
        assert verify_witness(w)


# ---------------------------------------------------------------------------
# ratio sets and system search


def test_ratio_set_examples():
    assert ratio_set(2, 3, 1) == frozenset({Fraction(2), Fraction(3), Fraction(5)})
    assert ratio_set(1, -1, 1) == frozenset({Fraction(1), Fraction(-1), Fraction(0)})
    assert ratio_set(4, 6, 2) == frozenset({Fraction(2), Fraction(3), Fraction(5)})
    with pytest.raises(DegenerateInput):
        ratio_set(0, 1, 1)


def test_union_and_intersection():
    rows = ((16, 17, 1), (33, 4063, 1))
    union, inter = _union_intersection(rows)
    assert union == [(16, 1), (17, 1), (33, 1), (4063, 1), (4096, 1)]
    assert inter == (33,)
    assert system_intersection(rows) == frozenset({33})
    cyc = ((8, 27, 1), (27, 343, 1), (343, 8, 1))
    assert system_intersection(cyc) == frozenset()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-40, max_value=40).filter(bool),
            st.integers(min_value=-40, max_value=40).filter(bool),
            st.sampled_from((1, -1, 2, -3, 4, 6, -10)),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=300, deadline=None)
def test_union_intersection_matches_the_ratio_sets(rows):
    # the oracle: each row's frozenset of Fractions, united, met and sorted
    sets = [ratio_set(a, b, c) for a, b, c in rows]
    union, inter = _union_intersection(rows)
    assert [Fraction(*t) for t in union] == sorted(frozenset().union(*sets))
    assert all(gcd(num, den) == 1 and den > 0 for num, den in union)
    assert inter == tuple(sorted(sets[0].intersection(*sets[1:])))
    assert all(type(q) is Fraction for q in inter)
    assert system_intersection(rows) == frozenset(inter)


def brute_system_witness(p, rows, n):
    union = set()
    for a, b, c in rows:
        for q in (Fraction(a, c), Fraction(b, c), Fraction(a + b, c)):
            union.add(q)
        for v in (a, b, c, a + b):
            if v % p == 0:
                return False
    residues = {q.numerator * pow(q.denominator, -1, p) % p for q in union}
    if len(residues) != len(union):
        return False
    powers = {pow(x, n, p) for x in range(1, p)}
    inter = None
    for a, b, c in rows:
        s = {Fraction(a, c), Fraction(b, c), Fraction(a + b, c)}
        inter = s if inter is None else inter & s
    for q in inter:
        if q.numerator * pow(q.denominator, -1, p) % p in powers:
            return False
    return True


def test_system_witness_pinned_23():
    rows = ((16, 17, 1), (33, 4063, 1))
    qualifying = [p for p in naive_primes(60) if brute_system_witness(p, rows, 8)]
    assert qualifying[0] == 23  # oracle
    w = find_system_witness(rows, 8)
    assert w is not None and w.p == 23
    assert verify_system_witness(w, rows, 8)


def test_system_witness_none_when_member_always_hits():
    # 16 in the intersection is an 8th-power residue everywhere
    rows = ((16, 17, 1), (33, -17, 1))
    assert find_system_witness(rows, 8, search_bound=20000) is None


def test_system_witness_none_for_zero_sum_rows():
    # a + b = 0 fails condition (i) at every prime; when every row has it, 0
    # is in the intersection, which the exact decision cannot take
    for rows in (((3, -3, 1),), ((3, -3, 1), (5, -5, 2)), ((3, -3, 1), (2, 3, 1))):
        assert not any(brute_system_witness(p, rows, 2) for p in naive_primes(1000))
        assert find_system_witness(rows, 2, search_bound=1000) is None


def test_system_witness_condition_ii_distinctness():
    rows = ((2, 3, 1), (2, 3, 1))
    w = find_system_witness(rows, 2, search_bound=200)
    assert w is not None
    assert brute_system_witness(w.p, rows, 2)
    for p in naive_primes(w.p - 1):
        assert not brute_system_witness(p, rows, 2)


def test_verify_system_witness_rejects_tampering():
    rows = ((16, 17, 1), (33, 4063, 1))
    w = find_system_witness(rows, 8)
    # 33 is an 8th-power residue mod 31, so p=31 fails condition (iii)
    assert not brute_system_witness(31, rows, 8)
    assert not verify_system_witness(WitnessPrime(31, w.n, w.targets, True), rows, 8)
    assert not verify_system_witness(WitnessPrime(24, w.n, w.targets, True), rows, 8)
    bad_flags = tuple((q, True) for q, _ in w.targets)
    assert not verify_system_witness(WitnessPrime(w.p, w.n, bad_flags, True), rows, 8)
    assert not verify_system_witness(w, ((16, 17, 1), (33, 17, 1)), 8)


# ---------------------------------------------------------------------------
# the residue kernel and the integer system test against their oracles


def test_kernel_matches_brute_force_power_sets():
    for p in naive_primes(300):
        for n in range(1, 13):
            powers = {pow(x, n, p) for x in range(1, p)}
            e = (p - 1) // gcd(n, p - 1)
            for r in range(1, p):
                want = r in powers
                assert _is_residue(r, 1, e, p) == want, (r, p, n)
                # the same residue as an unreduced, signed numerator
                assert _is_residue(r - 3 * p, 1, e, p) == want, (r, p, n)
                # and as a fraction r*d / d
                d = 3 if p == 2 else p + 2
                assert _is_residue(r * d, d, e, p) == want, (r, p, n)


def _derived_row(base, how, k):
    a, b, c = base
    shapes = {
        "scale": (a, b, c),
        "swap": (b, a, c),
        "sum-a": (a + b, -b, c),
        "sum-b": (a + b, -a, c),
    }
    x, y, z = shapes[how]
    return (k * x, k * y, k * z)


nonzero_small = st.integers(min_value=-30, max_value=30).filter(bool)
free_row = st.tuples(nonzero_small, nonzero_small, nonzero_small)
derived = st.tuples(
    st.sampled_from(("scale", "swap", "sum-a", "sum-b")),
    st.integers(min_value=-3, max_value=3).filter(bool),
)


@st.composite
def systems(draw):
    """1-4 rows; rows derived from the first share its ratios, so the
    intersection is often nonempty."""
    base = draw(free_row)
    rows = [base]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            how, k = draw(derived)
            row = _derived_row(base, how, k)
            if 0 in row:
                row = base
            rows.append(row)
        else:
            rows.append(draw(free_row))
    return tuple(rows), draw(st.integers(min_value=1, max_value=12))


@given(systems())
@settings(max_examples=60, deadline=None)
def test_integer_system_test_matches_literal_conditions(system):
    rows, n = system
    union = sorted(_union_intersection(rows)[0])
    inter = sorted(system_intersection(rows))
    bad = _reduce_system(rows, union)
    pairs = tuple((v.numerator, v.denominator) for v in inter)
    for p in sieve(2000).primes:
        assert (_first_witness([p], pairs, n, bad) == p) == all(
            _system_conditions(p, rows, union, inter, n)
        ), (p, rows, n)


@given(systems(), st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_system_witness_is_least_prime_meeting_the_conditions(system, bound):
    rows, n = system
    union = sorted(_union_intersection(rows)[0])
    inter = sorted(system_intersection(rows))
    want = next(
        (
            p
            for p in naive_primes(bound)
            if all(_system_conditions(p, rows, union, inter, n))
        ),
        None,
    )
    w = find_system_witness(rows, n, search_bound=bound)
    assert (None if w is None else w.p) == want, (rows, n, bound)


def _brute_least_witness(targets, n, min_exclusive, bound):
    for p in naive_primes(bound):
        if p > min_exclusive and brute_is_witness(p, targets, n):
            return p
    return None


def test_search_start_at_and_around_a_prime():
    for targets, n in (([2, 3, 5], 2), ([2, 3], 3), ([Fraction(5, 2), 7], 5), ([3, 10], 7)):
        for prime in (43, 101, 307, 1009):
            for lo in (prime - 1, prime, prime + 1):
                w = find_witness_prime(targets, n, min_exclusive=lo, search_bound=3000)
                want = _brute_least_witness(targets, n, lo, 3000)
                assert (None if w is None else w.p) == want, (targets, n, lo)


def _euler_scan(targets, n, min_exclusive):
    """First sieve prime above min_exclusive modulo which no target is an
    n-th power residue, by the Euler criterion on each target in turn."""
    for p in sieve(10**6).primes:
        if p <= min_exclusive:
            continue
        e = (p - 1) // gcd(n, p - 1)
        if all(t % p and pow(t, e, p) != 1 for t in targets):
            return p
    return None


@given(
    st.lists(st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)), min_size=1, max_size=3),
    st.integers(min_value=2, max_value=8),
    # the second range ends in the last _DECIDE_AFTER primes, where the
    # prefix is short
    st.one_of(st.integers(0, 10**6), st.integers(998_500, 10**6)),
)
@settings(max_examples=60, deadline=None)
def test_witness_search_from_any_start_matches_euler_scan(targets, n, min_exclusive):
    w = find_witness_prime(targets, n, min_exclusive=min_exclusive)
    assert (None if w is None else w.p) == _euler_scan(targets, n, min_exclusive)


def test_odd_n_skips_primes_where_every_unit_is_a_power():
    # n = 3: at p = 2 mod 3 every unit is a cube, so no such prime is a witness
    w = find_witness_prime([2, 3, 5], 3, search_bound=10**4)
    assert w is not None and w.p % 3 == 1
    assert w.p == _brute_least_witness([2, 3, 5], 3, 1, 10**4)
    for p in naive_primes(w.p - 1):
        assert not brute_is_witness(p, [2, 3, 5], 3)


def test_search_bound_below_threshold_raises():
    with pytest.raises(DegenerateInput):
        find_witness_prime([2, 3, 5], 2, min_exclusive=100, search_bound=99)
    assert find_witness_prime([2, 3, 5], 2, min_exclusive=100, search_bound=100) is None


# ---------------------------------------------------------------------------
# deciding that no witness exists


@pytest.fixture
def residue_tests(monkeypatch):
    """The primes at which the witness searches run a residue test."""
    seen = []

    def counted(num, den, e, p):
        seen.append(p)
        return _is_residue(num, den, e, p)

    monkeypatch.setattr(witness, "_is_residue", counted)
    return seen


# The reproduction table's searches with no witness at any prime: 16 and 4096
# are 8th-power residues everywhere, 60*90*150 and 32400*57600*90000 are
# squares, and one of 81, 729 is a 12th-power residue at every prime.
FUTILE_EQUATIONS = (
    (3, 13, 1, 1, 8),
    (16, 16, 1, 1, 8),
    (16, 17, 1, 1, 8),
    (33, 4063, 1, 1, 8),
    (60, 90, 1, 1, 2),
    (32400, 57600, 1, 1, 4),
    (81, 729, 1, 1, 12),
)
FUTILE_SYSTEMS = (
    (((16, 17, 1), (33, -17, 1)), 8),
    (((625, 729, 1), (-104, 729, 1)), 12),
)


@pytest.fixture
def decisions(monkeypatch):
    """The (targets, n) that the witness searches hand to the decision."""
    seen = []
    decide = witness._no_witness_exists

    def counted(targets, n):
        seen.append((tuple(targets), n))
        return decide(targets, n)

    monkeypatch.setattr(witness, "_no_witness_exists", counted)
    return seen


def test_futile_searches_test_only_the_primes_dividing_2n(residue_tests, decisions):
    # no lemma promises these a witness, so each search asks the decision
    # once, before any scan, and then tests only the candidates dividing 2n
    # (the full scan: 78,000+ residue tests); here each such prime is at
    # most the threshold or divides a target, so none is tested
    for spec in FUTILE_EQUATIONS:
        residue_tests.clear()
        decisions.clear()
        v = classify_equation(EquationSpec(*spec))
        assert "Q:witness:hypotheses-unmet" in v.reasons
        assert len(decisions) == 1, spec
        assert residue_tests == [], spec
    for rows, n in FUTILE_SYSTEMS:
        residue_tests.clear()
        decisions.clear()
        v = classify_system(SystemSpec(rows, n))
        assert v.reasons == ("Z:system-witness:bound-exhausted:1000000",)
        assert len(decisions) == 1, rows
        assert residue_tests == [], rows


def test_zero_sum_rows_ask_no_decision_and_test_no_residue(residue_tests, decisions):
    # a row with a + b = 0 makes the product B of `_reduce_system` 0: the
    # search skips every prime before its residue test and, with no prime
    # able to qualify, never asks the decision
    for n in (2, 8):
        v = classify_system(SystemSpec(((1, -1, 1), (2, 3, 1)), n))
        assert v.reasons == ("Z:system:zero-sum-row",), n
        assert decisions == [] and residue_tests == [], n


def test_decided_search_still_tests_the_primes_dividing_2n(residue_tests, monkeypatch):
    # the decision covers no prime dividing 2n; with it forced to say no
    # witness exists, 137 (past the prefix, whose primes all divide q) is
    # still found at n = 2 * 137, in both orders, and tested alone
    monkeypatch.setattr(witness, "_no_witness_exists", lambda targets, n: True)
    q = prod(sieve(10**4).primes[:_DECIDE_AFTER])
    assert brute_is_witness(137, [q], 274)
    assert find_witness_prime([q], 274, search_bound=10**4).p == 137
    assert residue_tests == [137]
    residue_tests.clear()
    w, decided = witness._witness_search([q], 274, 1, 10**4, decide_first=True)
    assert (w.p, decided, residue_tests) == (137, False, [137])
    residue_tests.clear()
    w, decided = witness._witness_search([q], 274, 137, 10**4, decide_first=True)
    assert (w, decided, residue_tests) == (None, True, [])


def test_decision_prefix_holds_every_prime_dividing_2n():
    # after a density-0 decision a prefix-first search tests the candidates
    # dividing 2n past its prefix; for every n the decision covers and every
    # min_exclusive there are none
    primes = sieve(10**4).primes
    for n in range(1, MAX_PREDICTED_N + 1):
        small = [p for p in primes[:20] if 2 * n % p == 0]
        for lo in range(0, 2 * MAX_PREDICTED_N):
            start = bisect_right(primes, lo)
            prefix = set(primes[start : start + _DECIDE_AFTER])
            assert {p for p in small if p > lo} <= prefix, (n, lo)
        # systems scan from p = 2
        assert set(small) <= set(primes[:_DECIDE_AFTER]), n


@pytest.fixture
def lemma_checks(monkeypatch):
    """The (targets, n) that `classify_equation` hands to check_hypotheses."""
    seen = []

    def counted(targets, n):
        seen.append((tuple(targets), n))
        return check_hypotheses(targets, n)

    monkeypatch.setattr(classify, "check_hypotheses", counted)
    return seen


def test_futile_searches_skip_the_lemma_check(lemma_checks, monkeypatch):
    decided = [classify_equation(EquationSpec(*spec)).reasons for spec in FUTILE_EQUATIONS]
    assert lemma_checks == []
    # the oracle: with no decision every search scans to its bound (above
    # every threshold a + b, the largest 90,000), and the lemma check
    # chooses the reason
    monkeypatch.setattr(witness, "_no_witness_exists", lambda targets, n: False)
    config = SimpleNamespace(witness_bound=10**5)
    scanned = [classify_equation(EquationSpec(*spec), config=config).reasons for spec in FUTILE_EQUATIONS]
    assert len(lemma_checks) == len(FUTILE_EQUATIONS)
    assert decided == scanned
    for (a, b, c, _, n), reasons in zip(FUTILE_EQUATIONS, decided):
        assert "Q:witness:hypotheses-unmet" in reasons
        assert not check_hypotheses([Fraction(a, c), Fraction(b, c), Fraction(a + b, c)], n).satisfied


def test_small_bound_still_scans_to_the_bound(residue_tests, lemma_checks, decisions):
    v = classify_equation(EquationSpec(9, 2, 1, 1, 8), config=SimpleNamespace(witness_bound=13))
    assert residue_tests and max(residue_tests) == 13
    assert "Q:witness:bound-exhausted:13" in v.reasons
    # no lemma holds, so the decision ran first; it says a witness can
    # exist, so the search scanned to the bound and the lemma check chose
    # the reason
    assert len(decisions) == 1
    assert lemma_checks == [((2, 9, 11), 8)]


def _signed_product(negative: bool, exps: dict) -> Fraction:
    q = prod((Fraction(ell) ** e for ell, e in exps.items()), start=Fraction(1))
    return -q if negative else q


target_sets = st.lists(
    st.builds(
        _signed_product,
        st.booleans(),
        st.dictionaries(st.sampled_from((2, 3, 5, 7, 13, 17)), st.integers(-12, 12), max_size=3),
    ),
    min_size=1,
    max_size=3,
)


@given(target_sets, st.integers(1, MAX_PREDICTED_N))
# TWO_VAR at n = 2 (mod 4): 3125 = 5^5 is a 10th power in Q(zeta_5), since
# sqrt(5) lies there, and -1/19683 = (-1/3)^9 an 18th power in Q(zeta_9)
@example([4, 3125], 10)
@example([Fraction(-1, 19683), 9765625], 18)
# the reproduction table's target sets that have no witness prime
@example([3, 13, 16], 8)
@example([16, 32], 8)
@example([60, 90, 150], 2)
@example([81, 729, 810], 12)
@example([32400, 57600, 90000], 4)
@example([16, 17, 33], 8)
@example([33, 4063, 4096], 8)
@settings(max_examples=200, deadline=None)
def test_no_witness_decision_leaves_the_lemmas_unmet(qs, n):
    """A satisfied lemma gives infinitely many witness primes, so the
    all-non-residue pattern has positive density: where the decision says
    no witness exists, no lemma holds, and `classify_equation` records
    hypotheses-unmet without checking them."""
    if density.nonresidue_pattern_occurs(qs, n) is False:
        assert not check_hypotheses(qs, n).satisfied


@given(
    st.builds(_signed_product, st.booleans(), st.dictionaries(
        st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(-6, 6), max_size=3)),
    st.sampled_from((6, 10, 14, 18, 22, 26, 30)),
    st.booleans(),
)
@example(5, 10, True)
@example(Fraction(-1, 3), 18, True)
@example(-3, 6, True)
@example(3, 6, True)
@settings(max_examples=60, deadline=None)
def test_cyclotomic_power_matches_the_split_primes(s, n, power):
    # by Chebotarev t is an n-th power in Q(zeta_n) iff it is an n-th power
    # residue at every prime p = 1 (mod n) not dividing it; where it is not,
    # it fails at half or more of them, so 200 such primes tell
    t = s ** (n // 2) if power else s
    num, den = t.numerator, t.denominator
    split = [p for p in sieve(10**5).primes if p % n == 1 and num * den % p][:200]
    oracle = all(pow(num * pow(den, -1, p), (p - 1) // n, p) == 1 for p in split)
    assert witness._cyclotomic_power(t, n) == oracle, (t, n)


@given(target_sets, st.integers(1, MAX_PREDICTED_N), st.integers(0, 60), st.integers(500, 2500))
@example([3, 13, 16], 8, 16, 2500)
@example([16, 17, 33], 8, 0, 2500)
@example([81, 729, 810], 12, 0, 2500)
@example([2], 6, 0, 1000)
@settings(max_examples=80, deadline=None)
def test_decide_first_search_matches_brute_force(qs, n, min_exclusive, bound):
    w, decided = witness._witness_search(qs, n, min_exclusive, bound, decide_first=True)
    assert (None if w is None else w.p) == _brute_least_witness(qs, n, min_exclusive, bound)
    assert not (decided and w is not None)


@given(systems(), st.integers(1, MAX_PREDICTED_N), st.integers(200, 2000))
@example(FUTILE_SYSTEMS[0], 8, 2000)
@example(FUTILE_SYSTEMS[1], 12, 2000)
@settings(max_examples=60, deadline=None)
def test_decide_first_system_search_matches_brute_force(system, n, bound):
    rows = system[0]
    want = next((p for p in naive_primes(bound) if brute_system_witness(p, rows, n)), None)
    w = witness._system_search(rows, n, bound, decide_first=True)
    assert (None if w is None else w.p) == want, (rows, n, bound)


def test_possible_witness_keeps_scanning_past_the_prefix(residue_tests):
    # every prefix prime divides q, which is a non-square at half the primes
    prefix = sieve(10**5).primes[:_DECIDE_AFTER]
    q = prod(prefix)
    w = find_witness_prime([q], 2, search_bound=10**5)
    assert w is not None and w.p > prefix[-1]
    assert w.p == next(p for p in sieve(10**5).primes if brute_is_witness(p, [q], 2))
    w = find_system_witness(((q, q, 1), (q, 3 * q, 1)), 2, search_bound=10**5)
    assert w is not None and w.p > prefix[-1]


def test_no_prediction_falls_back_to_the_full_scan(residue_tests, monkeypatch):
    # the model predicts no witness for 16, 17, 33 at n = 8; without a
    # prediction (n > MAX_PREDICTED_N, or too many targets) the searches
    # scan to the bound
    assert (False,) * 3 not in density.residue_pattern_densities([16, 17, 33], 8)
    assert density.nonresidue_pattern_occurs([16, 17, 33], 8) is False
    monkeypatch.setattr(witness, "nonresidue_pattern_occurs", lambda targets, n: None)
    assert find_witness_prime([16, 17, 33], 8, min_exclusive=33, search_bound=20000) is None
    assert max(residue_tests) > 19000
    residue_tests.clear()
    assert find_system_witness(((16, 17, 1), (33, -17, 1)), 8, search_bound=20000) is None
    assert max(residue_tests) > 19000
