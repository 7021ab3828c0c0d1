"""Exact arithmetic: factorization, roots, power residues, p-adic tests, sieve.

Expected values here come from independent brute-force oracles defined in this
file (naive primality, residue-set enumeration, Hensel-precision power sets),
never from the functions under test.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import gcd, prod
from operator import lt, mod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parreg.arith import (
    DEFAULT_FACTOR_BUDGET,
    BadReduction,
    DegenerateInput,
    FactorizationBudgetExceeded,
    PrimeSieve,
    _eratosthenes,
    _exponents,
    _is_residue,
    _residue_column,
    factor,
    integer_nth_root,
    is_probable_prime,
    legendre,
    load_or_build_sieve,
    load_sieve,
    nth_power_in_Q,
    nth_power_in_Q_nonneg,
    nth_power_in_Qp,
    nth_power_mod_p,
    p_unit_residue,
    save_sieve,
    sieve,
    valuation,
)

# ---------------------------------------------------------------------------
# independent oracles


def naive_is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def naive_primes(bound: int) -> list:
    return [k for k in range(2, bound + 1) if naive_is_prime(k)]


def product(f) -> Fraction:
    # the value a factorization stands for: sign * prod(p**e)
    return f.sign * prod(Fraction(p) ** e for p, e in f.exponents.items())


def residue_power_set(p: int, n: int) -> set:
    return {pow(x, n, p) for x in range(1, p)}


def unit_power_set_mod(modulus: int, p: int, n: int) -> set:
    # n-th powers of units mod p^(2e+1); Hensel precision for x^n - u
    return {pow(x, n, modulus) for x in range(1, modulus) if x % p}


def qp_power_oracle(q: Fraction, p: int, n: int) -> bool:
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v % n != 0:
        return False
    e = 0
    t = n
    while t % p == 0:
        t //= p
        e += 1
    modulus = p ** (2 * e + 1)
    u = num * pow(den, -1, modulus) % modulus
    return u in unit_power_set_mod(modulus, p, n)


# ---------------------------------------------------------------------------
# primality and factorization


def test_probable_prime_matches_naive_to_200000():
    for k in range(200000):
        assert is_probable_prime(k) == naive_is_prime(k), k


# OEIS A014233 (distinct terms): the least odd composite that is a strong
# pseudoprime to every one of the first k prime bases, k = 1..13
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_probable_prime_rejects_strong_pseudoprimes():
    for m in A014233:
        assert not is_probable_prime(m), m


def test_factor_splits_a_strong_pseudoprime_to_twelve_bases():
    p, q = 399165290221, 798330580441
    assert naive_is_prime(p) and p * q == A014233[8]
    assert factor(p * q).exponents == {p: 1, q: 1}


def test_probable_prime_known_large():
    m61 = 2**61 - 1
    assert is_probable_prime(m61)
    assert not is_probable_prime(m61 * (2**31 - 1))


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factor_reconstructs_value(k):
    f = factor(k)
    assert product(f) == k
    for p, e in f.exponents.items():
        assert naive_is_prime(p)
        assert e >= 1


def test_factor_rational_and_sign():
    f = factor(Fraction(-60, 49))
    assert f.sign == -1
    assert f.exponents == {2: 2, 3: 1, 5: 1, 7: -2}
    assert product(f) == Fraction(-60, 49)


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    f = factor(p * q)
    assert f.exponents == {p: 1, q: 1}


def test_factor_budget_exceeded():
    m61 = 2**61 - 1
    with pytest.raises(FactorizationBudgetExceeded):
        factor(m61 * (2**89 - 1), budget=4)


def test_factor_zero_rejected():
    with pytest.raises(DegenerateInput):
        factor(0)


# ---------------------------------------------------------------------------
# valuation and roots


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(Fraction(9, 5), 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(DegenerateInput):
        valuation(0, 2)


def test_integer_nth_root_exhaustive_small():
    for x in range(0, 3000):
        for n in (1, 2, 3, 4, 5):
            r = integer_nth_root(x, n)
            assert r**n <= x < (r + 1) ** n, (x, n)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_nth_power_roundtrip(a, b, n):
    if a == 0:
        return
    q = Fraction(a, b) ** n
    root = nth_power_in_Q(q, n)
    assert root is not None
    assert root**n == q


def test_nth_power_in_Q_negatives_and_misses():
    assert nth_power_in_Q(-8, 3) == -2
    assert nth_power_in_Q(-8, 2) is None
    assert nth_power_in_Q(16, 4) == 2
    assert nth_power_in_Q(16, 8) is None
    assert nth_power_in_Q(Fraction(27, 64), 3) == Fraction(3, 4)
    assert nth_power_in_Q(Fraction(2, 3), 2) is None
    assert nth_power_in_Q(1, 7) == 1


def test_nth_power_nonneg_variant():
    assert nth_power_in_Q_nonneg(4, 2) == 2
    assert nth_power_in_Q_nonneg(-8, 3) is None
    assert nth_power_in_Q_nonneg(9, 2) == 3


# ---------------------------------------------------------------------------
# Euler criterion


def test_euler_criterion_small_primes_brute_force():
    for p in naive_primes(50):
        for n in range(1, 13):
            powers = residue_power_set(p, n)
            for u in range(1, p):
                assert nth_power_mod_p(u, n, p) == (u in powers), (u, n, p)


def test_euler_criterion_rational_inputs():
    # 2/3 mod 7 = 2 * 5 = 3; squares mod 7 are {1,2,4}
    assert nth_power_mod_p(Fraction(2, 3), 2, 7) is False
    assert nth_power_mod_p(Fraction(1, 2), 2, 7) is True  # 4 is a square
    with pytest.raises(BadReduction):
        nth_power_mod_p(Fraction(7, 3), 2, 7)
    with pytest.raises(BadReduction):
        nth_power_mod_p(Fraction(3, 7), 2, 7)


def test_everything_is_power_mod_2():
    for n in (1, 2, 3, 8):
        assert nth_power_mod_p(1, n, 2) is True
        assert nth_power_mod_p(-5, n, 2) is True


def test_legendre_matches_square_sets():
    for p in naive_primes(60):
        if p == 2:
            continue
        squares = residue_power_set(p, 2)
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert legendre(a, p) == want


# ---------------------------------------------------------------------------
# p-adic power test


def test_qp_matches_hensel_brute_force_small():
    for p in (2, 3, 5):
        for n in range(1, 13):
            for a in range(-400, 401):
                if a == 0:
                    continue
                q = Fraction(a)
                assert nth_power_in_Qp(q, p, n) == qp_power_oracle(q, p, n), (a, p, n)


def test_qp_rational_inputs():
    for p in (2, 3, 5):
        for q in (Fraction(1, 2), Fraction(-4, 9), Fraction(32, 5), Fraction(49, 8)):
            for n in (2, 3, 4, 6, 8):
                assert nth_power_in_Qp(q, p, n) == qp_power_oracle(q, p, n), (q, p, n)


def test_qp_grunwald_wang_values():
    assert nth_power_in_Qp(33, 2, 8) is True
    assert nth_power_in_Qp(17, 2, 8) is False
    assert nth_power_in_Qp(16, 2, 8) is False


def test_p_unit_residue():
    assert p_unit_residue(Fraction(3, 5), 2, 8) == 3 * pow(5, -1, 8) % 8
    assert p_unit_residue(48, 2, 4) == 3


# ---------------------------------------------------------------------------
# sieve


def test_sieve_matches_naive():
    s = sieve(1000)
    assert list(s.primes) == naive_primes(1000)
    for k in (997, 1000):
        assert (k in s.primes) == naive_is_prime(k)
    assert s.primes_upto(100) == tuple(naive_primes(100))


def test_eratosthenes_matches_trial_division():
    # `sieve` slices the largest sieve the process holds, so it may never run
    # the builder on a small bound: call the builder directly
    want = naive_primes(101**2 + 1)
    bounds = [*range(3001)]
    bounds += [p * p + d for p in naive_primes(101) for d in (-1, 0, 1)]
    for b in bounds:
        assert _eratosthenes(b) == tuple(want[: bisect_right(want, b)]), b


def test_eratosthenes_to_a_million():
    primes = _eratosthenes(10**6)
    assert len(primes) == 78498 and primes[0] == 2 and primes[-1] == 999983
    assert all(map(lt, primes, primes[1:]))
    # trial division: a composite <= 10^6 has a prime factor <= 1000, so every
    # member is prime, and pi(10^6) = 78498 of them are all the primes
    for d in naive_primes(1000):
        assert 0 not in map(mod, primes[bisect_right(primes, d) :], repeat(d)), d


def test_sieve_roundtrip(tmp_path):
    s = sieve(5000)
    path = str(tmp_path / "primes.sieve")
    save_sieve(s, path)
    loaded = load_sieve(path)
    assert loaded.bound == s.bound and loaded.primes == s.primes


def test_sieve_bad_file(tmp_path):
    path = tmp_path / "junk.sieve"
    path.write_bytes(b"not a sieve")
    with pytest.raises(DegenerateInput):
        load_sieve(str(path))


def test_load_or_build_upgrades(tmp_path):
    path = str(tmp_path / "cache.sieve")
    small = load_or_build_sieve(path, 100)
    assert small.bound >= 100
    big = load_or_build_sieve(path, 10000)
    assert big.bound >= 10000
    again = load_or_build_sieve(path, 500)
    assert again.bound >= 500
    assert load_sieve(path).bound >= 10000  # cache file keeps the larger build


def test_sieve_bound_errors():
    s = PrimeSieve(bound=10, primes=(2, 3, 5, 7))
    with pytest.raises(DegenerateInput):
        s.primes_upto(100)


# ---------------------------------------------------------------------------
# the residue column against the scalar Euler-criterion kernel

# products of small primes, so that primes divide numerators and denominators
_smooth = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 97, 997)), max_size=6).map(prod)
signed_rationals = st.builds(
    lambda sign, a, x, b, y: Fraction(sign * a * x, b * y),
    st.sampled_from((1, -1)),
    _smooth,
    st.integers(1, 10**9),
    _smooth,
    st.integers(1, 10**3),
)


@given(signed_rationals, st.integers(1, 24), st.one_of(st.integers(2, 12), st.integers(2, 5000)))
@settings(max_examples=150, deadline=None)
def test_residue_column_matches_scalar_kernel(q, n, bound):
    primes = sieve(bound).primes
    num, den = q.numerator, q.denominator
    col = _residue_column(num, den, n, _exponents(n, primes), primes)
    assert len(col) == len(primes)
    for p, state in zip(primes, col):
        e = (p - 1) // gcd(n, p - 1)
        want = 0 if num * den % p == 0 else (1 if _is_residue(num, den, e, p) else 2)
        assert state == want, (p, num, den, n)


def test_residue_column_fixed_cases():
    primes = sieve(30).primes  # 2 3 5 7 11 13 17 19 23 29
    # 2 is a square mod 7, 17, 23; p = 2 divides it
    assert _residue_column(2, 1, 2, _exponents(2, primes), primes) == bytes(
        (0, 2, 2, 1, 2, 2, 1, 2, 1, 2)
    )
    # -3/4 at n = 2: p = 2 divides the denominator, p = 3 the numerator
    assert _residue_column(-3, 4, 2, _exponents(2, primes), primes) == bytes(
        (0, 0, 2, 1, 2, 1, 2, 1, 2, 2)
    )
    # every unit is a first power, and at p = 2 every unit is an n-th power
    assert _residue_column(35, 6, 1, _exponents(1, primes), primes) == bytes(
        (0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    )
    assert _residue_column(3, 1, 24, _exponents(24, primes), primes)[:1] == b"\1"
