"""Exact arithmetic: factorization, roots, power residues, p-adic tests, sieve.

Expected values here come from independent brute-force oracles defined in this
file (naive primality, residue-set enumeration, Hensel-precision power sets),
never from the functions under test.
"""

import struct
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import lt, mod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parreg.arith as arith
from parreg.arith import (
    DEFAULT_FACTOR_BUDGET,
    BadReduction,
    DegenerateInput,
    FactorizationBudgetExceeded,
    PrimeSieve,
    _eratosthenes,
    _is_residue,
    _jacobi,
    _perfect_power,
    _residue_base,
    _residue_columns,
    _split,
    factor,
    integer_nth_root,
    is_probable_prime,
    load_or_build_sieve,
    load_sieve,
    nth_power_in_Q,
    nth_power_in_Qp,
    nth_power_mod_p,
    save_sieve,
    sieve,
)
from parreg.classify import EquationSpec, _padic_case, classify_equation, reverify
from parreg.density import _pass

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


def test_probable_prime_refuses_a_float():
    # 7.0 % 7 == 0 and 7.0 == 7 would pass it as the base 7
    for p in (7.0, 2.0, 1e9 + 7):
        with pytest.raises(DegenerateInput):
            is_probable_prime(p)


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


@pytest.mark.parametrize("budget", ["x", None, 1.5, 0, -3])
def test_factor_refuses_a_bad_budget(budget):
    # "x" raised TypeError from Pollard rho; a budget is refused whether or
    # not trial division leaves rho any work
    semiprime = (10**12 + 39) * (10**12 + 61)
    for q in (semiprime, 12):
        with pytest.raises(DegenerateInput):
            factor(q, budget=budget)


def test_factor_zero_rejected():
    with pytest.raises(DegenerateInput):
        factor(0)


def test_power_tests_refuse_a_float_exponent():
    with pytest.raises(DegenerateInput):
        nth_power_mod_p(2, 2.0, 7)
    with pytest.raises(DegenerateInput):
        nth_power_in_Q(4, 2.0)
    with pytest.raises(DegenerateInput):
        nth_power_in_Qp(4, 7, 2.0)
    with pytest.raises(DegenerateInput):
        integer_nth_root(4, 2.0)


# ---------------------------------------------------------------------------
# valuation and roots


def valuation(q, p):
    """p-adic valuation of a nonzero rational, for any p >= 2: the v of
    arith._split, which the p-adic tests read."""
    return _split(q, p)[0]


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


@given(
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-1, max_value=1),
)
@settings(max_examples=400, deadline=None)
def test_exact_root_matches_newton(x, n, shift):
    # exact n-th powers and their neighbours, on both sides of 32*n bits
    y = max(1, integer_nth_root(x, n) ** n + shift)
    r = integer_nth_root(y, n)
    assert arith._exact_root(y, n) == (r if r**n == y else None), (y, n)


def _ref_nth_power_in_Q(q, n):
    """The root by Fraction compares, zero and sign included: the oracle
    that the numerator-reading `nth_power_in_Q` is pinned against."""
    q = Fraction(q)
    if n == 1:
        return q
    if q == 0:
        return Fraction(0)
    if q < 0 and n % 2 == 0:
        return None
    rn = integer_nth_root(abs(q.numerator), n)
    if rn**n != abs(q.numerator):
        return None
    rd = integer_nth_root(q.denominator, n)
    if rd**n != q.denominator:
        return None
    root = Fraction(rn, rd)
    return -root if q < 0 else root


@given(
    st.one_of(
        st.just(0),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.fractions(max_denominator=10**30),
        # exact powers, so that roots are found, of huge and of negative bases
        st.tuples(
            st.integers(min_value=-(10**25), max_value=10**25),
            st.integers(min_value=1, max_value=10**25),
            st.integers(min_value=1, max_value=13),
        ).map(lambda t: (Fraction(t[0], t[1]) ** t[2], t[2])),
    ),
    st.integers(min_value=1, max_value=13),
)
@settings(max_examples=400, deadline=None)
def test_nth_power_in_Q_matches_the_fraction_reference(q, n):
    if isinstance(q, tuple):  # an exact power and, half the time, its own exponent
        q, k = q
        n = k if n % 2 else n
    got = nth_power_in_Q(q, n)
    want = _ref_nth_power_in_Q(q, n)
    assert got == want, (q, n)
    assert type(got) is type(want)


def test_nth_power_in_Q_negatives_and_misses():
    assert nth_power_in_Q(-8, 3) == -2
    assert nth_power_in_Q(-8, 2) is None
    assert nth_power_in_Q(16, 4) == 2
    assert nth_power_in_Q(16, 8) is None
    assert nth_power_in_Q(Fraction(27, 64), 3) == Fraction(3, 4)
    assert nth_power_in_Q(Fraction(2, 3), 2) is None
    assert nth_power_in_Q(1, 7) == 1


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


def test_jacobi_matches_square_sets():
    # at an odd prime the Jacobi symbol is the Legendre symbol: 0 on the
    # multiples of p, else +1 exactly on the squares, which Euler's
    # criterion also tells apart
    for p in naive_primes(2000)[1:]:
        squares = residue_power_set(p, 2)
        for a in range(-300, 301):
            want = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert _jacobi(a, p) == want, (a, p)
            if want:
                assert pow(a, (p - 1) // 2, p) == want % p


def test_jacobi_is_multiplicative_in_m():
    # (a|m*k) = (a|m)(a|k) for odd m and k, composite products included, and
    # (a|1) = 1
    odd = range(1, 80, 2)
    for a in range(-40, 41):
        assert _jacobi(a, 1) == 1
        for m in odd:
            for k in odd:
                assert _jacobi(a, m * k) == _jacobi(a, m) * _jacobi(a, k), (a, m, k)


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


# The p-adic tests as they stood before they split q at p once: Fraction
# powers and divisions, a valuation and a prime check per call.  Kept as the
# reference that the split versions must reproduce, refusals included; only
# called at p >= 2, where their valuation ends.


def _ref_valuation(q, p):
    q = Fraction(q)
    if q == 0:
        raise DegenerateInput("valuation of 0 is undefined")
    v = 0
    num = abs(q.numerator)
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _ref_p_unit_residue(q, p, modulus):
    q = Fraction(q)
    u = q / Fraction(p) ** _ref_valuation(q, p)
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def _ref_nth_power_in_Qp(q, p, n):
    q = Fraction(q)
    if q == 0:
        raise DegenerateInput("0 is excluded; test nonzero values")
    if arith._as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    arith._check_prime_arg(p)
    v = _ref_valuation(q, p)
    if v % n != 0:
        return False
    u = q / Fraction(p) ** v
    e = 0
    m = n
    while m % p == 0:
        m //= p
        e += 1
    if not nth_power_mod_p(u, m, p):
        return False
    if e == 0:
        return True
    if p == 2:
        return _ref_p_unit_residue(u, 2, 2 ** (e + 2)) == 1
    pk = p ** (e + 1)
    return pow(_ref_p_unit_residue(u, p, pk), p - 1, pk) == 1


def _ref_padic_case(gamma, ratios, p, n):
    v = _ref_valuation(gamma, p)
    unit = gamma / Fraction(p) ** v
    unit_residue_ok = nth_power_mod_p(unit, n, p)
    a_holds = not (v >= 0 and v % n == 0 and unit_residue_ok)
    qp = tuple((q, _ref_nth_power_in_Qp(q, p, n)) for q in ratios)
    b_holds = not any(flag for _, flag in qp)
    return a_holds, b_holds, v, unit, unit_residue_ok, qp


def _outcome(fn, *args):
    # at a composite p a unit part need not be invertible mod p^k: ValueError
    try:
        return "value", fn(*args)
    except (DegenerateInput, ValueError) as e:
        return "raised", type(e)


@st.composite
def _padic_args(draw):
    """(q, p, n): p <= 47, prime or not; n <= 24, a multiple of p about half
    the time p allows it; q = p^v * (a unit-ish rational) with v in
    [-30, 30], sometimes an n-th power or a principal unit 1 + p^k * t, so
    that both answers and the deep condition at p | n all occur."""
    p = draw(st.integers(2, 47))
    if p <= 24 and draw(st.booleans()):
        n = p * draw(st.integers(1, 24 // p))
    else:
        n = draw(st.integers(1, 24))
    v = draw(st.integers(-30, 30))
    num = draw(st.integers(-10**6, 10**6).filter(bool))
    den = draw(st.integers(1, 10**6))
    kind = draw(st.sampled_from(("plain", "power", "principal")))
    if kind == "power":
        unit = Fraction(num % 1000 or 1, den % 1000 or 1) ** n
    elif kind == "principal":
        unit = 1 + Fraction(p) ** draw(st.integers(1, 8)) * Fraction(num, den)
        if unit == 0:
            unit = Fraction(1)
    else:
        unit = Fraction(num, den)
    return unit * Fraction(p) ** v, p, n


@given(_padic_args(), st.data())
@settings(max_examples=200, deadline=None)
def test_qp_split_matches_the_fraction_reference(args, data):
    q, p, n = args
    assert _outcome(nth_power_in_Qp, q, p, n) == _outcome(_ref_nth_power_in_Qp, q, p, n)
    assert valuation(q, p) == _ref_valuation(q, p)
    ratios = (q, *data.draw(st.lists(_padic_args().map(lambda a: a[0]), min_size=2, max_size=2)))
    gamma = data.draw(_padic_args().map(lambda a: a[0]))
    assert _outcome(_padic_case, gamma, ratios, p, n) == _outcome(
        _ref_padic_case, gamma, ratios, p, n
    )


def test_qp_split_refusals_match_the_reference():
    # a nonprime p, a zero value and n < 1 are refused alike; p < 2 only by
    # the split versions (there the reference's valuation never ends)
    ratios = (Fraction(3, 2), Fraction(-5), Fraction(7, 9))
    for q in (Fraction(0), Fraction(48), Fraction(-3, 8)):
        for p in (2, 3, 4, 9, 15, 16, 45):
            for n in (-1, 0, 1, 2, 8):
                want = _outcome(_ref_nth_power_in_Qp, q, p, n)
                assert _outcome(nth_power_in_Qp, q, p, n) == want, (q, p, n)
                want = _outcome(_ref_padic_case, q, ratios, p, n)
                assert _outcome(_padic_case, q, ratios, p, n) == want, (q, p, n)
        for p in (1, 0, -1, -2, True, False):
            for fn, args in (
                (nth_power_in_Qp, (q, p, 2)),
                (valuation, (q, p)),
                (_padic_case, (q, ratios, p, 2)),
            ):
                with pytest.raises(DegenerateInput):
                    fn(*args)


def test_valuation_refuses_p_below_two_but_not_composites():
    # density splits targets over a coprime base of composite elements
    assert valuation(Fraction(144, 7), 12) == 2
    assert valuation(Fraction(5, 36), 6) == -2
    assert valuation(2**40, 4) == 20
    for p in (1, 0, -1, -7, True):
        with pytest.raises(DegenerateInput):
            valuation(12, p)


# ---------------------------------------------------------------------------
# sieve


def test_sieve_matches_naive():
    s = sieve(1000)
    assert list(s.primes) == naive_primes(1000)
    for k in (997, 1000):
        assert (k in s.primes) == naive_is_prime(k)
    assert tuple(s.primes_in(0, 100)) == tuple(naive_primes(100))


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


def _write_sieve(path, bound, primes):
    with open(path, "wb") as fh:
        fh.write(arith._SIEVE_MAGIC + struct.pack("<Q", bound) + array("Q", primes).tobytes())


@pytest.mark.parametrize("damage", ["composites-added", "prime-removed"])
def test_load_refuses_a_list_that_is_not_the_primes(tmp_path, monkeypatch, damage):
    # a list ascending from 2 to a prime in (bound/2, bound] loaded with
    # composites inserted or a prime left out, and a witness search then
    # certified 9 as a prime
    want = naive_primes(10**4)
    if damage == "composites-added":
        primes = sorted(want + [9, 15, 21, 25, 27, 33, 35, 39])
    else:
        primes = [p for p in want if p != 97]
    path = str(tmp_path / "bad.sieve")
    _write_sieve(path, 10**4, primes)
    with pytest.raises(DegenerateInput):
        load_sieve(path)
    # named as a cache, the file is rebuilt and no certificate rests on it
    monkeypatch.setattr(arith, "_sieve_cache", None)
    assert load_or_build_sieve(path, 10**4).primes == tuple(want)
    assert load_sieve(path).primes == tuple(want)
    v = classify_equation(EquationSpec(2, 4, 1, 1, 4), config=SimpleNamespace(witness_bound=10**4))
    assert reverify(v)
    assert all(naive_is_prime(c.data["witness"].p) for c in v.certificates if c.kind == "witness")


def test_load_refuses_a_bound_the_list_cannot_reach(tmp_path):
    # a whole list holds more than bound/64 - 1 primes: a header bound past
    # that is refused before flags for it are made
    path = str(tmp_path / "big.sieve")
    _write_sieve(path, 2**62, [2, 3])
    with pytest.raises(DegenerateInput):
        load_sieve(path)
    for bound in (0, 1, 2, 17, 1000):
        _write_sieve(path, bound, naive_primes(bound))
        assert load_sieve(path) == PrimeSieve(bound, arith._odd_flags(bound))


_NAIVE = naive_primes(5000)


@given(st.integers(0, 5000), st.data())
@settings(max_examples=80, deadline=None)
def test_primes_read_from_the_flags_match_naive(bound, data):
    # a sieve's tuple, count and ranges, and those of a cut sharing its
    # flags, against trial division
    s = PrimeSieve(bound, arith._odd_flags(bound))
    b = data.draw(st.integers(0, bound), label="cut")
    high = data.draw(st.integers(0, b), label="high")
    low = data.draw(st.integers(-3, high + 3), label="low")
    cut = s.cut(b)
    assert s.cut(b) is cut and cut.flags is s.flags
    for t in (s, cut):
        want = _NAIVE[: bisect_right(_NAIVE, t.bound)]
        assert t.primes == tuple(want) and t.count == len(want)
        assert list(t.primes_in(low, t.bound)) == [p for p in want if p > low]
        assert list(t.primes_in(low, high)) == [p for p in want if low < p <= high]


def test_cuts_are_made_once_per_bound(monkeypatch):
    # a smaller sieve is a cut of the held one, made once per bound with its
    # count; past _MAX_CUTS bounds the oldest cut is dropped
    monkeypatch.setattr(arith, "_sieve_cache", None)
    held = sieve(10**4)
    cut = sieve(500)
    assert sieve(500) is cut and cut.flags is held.flags and sieve(10**4) is held
    assert cut.count == 95 and "primes" not in vars(held)
    for b in range(1, arith._MAX_CUTS + 1):
        sieve(b)
    assert len(held._cuts) == arith._MAX_CUTS and 500 not in held._cuts
    # a larger bound replaces the held sieve, and its cuts with it
    bigger = sieve(2 * 10**4)
    assert sieve(500) is bigger.cut(500) and sieve(500) is not cut and sieve(500) == cut


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
    s = PrimeSieve(10, arith._odd_flags(10))
    with pytest.raises(DegenerateInput):
        s.primes_in(0, 100)
    with pytest.raises(DegenerateInput):
        sieve(50.0)


# ---------------------------------------------------------------------------
# the residue columns against the scalar Euler-criterion kernel

# products of small primes, so that primes divide numerators and denominators
# across targets; perfect powers, so that elements s**j with j > 1 occur
_smooth = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 97, 997)), max_size=6).map(prod)
_perfect = st.builds(pow, st.integers(2, 12), st.integers(2, 6))
_part = st.one_of(_smooth, _perfect, st.integers(1, 10**9), st.just(1))
signed_rationals = st.builds(
    lambda sign, a, b: Fraction(sign * a, b), st.sampled_from((1, -1)), _part, _part
)
target_lists = st.lists(signed_rationals, min_size=1, max_size=4)


def _scalar_states(q, n, primes):
    num, den = q.numerator, q.denominator
    for p in primes:
        if num * den % p == 0:
            yield 0
        else:
            yield 1 if _is_residue(num, den, (p - 1) // gcd(n, p - 1), p) else 2


@st.composite
def quadratic_cases(draw):
    """Targets, n and a bound, where every element s**j of `_residue_base`
    has n | 2j, the case of the quadratic table: anything at n <= 2, and
    +-(a/b)**(n/2) at even n, whose base elements are all (n/2)-th powers.
    The table path needs 2 primes per class mod L, so at these bounds it
    takes L up to 2, 12, 84, 334 and 1131, and the draws fall on both sides
    of that cutoff."""
    n = draw(st.sampled_from((1, 2, 4, 6, 8, 12, 24)))
    target = st.builds(
        lambda sign, a, b: sign * Fraction(a, b) ** max(n // 2, 1),
        st.sampled_from((1, -1)),
        st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12, 49)),
        st.sampled_from((1, 2, 3)),
    )
    bound = draw(st.sampled_from((12, 100, 1000, 5000, 20000)))
    return draw(st.lists(target, min_size=1, max_size=3)), n, bound


@given(
    st.one_of(
        st.tuples(
            target_lists,
            st.integers(1, 24),
            st.one_of(st.integers(2, 12), st.integers(2, 5000)),
        ),
        quadratic_cases(),
    )
)
@settings(max_examples=300, deadline=None)
def test_residue_column_matches_scalar_kernel(case):
    qs, n, bound = case
    primes = sieve(bound).primes
    cols = _residue_columns(qs, n, primes)
    assert len(cols) == len(qs)
    for q, col in zip(qs, cols):
        assert col == bytes(_scalar_states(q, n, primes)), (q, qs, n)


def test_residue_column_fixed_cases():
    primes = sieve(30).primes  # 2 3 5 7 11 13 17 19 23 29
    # 2 is a square mod 7, 17, 23; p = 2 divides it
    assert _residue_columns([2], 2, primes) == [bytes((0, 2, 2, 1, 2, 2, 1, 2, 1, 2))]
    # -3/4 at n = 2: p = 2 divides the denominator, p = 3 the numerator
    assert _residue_columns([Fraction(-3, 4)], 2, primes) == [bytes((0, 0, 2, 1, 2, 1, 2, 1, 2, 2))]
    # every unit is a first power, and at p = 2 every unit is an n-th power
    assert _residue_columns([Fraction(35, 6)], 1, primes) == [bytes((0, 0, 0, 0, 1, 1, 1, 1, 1, 1))]
    assert _residue_columns([3], 24, primes)[0][:1] == b"\1"
    # j*e = 0 mod p-1 at a prime dividing s, where pow(s, 0, p) is 1:
    # 9 = 3^2 at n = 4 and p = 3; 16 = 2^4 at n = 8 and p = 2;
    # 1/9 at n = 3, whose T = 1 * 9^2 = 3^4, at p = 3
    for q, n, p in ((9, 4, 3), (16, 8, 2), (Fraction(1, 9), 3, 3)):
        (col,) = _residue_columns([q], n, primes)
        assert col[primes.index(p)] == 0
        assert col == bytes(_scalar_states(Fraction(q), n, primes))
    # one coprime base {4 = 2^2, 9 = 3^2} for the four targets, with a sign column
    qs = [Fraction(v) for v in (4, -4, 9, 36)]
    assert _residue_columns(qs, 4, primes) == [bytes(_scalar_states(q, 4, primes)) for q in qs]
    # targets past 2048 bits: 10^700 at n = 2, and 1/10^30 at n = 24, whose
    # T = 10^690 shares no element with 12
    for qs, n in (([10**700], 2), ([Fraction(1, 10**30), 12], 24), ([-(2**2049 + 1)], 6)):
        qs = [Fraction(q) for q in qs]
        assert _residue_columns(qs, n, primes) == [bytes(_scalar_states(q, n, primes)) for q in qs]
    # +-1 need no element: 1 is a residue everywhere, -1 by the parity of e
    assert _residue_columns([1, -1], 2, primes) == [
        b"\1" * 10,
        bytes((1, 2, 1, 2, 2, 1, 1, 2, 2, 1)),
    ]


def test_quadratic_table_fixed_cases(monkeypatch):
    # 168 primes, so the table path takes a modulus L up to 84
    primes = sieve(1000).primes
    moduli = []
    table = arith._quadratic_tables

    def counted(elements, terms, n, modulus):
        moduli.append(modulus)
        return table(elements, terms, n, modulus)

    monkeypatch.setattr(arith, "_quadratic_tables", counted)
    cases = [
        ([3], 2),  # p = 2 divides L = 12 but not the odd T
        ([8], 6),  # p = 3 divides L = 24 but not T = 8 = 2^3
        ([64], 12),  # p = 3 divides L = 24 but not T = 2^6
        ([9], 4),  # p = 3 divides s = 3
        ([16], 8),  # p = 2 divides s = 2
        ([4096], 24),
        ([4, -4, 9, 36], 4),
        ([Fraction(-5, 3)], 2),  # T = -15, its own element
        ([1, -1], 2),  # no element: -1 is the sign column alone
        ([19], 2),  # L = 76, just under the cutoff
        ([23], 2),  # L = 92, past it: the power columns
    ]
    for qs, n in cases:
        qs = [Fraction(q) for q in qs]
        assert _residue_columns(qs, n, primes) == [bytes(_scalar_states(q, n, primes)) for q in qs]
    assert moduli == [12, 24, 24, 24, 16, 48, 24, 60, 4, 76]
    assert _residue_columns([Fraction(3)], 2, primes)[0][:2] == b"\1\0"
    assert _residue_columns([Fraction(8)], 6, primes)[0][:2] == b"\0\2"
    assert _residue_columns([Fraction(64)], 12, primes)[0][:2] == b"\0\1"


def _scalar_counts(qs, n, bound):
    """{(p mod 24, states...): count} from the scalar Euler criterion."""
    primes = sieve(bound).primes
    states = [_scalar_states(Fraction(q), n, primes) for q in qs]
    return Counter(zip(map(mod, primes, repeat(24)), *states))


@given(quadratic_cases())
@settings(max_examples=200, deadline=None)
def test_pass_counts_match_zipped_columns(case):
    # the class counts of the table path, the zip of its columns past the
    # fold's cutoff, and the power path all equal the zipped columns, which
    # match the scalar kernel
    qs, n, bound = case
    primes = sieve(bound).primes
    cols = _residue_columns(qs, n, primes)
    assert _pass(tuple(qs), n, bound) == Counter(zip(map(mod, primes, repeat(24)), *cols))


@pytest.fixture
def folds(monkeypatch):
    """The moduli L of the passes that count classes mod lcm(L, 24)."""
    seen = []
    fold = arith._table_counts

    def counted(tables, signed, n, modulus, primes):
        seen.append(modulus)
        return fold(tables, signed, n, modulus, primes)

    monkeypatch.setattr(arith, "_table_counts", counted)
    return seen


def test_pass_counts_fixed_cases(folds):
    # 16 at n = 8: L = 16 and lcm(L, 24) = 48, where p = 3 is alone in its
    # class but a unit mod L, so it is read from the table like any other
    counts = _pass((Fraction(16),), 8, 10**5)
    assert counts == _scalar_counts([16], 8, 10**5)
    assert counts[(3, 1)] == 1
    # primes dividing L but not T: p = 2 for 3 at n = 2 (L = 12), p = 3 for
    # 8 at n = 6 (L = 24)
    counts = _pass((Fraction(3),), 2, 1000)
    assert counts == _scalar_counts([3], 2, 1000) and counts[(2, 1)] == 1
    counts = _pass((Fraction(8),), 6, 1000)
    assert counts == _scalar_counts([8], 6, 1000) and counts[(3, 2)] == 1
    assert folds == [16, 12, 24]
    # a few primes per class: 16 at n = 8 counts 48 classes from 96 primes
    # (bound 503), and zips its columns from 95 (bound 502)
    folds.clear()
    for bound in (503, 502):
        assert _pass((Fraction(16),), 8, bound) == _scalar_counts([16], 8, bound)
    assert folds == [16]
    qs = (Fraction(4), Fraction(-4), Fraction(9), Fraction(36))
    assert _pass(qs, 4, 227) == _scalar_counts(qs, 4, 227)


_FLAG_BOUNDS = (0, 1, 2, 3, 502, 503, 7919)


@pytest.fixture(scope="module")
def flag_sieves(tmp_path_factory):
    """Per bound in _FLAG_BOUNDS: the sieve built at that bound, the same
    sieve loaded from a cache file, and the sieve cut from a larger cached
    one, which shares its flags."""
    saved = arith._sieve_cache
    try:
        out = {}
        for b in _FLAG_BOUNDS:
            arith._sieve_cache = None
            built = sieve(b)
            path = str(tmp_path_factory.mktemp("flags") / "primes.sieve")
            save_sieve(built, path)
            out[b] = (built, load_sieve(path))
        arith._sieve_cache = None
        big = sieve(10**4)
        for b in _FLAG_BOUNDS:
            cut = sieve(b)
            assert cut.flags is big.flags
            out[b] += (cut,)
        return out
    finally:
        arith._sieve_cache = saved


def _flag_class_counts(s, modulus):
    """{c: primes of s that are c mod the even modulus} from the flags, as
    `_table_counts` reads them: the odd classes, and the prime 2."""
    odd = range(1, modulus, 2)
    counts = Counter(dict(zip(odd, s.class_counts(odd, modulus))))
    counts[2] += s.bound >= 2
    return +counts


@given(quadratic_cases())
@settings(max_examples=60, deadline=None)
def test_class_counts_from_flags_match_the_primes(flag_sieves, case):
    # the modulus lcm(L, 24) of the case's quadratic table, when it takes
    # one, and 24 and 48, on sieves built, loaded and cut from a larger one,
    # against the primes themselves
    qs, n, bound = case
    table = arith._residue_plan(qs, n, sieve(bound).count)[3]
    moduli = {lcm(table or 1, 24), 24, 48}
    for b, (built, loaded, cut) in flag_sieves.items():
        assert built.primes == tuple(naive_primes(b))
        assert loaded == built == cut
        half = (b + 1) // 2
        assert loaded.flags[:half] == built.flags == cut.flags[:half]
        for s in (built, loaded, cut):
            for modulus in moduli:
                want = Counter(map(mod, s.primes, repeat(modulus)))
                assert _flag_class_counts(s, modulus) == want, (b, modulus)


def test_every_sieve_carries_its_flags():
    # a sieve is its flags: its primes, their count and every range of them
    # are read from the flags, and the flags past its bound stay out of
    # equality and repr
    s = PrimeSieve(10, bytearray((0, 1, 1, 1, 0)))
    assert s.primes == (2, 3, 5, 7) and s.count == 4
    assert tuple(s.primes_in(2, 7)) == (3, 5, 7)
    assert s == PrimeSieve(10, arith._odd_flags(30)) and "flags" not in repr(s)
    assert repr(s) == "PrimeSieve(bound=10, primes=(2, 3, 5, 7))"
    assert s != PrimeSieve(10, bytearray((0, 1, 1, 0, 0))) and s != PrimeSieve(9, s.flags)
    flags = arith._odd_flags(10**4)
    assert _eratosthenes(10**4, flags) == _eratosthenes(10**4)
    assert PrimeSieve(10**4, flags).primes == _eratosthenes(10**4)


def test_lone_negative_target_takes_the_quadratic_table(monkeypatch, folds):
    # -4 alone is (-4)**1 as its own element, which fails n | 2j at n = 4;
    # the base {2**2} with a sign column meets it
    moduli = []
    table = arith._quadratic_tables

    def counted(elements, terms, n, modulus):
        moduli.append(modulus)
        return table(elements, terms, n, modulus)

    monkeypatch.setattr(arith, "_quadratic_tables", counted)
    primes = sieve(10**4).primes
    cases = [(-4, 4), (-9, 4), (-(2**6), 12), (-16, 8)]
    for q, n in cases:
        q = Fraction(q)
        assert _residue_columns([q], n, primes) == [bytes(_scalar_states(q, n, primes))]
        assert _pass((q,), n, 10**4) == _scalar_counts([q], n, 10**4)
    assert moduli == [8, 8, 24, 24, 24, 24, 16, 16]
    assert folds == [8, 24, 24, 16]
    assert _residue_base([-4], 4, len(primes)) == ([(2, 2)], [(((0, 1),), True)])
    # off the table either way, the signed value stays its own element
    assert _residue_base([-4], 3, len(primes)) == ([(-4, 1)], [(((0, 1),), False)])
    assert _residue_base([-7], 4, len(primes)) == ([(-7, 1)], [(((0, 1),), False)])


def test_perfect_power_matches_every_root():
    def brute(b):
        best = (b, 1)
        for j in range(2, b.bit_length() + 1):
            r = integer_nth_root(b, j)
            if r**j == b:
                best = (r, j)
        return best

    for b in range(2, 5000):
        assert _perfect_power(b) == brute(b), b
    for r in range(2, 40):
        for j in range(1, 60):
            assert _perfect_power(r**j) == brute(r**j), (r, j)
    # roots past 2^32, and negatives take the largest odd exponent
    assert _perfect_power((2**61 - 1) ** 7) == (2**61 - 1, 7)
    assert _perfect_power(-(2**12)) == (-16, 3)
    assert _perfect_power(-7) == (-7, 1)
    assert _perfect_power(2**1000 + 1) == (2**1000 + 1, 1)
    # past 2048 bits a float estimate of the square root would overflow
    assert _perfect_power(3**1500) == (3, 1500)
    assert _perfect_power((2**61 - 1) ** 40) == (2**61 - 1, 40)
    assert _perfect_power(2**2049 + 1) == (2**2049 + 1, 1)
    assert _perfect_power(-(10**701)) == (-10, 701)
    assert _perfect_power(7**400 * 11**600) == (7**2 * 11**3, 200)


def test_residue_base_shares_perfect_powers():
    # with no primes to count no set meets the quadratic table, so the cost
    # of the columns alone picks the elements
    # the coprime base {4, 9} beats the three distinct |T|; 16 = 2^4
    assert _residue_base([4, -4, 9, 36], 1, 0) == (
        [(2, 2), (3, 2)],
        [(((0, 1),), False), (((0, 1),), True), (((1, 1),), False), (((0, 1), (1, 1)), False)],
    )
    assert _residue_base([16], 1, 0) == ([(2, 4)], [(((0, 1),), False)])
    # {2, 3, 5} saves no column over 6, 10 and 15 themselves
    assert _residue_base([6, 10, 15], 1, 0) == (
        [(6, 1), (10, 1), (15, 1)],
        [(((0, 1),), False), (((1, 1),), False), (((2, 1),), False)],
    )
    # {2, 3} saves a column over 6, 12 and 18 for 5 combining maps, but not
    # over 2^5*3^3, 2^3*3^5 and 2^7*3^2, which take 9
    assert _residue_base([6, 12, 18], 1, 0)[0] == [(2, 1), (3, 1)]
    assert _residue_base([2**5 * 3**3, 2**3 * 3**5, 2**7 * 3**2], 1, 0)[0] == [
        (864, 1),
        (1152, 1),
        (1944, 1),
    ]
    # a negative value of its own keeps its sign in an odd power
    assert _residue_base([-64, 3], 1, 0) == ([(-4, 3), (3, 1)], [(((0, 1),), False), (((1, 1),), False)])
    # with no element at all, -1 is the sign column alone
    assert _residue_base([1, -1], 1, 0) == ([], [((), False), ((), True)])
