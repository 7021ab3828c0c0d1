"""Exact arithmetic primitives: factorization, rational n-th roots, modular and
p-adic power tests, and a prime sieve with a binary disk cache.

Power residues have one scalar kernel, `_is_residue`, for early-exit scans,
and one kernel for every survey of a whole range, read out as per-prime
columns (`_residue_columns`) or as counts (`_residue_counts`): it shares a
power column per element of a coprime base of the targets and reduces the
exponents of perfect powers mod p-1.  When every element s**j has n | 2j,
each column is 1 or a Legendre symbol (s|p), which quadratic reciprocity
makes a function of p mod 4|s|, so the states are read from a table over
p mod L and no power is taken per prime; the counts then need only the
number of primes in each class mod lcm(L, 24), which the sieve's odd-only
flags give as one strided slice per class (`PrimeSieve.class_counts`).

All rational values are `fractions.Fraction`; nothing in this module falls
back to floating point (a float only proposes a root that is checked exactly).
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, cycle, islice, repeat
from math import gcd, isqrt, lcm, log2
from operator import and_, floordiv, itemgetter, lt, mod, mul, not_, rshift, sub

TRIAL_DIVISION_BOUND = 10**6
DEFAULT_FACTOR_BUDGET = 2**20

_SIEVE_MAGIC = b"PRSIEVE1"

# Miller-Rabin with the first k prime bases is exact for n < _MR_LIMITS[k-1],
# the least strong pseudoprime to all of them (OEIS A014233, psi_1..psi_13),
# so each n runs the fewest bases that decide it.  At or above the last
# limit, 3.3e24, no such bound is known: all 14 bases run (43 rejects psi_13
# itself) and the answer is only probable.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_LIMITS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


class ParregError(Exception):
    """Base class for all package errors."""


class DegenerateInput(ParregError):
    """Input outside an operation's mathematical domain."""


class FactorizationBudgetExceeded(ParregError):
    """Pollard rho exhausted its iteration budget; results are never approximated."""


class BadReduction(ParregError):
    """Residue arithmetic attempted at a prime dividing a numerator or denominator."""


def _as_rat(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise DegenerateInput(f"expected an exact rational, got {type(q).__name__}")


def _as_int(v) -> int:
    if isinstance(v, int):
        return v
    raise DegenerateInput(f"expected an integer, got {type(v).__name__}")


def _int_row(row) -> tuple[int, int, int]:
    try:
        a, b, c = row
    except (TypeError, ValueError):
        raise DegenerateInput(f"a system row is 3 coefficients (a, b, c), got {row!r}") from None
    return _as_int(a), _as_int(b), _as_int(c)


def _int_rows(rows) -> tuple[tuple[int, int, int], ...]:
    """System rows as (a, b, c) int triples, refusing a row that is not 3
    items and what int() would round."""
    return tuple(map(_int_row, rows))


def _check_prime_arg(p: int) -> None:
    if p < 2 or not is_probable_prime(p):
        raise DegenerateInput(f"p = {p} is not prime")


# ---------------------------------------------------------------------------
# Factorization


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization of a nonzero rational: sign * prod(p**e).

    Denominator primes carry negative exponents.
    """

    sign: int
    exponents: dict[int, int]


def is_probable_prime(n: int) -> bool:
    if _as_int(n) < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[: bisect_right(_MR_LIMITS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> int:
    """One nontrivial factor of odd composite n (Brent's cycle variant).

    The polynomial increment sequence is fixed so runs are reproducible.
    Raises FactorizationBudgetExceeded once `budget` squarings are spent.
    """
    steps = 0
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            if steps > budget:
                raise FactorizationBudgetExceeded(f"budget {budget} exceeded factoring {n}")
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g != n:
            return g
        # Batch gcd overshot a factor; replay one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            steps += 1
            if steps > budget:
                raise FactorizationBudgetExceeded(f"budget {budget} exceeded factoring {n}")
        if g != n:
            return g
    raise FactorizationBudgetExceeded(f"cycle parameters exhausted factoring {n}")


def _factor_int(m: int, budget: int, out: dict[int, int], mult: int) -> None:
    """Accumulate the factorization of m >= 1 into `out` with multiplicity sign `mult`."""
    for d in (2, 3):
        while m % d == 0:
            out[d] = out.get(d, 0) + mult
            m //= d
    d = 5
    # 6k +/- 1 wheel up to the trial-division bound (or sqrt, whichever is first).
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        for step in (0, 2):
            dd = d + step
            while m % dd == 0:
                out[dd] = out.get(dd, 0) + mult
                m //= dd
        d += 6
    if m == 1:
        return
    if d * d > m or is_probable_prime(m):
        out[m] = out.get(m, 0) + mult
        return
    stack = [m]
    while stack:
        t = stack.pop()
        if is_probable_prime(t):
            out[t] = out.get(t, 0) + mult
            continue
        f = _pollard_rho(t, budget)
        stack.append(f)
        stack.append(t // f)


def factor(q, budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Exact signed factorization of a nonzero rational.

    Trial division to 1e6, then Pollard rho under `budget`, an integer of
    at least 1; a blown budget raises FactorizationBudgetExceeded rather
    than approximating.
    """
    q = _as_rat(q)
    if q == 0:
        raise DegenerateInput("cannot factor 0")
    if _as_int(budget) < 1:
        raise DegenerateInput("factor budget must be positive")
    exps: dict[int, int] = {}
    _factor_int(abs(q.numerator), budget, exps, +1)
    _factor_int(q.denominator, budget, exps, -1)
    return Factorization(sign=1 if q > 0 else -1, exponents=dict(sorted(exps.items())))


def _split(q, p: int) -> tuple[int, int, int]:
    """(v, num, den) with q = p**v * num / den, den > 0 and p dividing
    neither num nor den, for a nonzero rational q and any p >= 2 (prime or
    not): the one pass over q that the p-adic tests read."""
    q = _as_rat(q)
    if not q:
        raise DegenerateInput("valuation of 0 is undefined")
    if _as_int(p) < 2:
        raise DegenerateInput(f"valuation needs p >= 2, got {p}")
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    if not v:
        while den % p == 0:
            den //= p
            v -= 1
    return v, num, den


# ---------------------------------------------------------------------------
# Rational roots


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, for x >= 0 (Newton on integers)."""
    if _as_int(x) < 0 or _as_int(n) < 1:
        raise DegenerateInput("integer_nth_root needs x >= 0, n >= 1")
    if x == 0 or n == 1:
        return x
    r = 1 << (x.bit_length() // n + 1)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _exact_root(x: int, n: int) -> int | None:
    """The r with r**n == x, for ints x, n >= 1, or None.

    A root below 2^32, which is where x has at most 32*n bits, is the
    rounded float estimate, whose error is far below 1/2 there;
    `integer_nth_root` would start Newton a factor of up to 2 high, which
    for a large n closes only by about 1/n a step.  Larger roots take
    Newton, as their float estimate could overflow.
    """
    if x.bit_length() <= 32 * n:
        r = round(2 ** (log2(x) / n))
    else:
        r = integer_nth_root(x, n)
    return r if r**n == x else None


def nth_power_in_Q(q, n: int) -> Fraction | None:
    """The rational r with r**n == q, or None.

    q = num/den in lowest terms is an n-th power exactly when |num| and den are
    both perfect n-th powers and the sign is attainable (q > 0, or n odd).
    """
    q = _as_rat(q)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    if n == 1:
        return q
    # zero and sign are read from the numerator: no Fraction compare
    num, den = q.numerator, q.denominator
    if num == 0:
        return Fraction(0)
    if num < 0 and n % 2 == 0:
        return None
    rn = _exact_root(abs(num), n)
    if rn is None:
        return None
    rd = _exact_root(den, n)
    if rd is None:
        return None
    return Fraction(-rn if num < 0 else rn, rd)


# ---------------------------------------------------------------------------
# Modular and p-adic power tests


def _is_residue(num: int, den: int, e: int, p: int) -> bool:
    """Euler criterion on trusted ints: is num/den an n-th power residue mod p?

    The caller guarantees that p is prime and divides neither num nor den, and
    passes e = (p-1) // gcd(n, p-1).  Nothing is checked here: every
    early-exit scan over sieve primes runs through this kernel, and every
    survey of a whole range through its column form, `_residue_columns`.
    """
    if den != 1:
        num = num * pow(den, -1, p)
    return pow(num, e, p) == 1


def _exponents(n: int, primes) -> array:
    """e = (p-1) // gcd(n, p-1) at every prime, for the power columns of
    `_residue_columns`.  Unboxed in an array: a list would hold one int
    object per prime for the whole survey, which raises peak RSS by about
    0.5 MB at 10^5."""
    return array(
        "q",
        map(
            floordiv,
            map(sub, primes, repeat(1)),
            map(gcd, repeat(n), map(sub, primes, repeat(1))),
        )
    )


# bit length of a value mod p -> state: 0 -> 0, 1 -> 1, 2..255 -> 2
_STATES = bytes.maketrans(bytes(range(256)), bytes((0, 1)) + b"\2" * 254)


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value >= 1 is a product
    of powers: a gcd-free basis, found by splitting on gcds without
    factoring.  Each split replaces x and b by g, b/g and x/g with
    g = gcd(x, b) > 1, so the product of what is left strictly falls."""
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [d for d in (g, b // g, x // g) if d > 1]
                break
        else:
            base.append(x)
    return sorted(base)


def _perfect_power(b: int) -> tuple[int, int]:
    """(s, j) with s**j == b and j maximal, for b other than 0 and 1; a
    negative b takes the largest odd j.  Only prime roots are tried: a
    composite root would have been taken as roots of its prime factors."""
    s, j = abs(b), 1
    for ell in sieve(s.bit_length()).primes:
        if ell > s.bit_length():
            break
        while (r := _exact_root(s, ell)) is not None:
            s, j = r, j * ell
    if b < 0:
        while j % 2 == 0:
            s, j = s * s, j // 2
        s = -s
    return s, j


# A full power column costs about as much as 8 of the maps that combine
# columns, a small pow or a mul with its mod (930 against 100 ns per prime
# at 10^5; 7x at 10^4, 10x at 10^6).  Counting columns alone would take the
# base {2, 23} for -2^9*23^6, 2^10 and -2^31*23 at n = 4, whose 8 maps
# save one column and made that survey 8-20% slower than a column per target.
_MAPS_PER_COLUMN = 8


def _residue_base(
    values, n: int, count: int
) -> tuple[list[tuple[int, int]], list[tuple[tuple, bool]]]:
    """The power columns `_residue_columns` builds for nonzero integers:
    elements (s, j), and per value its terms ((element index, k), ...) and
    whether it is minus their product, value = +-prod((s**j)**k).

    The elements are a coprime base of the |values| when its columns and
    the maps that combine them cost less than columns of the distinct values
    other than 1 themselves, and those signed values otherwise; each is
    written s**j with j maximal.  The base, with a sign column, is also
    taken when the signed values miss the quadratic table at n over `count`
    primes and the base meets it (`_table_modulus`): -4 at n = 4 is (-4)**1
    as its own element, which fails n | 2j, but -(2**2) over the base."""
    own = sorted({v for v in values if v != 1})
    base = _coprime_base([abs(v) for v in own])
    terms = []
    for v in values:
        rest, row = abs(v), []
        for i, b in enumerate(base):
            k = 0
            while rest % b == 0:
                rest //= b
                k += 1
            if k:
                row.append((i, k))
        terms.append((tuple(row), v < 0))
    # per value: a pow for each k > 1, a mul and mod for each further factor
    maps = sum(
        sum(k > 1 for _, k in row) + max(len(row) + flip - 1, 0) for row, flip in terms
    )
    if _MAPS_PER_COLUMN * len(base) + maps < _MAPS_PER_COLUMN * len(own):
        return [_perfect_power(b) for b in base], terms
    elements = [_perfect_power(v) for v in own]
    if base != own and not _table_modulus(elements, n, count):
        shared = [_perfect_power(b) for b in base]
        if _table_modulus(shared, n, count):
            return shared, terms
    return elements, [(((own.index(v), 1),) if v != 1 else (), False) for v in values]


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a|m) for odd m > 0: the Legendre symbol when m is
    prime, 0 when a and m share a factor (Cohen, GTM 138, Alg. 1.4.10)."""
    a %= m
    t = 1
    while a:
        while not a & 1:
            a >>= 1
            if m & 7 in (3, 5):
                t = -t
        a, m = m, a
        if a & m & 3 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


# A class of the quadratic table costs about 4 us (two gcds, a Jacobi symbol
# per element, a state per target), a prime of a power column about 1.6 us
# with its share of `_exponents` (2-vCPU host, Python 3.11).  For one element
# at n = 2 the table path took 0.77, 0.61 and 0.48 of the power path's time
# with 2 primes per class mod L (bounds 10^4, 10^5, 10^6), and 1.45, 1.29
# and 1.15 with 1.
_PRIMES_PER_CLASS = 2


def _table_modulus(elements, n: int, count: int) -> int:
    """The modulus L = lcm(2n, 4|s| over the elements) of the quadratic
    table, when n | 2j for every element s**j and `count` primes give at
    least `_PRIMES_PER_CLASS` per class mod L; 0 when the power columns run."""
    if all(2 * j % n == 0 for _, j in elements):
        modulus = lcm(2 * n, *(4 * abs(s) for s, _ in elements))
        if modulus * _PRIMES_PER_CLASS <= count:
            return modulus
    return 0


def _quadratic_tables(elements, terms, n: int, modulus: int) -> list[bytearray]:
    """Per target its state at every class c mod `modulus` coprime to it (0
    at the other classes), when n | 2j for every element s**j and
    `modulus` is a multiple of 2n and of every 4|s|.

    With g = gcd(n, p-1) and e = (p-1)/g, g divides 2j, so the exponent
    j*e is 0 mod p-1 when g | j and (p-1)/2 otherwise: the column is 1 or
    the Legendre symbol (s|p).  For odd m the Jacobi symbol (s|m) depends
    only on m mod 4|s| (quadratic reciprocity), so (s|p) is (s|c) at
    c = p mod `modulus`.  g depends only on p mod n, and the parity of e,
    which gives the sign column (-1)^e, only on p mod 2n.  So every state
    at a prime not dividing `modulus` is the table's at its class c.
    """
    odd = [[i for i, k in row if k & 1] for row, _ in terms]
    tables = [bytearray(modulus) for _ in terms]
    for c in range(1, modulus, 2):
        if gcd(c, modulus) != 1:
            continue
        g = gcd(n, c - 1)
        minus = [j % g and _jacobi(s, c) < 0 for s, j in elements]
        sign = (c - 1) // g & 1
        for table, (_, flip), idx in zip(tables, terms, odd):
            table[c] = 1 + ((flip and sign) + sum(minus[i] for i in idx)) % 2
    return tables


def _dividing_states(signed, n: int, modulus: int, primes):
    """(k, states of the targets) at each primes[k] dividing `modulus`, which
    the tables leave out: all of them <= `modulus`, and among them every
    prime dividing a target, which takes state 0.  The others take the
    scalar Euler criterion."""
    few = primes[: bisect_right(primes, modulus)]
    for k in compress(range(len(few)), map(not_, map(mod, repeat(modulus), few))):
        p = few[k]
        e = (p - 1) // gcd(n, p - 1)
        yield k, [0 if t % p == 0 else 1 if _is_residue(t, 1, e, p) else 2 for t in signed]


def _table_columns(tables, signed, n: int, modulus: int, primes) -> list[bytes]:
    """The columns of `_residue_columns` read from `_quadratic_tables` at
    p mod `modulus`."""
    # the cutoff leaves at least 4 primes, so `pick` gives a tuple
    pick = itemgetter(*map(mod, primes, repeat(modulus)))
    cols = [bytearray(pick(table)) for table in tables]
    for k, states in _dividing_states(signed, n, modulus, primes):
        for col, state in zip(cols, states):
            col[k] = state
    return list(map(bytes, cols))


def _table_counts(tables, signed, n: int, modulus: int, s: PrimeSieve) -> Counter:
    """The counts of `_residue_counts` from `_quadratic_tables`: the primes
    of the sieve s in each class c mod lcm(modulus, 24) that is a unit mod
    `modulus` and prime to 6, or holds the prime 3 (`PrimeSieve.class_counts`),
    folded through the tables at c mod `modulus` under the key
    (c mod 24, states...); and the primes dividing `modulus`, 2 among them,
    one by one."""
    classes = lcm(modulus, 24)
    # the odd classes but the multiples of 3 other than 3 hold no prime
    odd = [3, *compress(range(1, classes, 2), cycle((1, 0, 1)))]
    # the tables are 0 at the classes that are no unit mod `modulus`
    units = list(compress(odd, map(tables[0].__getitem__, map(mod, odd, repeat(modulus)))))
    at = list(map(mod, units, repeat(modulus)))
    keys = zip(map(mod, units, repeat(24)), *(map(t.__getitem__, at) for t in tables))
    counts = Counter()
    for key, count in zip(keys, s.class_counts(units, classes)):
        if count:
            counts[key] += count
    for k, states in _dividing_states(signed, n, modulus, s.primes):
        counts[(s.primes[k] % 24, *states)] += 1
    return counts


def _power_columns(elements, terms, n: int, primes) -> list[bytes]:
    """`_residue_columns` off the quadratic table, from a power column
    pow(s, j*e mod (p-1), p) per element s**j."""
    exps = _exponents(n, primes)
    uses = Counter(i for row, _ in terms for i, _ in row)
    reduced = {}
    cols = []
    for i, (s, j) in enumerate(elements):
        if n % 2 == 0 and j % 2:
            # gcd(n, p-1) is even at every odd p, so j*e is never a multiple
            # of p-1 there; as every e >= 1, pow is 0 at the primes dividing s.
            # Reducing the exponents and zeroing would make such a survey
            # about a fifth slower, and an array read once about 4% slower
            # than a map.
            col = map(pow, repeat(s**j), exps, primes)
            cols.append(col if uses[i] == 1 else array("q", col))
            continue
        if j not in reduced:
            pm1 = map(sub, primes, repeat(1))
            reduced[j] = array("q", map(mod, map(mul, exps, repeat(j)), pm1))
        col = array("q", map(pow, repeat(s), reduced[j], primes))
        # the primes dividing s are <= |s|
        few = primes[: bisect_right(primes, abs(s))]
        for k in compress(range(len(few)), map(not_, map(mod, repeat(s), few))):
            col[k] = 0
        cols.append(col)
    if any(flip for _, flip in terms):
        # (-1)^e mod p is (p-1)^(e & 1)
        pm1 = map(sub, primes, repeat(1))
        signs = array("q", map(pow, pm1, map(and_, exps, repeat(1))))
    out = []
    for row, flip in terms:
        factors = [cols[i] if k == 1 else map(pow, cols[i], repeat(k), primes) for i, k in row]
        if flip:
            factors.append(signs)
        if not factors:
            values = repeat(1, len(primes))
        else:
            values = factors[0]
            for f in factors[1:]:
                values = map(mul, values, f)
            if len(factors) > 1:
                values = map(mod, values, primes)
        out.append(bytes(map(int.bit_length, values)).translate(_STATES))
    return out


def _residue_plan(qs, n: int, primes):
    """The T values of qs, the elements and terms of `_residue_base`, and
    the `_table_modulus`, which is 0 off the quadratic table."""
    signed = [q.numerator * q.denominator ** max(n - 1, 1) for q in qs]
    elements, terms = _residue_base(signed, n, len(primes))
    return signed, elements, terms, _table_modulus(elements, n, len(primes))


def _residue_columns(qs, n: int, primes) -> list[bytes]:
    """The Euler criterion of `_is_residue` for every rational in qs at every
    prime at once: per target one byte per prime, 0 when p divides its
    numerator or denominator, 1 when it is an n-th power residue mod p, 2
    when it is not.

    With m = max(n-1, 1), q = num/den has the character and the bad primes
    of T = num*den^m: n divides m+1, so T = q*den^(m+1) is a residue exactly
    when q is.  T^e, with e = (p-1) // gcd(n, p-1), is a product of small
    powers of the columns pow(s, j*e mod (p-1), p), one per element s**j of
    `_residue_base`, shared by every target, times (-1)^e (read from the
    parity of e) when the elements are a base of |T|.  When n | 2j for every
    element and the `_table_modulus` L is small against the number of
    primes, every column is 1 or a Legendre symbol, and the states are read
    from `_quadratic_tables` at p mod L instead.  Otherwise, where j*e is a
    multiple of p-1 that exponent is 0 and costs no power; there pow gives
    1, so the primes dividing s are set to 0 afterwards.  Every step maps a
    C function over the primes, so no bytecode runs per prime.
    """
    signed, elements, terms, modulus = _residue_plan(qs, n, primes)
    if not modulus:
        return _power_columns(elements, terms, n, primes)
    tables = _quadratic_tables(elements, terms, n, modulus)
    return _table_columns(tables, signed, n, modulus, primes)


def _residue_counts(qs, n: int, s: PrimeSieve) -> Counter:
    """How many primes of the sieve s show each key (p mod 24, state of
    qs[0], state of qs[1], ...), with the states of `_residue_columns`.

    On the quadratic table the state at a prime not dividing L is a
    function of p mod L, so the primes are counted per class mod
    lcm(L, 24) from the sieve's flags and each class is looked up once
    (`_table_counts`), with no column and no bytecode per prime.  Off the
    table the columns are zipped and counted.
    """
    signed, elements, terms, modulus = _residue_plan(qs, n, s.primes)
    if not modulus:
        cols = _power_columns(elements, terms, n, s.primes)
    else:
        tables = _quadratic_tables(elements, terms, n, modulus)
        # Counting and folding a class that can hold a prime costs about
        # 1 us, zipping a prime about 0.2 us (2-vCPU host, Python 3.11).  For
        # one target the fold took 0.19-0.22 of the zip's time at
        # lcm(L, 24)/N = 0.1, 0.54-0.66 at 0.37, 1.1-1.3 at 0.77 and 1.9-2.4
        # at 1.5 (bounds 10^4 to 10^6; three targets 0.05-0.2 less), so it
        # takes the table's own cutoff, on lcm(L, 24), and past it the
        # columns are zipped.
        if lcm(modulus, 24) * _PRIMES_PER_CLASS <= len(s.primes):
            return _table_counts(tables, signed, n, modulus, s)
        cols = _table_columns(tables, signed, n, modulus, s.primes)
    return Counter(zip(map(mod, s.primes, repeat(24)), *cols))


def nth_power_mod_p(q, n: int, p: int) -> bool:
    """Euler criterion: is q an n-th power residue mod the prime p?

    Reduces q to num * den^-1 mod p; raises BadReduction if p divides either.
    """
    q = _as_rat(q)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    _check_prime_arg(p)
    if q.numerator % p == 0 or q.denominator % p == 0:
        raise BadReduction(f"{q} does not reduce to a unit mod {p}")
    return _is_residue(q.numerator, q.denominator, (p - 1) // gcd(n, p - 1), p)


def nth_power_in_Qp(q, p: int, n: int) -> bool:
    """Is q a nonzero n-th power in the p-adic field Q_p?

    True iff v_p(q) is divisible by n and the unit part u = q * p^-v is an
    n-th power unit.  Writing n = p^e * n' with p coprime to n', u qualifies
    iff u is an n'-th power residue mod p and, when e >= 1, the principal part
    is deep enough: u^(p-1) == 1 mod p^(e+1) for odd p, u == 1 mod 2^(e+2)
    for p = 2.  (For e = 0 the principal condition is vacuous; in particular
    every 2-adic unit is an n-th power for odd n.)
    """
    q = _as_rat(q)
    if q == 0:
        raise DegenerateInput("0 is excluded; test nonzero values")
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    _check_prime_arg(p)
    return _is_qp_power(*_split(q, p), p, n)


def _is_qp_power(v: int, num: int, den: int, p: int, n: int) -> bool:
    """`nth_power_in_Qp` of q from its `_split` (v, num, den) at p, on
    trusted arguments: p prime and n >= 1.  As den is a unit mod p^k,
    num/den = 1 iff num = den, and (num/den)^(p-1) = 1 iff
    num^(p-1) = den^(p-1) (mod p^k), so no inverse is taken."""
    if v % n:
        return False
    m, e = n, 0
    while m % p == 0:
        m //= p
        e += 1
    if not _is_residue(num, den, (p - 1) // gcd(m, p - 1), p):
        return False
    if e == 0:
        return True
    if p == 2:
        return (num - den) % (1 << (e + 2)) == 0
    pk = p ** (e + 1)
    return pow(num, p - 1, pk) == pow(den, p - 1, pk)


# ---------------------------------------------------------------------------
# Prime sieve and its disk cache


@dataclass(frozen=True)
class PrimeSieve:
    """All primes <= bound, ascending, and the odd-only flags of the sieve
    that found them: flags[k] is 1 when 2k+1 is a prime, for 2k+1 <= bound.
    A sieve cut from a larger one shares its flags, which then run past
    bound.  The flags let `_table_counts` count the primes in a residue
    class with one C-level slice; a sieve made without them (a loaded
    file) rebuilds them from its primes, so every sieve carries them.
    They stay out of equality and repr."""

    bound: int
    primes: tuple[int, ...]
    flags: bytearray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.flags is None:
            # a plain loop: mapping flags.__setitem__ over the primes in C
            # took 11.6 ms at 10^6, this loop 3.3 ms
            flags = bytearray((self.bound + 1) // 2)
            for p in islice(self.primes, 1, None):
                flags[p >> 1] = 1
            object.__setattr__(self, "flags", flags)

    def class_counts(self, classes, modulus: int):
        """The number of primes <= bound in each odd class c of `classes`
        mod the even `modulus`: class c starts at flag c >> 1 and recurs
        every modulus / 2 flags, so each count is one strided slice of the
        flags, counted in C."""
        stop, step = (self.bound + 1) // 2, modulus // 2
        starts = map(rshift, classes, repeat(1))
        runs = map(self.flags.__getitem__, map(slice, starts, repeat(stop), repeat(step)))
        return map(bytearray.count, runs, repeat(1))

    def primes_upto(self, b: int) -> tuple[int, ...]:
        if b > self.bound:
            raise DegenerateInput(f"sieve bound {self.bound} < requested {b}")
        return self.primes[: bisect_right(self.primes, b)]


_sieve_cache: PrimeSieve | None = None


def _odd_flags(bound: int) -> bytearray:
    """A sieve of the odd numbers <= bound: flags[k] stands for 2k+1, and is
    1 when 2k+1 is prime.  An odd prime i clears its odd multiples from i*i
    on, which sit i flags apart from i*i >> 1."""
    flags = bytearray([1]) * ((bound + 1) // 2)
    if flags:
        flags[0] = 0
    for i in range(3, isqrt(bound) + 1, 2):
        if flags[i >> 1]:
            start = i * i >> 1
            flags[start::i] = bytes(len(range(start, len(flags), i)))
    return flags


def _eratosthenes(bound: int, flags: bytearray | None = None) -> tuple[int, ...]:
    """Primes <= bound: 2 and the odd numbers that `_odd_flags(bound)` keeps,
    which `compress` picks in C, so no bytecode runs per candidate.  `sieve`
    passes the flags it keeps on the PrimeSieve; without them they are
    built here."""
    if bound < 2:
        return ()
    if flags is None:
        flags = _odd_flags(bound)
    return (2, *compress(range(1, bound + 1, 2), flags))


def sieve(bound: int) -> PrimeSieve:
    """Primes up to `bound`: the one source of primes for every search and
    survey.  The largest sieve built or loaded so far is kept in memory, and
    a smaller one shares its primes and flags."""
    global _sieve_cache
    if _as_int(bound) < 0:
        raise DegenerateInput("bound must be >= 0")
    if _sieve_cache is None or _sieve_cache.bound < bound:
        flags = _odd_flags(bound)
        _sieve_cache = PrimeSieve(bound, _eratosthenes(bound, flags), flags)
    if _sieve_cache.bound == bound:
        return _sieve_cache
    return PrimeSieve(bound, _sieve_cache.primes_upto(bound), _sieve_cache.flags)


def save_sieve(s: PrimeSieve, path: str) -> None:
    """Binary cache: 8-byte magic, 64-bit LE bound, 64-bit LE primes."""
    with open(path, "wb") as fh:
        fh.write(_SIEVE_MAGIC)
        fh.write(struct.pack("<Q", s.bound))
        fh.write(array("Q", s.primes).tobytes())


def load_sieve(path: str) -> PrimeSieve:
    """Read a `save_sieve` file.  DegenerateInput unless it is well formed:
    the body whole 8-byte words, strictly ascending from 2 and, as Bertrand's
    postulate demands of a complete list, ending at a prime in (bound/2, bound].
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        body = fh.read()
    if len(head) < 16 or head[:8] != _SIEVE_MAGIC or len(body) % 8:
        raise DegenerateInput(f"{path}: not a sieve cache file")
    (bound,) = struct.unpack("<Q", head[8:])
    data = array("Q")
    data.frombytes(body)
    primes = tuple(data)
    if bound < 2:
        whole = not primes
    else:
        whole = (
            primes[:1] == (2,)
            and bound < 2 * primes[-1] <= 2 * bound
            and all(map(lt, primes, primes[1:]))
        )
    if not whole:
        raise DegenerateInput(f"{path}: truncated or corrupt sieve cache")
    return PrimeSieve(bound=bound, primes=primes)


def load_or_build_sieve(path: str, bound: int) -> PrimeSieve:
    """Primes up to `bound`, as `sieve` gives them.  A cache file whose bound
    suffices becomes the process's sieve when it is larger than the one held;
    a missing, short or malformed one is rebuilt and overwritten."""
    global _sieve_cache
    try:
        s = load_sieve(path)
    except (OSError, DegenerateInput):
        s = None
    if s is None or s.bound < bound:
        save_sieve(sieve(bound), path)
    elif _sieve_cache is None or _sieve_cache.bound < s.bound:
        _sieve_cache = s
    return sieve(bound)
