"""Exact arithmetic primitives: factorization, rational n-th roots, modular and
p-adic power tests, and a prime sieve with a binary disk cache.

All rational values are `fractions.Fraction`; nothing in this module falls
back to floating point.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt
from operator import floordiv, lt, mul, sub

TRIAL_DIVISION_BOUND = 10**6
DEFAULT_FACTOR_BUDGET = 2**20

_SIEVE_MAGIC = b"PRSIEVE1"

# Deterministic Miller-Rabin witness set, valid for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def _int_rows(rows) -> tuple[tuple[int, int, int], ...]:
    """System rows as (a, b, c) int triples, refusing what int() would round."""
    return tuple((_as_int(a), _as_int(b), _as_int(c)) for a, b, c in rows)


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
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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

    Trial division to 1e6, then Pollard rho under `budget`; a blown budget
    raises FactorizationBudgetExceeded rather than approximating.
    """
    q = _as_rat(q)
    if q == 0:
        raise DegenerateInput("cannot factor 0")
    exps: dict[int, int] = {}
    _factor_int(abs(q.numerator), budget, exps, +1)
    _factor_int(q.denominator, budget, exps, -1)
    return Factorization(sign=1 if q > 0 else -1, exponents=dict(sorted(exps.items())))


def valuation(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = _as_rat(q)
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


# ---------------------------------------------------------------------------
# Rational roots


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, for x >= 0 (Newton on integers)."""
    if x < 0 or n < 1:
        raise DegenerateInput("integer_nth_root needs x >= 0, n >= 1")
    if x == 0 or n == 1:
        return x
    r = 1 << (x.bit_length() // n + 1)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def nth_power_in_Q(q, n: int) -> Fraction | None:
    """The rational r with r**n == q, or None.

    q = num/den in lowest terms is an n-th power exactly when |num| and den are
    both perfect n-th powers and the sign is attainable (q > 0, or n odd).
    """
    q = _as_rat(q)
    if n < 1:
        raise DegenerateInput("n must be >= 1")
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


def nth_power_in_Q_nonneg(q, n: int) -> Fraction | None:
    """The root r >= 0 with r**n == q, or None (the positive-reals variant)."""
    r = nth_power_in_Q(q, n)
    return r if r is not None and r >= 0 else None


# ---------------------------------------------------------------------------
# Modular and p-adic power tests


def _is_residue(num: int, den: int, e: int, p: int) -> bool:
    """Euler criterion on trusted ints: is num/den an n-th power residue mod p?

    The caller guarantees that p is prime and divides neither num nor den, and
    passes e = (p-1) // gcd(n, p-1).  Nothing is checked here: every
    early-exit scan over sieve primes runs through this kernel, and every
    survey of a whole range through its column form, `_residue_column`.
    """
    if den != 1:
        num = num * pow(den, -1, p)
    return pow(num, e, p) == 1


def _exponents(n: int, primes) -> array:
    """e = (p-1) // gcd(n, p-1) at every prime, as `_residue_column` takes
    them.  Unboxed in an array: a list would hold one int object per prime
    for the whole survey, which raises peak RSS by about 0.5 MB at 10^5."""
    return array(
        "q",
        map(
            floordiv,
            map(sub, primes, repeat(1)),
            map(gcd, repeat(n), map(sub, primes, repeat(1))),
        )
    )


# bit length of pow(x, e, p) -> state: 0 -> 0, 1 -> 1, 2..255 -> 2
_STATES = bytes.maketrans(bytes(range(256)), bytes((0, 1)) + b"\2" * 254)


def _residue_column(num: int, den: int, n: int, exps, primes) -> bytes:
    """The Euler criterion of `_is_residue` at every prime at once: one byte
    per prime, 0 when p divides num or den, 1 when num/den is an n-th power
    residue mod p, 2 when it is not.  `exps` are the e of `_exponents(n, ...)`.

    Every step maps a C function over the primes, so no bytecode runs per
    prime.  With m = max(n-1, 1), num/den = num*den^m / den^(m+1) and n
    divides m+1, so num*den^m is a residue exactly when num/den is; as m and
    every e are >= 1, pow(num*den^m, e, p) is 0 exactly when p | num*den.
    """
    units = repeat(num)
    if den != 1:
        units = map(mul, units, map(pow, repeat(den), repeat(max(n - 1, 1)), primes))
    powers = map(pow, units, exps, primes)
    return bytes(map(int.bit_length, powers)).translate(_STATES)


def nth_power_mod_p(q, n: int, p: int) -> bool:
    """Euler criterion: is q an n-th power residue mod the prime p?

    Reduces q to num * den^-1 mod p; raises BadReduction if p divides either.
    """
    q = _as_rat(q)
    if n < 1:
        raise DegenerateInput("n must be >= 1")
    _check_prime_arg(p)
    if q.numerator % p == 0 or q.denominator % p == 0:
        raise BadReduction(f"{q} does not reduce to a unit mod {p}")
    return _is_residue(q.numerator, q.denominator, (p - 1) // gcd(n, p - 1), p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 0, +1, or -1."""
    _check_prime_arg(p)
    if p == 2:
        raise DegenerateInput("legendre symbol needs an odd prime")
    if a % p == 0:
        return 0
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def p_unit_residue(q, p: int, modulus: int) -> int:
    """The p-free unit part of q reduced mod `modulus` (a power of p)."""
    q = _as_rat(q)
    u = q / Fraction(p) ** valuation(q, p)
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


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
    if n < 1:
        raise DegenerateInput("n must be >= 1")
    _check_prime_arg(p)
    v = valuation(q, p)
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
        return p_unit_residue(u, 2, 2 ** (e + 2)) == 1
    pk = p ** (e + 1)
    return pow(p_unit_residue(u, p, pk), p - 1, pk) == 1


# ---------------------------------------------------------------------------
# Prime sieve and its disk cache


@dataclass(frozen=True)
class PrimeSieve:
    """All primes <= bound, ascending."""

    bound: int
    primes: tuple[int, ...]

    def primes_upto(self, b: int) -> tuple[int, ...]:
        if b > self.bound:
            raise DegenerateInput(f"sieve bound {self.bound} < requested {b}")
        return self.primes[: bisect_right(self.primes, b)]


_sieve_cache: PrimeSieve | None = None


def _eratosthenes(bound: int) -> tuple[int, ...]:
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return tuple(i for i in range(bound + 1) if flags[i])


def sieve(bound: int) -> PrimeSieve:
    """Primes up to `bound`: the one source of primes for every search and
    survey.  The largest sieve built or loaded so far is kept in memory."""
    global _sieve_cache
    if bound < 0:
        raise DegenerateInput("bound must be >= 0")
    if _sieve_cache is None or _sieve_cache.bound < bound:
        _sieve_cache = PrimeSieve(bound=bound, primes=_eratosthenes(bound))
    if _sieve_cache.bound == bound:
        return _sieve_cache
    return PrimeSieve(bound=bound, primes=_sieve_cache.primes_upto(bound))


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
