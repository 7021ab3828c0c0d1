"""Witness-prime search: primes modulo which given rationals are simultaneously
non-n-th-power residues, plus the hypothesis checks of the existence lemmas
that guarantee such primes exist.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, prod

from .arith import (
    DegenerateInput,
    _as_int,
    _as_rat,
    _int_rows,
    _is_residue,
    is_probable_prime,
    nth_power_in_Q,
    sieve,
)
from .density import nonresidue_pattern_occurs

DEFAULT_SEARCH_BOUND = 10**6

MODE_ODD_N = "ODD_N"
MODE_EVEN_N = "EVEN_N"
MODE_SQUARES = "SQUARES"
MODE_TWO_VAR = "TWO_VAR"

_PARALLEL_BLOCK = 4096

# Candidate primes a search scans before it asks whether a witness exists at
# all.  A witness, when there is one, nearly always lies among them.  The
# decision is exact only because they include every candidate prime dividing
# 2n: it covers n <= MAX_PREDICTED_N = 24, so those are among the 9 primes
# <= 23, which the first 64 candidates above any min_exclusive always hold.
_DECIDE_AFTER = 64


@dataclass(frozen=True)
class HypothesisCheck:
    description: str
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Which existence lemma applies to the targets, with every sub-check recorded."""

    mode: str
    checks: tuple[HypothesisCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class WitnessPrime:
    """A prime p together with the per-target n-th-power-residue booleans.

    For a negative-partition-regularity certificate every boolean is False.
    lower_bound_satisfied records p > max(|a|+|b|, |c|) relative to the caller's
    stated threshold (min_exclusive).
    """

    p: int
    n: int
    targets: tuple[tuple[Fraction, bool], ...]
    lower_bound_satisfied: bool


def _normalize_targets(targets) -> tuple[Fraction, ...]:
    seen = []
    for t in targets:
        t = _as_rat(t)
        if t not in seen:
            seen.append(t)
    if not seen:
        raise DegenerateInput("need at least one target")
    if any(t == 0 for t in seen):
        raise DegenerateInput("targets must be nonzero")
    return tuple(seen)


def _not_power_check(t: Fraction, k: int) -> HypothesisCheck:
    root = nth_power_in_Q(t, k)
    return HypothesisCheck(
        description=f"{t} is not a {k}th power in Q",
        passed=root is None,
    )


def _squares_report(ts: tuple[Fraction, ...]) -> HypothesisReport:
    checks = [_not_power_check(t, 2) for t in ts]
    prod = ts[0] * ts[1] * ts[2]
    checks.append(
        HypothesisCheck(
            description=f"product {prod} is not a square in Q",
            passed=nth_power_in_Q(prod, 2) is None,
        )
    )
    return HypothesisReport(mode=MODE_SQUARES, checks=tuple(checks))


def _even_report(ts: tuple[Fraction, ...], n: int) -> HypothesisReport:
    checks = [_not_power_check(t, n // 2) for t in ts]
    if n % 4 == 0:
        some_not = any(nth_power_in_Q(t, n // 4) is None for t in ts)
        checks.append(
            HypothesisCheck(
                description=f"at least one target is not a {n // 4}th power in Q",
                passed=some_not,
            )
        )
    return HypothesisReport(mode=MODE_EVEN_N, checks=tuple(checks))


def check_hypotheses(targets, n: int) -> HypothesisReport:
    """Decide which prime-existence lemma applies and record every sub-check.

    Two targets (or one, reusing the two-variable lemma diagonally) go through
    TWO_VAR.  Three targets: odd n uses ODD_N; n in {2, 4} uses SQUARES (the
    (n/2)- and (n/4)-power requirements degenerate there, and a prime where
    none are squares serves every even exponent); even n >= 6 uses EVEN_N,
    falling back to SQUARES when EVEN_N fails but the square checks pass.
    """
    ts = _normalize_targets(targets)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    if len(ts) > 3:
        raise DegenerateInput("at most three targets")
    if len(ts) <= 2:
        k = n // 2 if n % 4 == 0 else n
        return HypothesisReport(
            mode=MODE_TWO_VAR, checks=tuple(_not_power_check(t, k) for t in ts)
        )
    if n % 2 == 1:
        return HypothesisReport(
            mode=MODE_ODD_N, checks=tuple(_not_power_check(t, n) for t in ts)
        )
    if n in (2, 4):
        return _squares_report(ts)
    report = _even_report(ts, n)
    if not report.satisfied:
        squares = _squares_report(ts)
        if squares.satisfied:
            return squares
    return report


def _first_witness(primes, pairs, n: int, bad: int) -> int | None:
    """First prime in `primes` not dividing `bad` modulo which every (num, den)
    target is not an n-th power residue; with no targets, the first prime not
    dividing `bad`.

    `bad` must be divisible by every prime dividing a target's numerator or
    denominator, so each target left reduces to a unit.  Primes with
    gcd(n, p-1) == 1 are skipped: every unit is an n-th power there.
    """
    for p in primes:
        if bad % p == 0:
            continue
        if not pairs:
            return p
        g = gcd(n, p - 1)
        if g == 1:
            continue
        e = (p - 1) // g
        for num, den in pairs:
            if _is_residue(num, den, e, p):
                break
        else:
            return p
    return None


def _no_witness_exists(targets, n: int) -> bool:
    """True when no prime dividing neither 2n nor a target makes every target a
    non-n-th-power residue: that pattern has Chebotarev density 0."""
    return nonresidue_pattern_occurs(targets, n) is False


def _search(ts, bad, n, min_exclusive, search_bound, workers):
    """The smallest prime p with min_exclusive < p <= search_bound that
    `_first_witness` accepts for the targets ts, as a WitnessPrime.

    When the first _DECIDE_AFTER candidates miss and no witness exists
    (`_no_witness_exists`), the rest of the range is not scanned: the result
    is the same None.  Only that rest is sharded over `workers` processes,
    and sharded scans still return the global minimum.
    """
    primes = sieve(search_bound).primes
    start = bisect_right(primes, min_exclusive)
    pairs = tuple((t.numerator, t.denominator) for t in ts)
    cut = start + _DECIDE_AFTER
    found = _first_witness(primes[start:cut], pairs, n, bad)
    # bad == 0 (a system row with a + b = 0) leaves no prime to qualify
    more = found is None and cut < len(primes) and bad != 0
    if more and ts:  # with no targets every prime not dividing bad qualifies
        more = not _no_witness_exists(ts, n)
    if more and workers <= 1:
        found = _first_witness(islice(primes, cut, None), pairs, n, bad)
    elif more:
        blocks = [
            primes[i : i + _PARALLEL_BLOCK]
            for i in range(cut, len(primes), _PARALLEL_BLOCK)
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = pool.map(
                _first_witness, blocks, repeat(pairs), repeat(n), repeat(bad)
            )
            found = next((hit for hit in hits if hit is not None), None)
    if found is None:
        return None
    return WitnessPrime(
        p=found,
        n=n,
        targets=tuple((t, False) for t in ts),
        lower_bound_satisfied=found > min_exclusive,
    )


def find_witness_prime(
    targets,
    n: int,
    min_exclusive: int = 1,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    workers: int = 1,
) -> WitnessPrime | None:
    """Smallest prime p with min_exclusive < p <= search_bound modulo which every
    target is a non-n-th-power residue.  None when the bound is exhausted; the
    caller distinguishes "enlarge the bound" from "hypotheses unmet".

    Primes dividing any target's numerator or denominator are skipped (no
    residue to test).  The search, its early decision and its `workers`
    shards are those of `_search`.
    """
    ts = _normalize_targets(targets)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    min_exclusive, search_bound = _as_int(min_exclusive), _as_int(search_bound)
    if search_bound < min_exclusive:
        raise DegenerateInput("search_bound must be >= min_exclusive")
    bad = prod(t.numerator * t.denominator for t in ts)
    return _search(ts, bad, n, min_exclusive, search_bound, workers)


def _euler_exponent(n: int, p: int) -> int:
    """The exponent e = (p-1) // gcd(n, p-1) that `_is_residue` takes."""
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    return (p - 1) // gcd(n, p - 1)


def verify_witness(w: WitnessPrime) -> bool:
    """Recompute every stored Euler-criterion boolean from scratch; the prime
    is tested once for the whole certificate."""
    p = w.p
    if not is_probable_prime(p):
        return False
    e = _euler_exponent(w.n, p)
    for t, flag in w.targets:
        num, den = t.numerator, t.denominator
        if num % p == 0 or den % p == 0:
            return False
        if _is_residue(num, den, e, p) != flag:
            return False
    return True


# ---------------------------------------------------------------------------
# Systems


def ratio_set(a, b, c) -> frozenset[Fraction]:
    """The value set {a/c, b/c, (a+b)/c} of one row (duplicates collapse)."""
    if a == 0 or b == 0 or c == 0:
        raise DegenerateInput("row coefficients must be nonzero")
    return frozenset({Fraction(a, c), Fraction(b, c), Fraction(a + b, c)})


def _union_intersection(rows) -> tuple[frozenset[Fraction], frozenset[Fraction]]:
    """The union and the intersection of the rows' ratio sets, each row's set
    built once."""
    sets = [ratio_set(a, b, c) for a, b, c in rows]
    return frozenset().union(*sets), sets[0].intersection(*sets[1:])


def system_union(rows) -> frozenset[Fraction]:
    return _union_intersection(rows)[0]


def system_intersection(rows) -> frozenset[Fraction]:
    return _union_intersection(rows)[1]


def _system_conditions(p: int, rows, union, inter, n: int) -> tuple[bool, bool, bool]:
    """The three prime conditions of the system obstruction theorem.

    (i)  no a_i, b_i, c_i, a_i+b_i vanishes mod p;
    (ii) distinct members of the row-ratio union stay distinct mod p;
    (iii) no member of the intersection is an n-th power residue mod p.
    """
    for a, b, c in rows:
        for v in (a, b, c, a + b):
            if v % p == 0:
                return (False, True, True)
    residues = set()
    for v in union:
        r = v.numerator * pow(v.denominator, p - 2, p) % p
        residues.add(r)
    if len(residues) != len(union):
        return (True, False, True)
    e = _euler_exponent(n, p)
    for v in inter:
        if _is_residue(v.numerator, v.denominator, e, p):
            return (True, True, False)
    return (True, True, True)


def _reduce_system(rows, union) -> int:
    """Integer form of system conditions (i) and (ii): a product B that a prime
    divides exactly when it fails one of them.

    B is the product of every a_i, b_i, c_i, a_i+b_i and every cross-difference
    n_u*d_v - n_v*d_u over pairs of union members u = n_u/d_u, v = n_v/d_v: once
    (i) holds, every union member reduces to a unit, and two of them collide
    mod p iff p divides their cross-difference.  Every prime dividing the
    numerator or denominator of a union member divides some a_i, b_i, c_i or
    a_i+b_i, hence B.
    """
    bad = 1
    for a, b, c in rows:
        bad *= a * b * c * (a + b)
    for i, u in enumerate(union):
        for v in union[i + 1 :]:
            bad *= u.numerator * v.denominator - v.numerator * u.denominator
    return bad


def find_system_witness(
    rows, n: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> WitnessPrime | None:
    """Smallest prime <= search_bound meeting all three system conditions.

    The returned targets are the members of the row-ratio intersection I with
    their (all-False) n-th-power booleans; an empty I makes condition (iii)
    vacuous and any prime clearing (i) and (ii) qualifies.  It is the search
    of `find_witness_prime` over I, with the primes dividing B (see
    `_reduce_system`) skipped and no lower threshold.
    """
    rows = _int_rows(rows)
    if not rows:
        raise DegenerateInput("need at least one row")
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    union, inter = _union_intersection(rows)
    union, inter = sorted(union), tuple(sorted(inter))
    bad = _reduce_system(rows, union)
    return _search(inter, bad, n, 0, search_bound, workers=1)


def verify_system_witness(w: WitnessPrime, rows, n: int) -> bool:
    """Recompute the three system conditions for the stored prime."""
    if not is_probable_prime(w.p) or w.n != n:
        return False
    rows = _int_rows(rows)
    union, inter = _union_intersection(rows)
    union, inter = sorted(union), sorted(inter)
    if tuple(v for v, _ in w.targets) != tuple(inter):
        return False
    if any(flag for _, flag in w.targets):
        return False
    return all(_system_conditions(w.p, rows, union, inter, n))
