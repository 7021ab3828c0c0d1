"""Witness-prime search: primes modulo which given rationals are simultaneously
non-n-th-power residues, plus the hypothesis checks of the existence lemmas
that guarantee such primes exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, takewhile
from math import gcd, isqrt, lcm, prod

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

# Candidate primes a prefix-first search scans before it asks whether a
# witness exists at all.  A witness, when there is one, nearly always lies
# among them: over the 2,000 `corpus` requests of one seed, a 64-prime
# prefix left no search to the decision, 32 left 7 and 16 left 60, and at 16
# the extra decisions made a pass slower.  It sets only where the decision
# is asked: after a density-0 decision the search tests the untested
# candidate primes dividing 2n, which the decision does not cover.
_DECIDE_AFTER = 32


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
    """The targets as Fractions, each once, in the order first met; they are
    told apart by their reduced (num, den) pairs, so no Fraction is
    compared."""
    seen = {}
    for t in targets:
        t = _as_rat(t)
        seen.setdefault((t.numerator, t.denominator), t)
    if not seen:
        raise DegenerateInput("need at least one target")
    if (0, 1) in seen:
        raise DegenerateInput("targets must be nonzero")
    return tuple(seen.values())


def _not_power_check(t: Fraction, k: int) -> HypothesisCheck:
    root = nth_power_in_Q(t, k)
    return HypothesisCheck(
        description=f"{t} is not a {k}th power in Q",
        passed=root is None,
    )


def _cyclotomic_power(t: Fraction, n: int) -> bool:
    """Whether t is an n-th power in Q(zeta_n), for n = 2m with m odd.

    That holds iff t = s^m with s in Q and s a square in Q(zeta_m): a
    rational that is an m-th power in Q(zeta_m) is one in Q (m odd), and
    every m-th root of unity is a square there.  s is such a square iff its
    square class is d = prod of p* = (-1)^((p-1)/2) * p over some primes p
    dividing m, the discriminants of the quadratic subfields.  With s*den^2
    = +-N1*N2, N1 the part of |num*den| made of primes dividing m (split off
    by gcds, no factoring), that is: N2 is a square and +-N1 = 1 (mod 4),
    since an odd square is 1 mod 4.
    """
    m = n // 2
    s = nth_power_in_Q(t, m)
    if s is None:
        return False
    rest = s.numerator * s.denominator
    smooth, g = 1, gcd(rest, m)
    while g > 1:
        smooth *= g
        rest //= g
        g = gcd(rest, g)
    root = isqrt(abs(rest))
    return root * root == abs(rest) and (smooth if rest > 0 else -smooth) % 4 == 1


def _two_var_check(t: Fraction, n: int) -> HypothesisCheck:
    """The TWO_VAR condition on one target.

    The lemma holds when no target is an n-th power in K = Q(zeta_n): each
    target's Kummer extension of K is then proper, a Frobenius outside both
    targets' subgroups exists (a group is not the union of two proper
    subgroups), and Chebotarev gives infinitely many primes p = 1 (mod n)
    at which both targets are non-residues.  For odd n and n = 2 that is
    "not an n-th power in Q" (for odd n, K has no new n-th powers of
    rationals); at n = 2 (mod 4), n >= 6, it is `_cyclotomic_power`; for
    4 | n the lemma asks for no (n/2)-th power in Q.
    """
    if n % 4 != 2 or n == 2:
        return _not_power_check(t, n // 2 if n % 4 == 0 else n)
    return HypothesisCheck(
        description=f"{t} is not a {n}th power in Q(zeta_{n})",
        passed=not _cyclotomic_power(t, n),
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
        return HypothesisReport(
            mode=MODE_TWO_VAR, checks=tuple(_two_var_check(t, n) for t in ts)
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


def _search(ts, bad, n, min_exclusive, search_bound, decide_first=False):
    """(the smallest prime p with min_exclusive < p <= search_bound that
    `_first_witness` accepts for the targets ts, as a WitnessPrime or None;
    whether the decision cut the search short).

    Prefix-first, the search scans the first _DECIDE_AFTER candidates and
    asks `_no_witness_exists` only when they miss; decide-first (for
    targets no lemma promises a witness for) it asks before any scan.
    Either way the decision is asked at most once.  When it says no
    witness exists, the rest of the range is not scanned: only the
    untested candidates dividing 2n, which the decision does not cover,
    are tested, and with none of them a witness the result is None and
    the second item is True.  Otherwise the rest of the range is scanned in
    this process, in order.  The candidates are read from the sieve's flags
    as they are tested (`PrimeSieve.primes_in`): no tuple of primes is built.

    This is the one witness search: the public finders reach it through
    `_witness_search` and `_system_search`, and `classify` calls it
    directly, for equations and systems alike (`classify._q_obstruction`).
    """
    # the candidates, in (min_exclusive, search_bound], read from the flags
    candidates = sieve(search_bound).primes_in(min_exclusive, search_bound)
    pairs = tuple((t.numerator, t.denominator) for t in ts)
    # bad == 0 (a system row with a + b = 0) leaves no prime to qualify, and
    # with no targets every prime not dividing bad does: neither is decided
    decidable = bool(ts) and bad != 0
    found = None
    if not (decide_first and decidable):
        found = _first_witness(islice(candidates, _DECIDE_AFTER), pairs, n, bad)
    # the first candidate the prefix left untested, if any
    after = next(candidates, None) if found is None else None
    more = after is not None and bad != 0
    decided = more and decidable and _no_witness_exists(ts, n)
    untested = chain((after,), candidates) if more else ()
    if decided:
        upto = takewhile((2 * n).__ge__, untested)
        found = _first_witness([p for p in upto if 2 * n % p == 0], pairs, n, bad)
    elif more:
        found = _first_witness(untested, pairs, n, bad)
    if found is None:
        return None, decided
    return WitnessPrime(
        p=found,
        n=n,
        targets=tuple((t, False) for t in ts),
        lower_bound_satisfied=found > min_exclusive,
    ), False


def _witness_search(targets, n, min_exclusive, search_bound, decide_first=False):
    """`_search` over validated targets: `find_witness_prime` takes its
    witness, and the tests also its decision flag and decide-first order."""
    ts = _normalize_targets(targets)
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    min_exclusive, search_bound = _as_int(min_exclusive), _as_int(search_bound)
    if search_bound < min_exclusive:
        raise DegenerateInput("search_bound must be >= min_exclusive")
    bad = prod(t.numerator * t.denominator for t in ts)
    return _search(ts, bad, n, min_exclusive, search_bound, decide_first)


def find_witness_prime(
    targets,
    n: int,
    min_exclusive: int = 1,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    workers: int = 1,
) -> WitnessPrime | None:
    """Smallest prime p with min_exclusive < p <= search_bound modulo which every
    target is a non-n-th-power residue.  None when none exists up to the
    bound, or at all (`_no_witness_exists`); `classify_equation` tells the
    two apart by the flag `_search` returns with the witness.

    Primes dividing any target's numerator or denominator are skipped (no
    residue to test).  The search and its early decision are those of
    `_search`, which scans serially: `workers` must be an integer but is
    not read further.  It stays for `bench/workloads.py`, whose
    `parallel_paths` still passes workers=2; the next change to the
    benchmark drops it.
    """
    _as_int(workers)
    return _witness_search(targets, n, min_exclusive, search_bound)[0]


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


def _witness_holds(w: WitnessPrime, k: int, targets, threshold: int, bad: int) -> bool:
    """Whether w proves the unit-colouring obstruction (targets, k,
    threshold, bad): its prime p exceeds threshold, with the lower bound
    marked met, and does not divide bad; it stores exactly the targets,
    each flagged False, at exponent k; and `verify_witness` recomputes
    those flags and tests p.  This is the one check of every witness
    certificate, for equations and systems alike."""
    p = _as_int(w.p)
    return (
        w.n == k
        and w.targets == tuple((t, False) for t in targets)
        and threshold < p
        and w.lower_bound_satisfied is True
        and bad % p != 0
        and verify_witness(w)
    )


# ---------------------------------------------------------------------------
# The obstruction's inputs for equations and systems


def _ratio_pairs(a: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
    """a/c, b/c and (a+b)/c as reduced (num, den) pairs with den > 0."""
    if a == 0 or b == 0 or c == 0:
        raise DegenerateInput("row coefficients must be nonzero")
    pairs = []
    for v in (a, b, a + b):
        g = gcd(v, c) if c > 0 else -gcd(v, c)
        pairs.append((v // g, c // g))
    return tuple(pairs)


def _ordered(pairs) -> list[tuple[int, int]]:
    """The distinct reduced pairs (num, den), den > 0, in increasing order
    of num/den, compared as ints: over their common denominator L, num/den
    is num * (L // den)."""
    pairs = set(pairs)
    common = lcm(*[den for _, den in pairs])
    return sorted(pairs, key=lambda t: t[0] * (common // t[1]))


def _equation_obstruction(a: int, b: int, c: int, ratios) -> tuple[tuple, int, int]:
    """The obstruction's (targets, threshold, bad) for a*x + b*y =
    c*w^m*z^n, given its ratios a/c, b/c and (a+b)/c as Fractions: the
    distinct ratios in increasing order, max(|a| + |b|, |c|), which a
    witness prime must exceed, and the product of the targets' numerators
    and denominators.  The ratios are deduped and ordered as (num, den)
    pairs (`_ordered`), so no Fraction is made, hashed or compared."""
    by_pair = {(q.numerator, q.denominator): q for q in ratios}
    pairs = _ordered(by_pair)
    targets = tuple(map(by_pair.__getitem__, pairs))
    return targets, max(abs(a) + abs(b), abs(c)), prod(map(prod, pairs))


def _union_intersection(rows) -> tuple[list[tuple[int, int]], tuple[Fraction, ...]]:
    """The union of the rows' ratio sets as reduced (num, den) pairs, and
    their intersection as Fractions, both in increasing order.

    The sets are met and ordered as pairs (`_ordered`), so no Fraction is
    hashed or compared; a Fraction is made only for a member of the
    intersection, which certificates and witnesses store."""
    sets = [set(_ratio_pairs(a, b, c)) for a, b, c in rows]
    inter = sets[0].intersection(*sets[1:])
    union = _ordered(set().union(*sets))
    return union, tuple(Fraction(*t) for t in union if t in inter)


def _reduce_system(rows, union) -> int:
    """Integer form of system conditions (i) and (ii): a product B that a prime
    divides exactly when it fails one of them.

    B is the product of every a_i, b_i, c_i, a_i+b_i and every cross-difference
    n_u*d_v - n_v*d_u over pairs of union members (n_u, d_u), (n_v, d_v): once
    (i) holds, every union member reduces to a unit, and two of them collide
    mod p iff p divides their cross-difference.  Every prime dividing the
    numerator or denominator of a union member divides some a_i, b_i, c_i or
    a_i+b_i, hence B.
    """
    bad = 1
    for a, b, c in rows:
        bad *= a * b * c * (a + b)
    for i, (nu, du) in enumerate(union):
        for nv, dv in union[i + 1 :]:
            bad *= nu * dv - nv * du
    return bad


def _system_obstruction(rows) -> tuple[tuple, int, int]:
    """The obstruction's (targets, threshold, bad) for a system of int rows:
    the row-ratio intersection I, 0, and the product B of `_reduce_system`.
    A prime p then meets the three conditions of the system obstruction
    theorem when it does not divide B and no member of I is an n-th power
    residue mod p:

    (i)  no a_i, b_i, c_i, a_i+b_i vanishes mod p;
    (ii) distinct members of the row-ratio union stay distinct mod p;
    (iii) no member of I is an n-th power residue mod p.
    """
    union, inter = _union_intersection(rows)
    return inter, 0, _reduce_system(rows, union)


def find_system_witness(
    rows, n: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> WitnessPrime | None:
    """Smallest prime <= search_bound meeting all three system conditions.

    The returned targets are the members of the row-ratio intersection I with
    their (all-False) n-th-power booleans; an empty I makes condition (iii)
    vacuous and any prime clearing (i) and (ii) qualifies.  It is the search
    of `find_witness_prime` over I, with the primes dividing B (see
    `_reduce_system`) skipped and no lower threshold; `classify_system`
    runs the same `_search` through `classify._q_obstruction`.
    """
    return _system_search(rows, n, search_bound)


def _system_search(rows, n, search_bound, decide_first=False):
    """`_search` over validated rows: `find_system_witness` scans its prefix
    first, and the tests also ask for the decide-first order."""
    rows = _int_rows(rows)
    if not rows:
        raise DegenerateInput("need at least one row")
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    targets, threshold, bad = _system_obstruction(rows)
    return _search(targets, bad, n, threshold, search_bound, decide_first)[0]


def verify_system_witness(w: WitnessPrime, rows, n: int) -> bool:
    """Recompute the three system conditions for the stored prime:
    `_witness_holds` on the system's obstruction at exponent n."""
    return _witness_holds(w, n, *_system_obstruction(_int_rows(rows)))
