"""n-th-power-residue densities over primes: exact counts with
inclusion-exclusion bookkeeping for joint surveys, and the exact Chebotarev
densities those counts tend to.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import gcd, lcm
from operator import mod

from .arith import (
    DegenerateInput,
    FactorizationBudgetExceeded,
    _as_rat,
    _exponents,
    _residue_column,
    factor,
    legendre,
    sieve,
)

# residue_pattern_densities enumerates subgroups of (Z/g)^k with g | n
MAX_PREDICTED_N = 24
MAX_PREDICTED_TARGETS = 3

# a residue column's states -> hit flags: 2 (non-residue) -> 0
_HITS = bytes.maketrans(b"\2", b"\0")


def _targets(targets, n: int = 1) -> tuple[Fraction, ...]:
    qs = tuple(map(_as_rat, targets))
    if not qs or any(q == 0 for q in qs):
        raise DegenerateInput("targets must be nonzero and nonempty")
    if n < 1:
        raise DegenerateInput("n must be >= 1")
    return qs


def _columns(qs, n: int, prime_bound: int):
    """The primes <= prime_bound and each target's `_residue_column` over
    them."""
    primes = sieve(prime_bound).primes
    exps = _exponents(n, primes)
    cols = [_residue_column(q.numerator, q.denominator, n, exps, primes) for q in qs]
    return primes, cols


def _admissible_mask(cols) -> bytes:
    """1 at the primes admissible for every target, 0 elsewhere."""
    return bytes(map(all, zip(*cols)))


def _pass(qs, n: int, prime_bound: int) -> Counter:
    """One counted pass over the primes <= prime_bound, as
    {(p mod 24, state of qs[0], state of qs[1], ...): count} with the states
    of `_residue_column`.  Every survey of a subset of qs projects from it."""
    primes, cols = _columns(qs, n, prime_bound)
    return Counter(zip(map(mod, primes, repeat(24)), *cols))


def _patterns(counts: Counter, idx) -> Counter:
    """How many primes admissible for every target at `idx` show each residue
    pattern, as {flags: count}, where flags[j] says whether target idx[j] is
    an n-th power residue mod p."""
    patterns = Counter()
    for key, count in counts.items():
        states = [key[1 + i] for i in idx]
        if all(states):
            patterns[tuple(s == 1 for s in states)] += count
    return patterns


def _hits_outside(counts: Counter, i: int, classes) -> bool:
    """Whether target i is a residue at exactly the primes admissible for it
    whose class mod 24 is not in `classes`: no such class holds a
    non-residue, and no class in `classes` holds a residue."""
    return not any(key[1 + i] == (1 if key[0] in classes else 2) for key in counts)


def _nonresidue_bit(ell: int, a: int) -> int:
    """1 when the prime ell is a quadratic non-residue modulo every prime
    p = a (mod 8*ell): (2|p) by p mod 8, an odd ell by reciprocity."""
    if ell == 2:
        return int(a % 8 in (3, 5))
    sign = legendre(a, ell)
    if a % 4 == 3 and ell % 4 == 3:
        sign = -sign
    return int(sign == -1)


def _span(gens, g: int, k: int) -> set:
    """The subgroup of (Z/g)^k generated by `gens`."""
    span = {(0,) * k}
    for v in gens:
        v = tuple(x % g for x in v)
        # H + <v> is the union of H + j*v up to the first j*v already in H
        steps, m = [(0,) * k], v
        while m not in span:
            steps.append(m)
            m = tuple((x + y) % g for x, y in zip(m, v))
        span = {tuple((x + y) % g for x, y in zip(h, s)) for h in span for s in steps}
    return span


def residue_pattern_densities(targets, n: int) -> dict | None:
    """Exact density among all primes of each residue pattern of the targets,
    as {flags: Fraction} over the patterns that occur; flags[i] says whether
    targets[i] is an n-th power residue, as in the surveys.

    By Chebotarev a pattern of density 0 occurs at no prime dividing neither
    2n nor a target.  Fix p = a (mod M), M = lcm(8, 2n), and g = gcd(n, a-1).
    A unit is an n-th power residue mod p iff its class in
    F_p^* / F_p^*g = Z/g is 0.  The class of -1 is (a-1)/2.  When g is even,
    the class of 2 and of each odd prime dividing n has the parity of its
    quadratic character at a, since sqrt(d) lies in Q(zeta_M) for these d.
    Over Q that quadratic entanglement is the only one (Schinzel; Wang on
    Grunwald's theorem, whose counterexample is 16 at n = 8).  Every other
    prime's class is uniform and independent, so the target classes are
    uniform on a coset of (Z/g)^k, averaged over the phi(M) classes a.

    None when n > MAX_PREDICTED_N, with more than MAX_PREDICTED_TARGETS
    targets, or when factoring a target exceeds the default budget.
    """
    qs = _targets(targets, n)
    if n > MAX_PREDICTED_N or len(qs) > MAX_PREDICTED_TARGETS:
        return None
    try:
        exps = [factor(q).exponents for q in qs]
    except FactorizationBudgetExceeded:
        return None
    k = len(qs)
    primes = sorted(set().union(*exps))
    # the primes whose quadratic character p mod M decides: 2 and those dividing n
    fixed = [ell for ell in primes if 2 * n % ell == 0]
    modulus = lcm(8, 2 * n)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    cosets = Counter()
    for a in units:
        g = gcd(n, a - 1)
        shift = [(a - 1) // 2 if q < 0 else 0 for q in qs]
        if g % 2 == 0:
            for ell in fixed:
                if _nonresidue_bit(ell, a):
                    shift = [s + e.get(ell, 0) for s, e in zip(shift, exps)]
        cosets[g, tuple(s % g for s in shift)] += 1
    spans = {}
    densities = Counter()
    for (g, shift), weight in cosets.items():
        if g not in spans:
            double = g % 2 == 0
            gens = (
                [e.get(ell, 0) * (2 if double and ell in fixed else 1) for e in exps]
                for ell in primes
            )
            spans[g] = _span(gens, g, k)
        span = spans[g]
        tally = Counter(
            tuple((s + h) % g == 0 for s, h in zip(shift, x)) for x in span
        )
        for flags, count in tally.items():
            densities[flags] += Fraction(weight * count, len(units) * len(span))
    return dict(densities)


@dataclass(frozen=True)
class DensitySurvey:
    target: Fraction
    n: int
    prime_bound: int
    admissible_count: int
    hit_count: int
    density: Fraction
    predicted: Fraction | None


@dataclass(frozen=True)
class JointSurvey:
    """Counts over primes admissible for every target at once.

    subset_hits[idx_tuple] counts primes where ALL targets in the subset are
    n-th power residues; at_least_one / all_targets / none derive from it and
    the inclusion-exclusion identity is asserted exactly at construction time.
    predicted_none and predicted_subset_hits are the exact densities these
    counts tend to (None where `residue_pattern_densities` gives none).
    """

    targets: tuple[Fraction, ...]
    n: int
    prime_bound: int
    admissible_count: int
    subset_hits: dict
    at_least_one: int
    all_targets: int
    none: int
    predicted_none: Fraction | None
    predicted_subset_hits: dict | None


def survey(target, n: int, prime_bound: int) -> DensitySurvey:
    """Exact hit and admissibility counts for one target via the Euler
    criterion; primes dividing the target's numerator or denominator are
    inadmissible.  `predicted` is the exact hit density the ratio tends to.
    """
    qs = _targets((target,), n)
    return _survey(qs, n, prime_bound, _pass(qs, n, prime_bound), 0)


def _survey(qs, n: int, prime_bound: int, counts: Counter, i: int) -> DensitySurvey:
    """`survey` of qs[i] from a `_pass` over qs."""
    patterns = _patterns(counts, (i,))
    admissible = sum(patterns.values())
    hits = patterns[(True,)]
    density = Fraction(hits, admissible) if admissible else Fraction(0)
    predicted = residue_pattern_densities(qs[i : i + 1], n)
    return DensitySurvey(
        target=qs[i],
        n=n,
        prime_bound=prime_bound,
        admissible_count=admissible,
        hit_count=hits,
        density=density,
        predicted=None if predicted is None else predicted.get((True,), Fraction(0)),
    )


def admissible_primes(target, prime_bound: int) -> tuple[int, ...]:
    (q,) = _targets((target,))
    primes = sieve(prime_bound).primes
    # only state 0 is read, which any exponents >= 1 give exactly; 1 is cheapest
    col = _residue_column(q.numerator, q.denominator, 1, repeat(1), primes)
    return tuple(compress(primes, col))


def hit_primes(target, n: int, prime_bound: int) -> tuple[int, ...]:
    """The admissible primes modulo which the target is an n-th power residue."""
    qs = _targets((target,), n)
    primes, (col,) = _columns(qs, n, prime_bound)
    return tuple(compress(primes, col.translate(_HITS)))


def _subset_totals(patterns, subsets, zero) -> dict:
    """For each subset of target indices, the total of `patterns` (counts or
    densities per flags tuple) over the patterns where every target in the
    subset hits."""
    return {
        s: sum((v for flags, v in patterns.items() if all(flags[i] for i in s)), zero)
        for s in subsets
    }


def joint_survey(targets, n: int, prime_bound: int) -> JointSurvey:
    """Per-subset all-hit counts over primes admissible for every target, with
    the inclusion-exclusion identity checked exactly (counts, not estimates).
    """
    qs = _targets(targets, n)
    counts = _pass(qs, n, prime_bound)
    return _joint_survey(qs, n, prime_bound, counts, range(len(qs)))


def _joint_survey(qs, n: int, prime_bound: int, counts: Counter, idx) -> JointSurvey:
    """`joint_survey` of the targets qs[i] for i in idx, in that order, from a
    `_pass` over qs."""
    patterns = _patterns(counts, idx)
    qs = tuple(qs[i] for i in idx)
    every = tuple(range(len(qs)))
    subsets = [s for size in range(1, len(qs) + 1) for s in combinations(every, size)]
    subset_hits = _subset_totals(patterns, subsets, 0)
    admissible = sum(patterns.values())
    none = patterns[(False,) * len(qs)]
    at_least_one = admissible - none
    ie = sum(
        (-1) ** (len(s) + 1) * subset_hits[s] for s in subsets
    )
    if ie != at_least_one:
        raise AssertionError("inclusion-exclusion bookkeeping broke")
    predicted = residue_pattern_densities(qs, n)
    predicted_none = predicted_hits = None
    if predicted is not None:
        predicted_none = predicted.get((False,) * len(qs), Fraction(0))
        predicted_hits = _subset_totals(predicted, subsets, Fraction(0))
    return JointSurvey(
        targets=qs,
        n=n,
        prime_bound=prime_bound,
        admissible_count=admissible,
        subset_hits=subset_hits,
        at_least_one=at_least_one,
        all_targets=subset_hits[every],
        none=none,
        predicted_none=predicted_none,
        predicted_subset_hits=predicted_hits,
    )


def write_csv(out, targets, n: int, prime_bound: int) -> int:
    """Emit one row per admissible prime: prime, prime mod 24, then a hit flag
    per target.  Returns the number of data rows written.
    """
    qs = _targets(targets, n)
    primes, cols = _columns(qs, n, prime_bound)
    mask = _admissible_mask(cols)
    w = csv.writer(out)
    w.writerow(["prime", "mod24"] + [f"hit_{q}" for q in qs])
    residues = map(mod, primes, repeat(24))
    flags = (col.translate(_HITS) for col in cols)
    w.writerows(compress(zip(primes, residues, *flags), mask))
    return mask.count(1)
