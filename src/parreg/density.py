"""Empirical n-th-power-residue densities over primes, with exact counts and
inclusion-exclusion bookkeeping for joint surveys.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .arith import DegenerateInput, PrimeSieve, _is_residue, _sieve_primes


def _targets(targets, n: int = 1) -> tuple[Fraction, ...]:
    qs = tuple(Fraction(t) for t in targets)
    if not qs or any(q == 0 for q in qs):
        raise DegenerateInput("targets must be nonzero and nonempty")
    if n < 1:
        raise DegenerateInput("n must be >= 1")
    return qs


def _admissible(pairs, prime_bound: int, prime_sieve: PrimeSieve | None):
    """Primes <= prime_bound dividing no (num, den) of `pairs`."""
    for p in _sieve_primes(prime_bound, prime_sieve):
        if all(num % p and den % p for num, den in pairs):
            yield p


def _flag_rows(qs, n: int, prime_bound: int, prime_sieve: PrimeSieve | None):
    """The one residue pass over primes: (p, flags) for every prime admissible
    for every target, where flags[i] says whether qs[i] is an n-th power
    residue mod p.
    """
    pairs = tuple((q.numerator, q.denominator) for q in qs)
    for p in _admissible(pairs, prime_bound, prime_sieve):
        e = (p - 1) // gcd(n, p - 1)
        yield p, tuple(_is_residue(num, den, e, p) for num, den in pairs)


@dataclass(frozen=True)
class DensitySurvey:
    target: Fraction
    n: int
    prime_bound: int
    admissible_count: int
    hit_count: int
    density: Fraction


@dataclass(frozen=True)
class JointSurvey:
    """Counts over primes admissible for every target at once.

    subset_hits[idx_tuple] counts primes where ALL targets in the subset are
    n-th power residues; at_least_one / all_targets / none derive from it and
    the inclusion-exclusion identity is asserted exactly at construction time.
    """

    targets: tuple[Fraction, ...]
    n: int
    prime_bound: int
    admissible_count: int
    subset_hits: dict
    at_least_one: int
    all_targets: int
    none: int


def survey(
    target, n: int, prime_bound: int, prime_sieve: PrimeSieve | None = None
) -> DensitySurvey:
    """Exact hit and admissibility counts for one target via the Euler
    criterion; primes dividing the target's numerator or denominator are
    inadmissible.
    """
    qs = _targets((target,), n)
    admissible = hits = 0
    for _, (hit,) in _flag_rows(qs, n, prime_bound, prime_sieve):
        admissible += 1
        hits += hit
    density = Fraction(hits, admissible) if admissible else Fraction(0)
    return DensitySurvey(
        target=qs[0],
        n=n,
        prime_bound=prime_bound,
        admissible_count=admissible,
        hit_count=hits,
        density=density,
    )


def admissible_primes(
    target, prime_bound: int, prime_sieve: PrimeSieve | None = None
) -> tuple[int, ...]:
    (q,) = _targets((target,))
    return tuple(_admissible(((q.numerator, q.denominator),), prime_bound, prime_sieve))


def hit_primes(
    target, n: int, prime_bound: int, prime_sieve: PrimeSieve | None = None
) -> tuple[int, ...]:
    """The admissible primes modulo which the target is an n-th power residue."""
    qs = _targets((target,), n)
    return tuple(p for p, (hit,) in _flag_rows(qs, n, prime_bound, prime_sieve) if hit)


def joint_survey(
    targets, n: int, prime_bound: int, prime_sieve: PrimeSieve | None = None
) -> JointSurvey:
    """Per-subset all-hit counts over primes admissible for every target, with
    the inclusion-exclusion identity checked exactly (counts, not estimates).
    """
    qs = _targets(targets, n)
    patterns = Counter(flags for _, flags in _flag_rows(qs, n, prime_bound, prime_sieve))
    idx = tuple(range(len(qs)))
    subsets = [s for size in range(1, len(qs) + 1) for s in combinations(idx, size)]
    subset_hits = {
        s: sum(c for flags, c in patterns.items() if all(flags[i] for i in s))
        for s in subsets
    }
    admissible = sum(patterns.values())
    none = patterns[(False,) * len(qs)]
    at_least_one = admissible - none
    ie = sum(
        (-1) ** (len(s) + 1) * subset_hits[s] for s in subsets
    )
    if ie != at_least_one:
        raise AssertionError("inclusion-exclusion bookkeeping broke")
    return JointSurvey(
        targets=qs,
        n=n,
        prime_bound=prime_bound,
        admissible_count=admissible,
        subset_hits=subset_hits,
        at_least_one=at_least_one,
        all_targets=subset_hits[idx],
        none=none,
    )


def write_csv(
    out,
    targets,
    n: int,
    prime_bound: int,
    residue_modulus: int = 24,
    prime_sieve: PrimeSieve | None = None,
) -> int:
    """Emit one row per admissible prime: prime, prime mod residue_modulus,
    then a hit flag per target.  Returns the number of data rows written.
    """
    qs = _targets(targets, n)
    w = csv.writer(out)
    w.writerow(
        ["prime", f"mod{residue_modulus}"] + [f"hit_{q}" for q in qs]
    )
    rows = 0
    for p, flags in _flag_rows(qs, n, prime_bound, prime_sieve):
        w.writerow([p, p % residue_modulus] + [int(f) for f in flags])
        rows += 1
    return rows
