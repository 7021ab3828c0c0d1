"""n-th-power-residue densities over primes: exact counts with
inclusion-exclusion bookkeeping for joint surveys, and the exact Chebotarev
densities those counts tend to.

Every survey reads the states that one residue kernel call gives for all of
its targets at once: per-prime columns (`arith._residue_columns`) for the
prime lists and the CSV, counts per (p mod 24, states) (`arith._residue_counts`)
for the surveys.  At n | 2j for every element s**j of the targets' base the
states are a table over p mod L, and the counts come from the number of
primes in each class mod lcm(L, 24), read from the sieve's flags.

The predicted densities take the quadratic characters of 2 and of the
primes dividing n from the same Jacobi symbol, `arith._jacobi`, and factor
no target.  One model (`_residue_model`) gives a call's cosets and spans;
`residue_pattern_densities` tallies every pattern from it, and the witness
decision (`nonresidue_pattern_occurs`) asks only whether the pattern with no
residue occurs, stopping at the first coset that holds it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import gcd, lcm
from operator import add, eq, mod, ne

from .arith import (
    DegenerateInput,
    _as_int,
    _as_rat,
    _coprime_base,
    _jacobi,
    _residue_columns,
    _residue_counts,
    integer_nth_root,
    sieve,
    valuation,
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
    if _as_int(n) < 1:
        raise DegenerateInput("n must be >= 1")
    return qs


def _columns(qs, n: int, prime_bound: int):
    """The primes <= prime_bound and the `_residue_columns` of qs over them."""
    primes = sieve(prime_bound).primes
    return primes, _residue_columns(qs, n, primes)


def _admissible_mask(cols) -> bytes:
    """1 at the primes admissible for every target, 0 elsewhere."""
    return bytes(map(all, zip(*cols)))


def _pass(qs, n: int, prime_bound: int) -> Counter:
    """One counted pass over the primes <= prime_bound, as
    {(p mod 24, state of qs[0], state of qs[1], ...): count} with the states
    of `_residue_columns`, from `_residue_counts`: on the quadratic table it
    counts classes of p, not a column per prime.  Every survey of a subset
    of qs projects from it."""
    return _residue_counts(qs, n, sieve(prime_bound))


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


def _span(gens, g: int, k: int) -> set:
    """The subgroup of (Z/g)^k generated by `gens`."""
    span = {(0,) * k}
    for v in gens:
        v = tuple(x % g for x in v)
        if v in span:
            continue
        # H + <v> is the union of H + j*v up to the first j*v already in H
        steps, m = [(0,) * k], v
        while m not in span:
            steps.append(m)
            m = tuple((x + y) % g for x, y in zip(m, v))
        span = {tuple(map(mod, map(add, h, s), repeat(g))) for h in span for s in steps}
    return span


def _residue_model(targets, n: int):
    """The targets' classes in F_p^* / F_p^*g = Z/g as cosets of subgroups
    of (Z/g)^k, for `residue_pattern_densities` and
    `nonresidue_pattern_occurs`: ({(g, target): weight}, span, units) with
    `span(g)` the subgroup, built once per g, and `units` the number of
    classes a mod M, of which `weight` give that g and that coset.  A
    target is a residue where its coordinate equals its entry of `target`,
    which is minus the coset's shift mod g.  None outside the caps.

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

    Only the primes dividing 2n are found, by trial division.  The rest of
    the targets is split over a coprime base without factoring: the primes
    of one element b = s**j, with j maximal, have exponents whose gcd is j,
    so together they generate the multiples of j times the exponents of b
    in the targets, and mod g the multiples of gcd(j, n) times them.
    """
    qs = _targets(targets, n)
    if n > MAX_PREDICTED_N or len(qs) > MAX_PREDICTED_TARGETS:
        return None
    k = len(qs)
    # the primes whose quadratic character p mod M decides: 2 and those dividing n
    fixed = [ell for ell in sieve(2 * n).primes if 2 * n % ell == 0]
    exps, rests = [], []
    for q in qs:
        e, rest = {}, []
        for part, sign in ((abs(q.numerator), 1), (q.denominator, -1)):
            for ell in fixed:
                while part % ell == 0:
                    part //= ell
                    e[ell] = e.get(ell, 0) + sign
            rest.append(part)
        exps.append(e)
        rests.append(Fraction(*rest))
    free = []
    for b in _coprime_base([part for r in rests for part in (r.numerator, r.denominator)]):
        # b = s**j with j maximal; as g | n, only gcd(j, n) counts
        s, j = b, 1
        for ell in fixed:
            while n % (j * ell) == 0 and (root := integer_nth_root(s, ell)) ** ell == s:
                s, j = root, j * ell
        free.append([j * valuation(r, b) for r in rests])
    modulus = lcm(8, 2 * n)
    units = [a for a in range(1, modulus) if gcd(a, modulus) == 1]
    cosets = Counter()
    for a in units:
        g = gcd(n, a - 1)
        shift = [(a - 1) // 2 if q < 0 else 0 for q in qs]
        if g % 2 == 0:
            for ell in fixed:
                # (ell|p) is the Jacobi symbol (ell|a) at every prime
                # p = a (mod M), as 4*ell divides M (quadratic reciprocity)
                if _jacobi(ell, a) == -1:
                    shift = [s + e.get(ell, 0) for s, e in zip(shift, exps)]
        cosets[g, tuple(-s % g for s in shift)] += 1
    spans = {}

    def span(g: int) -> set:
        if g not in spans:
            double = 2 if g % 2 == 0 else 1
            gens = [[e.get(ell, 0) * double for e in exps] for ell in fixed]
            spans[g] = _span(gens + free, g, k)
        return spans[g]

    return cosets, span, len(units)


def residue_pattern_densities(targets, n: int) -> dict | None:
    """Exact density among all primes of each residue pattern of the targets,
    as {flags: Fraction} over the patterns that occur; flags[i] says whether
    targets[i] is an n-th power residue, as in the surveys.  The model is
    that of `_residue_model`; the counts stay integers over one common
    denominator until each pattern's density is taken.

    None when n > MAX_PREDICTED_N or with more than MAX_PREDICTED_TARGETS
    targets.
    """
    model = _residue_model(targets, n)
    if model is None:
        return None
    cosets, span, units = model
    sizes = {g: len(span(g)) for g, _ in cosets}
    whole = lcm(*sizes.values())
    tallies = Counter()
    for (g, target), weight in cosets.items():
        scale = weight * (whole // sizes[g])
        tally = Counter(map(tuple, map(map, repeat(eq), span(g), repeat(target))))
        for flags, count in tally.items():
            tallies[flags] += scale * count
    return {flags: Fraction(count, units * whole) for flags, count in tallies.items()}


def nonresidue_pattern_occurs(targets, n: int) -> bool | None:
    """Whether the pattern in which no target is an n-th power residue has
    positive density, which is `(False,) * k in residue_pattern_densities`:
    whether some coset of `_residue_model` holds an element with no
    coordinate equal to its target.  It stops at the first such coset.
    None outside the caps."""
    model = _residue_model(targets, n)
    if model is None:
        return None
    cosets, span, _ = model
    return any(
        any(map(all, map(map, repeat(ne), span(g), repeat(target)))) for g, target in cosets
    )


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
    # at n = 1 every exponent reduces to 0 mod p-1, so no column costs a power
    primes, (col,) = _columns((q,), 1, prime_bound)
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
    import csv

    qs = _targets(targets, n)
    primes, cols = _columns(qs, n, prime_bound)
    mask = _admissible_mask(cols)
    w = csv.writer(out)
    w.writerow(["prime", "mod24"] + [f"hit_{q}" for q in qs])
    residues = map(mod, primes, repeat(24))
    flags = (col.translate(_HITS) for col in cols)
    w.writerows(compress(zip(primes, residues, *flags), mask))
    return mask.count(1)
