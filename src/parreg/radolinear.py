"""Exact-rational linear machinery: Rado's columns condition for rational
matrices, with ordered-partition certificates and their re-verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from operator import not_

from .arith import DegenerateInput, ParregError, _as_rat

COLUMN_LIMIT = 16


class DimensionLimitExceeded(ParregError):
    pass


@dataclass(frozen=True)
class QMatrix:
    """Rectangular grid of exact rationals, stored row-major."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DegenerateInput("matrix must have at least one row and column")
        width = len(self.entries[0])
        if any(len(r) != width for r in self.entries):
            raise DegenerateInput("rows must have equal length")
        # the columns search clears denominators, so entries must be exact;
        # a bool is refused, as by `_as_rat`
        if not all(
            isinstance(v, (int, Fraction)) and v.__class__ is not bool for r in self.entries for v in r
        ):
            raise DegenerateInput("matrix entries must be ints or Fractions")

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        return cls(tuple(tuple(_as_rat(v) for v in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[Fraction, ...]:
        """1-indexed column."""
        return tuple(row[j - 1] for row in self.entries)

    def column_sum(self, indices) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.rows
        for j in indices:
            for i, v in enumerate(self.column(j)):
                out[i] += v
        return tuple(out)


@dataclass(frozen=True)
class ColumnsCertificate:
    """Ordered partition of the column indices (1-indexed) with, for each block
    after the first, the coefficients expressing that block's column sum over
    the earlier columns (sorted ascending; free variables pinned to zero).
    """

    ordered_partition: tuple[frozenset[int], ...]
    span_witnesses: tuple[tuple[Fraction, ...], ...]


def _solve_exact(columns, target) -> tuple[Fraction, ...] | None:
    """Coefficients x with sum_k x_k * columns[k] == target, or None.

    Gaussian elimination over Fraction; free variables are set to zero so the
    answer is deterministic.
    """
    nrows = len(target)
    ncols = len(columns)
    aug = [[columns[k][i] for k in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, c in enumerate(pivots):
        x[c] = aug[row][ncols]
    return tuple(x)


def _first_zero_sum(images: dict):
    """First block of the keys of `images`, by size then lexicographically,
    whose integer vectors sum to zero, or None.  Each vector is packed into
    one integer in base R, R above the absolute value of any coordinate of
    any block's sum, so a block sums to zero exactly when its packed integers
    do: the lowest nonzero coordinate of a nonzero sum is not a multiple of R.
    """
    indices, vectors = tuple(images), images.values()
    radix = max((sum(map(abs, d)) for d in zip(*vectors)), default=0) + 1
    packed = [sum(x * radix**i for i, x in enumerate(v)) for v in vectors]
    for size in range(1, len(indices) + 1):
        zero = map(not_, map(sum, combinations(packed, size)))
        block = next(compress(combinations(indices, size), zero), None)
        if block is not None:
            return block
    return None


def columns_condition(M: QMatrix) -> ColumnsCertificate | None:
    """First ordered partition of the columns, or None: the first block must
    sum to zero, each later block's sum must lie in the rational span of all
    earlier columns.  Blocks are tried size-ascending then lexicographically,
    so the certificate is deterministic.

    One greedy pass finds it: each stage takes the first block valid after
    the earlier columns E and never backtracks.  If B is valid at E and any
    continuation B_1, ..., B_k from E is valid, the nonempty sets B_i minus B
    are a valid continuation from E and B, since sum(B_i minus B) =
    sum(B_i) - sum(B_i and B) and both terms lie in the span of E, B and
    B_1, ..., B_(i-1).  So a first valid block is never undone, and a stage
    with none means no partition exists.

    The blocks are screened exactly over the integers: each row is scaled to
    clear its denominators, and every remaining column is kept as its image
    in the quotient of Z^rows by the earlier columns, so a block is valid
    when its images sum to zero.  A stage with k remaining columns costs at
    most 2^k - 1 integer subset sums; once the partition is complete, one
    Fraction elimination per block after the first gives its span witness.
    """
    if M.cols > COLUMN_LIMIT:
        raise DimensionLimitExceeded(
            f"{M.cols} columns exceeds the search cap of {COLUMN_LIMIT}"
        )
    scaled = []
    for row in M.entries:
        scale = lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (scale // v.denominator) for v in row])
    images = dict(enumerate(zip(*scaled), start=1))
    partition = []
    pivot = 1
    while images:
        block = _first_zero_sum(images)
        if block is None:
            return None
        partition.append(frozenset(block))
        # quotient by each block column v in turn: a fraction-free (Bareiss)
        # step drops coordinate k, the first nonzero entry of v, and Sylvester's
        # identity makes the division by the previous step's pivot exact
        for j in block:
            v = images[j]
            k = next((t for t, x in enumerate(v) if x), None)
            if k is not None:
                images = {
                    i: tuple(
                        (v[k] * c[t] - v[t] * c[k]) // pivot
                        for t in range(len(v))
                        if t != k
                    )
                    for i, c in images.items()
                }
                pivot = v[k]
        for j in block:
            del images[j]
    witnesses = []
    earlier = sorted(partition[0])
    for block in partition[1:]:
        ecols = [M.column(j) for j in earlier]
        witnesses.append(_solve_exact(ecols, M.column_sum(block)))
        earlier = sorted(earlier + list(block))
    return ColumnsCertificate(tuple(partition), tuple(witnesses))


def verify_columns_certificate(M: QMatrix, cert: ColumnsCertificate) -> bool:
    """Recheck a certificate by direct arithmetic: partition shape, zero first
    sum, and each recorded combination reproducing its block sum exactly.
    Blocks must be frozensets of ints and witnesses tuples of ints or
    Fractions; anything else, a float or bool included, is refused rather
    than compared inexactly.
    """
    blocks, witnesses = cert.ordered_partition, cert.span_witnesses
    if not isinstance(blocks, tuple) or not isinstance(witnesses, tuple):
        return False
    if not blocks or any(
        not isinstance(b, frozenset) or not b or any(type(j) is not int for j in b)
        for b in blocks
    ):
        return False
    seen: set[int] = set()
    for b in blocks:
        if b & seen:
            return False
        seen |= b
    if seen != set(range(1, M.cols + 1)):
        return False
    if len(witnesses) != len(blocks) - 1:
        return False
    if any(v != 0 for v in M.column_sum(blocks[0])):
        return False
    earlier = sorted(blocks[0])
    for block, coeffs in zip(blocks[1:], witnesses):
        if not isinstance(coeffs, tuple) or len(coeffs) != len(earlier):
            return False
        if not all(type(x) is int or isinstance(x, Fraction) for x in coeffs):
            return False
        s = M.column_sum(block)
        combo = [Fraction(0)] * M.rows
        for x, j in zip(coeffs, earlier):
            for i, v in enumerate(M.column(j)):
                combo[i] += x * v
        if tuple(combo) != s:
            return False
        earlier = sorted(set(earlier) | block)
    return True
