"""Columns condition and its certificates.

The brute-force oracle enumerates every ordered partition of the column set
and tests span membership by rank comparison, independently of the search
code under test.  The literal reference is the backtracking depth-first
search that the greedy pass replaced: the certificates must be identical.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parreg import radolinear
from parreg.arith import DegenerateInput
from parreg.radolinear import (
    COLUMN_LIMIT,
    ColumnsCertificate,
    DimensionLimitExceeded,
    QMatrix,
    columns_condition,
    verify_columns_certificate,
)

# ---------------------------------------------------------------------------
# oracle: rank-based span test + ordered partition enumeration


def rank_of(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][j]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_span(target, vectors):
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    return rank_of(vectors) == rank_of(vectors + [target])


def ordered_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for sub in ordered_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + (block | {first},) + sub[i + 1 :]
        yield ((frozenset({first}),) + sub)
        yield sub + (frozenset({first}),)


def brute_columns_condition(M: QMatrix) -> bool:
    cols = {j: list(M.column(j)) for j in range(1, M.cols + 1)}

    def block_sum(block):
        total = [Fraction(0)] * M.rows
        for j in block:
            total = [t + c for t, c in zip(total, cols[j])]
        return total

    for partition in set(ordered_partitions(range(1, M.cols + 1))):
        earlier = []
        ok = True
        for i, block in enumerate(partition):
            s = block_sum(block)
            if i == 0:
                if any(x != 0 for x in s):
                    ok = False
                    break
            elif not in_span(s, earlier):
                ok = False
                break
            earlier.extend(cols[j] for j in sorted(block))
        if ok:
            return True
    return False


def reference_search(M: QMatrix, earlier: tuple[int, ...], remaining: tuple[int, ...]):
    # the literal backtracking search: every block in size-then-lexicographic
    # order, one elimination each, recursing on the first that fits
    if not remaining:
        return []
    ecols = [M.column(j) for j in earlier]
    for size in range(1, len(remaining) + 1):
        for block in itertools.combinations(remaining, size):
            s = M.column_sum(block)
            coeffs = radolinear._solve_exact(ecols, s)
            if coeffs is None:
                continue
            rest = reference_search(
                M,
                tuple(sorted(earlier + block)),
                tuple(j for j in remaining if j not in block),
            )
            if rest is not None:
                return [(frozenset(block), coeffs)] + rest
    return None


def reference_columns_condition(M: QMatrix):
    found = reference_search(M, (), tuple(range(1, M.cols + 1)))
    if found is None:
        return None
    return ColumnsCertificate(
        tuple(block for block, _ in found), tuple(coeffs for _, coeffs in found[1:])
    )


def brauer_matrix(h, ell, j):
    # rows: h*x_{i+2} - h*x_2 - j_i*x_1 = 0 for i in 1..ell,
    #       h*x_{ell+3} - x_2 - h*x_{ell+5} = 0,
    #       h*x_{ell+4} - h*x_2 - x_1 = 0
    n = ell + 5
    rows = []
    for i in range(1, ell + 1):
        r = [0] * n
        r[0] = -j[i - 1]
        r[1] = -h
        r[i + 1] = h
        rows.append(r)
    r = [0] * n
    r[1] = -1
    r[ell + 2] = h
    r[ell + 4] = -h
    rows.append(r)
    r = [0] * n
    r[0] = -1
    r[1] = -h
    r[ell + 3] = h
    rows.append(r)
    return QMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# frozen examples


def test_schur_row_certified():
    M = QMatrix.from_rows([[1, 1, -1]])
    cert = columns_condition(M)
    assert cert is not None
    assert cert.ordered_partition == (frozenset({1, 3}), frozenset({2}))
    assert verify_columns_certificate(M, cert)


def test_2_3_minus1_refused():
    M = QMatrix.from_rows([[2, 3, -1]])
    assert columns_condition(M) is None
    assert brute_columns_condition(M) is False


def test_brauer_instance_pinned_partition():
    M = brauer_matrix(2, 3, (1, 2, 3))
    assert (M.rows, M.cols) == (5, 8)
    cert = columns_condition(M)
    assert cert is not None
    assert cert.ordered_partition == (
        frozenset({6, 8}),
        frozenset({2, 3, 4, 5, 7}),
        frozenset({1}),
    )
    assert verify_columns_certificate(M, cert)


def test_rational_entries():
    M = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2), -1]])
    cert = columns_condition(M)
    assert cert is not None
    assert verify_columns_certificate(M, cert)


def test_dimension_cap():
    M = QMatrix.from_rows([[1] * (COLUMN_LIMIT + 1)])
    with pytest.raises(DimensionLimitExceeded):
        columns_condition(M)


def test_matrix_validation():
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([])
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([[1, 2], [3]])
    # floats are binary fractions: 0.1 + 0.2 - 0.3 != 0, so refuse them
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([[0.1, 0.2, -0.3]])
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([[1, 2.0]])
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([["1", 2]])
    with pytest.raises(DegenerateInput):
        QMatrix(((Fraction(1), 0.5),))
    tenths = QMatrix.from_rows([[Fraction(1, 10), Fraction(2, 10), Fraction(-3, 10)]])
    assert columns_condition(tenths).ordered_partition == (frozenset({1, 2, 3}),)


# ---------------------------------------------------------------------------
# certificate verification is not a rubber stamp


def test_verify_rejects_bad_partitions():
    M = QMatrix.from_rows([[1, 1, -1]])
    cert = columns_condition(M)
    # first block no longer sums to zero
    bad = ColumnsCertificate((frozenset({1, 2}), frozenset({3})), cert.span_witnesses)
    assert not verify_columns_certificate(M, bad)
    # missing column
    bad = ColumnsCertificate((frozenset({1, 3}),), ())
    assert not verify_columns_certificate(M, bad)
    # overlapping blocks
    bad = ColumnsCertificate(
        (frozenset({1, 3}), frozenset({2, 3})), cert.span_witnesses
    )
    assert not verify_columnsCertificate_safe(M, bad)
    # wrong witness coefficients
    bad = ColumnsCertificate(cert.ordered_partition, ((Fraction(5), Fraction(0)),))
    assert not verify_columns_certificate(M, bad)
    # inexact or non-numeric entries are refused, never compared or raised on
    assert cert.span_witnesses == ((Fraction(1), Fraction(0)),)
    assert verify_columns_certificate(M, ColumnsCertificate(cert.ordered_partition, ((1, 0),)))
    for blocks in (
        (frozenset({1.0, 3}), frozenset({2})),
        (frozenset({True, 3}), frozenset({2})),
        (frozenset({1, 3}), frozenset({Fraction(2)})),
        ([1, 3], [2]),
        [frozenset({1, 3}), frozenset({2})],
        None,
    ):
        assert not verify_columns_certificate(M, ColumnsCertificate(blocks, cert.span_witnesses))
    for witness in ((1.0, 0.0), (0.1 * 10, 0), ("1", Fraction(0)), (True, 0), (None, 0), None):
        bad = ColumnsCertificate(cert.ordered_partition, (witness,))
        assert not verify_columns_certificate(M, bad)
    assert not verify_columns_certificate(M, ColumnsCertificate(cert.ordered_partition, None))


def verify_columnsCertificate_safe(M, cert):
    try:
        return verify_columns_certificate(M, cert)
    except DegenerateInput:
        return False


# ---------------------------------------------------------------------------
# randomized agreement with the oracle


def test_random_3_column_matrices_agree_with_brute_force():
    rng = random.Random(20240817)
    disagreements = []
    for trial in range(1000):
        rows = rng.randint(1, 3)
        M = QMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rows)]
        )
        got = columns_condition(M)
        want = brute_columns_condition(M)
        if (got is not None) != want:
            disagreements.append(M)
        if got is not None and not verify_columns_certificate(M, got):
            disagreements.append(M)
    assert not disagreements, disagreements[:3]


def test_random_4_and_5_column_matrices_agree_with_brute_force():
    # with four or five columns a valid block can leave no valid
    # continuation, the case in which the old search backtracked
    rng = random.Random(20261018)
    for trial in range(300):
        cols = 4 + trial % 2
        rows = rng.randint(1, 3)
        entries = [[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(cols)] for _ in range(rows)]
        M = QMatrix.from_rows(entries)
        got = columns_condition(M)
        assert (got is not None) == brute_columns_condition(M), entries
        assert got == reference_columns_condition(M), entries
        if got is not None:
            assert verify_columns_certificate(M, got), entries


small_rational = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3))
)


@st.composite
def column_matrices(draw):
    # columns are drawn fresh, as zero, or as the negation or a copy of an
    # earlier column, so zero-sum blocks and ties between blocks are common
    rows = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "negate", "copy")))
        if kind == "zero" or (kind != "fresh" and not columns):
            columns.append([Fraction(0)] * rows)
        elif kind == "fresh":
            columns.append(draw(st.lists(small_rational, min_size=rows, max_size=rows)))
        else:
            c = draw(st.sampled_from(columns))
            columns.append([-v for v in c] if kind == "negate" else list(c))
    return QMatrix.from_rows([list(r) for r in zip(*columns)])


@settings(max_examples=150, deadline=None)
@given(column_matrices())
def test_greedy_pass_matches_backtracking_reference(M):
    got = columns_condition(M)
    want = reference_columns_condition(M)
    assert got == want
    if got is not None:
        assert verify_columns_certificate(M, got)


def test_greedy_pass_matches_reference_on_low_rank_matrices():
    # taller matrices of rank 2-4 with large rational entries: several
    # fraction-free elimination steps per certificate, so the integer images
    # rely on each step's exact division by the previous pivot
    rng = random.Random(61)
    certified = 0
    for _ in range(200):
        rows, cols = rng.randint(3, 6), rng.randint(4, 6)
        basis = [
            [Fraction(rng.randint(-999, 999), rng.randint(1, 40)) for _ in range(rows)]
            for _ in range(rng.randint(2, min(rows, 4)))
        ]
        columns = []
        for _ in range(cols):
            mix = [rng.randint(-2, 2) for _ in basis]
            columns.append([sum(c * b[i] for c, b in zip(mix, basis)) for i in range(rows)])
        if rng.random() < 0.6:
            columns[-1] = [-sum(c[i] for c in columns[:-1]) for i in range(rows)]
        M = QMatrix.from_rows([list(r) for r in zip(*columns)])
        got = columns_condition(M)
        assert got == reference_columns_condition(M), columns
        certified += got is not None
    assert certified >= 50


def counted_solves(monkeypatch):
    calls = []
    solve = radolinear._solve_exact

    def counting(columns, target):
        calls.append(len(columns))
        return solve(columns, target)

    monkeypatch.setattr(radolinear, "_solve_exact", counting)
    return calls


def test_no_backtracking_blowup(monkeypatch):
    # the backtracking search took more than a minute on the first matrix
    # and seconds on the second; the greedy pass screens blocks over the
    # integers and eliminates only once the partition is complete
    calls = counted_solves(monkeypatch)
    pairs = [[k * sign for k in range(1, 6) for sign in (1, -1)] + [0, 0, 0]]
    M = QMatrix.from_rows(pairs + [[0] * 10 + [1, 2, 4]])
    assert (M.rows, M.cols) == (2, 13)
    assert columns_condition(M) is None
    assert calls == []
    M = QMatrix.from_rows([[2**i for i in range(16)], [3**i for i in range(16)], [1] * 16])
    assert columns_condition(M) is None
    assert calls == []


def test_one_elimination_per_witness(monkeypatch):
    calls = counted_solves(monkeypatch)
    M = brauer_matrix(2, 3, (1, 2, 3))
    cert = columns_condition(M)
    # the first block has no witness: it sums to zero, a fact the integer
    # screen establishes exactly
    assert len(cert.ordered_partition) == 3
    assert calls == [2, 7]
    assert verify_columns_certificate(M, cert)


# ---------------------------------------------------------------------------
# one row: Rado's single-equation criterion


def zero_sum_subsets(coeffs):
    """Nonempty index subsets (1-indexed) whose coefficients sum to zero, by
    size then lexicographically."""
    idx = range(1, len(coeffs) + 1)
    return [
        frozenset(combo)
        for size in idx
        for combo in itertools.combinations(idx, size)
        if sum(coeffs[i - 1] for i in combo) == 0
    ]


def test_single_row_consistency():
    # a row of nonzero coefficients meets the columns condition exactly when
    # some nonempty subset of them sums to zero, and the certificate opens
    # with the first such subset
    rng = random.Random(7)
    nonzero = [k for k in range(-5, 6) if k]
    for _ in range(300):
        width = rng.randint(1, 6)
        coeffs = [rng.choice(nonzero) for _ in range(width)]
        cert = columns_condition(QMatrix.from_rows([coeffs]))
        subsets = zero_sum_subsets(coeffs)
        assert (cert is not None) == bool(subsets), coeffs
        if cert is not None:
            assert cert.ordered_partition[0] == subsets[0], coeffs


def test_single_equation_pinned():
    def first_block(coeffs):
        cert = columns_condition(QMatrix.from_rows([coeffs]))
        return None if cert is None else cert.ordered_partition[0]

    assert first_block([1, 1, -1]) == frozenset({1, 3})
    assert first_block([2, 3, -5]) == frozenset({1, 2, 3})
    assert first_block([2, 3, -1]) is None


def test_single_equation_validation():
    with pytest.raises(DegenerateInput):
        QMatrix.from_rows([[]])
    # zero coefficients break the subset-criterion/columns-condition match:
    # [5,3,1,0] has the zero-sum subset {4} yet no solution over N
    assert zero_sum_subsets([5, 3, 1, 0]) == [frozenset({4})]
    assert columns_condition(QMatrix.from_rows([[5, 3, 1, 0]])) is None
