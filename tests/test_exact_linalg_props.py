"""Property tests: the sparse ExactMatrix kernel against plain list-of-lists
Fraction matrices (tests/oracles.py), on random sparse rational matrices
that include 0-row and 0-column shapes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep.exact_linalg import ExactMatrix, invert, rank, rref, solve_left, vec_mat

from oracles import (
    ref_add,
    ref_invert,
    ref_is_zero,
    ref_mul,
    ref_rank,
    ref_rref,
    ref_scale,
    ref_solve_left,
    ref_sub,
    ref_trace,
    ref_transpose,
)

ZERO = Fraction(0)
CELLS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
DIMS = st.integers(0, 5)

KERNEL = settings(max_examples=150, deadline=None)


@st.composite
def dense(draw, m, n):
    """An m x n list of Fraction rows, mostly zero: a random set of cells is
    filled, and the fill values may themselves be 0."""
    rows = [[ZERO] * n for _ in range(m)]
    if m and n:
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), CELLS)
        for i, j, x in draw(st.lists(cells, max_size=m * n)):
            rows[i][j] = x
    return rows


@st.composite
def shaped(draw, m=None, n=None):
    m = draw(DIMS) if m is None else m
    n = draw(DIMS) if n is None else n
    return draw(dense(m, n)), m, n


def mat(rows, cols):
    return ExactMatrix.from_rows(rows, cols=cols)


def listed(M):
    assert M.rows == len(M.entries) and all(len(r) == M.cols for r in M.entries)
    return [list(r) for r in M.entries]


@KERNEL
@given(DIMS, DIMS, DIMS, st.data())
def test_product_matches_reference(m, k, n, data):
    A, B = data.draw(dense(m, k)), data.draw(dense(k, n))
    P = mat(A, k) * mat(B, n)
    assert (P.rows, P.cols) == (m, n)
    assert listed(P) == ref_mul(A, B, k, n)


@KERNEL
@given(shaped(), st.data(), CELLS)
def test_entrywise_ops_match_reference(a, data, c):
    A, m, n = a
    B = data.draw(dense(m, n))
    MA, MB = mat(A, n), mat(B, n)
    assert listed(MA + MB) == ref_add(A, B)
    assert listed(MA - MB) == ref_sub(A, B)
    assert listed(-MA) == ref_scale(Fraction(-1), A)
    assert listed(MA.scale(c)) == ref_scale(c, A)
    assert listed(MA.transpose()) == ref_transpose(A, n)
    assert MA.is_zero() == ref_is_zero(A)
    assert mat(A, n).transpose().transpose() == MA


@KERNEL
@given(DIMS.flatmap(lambda n: shaped(n, n)))
def test_trace_matches_reference(a):
    A, n, _ = a
    assert mat(A, n).trace() == ref_trace(A)


@KERNEL
@given(shaped())
def test_rref_and_rank_match_reference(a):
    A, m, n = a
    R, pivots = rref(mat(A, n))
    R_ref, pivots_ref = ref_rref(A, n)
    assert list(pivots) == pivots_ref
    assert listed(R) == R_ref
    assert rank(mat(A, n)) == ref_rank(A, n)


@KERNEL
@given(shaped(), st.data())
def test_solve_left_matches_reference(b, data):
    B, m, n = b
    if data.draw(st.booleans()):
        # a vector in the row span, so that a solution exists
        x = data.draw(dense(1, m))[0]
        v = tuple(sum((x[i] * B[i][j] for i in range(m)), ZERO) for j in range(n))
    else:
        v = tuple(data.draw(dense(1, n))[0])
    got = solve_left(mat(B, n), v)
    want = ref_solve_left(B, n, v)
    assert (got is None) == (want is None)
    if got is not None:
        assert vec_mat(got, mat(B, n)) == v


@KERNEL
@given(DIMS.flatmap(lambda n: shaped(n, n)))
def test_invert_matches_reference(a):
    A, n, _ = a
    want = ref_invert(A)
    if want is None:
        with pytest.raises(ValueError):
            invert(mat(A, n))
    else:
        assert listed(invert(mat(A, n))) == want


@KERNEL
@given(shaped())
def test_dense_view_round_trip(a):
    A, m, n = a
    M = mat(A, n)
    assert listed(M) == A
    assert ExactMatrix.from_rows(M.entries, cols=n) == M
    assert [M.row(i) for i in range(m)] == [tuple(r) for r in A]
    assert [M.column(j) for j in range(n)] == [tuple(r) for r in ref_transpose(A, n)]


def same_value(M, N):
    return M == N and hash(M) == hash(N)


@KERNEL
@given(shaped())
def test_equal_values_compare_and_hash_equal(a):
    A, m, n = a
    M = mat(A, n)
    # sparse rows that spell out every zero
    explicit = ExactMatrix([{j: x for j, x in enumerate(row)} for row in A], n)
    assert same_value(explicit, M)
    by_columns = ExactMatrix.from_columns([tuple(col) for col in ref_transpose(A, n)], rows=m)
    assert same_value(by_columns, M)
    # [M | M] * [I; -I] = M - M: every entry of the product cancels to zero
    doubled = mat([row + row for row in A], 2 * n)
    signs = mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                + [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)], n)
    assert same_value(doubled * signs, ExactMatrix.zero(m, n))
    assert same_value(M - M, ExactMatrix.zero(m, n))
    assert same_value(M + ExactMatrix.zero(m, n), M)
