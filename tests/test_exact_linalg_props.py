"""Property tests: the sparse ExactMatrix kernel of int numerators over one
denominator, the incremental echelon
and the eliminations built on it (solves, kernels, minimal polynomials),
the Hermite form (against Euclid's, and the integer spans that are its
nonzero rows), saturation built on it and the integer kernel as the
saturated rational one, coordinates in submodules, trace forms and the matrix-algebra envelope
against plain list-of-lists Fraction matrices (tests/oracles.py), on random
sparse rational matrices that include 0-row and 0-column shapes, with
small entries and with entries and denominators up to 2^70.  Inputs already
in canonical form (RREF, Hermite form, identity), and near misses of it,
are checked against the elimination paths that they skip."""

import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adorep.embed import minimal_polynomial
from adorep.exact_linalg import (
    Echelon,
    ExactMatrix,
    Submodule,
    _hermite,
    extend_basis,
    hnf,
    invert,
    kernel_basis,
    rank,
    rref,
    solve_left,
    solve_right,
    stack_rows,
    trace_product,
)
from adorep.lie_core import _matrix_algebra_closure

from oracles import (
    brute_force_hnf,
    checked_storage,
    ref_add,
    ref_contains_rows,
    ref_coordinate_rows,
    ref_extend_basis,
    ref_hnf,
    ref_integer_kernel,
    ref_invert,
    ref_is_zero,
    ref_left_kernel,
    ref_matrix_algebra_closure,
    ref_minimal_polynomial,
    ref_minors_gcd,
    ref_mul,
    ref_of_rows_z,
    ref_rank,
    ref_rref,
    ref_saturate,
    ref_scale,
    ref_solve_left,
    ref_solve_right,
    ref_sub,
    ref_trace,
    ref_transpose,
)

ZERO = Fraction(0)
CELLS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
INTEGERS = st.integers(-4, 4).map(Fraction)
DIMS = st.integers(0, 5)
# entries up to 2^70 in size, integral or with denominators up to 2^70
HUGE = 2**70
WIDE = st.one_of(
    CELLS,
    st.integers(-HUGE, HUGE).map(Fraction),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)

KERNEL = settings(max_examples=150, deadline=None)


@st.composite
def dense(draw, m, n, values=CELLS):
    """An m x n list of Fraction rows, mostly zero: a random set of cells is
    filled, and the fill values may themselves be 0."""
    rows = [[ZERO] * n for _ in range(m)]
    if m and n:
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), values)
        for i, j, x in draw(st.lists(cells, max_size=m * n)):
            rows[i][j] = x
    return rows


@st.composite
def shaped(draw, m=None, n=None, values=CELLS):
    m = draw(DIMS) if m is None else m
    n = draw(DIMS) if n is None else n
    return draw(dense(m, n, values)), m, n


def mat(rows, cols):
    return ExactMatrix.from_rows(rows, cols=cols)


def listed(M):
    assert M.rows == len(M.entries) and all(len(r) == M.cols for r in M.entries)
    return [list(r) for r in M.entries]


def times(x, M):
    """The row vector x times M, as a tuple."""
    return (mat([x], M.rows) * M).row(0)


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


@st.composite
def more_rows_than_columns(draw):
    """(A, m, n) with m > n, sometimes led by the identity, so that the rank
    reaches n before the last row."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(n + 1, n + 5))
    A = draw(dense(m, n, WIDE))
    if draw(st.booleans()):
        A[:n] = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return A, m, n


@KERNEL
@given(more_rows_than_columns())
def test_rref_of_more_rows_than_columns_matches_reference(a):
    A, m, n = a
    R, pivots = rref(mat(A, n))
    R_ref, pivots_ref = ref_rref(A, n)
    assert list(pivots) == pivots_ref
    assert listed(R) == R_ref


@KERNEL
@given(shaped())
def test_echelon_is_the_rref_of_the_rows_added(a):
    A, m, n = a
    E = Echelon()
    for i, row in enumerate(A):
        # the row's numerators over the lcm of its denominators
        d = lcm(1, *(x.denominator for x in row))
        v = {j: int(d * x) for j, x in enumerate(row) if x}
        E.add(v)
        assert E.reduce(v)[0] == {}
        # every row is the primitive int multiple of its RREF row
        for p, r in E.rows.items():
            assert min(r) == p and r[p] > 0 and gcd(*r.values()) == 1
        got = [[Fraction(r.get(j, 0), r[p]) for j in range(n)] for p, r in sorted(E.rows.items())]
        assert got == [r for r in ref_rref(A[: i + 1], n)[0] if any(r)]


@KERNEL
@given(shaped())
def test_rational_kernel_matches_reference(a):
    A, m, n = a
    K = kernel_basis(mat(A, n), "Q")
    assert (K.ambient_rank, K.domain) == (m, "Q")
    assert listed(K.basis) == ref_left_kernel(A, n)


def span_rref(A, n):
    """The nonzero rows of the RREF: the canonical basis of the Q-span."""
    return [row for row in ref_rref(A, n)[0] if any(row)]


@KERNEL
@given(shaped(values=INTEGERS))
def test_integer_kernel_is_the_saturated_rational_kernel(a):
    A, m, n = a
    K = kernel_basis(mat(A, n), "Z")
    assert (K.ambient_rank, K.domain) == (m, "Z")
    rows = listed(K.basis)
    assert K.basis.is_integral
    assert ref_minors_gcd(rows, m) == 1
    assert span_rref(rows, m) == ref_left_kernel(A, n)


@KERNEL
@given(shaped())
def test_integer_kernel_of_a_rational_matrix_is_that_of_its_numerators(a):
    A, m, n = a
    M = mat(A, n)
    assert kernel_basis(M, "Z") == kernel_basis(M.scale(M.den), "Z")


@KERNEL
@given(st.sampled_from((INTEGERS, CELLS, WIDE)).flatmap(lambda values: shaped(values=values)))
@example(([], 0, 3))
@example(([[], [], []], 3, 0))
@example(([[ZERO, ZERO], [Fraction(1, 2), Fraction(1, 3)], [ZERO, ZERO]], 3, 2))
def test_integer_kernel_matches_the_hermite_transform_reference(a):
    """The saturated rational kernel is the module the Hermite transform
    of the numerators spans (`ref_integer_kernel`), as the same canonical
    Submodule, on shapes with no rows, no columns and zero rows."""
    A, m, n = a
    M = mat(A, n)
    assert kernel_basis(M, "Z") == ref_integer_kernel(M)


def test_integer_kernel_of_a_half():
    K = kernel_basis(mat([[Fraction(1, 2)], [Fraction(1)]], 1), "Z")
    assert K.basis == mat([[2, -1]], 2)


# integral matrices up to r^2 x r, the shape of the bracket spans, with
# entries up to 2^70
WIDE_INTEGERS = st.one_of(INTEGERS, st.integers(-HUGE, HUGE).map(Fraction))


@st.composite
def tall(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, n * n))
    return draw(dense(m, n, WIDE_INTEGERS)), m, n


INTEGRAL = st.one_of(shaped(values=INTEGERS), tall())


@KERNEL
@given(INTEGRAL)
def test_hnf_matches_the_euclid_reference(a):
    A, m, n = a
    H, U = hnf(mat(A, n))
    assert listed(H) == ref_hnf(A, n)
    # U is integral with an integral inverse, and U * A = H
    U_rows = listed(U)
    inverse = ref_invert(U_rows)
    assert inverse is not None
    assert all(x.denominator == 1 for row in U_rows + inverse for x in row)
    assert ref_mul(U_rows, A, m, n) == listed(H)
    # the same loop, handed W = I, ends with W = (U^T)^-1, the transpose of
    # that inverse, in every row, also in those extend_basis does not read
    B = [[int(x) for x in row] for row in A]
    W = [[int(i == j) for j in range(m)] for i in range(m)]
    _hermite(B, n, W)
    assert B == listed(H)
    assert W == [list(col) for col in zip(*inverse)]


@KERNEL
@given(INTEGRAL)
def test_integer_span_is_the_hermite_form_without_its_zero_rows(a):
    A, m, n = a
    S = Submodule.of_rows(mat(A, n), "Z")
    nonzero = [row for row in ref_hnf(A, n) if any(row)]
    assert listed(S.basis) == nonzero
    H, _ = hnf(mat(A, n))
    assert S.basis == H.take_rows(range(len(nonzero)))


@st.composite
def isolated_chains(draw):
    """(outer, G, d): outer a Z-span of random integer rows with entries up
    to 2^70; G the rows of a unimodular m x m matrix, m = outer.rank, a unit
    lower times a unit upper triangular one with entries up to 2^70 and its
    rows permuted, so the first k rows of G * outer.basis span a sublattice
    isolated in outer for every k; and d a factor that breaks the isolation."""
    n = draw(st.integers(1, 5))
    A, _, _ = draw(shaped(draw(st.integers(1, 5)), n, values=WIDE_INTEGERS))
    outer = Submodule.of_rows(mat(A, n), "Z")
    m = outer.rank
    entry = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))

    def unit_triangular(below):
        return [
            [1 if i == j else draw(entry) if (j < i) == below else 0 for j in range(m)]
            for i in range(m)
        ]

    G = mat(unit_triangular(True), m) * mat(unit_triangular(False), m)
    G = G.take_rows(draw(st.permutations(range(m))))
    return outer, G, draw(st.sampled_from((2, 3, HUGE)))


@KERNEL
@given(isolated_chains())
def test_extend_basis_matches_the_inverted_hermite_transform(chain):
    # every k from 0 to m, isolated; then, for 0 < k < m, with one
    # generator scaled by d, which both reject (k = m needs no completion
    # and is not checked)
    outer, G, d = chain
    m = outer.rank
    for k in range(m + 1):
        inner = Submodule.of_rows(G.take_rows(range(k)) * outer.basis, "Z")
        extra = extend_basis(inner, outer)
        assert extra == ref_extend_basis(inner, outer)
        assert extra.rows == m - k
        assert Submodule.of_rows(stack_rows([inner.basis, extra]), "Z") == outer
        # hnf keeps its (H, U) contract, U * M = H
        CT = outer.coordinate_rows(inner.basis).transpose()
        H, U = hnf(CT)
        assert U * CT == H
        if 0 < k < m:
            scaled = G.take_rows(range(k)) * outer.basis
            scaled = stack_rows([scaled.take_rows(range(k - 1)), scaled.take_rows([k - 1]).scale(d)])
            inner = Submodule.of_rows(scaled, "Z")
            for extend in (extend_basis, ref_extend_basis):
                with pytest.raises(ValueError, match="not isolated"):
                    extend(inner, outer)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(lambda x: x[0] * x[3] != x[1] * x[2]))
def test_integer_span_matches_the_brute_force_hermite_form(x):
    A = ((x[0], x[1]), (x[2], x[3]))
    basis = Submodule.of_rows(ExactMatrix.from_rows(A), "Z").basis
    assert listed(basis) == [list(r) for r in brute_force_hnf(A)]


@KERNEL
@given(st.sampled_from((INTEGERS, CELLS)).flatmap(lambda values: shaped(values=values)))
def test_saturate_matches_the_minors_oracle(a):
    A, m, n = a
    s = Submodule.of_rows(mat(A, n), "Z")
    sat = s.saturate()
    # a fractional basis saturates inside (1/d) Z^n, d its common denominator
    d = lcm(1, *(x.denominator for row in listed(s.basis) for x in row))
    scaled = [[d * x for x in row] for row in listed(sat.basis)]
    assert all(x.denominator == 1 for row in scaled for x in row)
    assert ref_minors_gcd(scaled, n) == 1
    assert span_rref(scaled, n) == span_rref(A, n)
    # canonical, and holding s
    assert sat == Submodule.of_rows(sat.basis, "Z")
    assert sat.contains_rows(s.basis)
    assert sat.saturate() == sat


@KERNEL
@given(shaped(), st.data())
def test_solve_right_matches_reference(a, data):
    A, m, n = a
    if data.draw(st.booleans()):
        # the image of a vector, so that a solution exists
        x = data.draw(dense(1, n))[0]
        b = tuple(sum((A[i][j] * x[j] for j in range(n)), ZERO) for i in range(m))
    else:
        b = tuple(data.draw(dense(1, m))[0])
    want = ref_solve_right(A, n, b)
    x = solve_right(mat([list(row) + [bi] for row, bi in zip(A, b)], n + 1))
    assert (None if x is None else x.row(0)) == (None if want is None else tuple(want))


@st.composite
def integer_square(draw):
    """(A, n): an n x n integer matrix that is arbitrary, strictly upper
    triangular (nilpotent) or scalar."""
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("any", "nilpotent", "scalar")))
    cell = st.integers(-3, 3).map(Fraction)
    if kind == "scalar":
        c = draw(cell)
        return [[c if i == j else ZERO for j in range(n)] for i in range(n)], n
    return [
        [draw(cell) if kind == "any" or j > i else ZERO for j in range(n)] for i in range(n)
    ], n


@settings(max_examples=80, deadline=None)
@given(integer_square())
def test_minimal_polynomial_matches_reference(a):
    """The primitive int polynomial with a positive leading coefficient,
    over that coefficient, is the monic reference."""
    A, n = a
    m = minimal_polynomial(mat(A, n))
    assert all(isinstance(x, int) for x in m) and gcd(*m) == 1 and m[-1] > 0
    assert [Fraction(x, m[-1]) for x in m] == ref_minimal_polynomial(A, n)


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
        assert times(got, mat(B, n)) == v


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
    assert [M.transpose().row(j) for j in range(n)] == [tuple(r) for r in ref_transpose(A, n)]


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
    # [M | M] * [I; -I] = M - M: every entry of the product cancels to zero
    doubled = mat([row + row for row in A], 2 * n)
    signs = mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                + [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)], n)
    assert same_value(doubled * signs, ExactMatrix.zero(m, n))
    assert same_value(M - M, ExactMatrix.zero(m, n))
    assert same_value(M + ExactMatrix.zero(m, n), M)


@st.composite
def independent_rows(draw, values=CELLS):
    """(B, n): k independent rows of Q^n as a list of lists, in a random
    basis U*E with E the reduced echelon form of a random matrix and U
    lower unitriangular, so the rows are generally not canonical."""
    A, _, n = draw(shaped(values=values))
    E = [row for row in ref_rref(A, n)[0] if any(row)]
    k = len(E)
    U = [[draw(values) if j < i else Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    return ref_mul(U, E, k, n), n


def combination(x, B, n):
    return tuple(sum((x[i] * B[i][j] for i in range(len(B))), ZERO) for j in range(n))


@KERNEL
@given(independent_rows(), st.sampled_from("ZQ"), st.data())
def test_coordinates_match_reference(b, domain, data):
    B, n = b
    if data.draw(st.booleans()):
        v = combination(data.draw(dense(1, len(B)))[0], B, n)
    else:
        v = tuple(data.draw(dense(1, n))[0])
    # the rows are independent, so the reference solution is the only one
    want = ref_solve_left(B, n, v)
    assert solve_left(mat(B, n), v) == (None if want is None else tuple(want))
    if want is not None and domain == "Z" and any(c.denominator != 1 for c in want):
        want = None
    as_given = Submodule(n, mat(B, n), domain)
    assert as_given.coordinates(v) == (None if want is None else tuple(want))
    canonical = Submodule.of_rows(mat(B, n), domain)
    assert canonical.contains_rows(mat([v], n)) == (want is not None)
    # the cached solver stays out of equality, hashing, repr and pickles
    fresh = Submodule(n, mat(B, n), domain)
    assert as_given == fresh and hash(as_given) == hash(fresh)
    assert repr(as_given) == repr(fresh)
    copied = pickle.loads(pickle.dumps(as_given))
    assert copied == fresh and copied.coordinates(v) == as_given.coordinates(v)


def distinct_first_columns(B):
    """Whether the rows of B are nonzero with pairwise distinct first
    nonzero columns: the bases that back-substitution reads as they are."""
    firsts = [next((j for j, x in enumerate(row) if x), None) for row in B]
    return None not in firsts and len(set(firsts)) == len(firsts)


@st.composite
def hermite_rows(draw, pivots, n, values):
    """Integer rows in Hermite form with the first columns `pivots`: pivot
    entries from 1 to 4 or up to 2^70, entries above a pivot in [0, pivot),
    the others drawn from `values` with their fractional parts dropped."""
    head = {p: draw(st.one_of(st.integers(1, 4), st.integers(1, HUGE))) for p in pivots}
    rows = []
    for p in pivots:
        row = [ZERO] * n
        row[p] = Fraction(head[p])
        for j in range(p + 1, n):
            x = draw(st.integers(0, head[j] - 1)) if j in head else int(draw(values))
            row[j] = Fraction(x)
        rows.append(row)
    return rows


@st.composite
def independent_rows_of(draw):
    """((B, n), values): `independent_rows` drawn from small or WIDE values."""
    values = draw(st.sampled_from((CELLS, WIDE)))
    return draw(independent_rows(values)), values


ECHELON_FORMS = ("reduced", "unit leads", "hermite")


@KERNEL
@given(
    independent_rows_of(),
    st.sampled_from(("drawn", "permuted", "stack") + ECHELON_FORMS),
    st.sampled_from("ZQ"),
    st.data(),
)
def test_coordinates_by_back_substitution_match_the_tagged_echelon(b, form, domain, data):
    """Every basis form gives the oracle's coordinates and membership, None
    included, row by row and for whole matrices, and takes the path that
    `Submodule` states: a basis whose rows lead at distinct columns is
    back-substituted as it is, any other is read through its RREF.

    "drawn" is U * E for E the RREF and U lower unitriangular; "unit leads"
    adds to each row of E multiples of the later rows, so it stays 1 at its
    first column but not 0 at the others'; "hermite" is an integer Hermite
    basis with non-unit pivots at the pivots of E; "permuted" is one of the
    echelon forms in another row order; "stack" is [inner; extend_basis(
    inner, outer)] over Q, inner a span of combinations of the drawn rows
    and outer their span.  Entries run up to 2^70 with WIDE values."""
    (B, n), values = b
    k = len(B)
    E = [row for row in ref_rref(B, n)[0] if any(row)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in E]

    def echelon(form):
        if form == "reduced":
            return E
        if form == "unit leads":
            U = [[data.draw(values) if j > i else Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            return ref_mul(U, E, k, n)
        return data.draw(hermite_rows(pivots, n, values))

    if form in ECHELON_FORMS:
        B = echelon(form)
    elif form == "permuted":
        B = data.draw(st.permutations(echelon(data.draw(st.sampled_from(ECHELON_FORMS)))))
    elif form == "stack":
        X = data.draw(dense(data.draw(st.integers(0, k)), k, values))
        outer = Submodule.of_rows(mat(B, n), "Q")
        inner = Submodule.of_rows(mat(ref_mul(X, B, k, n) if X else [], n), "Q")
        B = listed(stack_rows([inner.basis, extend_basis(inner, outer)]))
    assert form == "drawn" or distinct_first_columns(B)
    inside = [
        combination(x, B, n)
        for coefficients in (INTEGERS, values)
        for x in data.draw(dense(data.draw(st.integers(0, 2)), k, coefficients))
    ]
    # half a basis row lies in the Q-span, and outside the Z-span
    inside += [tuple(x / 2 for x in B[0])] if k else []
    outside = [tuple(v) for v in data.draw(dense(data.draw(st.integers(0, 2)), n, values))]
    rows = data.draw(st.permutations(inside + outside))
    as_given = Submodule(n, mat(B, n), domain)
    canonical = Submodule.of_rows(mat(B, n), domain)
    for S, as_it_is in ((as_given, distinct_first_columns(B)), (canonical, True)):
        for part in [rows] + [[v] for v in rows]:
            M = mat(part, n)
            assert S.coordinate_rows(M) == ref_coordinate_rows(S, M)
            assert S.contains_rows(M) == ref_contains_rows(S, M)
        read, _, inverse = S._reader
        assert (read is S.basis and inverse is None) == as_it_is


@pytest.mark.parametrize("domain", "ZQ")
@pytest.mark.parametrize("rows", ([[1, 0], [2, 0]], [[1, 0], [0, 0]], [[0, 0]]))
def test_dependent_basis_rows_are_refused(rows, domain):
    """Coordinates in dependent rows are not unique: the first coordinate
    or membership query raises, and so does every later one."""
    S = Submodule(2, mat(rows, 2), domain)
    for _ in range(2):
        with pytest.raises(ValueError, match="coordinates need independent basis rows"):
            S.coordinates((Fraction(1), ZERO))
        with pytest.raises(ValueError, match="coordinates need independent basis rows"):
            S.contains_rows(mat([[0, 1]], 2))


@KERNEL
@given(independent_rows(), st.data())
def test_rational_membership_is_the_residual_test(b, data):
    """Over Q, `contains_rows` must agree with `coordinate_rows` and the
    reference solve, on a basis as given and on its reduced echelon form,
    row by row and on rows inside and outside the span together."""
    B, n = b
    k = len(B)
    inside = [combination(x, B, n) for x in data.draw(dense(data.draw(st.integers(0, 3)), k))]
    outside = [tuple(v) for v in data.draw(dense(data.draw(st.integers(0, 3)), n))]
    for S in (Submodule(n, mat(B, n), "Q"), Submodule.of_rows(mat(B, n), "Q")):
        for v in inside + outside:
            one = mat([v], n)
            want = ref_solve_left(B, n, v) is not None
            assert S.contains_rows(one) == (S.coordinate_rows(one) is not None) == want
        M = mat(data.draw(st.permutations(inside + outside)), n)
        assert S.contains_rows(M) == (S.coordinate_rows(M) is not None)


@KERNEL
@given(independent_rows(), st.sampled_from("ZQ"), st.data())
def test_trusted_rows_store_what_from_ints_makes(b, domain, data):
    """`take_rows`, `take_columns` and `coordinate_rows` wrap rows they
    built themselves without the checks of `from_ints`, which must find
    nothing to change: no stored zeros, the same den and cols."""
    B, n = b
    k = len(B)
    A, m, _ = data.draw(shaped(n=n, values=WIDE))
    M = mat(A, n)
    picks = data.draw(st.lists(st.integers(0, m - 1), max_size=6)) if m else []
    cols = data.draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    # integral coefficients keep the combinations inside a Z-module too
    X = data.draw(dense(data.draw(st.integers(0, 3)), k, INTEGERS if domain == "Z" else WIDE))
    S = Submodule(n, mat(B, n), domain)
    built = [M.take_rows(picks), M.take_rows(picks + picks), M.take_columns(cols + cols)]
    built += [S.coordinate_rows(mat(X, k) * mat(B, n)), S.coordinate_rows(M)]
    assert built[3] is not None
    for got in built:
        if got is not None:
            assert (got.num, got.den, got.cols) == checked_storage(got)


def test_coordinates_outside_the_span():
    for S in (Submodule.of_rows(mat([[2, 0]], 2), "Z"), Submodule(2, mat([[2, 0]], 2), "Z")):
        # (1, 0) is in the Q-span of (2, 0) but not in its Z-span
        assert S.coordinates((Fraction(1), ZERO)) is None
        assert S.coordinates((Fraction(4), ZERO)) == (Fraction(2),)
        assert S.coordinates((ZERO, Fraction(1))) is None
    S = Submodule.of_rows(mat([[2, 0]], 2), "Q")
    assert S.coordinates((Fraction(1), ZERO)) == (Fraction(1),)
    assert S.coordinates((ZERO, Fraction(1))) is None
    assert solve_left(mat([[2, 0]], 2), (Fraction(1), ZERO)) == (Fraction(1, 2),)
    assert solve_left(mat([[2, 0]], 2), (ZERO, Fraction(1))) is None
    # both rows lead at column 0, so they are read through their RREF, and
    # over Z integrality is tested on the coordinates in the rows themselves
    for domain, half in (("Z", None), ("Q", (Fraction(1, 2), Fraction(1, 2)))):
        S = Submodule(2, mat([[1, 0], [1, 2]], 2), domain)
        assert S.coordinates((Fraction(1), Fraction(1))) == half
        assert S.coordinates((Fraction(2), Fraction(2))) == (Fraction(1), Fraction(1))
        assert S.contains_rows(mat([[1, 1]], 2)) == (half is not None)


@KERNEL
@given(DIMS, DIMS, st.data())
def test_trace_product_matches_reference(m, n, data):
    A, B = data.draw(dense(m, n)), data.draw(dense(n, m))
    got = trace_product(mat(A, n), mat(B, m))
    assert got == ref_trace(ref_mul(A, B, n, m))
    assert got == (mat(A, n) * mat(B, m)).trace()
    if n != m:
        with pytest.raises(ValueError):
            trace_product(mat(A, n), mat(A, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_matrix_algebra_closure_matches_rerank_oracle(n, data):
    """The library multiplies on the right only, the oracle on both sides:
    the bases may differ, their spans may not."""
    gens = data.draw(st.lists(dense(n, n), max_size=3))
    got = [listed(M) for M in _matrix_algebra_closure([mat(g, n) for g in gens])]
    want = ref_matrix_algebra_closure(gens, n)

    def flat(Ms):
        return [[x for row in M for x in row] for M in Ms]

    assert len(got) == len(want) == ref_rank(flat(got), n * n)
    assert ref_rank(flat(got + want), n * n) == len(want)


def normalised(M):
    """The storage invariants: nonzero numerators in range over a positive
    denominator that shares no factor with all of them."""
    nums = [x for row in M.num for x in row.values()]
    return (
        M.den > 0
        and gcd(M.den, *nums) == 1
        and 0 not in nums
        and all(0 <= j < M.cols for row in M.num for j in row)
    )


@KERNEL
@given(DIMS, DIMS, DIMS, st.data())
def test_wide_arithmetic_matches_reference(m, k, n, data):
    A, C = data.draw(dense(m, k, WIDE)), data.draw(dense(m, k, WIDE))
    B, D = data.draw(dense(k, n, WIDE)), data.draw(dense(k, m, WIDE))
    c = data.draw(WIDE)
    MA, MC = mat(A, k), mat(C, k)
    for got, want in (
        (MA * mat(B, n), ref_mul(A, B, k, n)),
        (MA + MC, ref_add(A, C)),
        (MA - MC, ref_sub(A, C)),
        (-MA, ref_scale(Fraction(-1), A)),
        (MA.scale(c), ref_scale(c, A)),
        (MA.transpose(), ref_transpose(A, k)),
    ):
        assert normalised(got)
        assert listed(got) == want
    assert trace_product(MA, mat(D, m)) == ref_trace(ref_mul(A, D, k, m))
    assert MA.is_integral == all(v.denominator == 1 for row in A for v in row)


@KERNEL
@given(shaped(values=WIDE), st.data())
def test_wide_eliminations_match_reference(a, data):
    A, m, n = a
    M = mat(A, n)
    R, pivots = rref(M)
    R_ref, pivots_ref = ref_rref(A, n)
    assert normalised(R)
    assert (listed(R), list(pivots)) == (R_ref, pivots_ref)
    K = kernel_basis(M, "Q")
    assert normalised(K.basis)
    assert listed(K.basis) == ref_left_kernel(A, n)
    x = data.draw(dense(1, m, WIDE))[0]
    inside = combination(x, A, n)
    assert times(solve_left(M, inside), M) == inside
    v = tuple(data.draw(dense(1, n, WIDE))[0])
    got, want = solve_left(M, v), ref_solve_left(A, n, v)
    assert (got is None) == (want is None)
    if got is not None:
        assert times(got, M) == v


@KERNEL
@given(shaped(values=WIDE), st.data())
def test_row_and_column_selection_match_reference(a, data):
    A, m, n = a
    M = mat(A, n)
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=6)) if m else []
    cols = data.draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    for got, want in (
        (M.take_rows(rows), [A[i] for i in rows]),
        (M.take_columns(cols), [[row[j] for j in cols] for row in A]),
        (M.flattened(), [[x for row in A for x in row]]),
        (M.reshape(n, m), [[x for row in A for x in row][i * m : (i + 1) * m] for i in range(n)]),
    ):
        assert normalised(got)
        assert listed(got) == want
    assert M.reshape(n, m).reshape(m, n) == M
    with pytest.raises(ValueError):
        M.reshape(m + 1, n + 1)


@KERNEL
@given(shaped(values=WIDE), st.integers(1, HUGE), st.integers(1, HUGE))
def test_one_value_has_one_representation(a, d, e):
    A, m, n = a
    M = mat(A, n)
    assert normalised(M)
    den = lcm(1, *(x.denominator for row in A for x in row))
    ints = [{j: int(den * x) for j, x in enumerate(row)} for row in A]
    # the same values over den, and over -e * den with every numerator
    # carrying the factor -e
    built = (
        ExactMatrix.from_ints(ints, n, den),
        ExactMatrix.from_ints([{j: -e * x for j, x in row.items()} for row in ints], n, -e * den),
        M.scale(Fraction(1, d)).scale(d),
        pickle.loads(pickle.dumps(M)),
    )
    for N in built:
        assert normalised(N)
        assert same_value(N, M)
        assert (N.num, N.den) == (M.num, M.den)
    assert M.is_integral == (M.den == 1)


@st.composite
def canonical_or_near(draw):
    """(A, n): the values of rows in canonical form or a near miss of it.

    The k x n int rows are in Hermite form (positive pivots in increasing
    columns, every entry above a pivot in [0, pivot)), or, when drawn
    reduced, in RREF (pivots 1, zeros above them).  The other entries are
    ints, or fractions, up to 2^70, and zero rows may follow.  One change
    may then break the form: two rows swapped, a negative pivot, an entry
    above a pivot equal to the pivot, a pivot of 2, an interior zero row,
    or every row shuffled with zero rows between them.
    Last, every row is divided by d, 1, 2, 3 or 2^70.
    """
    n = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    reduced = draw(st.booleans())
    head = {p: 1 if reduced else draw(st.one_of(st.integers(1, 4), st.integers(1, HUGE))) for p in pivots}
    other = draw(st.sampled_from((WIDE_INTEGERS, WIDE)))
    rows = []
    for p in pivots:
        row = [ZERO] * n
        row[p] = Fraction(head[p])
        for j in range(p + 1, n):
            row[j] = Fraction(draw(st.integers(0, head[j] - 1))) if j in head else draw(other)
        rows.append(row)
    k = len(rows)
    near = draw(
        st.sampled_from((None, "negate", "two", "zero", "shuffle") + (("swap", "above") if k > 1 else ()))
    )
    i = draw(st.integers(1 if near in ("swap", "above") else 0, k - 1))
    r = draw(st.integers(0, i - 1)) if i else 0
    if near == "shuffle":
        rows = draw(st.permutations(rows))
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), [ZERO] * n)
    elif near == "swap":
        rows[r], rows[i] = rows[i], rows[r]
    elif near == "negate":
        rows[i] = [-x for x in rows[i]]
    elif near == "two":
        rows[i] = [2 * x for x in rows[i]]
    elif near == "above":
        rows[r][pivots[i]] = rows[i][pivots[i]]
    elif near == "zero":
        rows.insert(i, [ZERO] * n)
    rows += [[ZERO] * n] * draw(st.integers(0, 2))
    d = draw(st.sampled_from((1, 2, 3, HUGE)))
    return [[x / d for x in row] for row in rows], n


@KERNEL
@given(canonical_or_near())
@example(([[Fraction(1), ZERO], [ZERO, Fraction(1)]], 2))
@example(([[Fraction(1, 2), ZERO], [ZERO, Fraction(1, 3)]], 2))
@example(([[Fraction(1, 2), ZERO, Fraction(3, 2)], [ZERO, Fraction(1, 2), ZERO]], 3))
@example(([[Fraction(1), ZERO, Fraction(1, 3)], [ZERO, Fraction(1), Fraction(-2, 5)], [ZERO] * 3], 3))
@example(([[ZERO] * 3, [ZERO, Fraction(1), Fraction(-2, 5)], [ZERO] * 3, [Fraction(1), ZERO, Fraction(1, 3)]], 3))
def test_canonical_inputs_and_near_misses_match_the_elimination_paths(a):
    A, n = a
    M = mat(A, n)
    R, pivots = rref(M)
    assert (listed(R), list(pivots)) == ref_rref(A, n)
    assert rank(M) == len(pivots)
    assert Submodule.of_rows(M, "Z") == ref_of_rows_z(M)
    if M.rows == n:
        want = ref_invert(A)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                invert(M)
        else:
            assert listed(invert(M)) == want
    S = Submodule(n, M, "Z")
    if len(pivots) == M.rows:
        assert S.saturate() == ref_saturate(S)
    else:
        for saturate in (Submodule.saturate, ref_saturate):
            with pytest.raises(ValueError, match="independent"):
                saturate(S)


@KERNEL
@given(
    shaped(values=WIDE),
    st.booleans(),
    st.sampled_from((None, "swap", "negate", "two", "zero", "off", "den")),
)
def test_products_with_an_identity_or_a_near_miss_match_reference(a, left, near):
    A, m, n = a
    size = m if left else n
    I = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    if size > 1 and near == "swap":
        I[0], I[1] = I[1], I[0]
    elif size > 1 and near == "off":
        I[0][1] = Fraction(1)
    elif size and near in ("negate", "two", "zero", "den"):
        I[0][0] = {"negate": Fraction(-1), "two": Fraction(2), "zero": ZERO, "den": Fraction(1, 2)}[near]
    if left:
        assert listed(mat(I, size) * mat(A, n)) == ref_mul(I, A, m, n)
    else:
        assert listed(mat(A, n) * mat(I, size)) == ref_mul(A, I, n, n)
    want = ref_invert(I)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            invert(mat(I, size))
    else:
        assert listed(invert(mat(I, size))) == want
