import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from adorep import catalog, exact_linalg
from adorep.exact_linalg import (
    ExactMatrix,
    NonIntegralMatrixError,
    Submodule,
    extend_basis,
    hnf,
    invert,
    kernel_basis,
    rank,
    rref,
    solve_left,
    stack_rows,
    vector,
)
from adorep.lie_core import direct_sum
from adorep.pipeline import ado_representation

from oracles import brute_force_hnf, power, ref_minors_gcd, span, theorem_inputs


def M(rows):
    return ExactMatrix.from_rows(rows)


def test_hnf_derived_example():
    # independent oracle: exhaustive search over bounded unimodular transforms
    H_expected = brute_force_hnf(((2, 4), (1, 3)))
    H, U = hnf(M([[2, 4], [1, 3]]))
    assert tuple(tuple(int(x) for x in row) for row in H.entries) == H_expected
    assert U * M([[2, 4], [1, 3]]) == H
    assert H == M([[1, 1], [0, 2]])


def test_hnf_identity_and_zero():
    H, U = hnf(ExactMatrix.identity(3))
    assert H == ExactMatrix.identity(3)
    assert U == ExactMatrix.identity(3)
    Z = ExactMatrix.zero(2, 2)
    H, U = hnf(Z)
    assert H == Z


def test_hnf_rejects_fractions():
    with pytest.raises(NonIntegralMatrixError):
        hnf(M([["1/2", 1]]))


def test_hnf_round_trip_random():
    rng = random.Random(20240331)
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = M([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
        H, U = hnf(A)
        assert U * A == H
        assert abs(_int_det(U)) == 1


def _int_det(A):
    n = A.rows
    if n == 0:
        return 1
    rows = [list(r) for r in A.entries]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def test_kernel_examples():
    assert kernel_basis(ExactMatrix.identity(2), "Q").rank == 0
    k = kernel_basis(M([[1, 1], [1, 1]]), "Q")
    assert k.basis == M([[1, -1]])
    assert kernel_basis(ExactMatrix.zero(3, 3), "Z").rank == 3


def test_kernel_rows_annihilate_exactly():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        for domain in ("Q", "Z"):
            ker = kernel_basis(A, domain)
            assert (ker.basis * A).is_zero()
            assert ker.rank == m - rank(A)


def test_saturate_examples():
    s = span([vector([2, 0])], 2, "Z")
    assert s.saturate().basis == M([[1, 0]])
    t = span([vector([1, 1])], 2, "Z")
    assert t.saturate() == t
    u = span([vector([2, 4]), vector([0, 6])], 2, "Z")
    assert u.saturate() == Submodule.full(2, "Z")


def test_saturate_of_a_fractional_basis_keeps_its_denominator():
    # the closure in (1/6) * Z^2 of Z(1/2, 0) + Z(0, 1/3); the saturated
    # input (1/6) * Z^2 comes back as it is
    S = Submodule.of_rows(M([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), "Z")
    sat = S.saturate()
    assert sat.basis == M([[Fraction(1, 6), 0], [0, Fraction(1, 6)]])
    assert sat.saturate() is sat


def test_saturate_idempotent_rank_preserving_random():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        gens = [vector([rng.randint(-8, 8) for _ in range(n)]) for _ in range(k)]
        s = span(gens, n, "Z")
        sat = s.saturate()
        assert sat.rank == s.rank
        assert sat.saturate() == sat
        assert sat.contains_rows(s.basis)
        assert sat.basis.is_integral
        assert ref_minors_gcd([list(r) for r in sat.basis.entries], n) == 1


def test_lcm_denominators():
    # the one denominator of a matrix is the lcm of its entries' denominators
    assert M([["1/2", "1/3"]]).den == 6
    assert M([[4, 7], [0, 1]]).den == 1
    assert M([["5/6"], ["1/4"]]).den == 12


def test_rref_and_solve():
    A = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots = rref(A)
    assert pivots == (0, 1)
    x = solve_left(M([[1, 0], [0, 2]]), vector([3, 4]))
    assert x == vector([3, 2])
    assert solve_left(M([[1, 0]]), vector([0, 1])) is None


def test_invert_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = M([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if rank(A) < n:
            continue
        assert A * invert(A) == ExactMatrix.identity(n)


def test_extend_basis_z():
    inner = span([vector([2, 3])], 2, "Z")
    outer = Submodule.full(2, "Z")
    extra = extend_basis(inner, outer)
    full = ExactMatrix.from_rows(list(inner.basis.entries) + list(extra.entries))
    assert abs(_int_det(full)) == 1


def test_extend_basis_requires_isolated():
    inner = span([vector([2, 0])], 2, "Z")
    with pytest.raises(ValueError):
        extend_basis(inner, Submodule.full(2, "Z"))


def test_hnf_is_canonical_under_unimodular_action():
    rng = random.Random(41)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        U = ExactMatrix.identity(m)
        for _ in range(3 * m):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            E = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
            E[i][j] = rng.randint(-3, 3)
            U = U * M(E)
        assert hnf(A)[0] == hnf(U * A)[0]


def test_span_is_canonical_under_generator_shuffles():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        gens = [vector([rng.randint(-6, 6) for _ in range(n)]) for _ in range(k)]
        s = span(gens, n, "Z")
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # adding a lattice combination of existing generators changes nothing
        coeffs = [rng.randint(-2, 2) for _ in gens]
        extra = vector(
            [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
        )
        shuffled.append(extra)
        assert span(shuffled, n, "Z") == s


def test_submodule_membership_and_ops():
    a = span([vector([2, 0]), vector([0, 3])], 2, "Z")
    assert a.contains_rows(ExactMatrix.from_rows([[2, 3]]))
    assert not a.contains_rows(ExactMatrix.from_rows([[1, 0]]))
    b = span([vector([1, 1])], 2, "Z")
    assert Submodule.of_rows(stack_rows([a.basis, b.basis]), "Z").rank == 2


def test_constructors_reject_columns_out_of_range():
    for rows in ([{5: 1}], [{2: 1}], [{-1: 1}], [{0: 1}, {1: 3, 2: 0}]):
        with pytest.raises(ValueError):
            ExactMatrix(rows, 2)
        with pytest.raises(ValueError):
            ExactMatrix.from_ints(rows, 2)
    # zero values are dropped, but their columns are checked too
    assert ExactMatrix([{0: 1, 1: 0}], 2) == M([[1, 0]])
    with pytest.raises(ZeroDivisionError):
        ExactMatrix.from_ints([{0: 1}], 1, 0)


def test_from_rows_checks_rows_against_cols():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    assert ExactMatrix.from_rows([[1, 2]], cols=2) == M([[1, 2]])
    assert ExactMatrix.from_rows([], cols=3) == ExactMatrix.zero(0, 3)


def test_int_constructor_normalises():
    A = ExactMatrix.from_ints([{0: 6, 1: -4}, {1: 2}], 2, -4)
    assert (A.num, A.den) == (({0: -3, 1: 2}, {1: -1}), 2)
    assert A == M([["-3/2", 1], [0, "-1/2"]])
    assert ExactMatrix.from_ints([{}, {}], 3, 7) == ExactMatrix.zero(2, 3)
    assert ExactMatrix.zero(2, 3).den == 1


def test_power():
    N = M([[0, 1], [0, 0]])
    assert power(N, 0) == ExactMatrix.identity(2)
    assert power(N, 1) == N
    assert power(N, 2).is_zero()
    assert power(M([[1, 1], [0, 1]]), 5) == M([[1, 5], [0, 1]])
    with pytest.raises(ValueError):
        power(N, -1)
    with pytest.raises(ValueError):
        power(M([[1, 2]]), 2)


def test_canonical_inputs_skip_elimination(eliminations):
    R = M([[1, 0, Fraction(2, 3)], [0, 1, 5], [0, 0, 0]])
    assert rref(R) == (R, (0, 1))
    H = M([[1, 0, 7], [0, 1, -3]])
    S = Submodule.of_rows(H, "Z")
    assert S.basis == H
    assert S.saturate() is S
    I, A = ExactMatrix.identity(3), M([[1, 2, 3], [4, 5, 6]])
    At = A.transpose()
    assert invert(I) is I
    assert A * I is A
    assert I * At is At
    # reduced rows out of pivot order, or with a zero row between them, are
    # sorted over the zero rows
    I2 = ExactMatrix.identity(2)
    assert rref(M([[0, 1], [1, 0]])) == (I2, (0, 1))
    assert rref(M([[0, 1], [0, 0], [1, 0]])) == (M([[1, 0], [0, 1], [0, 0]]), (0, 1))
    assert eliminations == {"Echelon": 0, "add": 0, "_hermite": 0}
    # a near miss of each form eliminates: a repeated first column, a pivot
    # entry of 2
    assert rref(M([[1, 1], [1, 0]])) == (I2, (0, 1))
    assert rref(M([[1, 0], [0, 2]])) == (I2, (0, 1))
    Submodule.of_rows(M([[0, 1], [2, 0]]), "Z").saturate()
    assert eliminations == {"Echelon": 2, "add": 4, "_hermite": 2}


def test_strict_ado_of_t2_cubed_eliminates_less(eliminations):
    """One strict ado of t2^3 runs 1 Hermite loop and 412 Echelon.add;
    eliminating every input, canonical or not, takes 13 and 908."""
    _, report, _ = ado_representation(reduce(direct_sum, [catalog.t2_upper()] * 3), strict=True)
    assert report.degree == 19
    assert (eliminations["_hermite"], eliminations["add"]) == (1, 412)


def test_strict_ado_builds_tagged_echelons_only_for_kernels(monkeypatch):
    """Over strict ado of the theorem inputs, every tagged echelon is a
    kernel's: coordinates in a Submodule are back-substituted."""
    calls = {"_tagged": 0, "kernel_basis": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(exact_linalg, "_tagged", counted("_tagged", exact_linalg._tagged))
    # every module that imported kernel_basis by name calls the counted one
    counted_kernel = counted("kernel_basis", kernel_basis)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("adorep") and getattr(module, "kernel_basis", None) is kernel_basis:
            monkeypatch.setattr(module, "kernel_basis", counted_kernel)
    for name, L in theorem_inputs():
        assert ado_representation(L, strict=True)[1].ok, name
    assert calls["kernel_basis"] > 0
    assert calls["_tagged"] == calls["kernel_basis"]
