import random
from fractions import Fraction

import pytest

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, Submodule, rank, vec_scale, vector
from adorep.lie_core import (
    LeibnizError,
    LieLattice,
    adjoint_rep,
    bracket_series,
    center,
    check_derivation,
    derivation_basis,
    derived_series,
    direct_sum,
    is_ideal,
    is_nilpotent,
    is_nilpotent_submodule,
    is_semisimple,
    is_solvable,
    killing_form,
    lie_lattice,
    lower_central_series,
    nilpotency_class,
    nilradical,
    quotient_lattice,
    semidirect_assemble,
    solvable_radical,
    split_semidirect,
    is_subalgebra,
    subalgebra_lattice,
    unit,
    validate,
)


def h3():
    return catalog.get("heisenberg3").lattice


def sl2():
    return catalog.get("sl2").lattice


def solv2():
    return catalog.get("solv2").lattice


def test_validate_heisenberg_and_abelian():
    assert validate(h3()).ok
    assert validate(catalog.abelian(4)).ok


def test_validate_reports_antisymmetry_violation():
    r = 2
    z = (Fraction(0),) * r
    one = (Fraction(1), Fraction(0))
    c = ((z, one), (one, z))  # c[0][1] = c[1][0] = e0: not antisymmetric
    bad = LieLattice(("a", "b"), c, "Z")
    report = validate(bad)
    assert not report.ok
    assert (0, 1, 0) in report.antisymmetry_violations


def test_validate_reports_jacobi_violation():
    # [a,b]=c, [a,c]=a breaks Jacobi on (a,b,c)
    bad = lie_lattice(["a", "b", "c"], {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    report = validate(bad)
    assert report.jacobi_violations


def test_bracket_examples():
    L = h3()
    assert L.bracket(unit(3, 0), unit(3, 1)) == vector([0, 0, 1])
    assert L.bracket(unit(3, 0), unit(3, 0)) == vector([0, 0, 0])
    assert L.bracket(unit(3, 0), unit(3, 2)) == vector([0, 0, 0])
    v = vector([2, 3, -1])
    assert L.bracket(v, v) == vector([0, 0, 0])


def test_lower_central_series():
    chain = lower_central_series(h3())
    assert [m.rank for m in chain] == [3, 1, 0]
    assert nilpotency_class(h3()) == 2
    assert [m.rank for m in lower_central_series(catalog.abelian(4))] == [4, 0]
    chain = lower_central_series(solv2())
    assert [m.rank for m in chain] == [2, 1]
    assert not is_nilpotent(solv2())


def test_derived_series():
    assert [m.rank for m in derived_series(solv2())] == [2, 1, 0]
    assert is_solvable(solv2())
    assert [m.rank for m in derived_series(sl2())] == [3]
    assert not is_solvable(sl2())
    assert [m.rank for m in derived_series(catalog.abelian(2))] == [2, 0]


def test_center():
    assert center(h3()).basis == ExactMatrix.from_rows([[0, 0, 1]])
    assert center(catalog.abelian(3)).rank == 3
    assert center(sl2()).rank == 0


def test_ideal_and_subalgebra_predicates():
    L = h3()
    x_only = Submodule.span([unit(3, 0)], 3, "Z")
    assert is_subalgebra(L, x_only)
    assert not is_ideal(L, x_only)  # [y, x] = -z leaves span(x)
    x_and_y = Submodule.span([unit(3, 0), unit(3, 1)], 3, "Z")
    assert not is_subalgebra(L, x_and_y)  # [x, y] = z leaves span(x, y)
    assert not is_ideal(L, x_and_y)
    # over Z, span(x/2, y/2, z/2) holds every [x_i, v] but not
    # [x/2, y/2] = z/4: a fractional basis still gets the closure test
    halves = Submodule.span([vec_scale(Fraction(1, 2), unit(3, i)) for i in range(3)], 3, "Z")
    assert all(
        halves.contains(L.bracket(unit(3, i), v)) for i in range(3) for v in halves.basis.entries
    )
    assert not is_subalgebra(L, halves)
    assert not is_ideal(L, halves)
    for entry in catalog.acceptance_entries():
        M = entry.lattice
        for S in (center(M), solvable_radical(M), nilradical(M)):
            assert is_ideal(M, S)


def test_is_nilpotent_submodule():
    L = solv2()
    assert not is_nilpotent_submodule(L, solvable_radical(L))
    assert is_nilpotent_submodule(L, nilradical(L))


def test_bracket_series_saturation():
    # [x, y] = 2z: the second lower-central term is 2z, saturated to z
    L = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, 2]})
    full = Submodule.full(3, "Z")
    saturated = bracket_series(L, full, full)
    unsaturated = bracket_series(L, full, full, saturate=False)
    assert [m.basis for m in saturated[1:]] == [
        ExactMatrix.from_rows([[0, 0, 1]]),
        ExactMatrix.zero(0, 3),
    ]
    assert [m.basis for m in unsaturated[1:]] == [
        ExactMatrix.from_rows([[0, 0, 2]]),
        ExactMatrix.zero(0, 3),
    ]
    assert saturated == lower_central_series(L)


def test_killing_form():
    K = killing_form(sl2())
    assert K.entries[1][1] == 8  # kappa(h, h)
    assert K.entries[0][2] == 4  # kappa(e, f)
    assert K.entries[0][0] == 0
    assert killing_form(catalog.abelian(2)).is_zero()
    assert killing_form(h3()).is_zero()


def test_solvable_radical():
    assert solvable_radical(sl2()).rank == 0
    assert solvable_radical(solv2()).rank == 2
    both = direct_sum(sl2(), h3())
    rs = solvable_radical(both)
    assert rs.rank == 3
    # the radical of the direct sum is the h3 block
    assert rs == Submodule.span(
        [unit(6, 3), unit(6, 4), unit(6, 5)], 6, "Z"
    )


def test_nilradical():
    assert nilradical(h3()).rank == 3
    assert nilradical(solv2()).basis == ExactMatrix.from_rows([[0, 1]])
    assert nilradical(sl2()).rank == 0
    t2 = catalog.t2_upper()
    rn = nilradical(t2)
    assert rn.rank == 2
    assert rn.contains(vector([1, 0, 1]))  # the identity matrix direction
    assert rn.contains(vector([0, 1, 0]))


def test_adjoint_rep():
    rep = adjoint_rep(h3())
    assert rep.is_homomorphism()
    # Ad(x) maps y to z and kills everything else
    Ax = rep.matrices[0]
    assert Ax.column(1) == vector([0, 0, 1])
    assert Ax.column(0) == vector([0, 0, 0])
    assert all(m.is_zero() for m in adjoint_rep(catalog.abelian(2)).matrices)
    assert rank(
        ExactMatrix.from_rows(
            [tuple(x for row in m.entries for x in row) for m in adjoint_rep(sl2()).matrices]
        )
    ) == 3


def test_adjoint_kernel_is_center():
    for entry in catalog.acceptance_entries():
        L = entry.lattice
        rep = adjoint_rep(L)
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in m.entries for x in row) for m in rep.matrices],
            cols=L.rank * L.rank,
        )
        from adorep.exact_linalg import kernel_basis

        assert kernel_basis(stacked, L.domain) == center(L)


def test_semidirect_assemble_examples():
    # rank-1 abelian acted on by identity gives [s, n] = n
    N = catalog.abelian(1)
    S = lie_lattice(["s"], {})
    L = semidirect_assemble(N, S, [ExactMatrix.identity(1)])
    assert L.bracket(unit(2, 1), unit(2, 0)) == vector([1, 0])
    assert validate(L).ok
    # zero action is the direct sum
    Lsum = semidirect_assemble(h3(), S, [ExactMatrix.zero(3, 3)])
    assert Lsum == direct_sum(h3(), S)
    # trivial complement
    L0 = semidirect_assemble(h3(), lie_lattice([], {}), [])
    assert L0.rank == 3
    assert [m.rank for m in lower_central_series(L0)] == [3, 1, 0]


def test_semidirect_rejects_non_derivation():
    N = h3()
    S = lie_lattice(["s"], {})
    bad = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])  # kills x,y, fixes z
    with pytest.raises(LeibnizError):
        semidirect_assemble(N, S, [bad])


def test_split_semidirect_round_trip():
    N = h3()
    S = lie_lattice(["s"], {})
    D = next(D for D in derivation_basis(N) if not D.is_zero())
    # integer-scaled derivation keeps everything over Z
    from adorep.exact_linalg import lcm_denominators

    D = D.scale(lcm_denominators(D))
    L = semidirect_assemble(N, S, [D])
    N2, S2, action = split_semidirect(L, 3)
    assert N2 == N
    assert S2.rank == 1
    assert action[0] == D


def test_derivation_basis_properties():
    for L in (h3(), sl2(), solv2()):
        basis = derivation_basis(L)
        for D in basis:
            assert check_derivation(L, D)
        # inner derivations belong to the space
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in D.entries for x in row) for D in basis],
            cols=L.rank * L.rank,
        )
        for i in range(L.rank):
            ad = L.ad(unit(L.rank, i))
            from adorep.exact_linalg import solve_left

            assert solve_left(stacked, tuple(x for row in ad.entries for x in row)) is not None


def test_radical_containments_across_catalog():
    for entry in catalog.acceptance_entries():
        L = entry.lattice
        assert validate(L).ok
        rs = solvable_radical(L)
        rn = nilradical(L)
        assert rs.contains_submodule(rn)
        assert is_ideal(L, rn) and is_ideal(L, rs)
        # [L, R_s] inside R_n
        for i in range(L.rank):
            for row in rs.basis.entries:
                assert rn.contains(L.bracket(unit(L.rank, i), row))
        # radicals and series terms are isolated sublattices of Z^n
        assert rs.is_saturated()
        assert rn.is_saturated()
        assert center(L).is_saturated()
        assert rs.basis.is_integral
        assert rn.basis.is_integral
        assert center(L).basis.is_integral
        for m in lower_central_series(L):
            assert m.is_saturated()
        # expected invariants from the catalog
        assert rs.rank == entry.expected["rs_rank"]
        assert rn.rank == entry.expected["rn_rank"]
        assert center(L).rank == entry.expected["center_rank"]
        if entry.expected["nilpotency_class"] is not None:
            assert nilpotency_class(L) == entry.expected["nilpotency_class"]
        else:
            assert not is_nilpotent(L)


def test_nilradical_on_random_solvable_lattices():
    rng = random.Random(5150)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        A = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        V = catalog.abelian(n)
        Y = lie_lattice(["y"], {})
        L = semidirect_assemble(V, Y, [A])
        rn = nilradical(L)
        assert rn.basis.is_integral
        assert rn.is_saturated()
        assert solvable_radical(L).contains_submodule(rn)
        for row in rn.basis.entries:
            assert L.ad(row).power(L.rank).is_zero()
        checked += 1
    assert checked == 60


def test_semisimple_detection():
    assert is_semisimple(sl2().to_field())
    assert not is_semisimple(h3().to_field())
    assert not is_semisimple(catalog.get("churkin_sl2_t2").lattice.to_field())


def test_change_basis():
    from adorep.lie_core import change_basis

    L = h3()
    P = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])  # unimodular
    M = change_basis(L, P)
    assert validate(M).ok
    assert nilradical(M).rank == 3
    from adorep.nilrep import monomial_count

    assert monomial_count(M) == 7
    with pytest.raises(ValueError):
        change_basis(L, ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_subalgebra_and_quotient():
    L = direct_sum(sl2(), solv2()).to_field()
    rs = solvable_radical(L)
    sub, basis = subalgebra_lattice(L, rs)
    assert sub.rank == 2
    assert is_solvable(sub)
    quot, section = quotient_lattice(L, rs)
    assert quot.rank == 3
    assert is_semisimple(quot)
