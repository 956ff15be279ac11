import random
from fractions import Fraction

import pytest

from adorep import catalog
from adorep.embed import embed_splittable
from adorep.exact_linalg import ExactMatrix, rank, vector
from adorep.lie_core import (
    LatticeValidationError,
    NotNilpotentError,
    lie_lattice,
    semidirect_assemble,
    split_semidirect,
    unit,
)
from adorep.nilrep import burde_bound, monomial_count, nilpotent_faithful_rep
from adorep.pbw import TruncatedUEA, build_weighted_basis
from adorep.zassenhaus import splittable_rep

from oracles import (
    ad,
    column,
    derivation_basis,
    nilpotent_entries,
    ref_splittable_rep,
    tensor_lattice,
    theorem_inputs,
)


def assembled_rep(N, S, action):
    """`splittable_rep` on the semidirect sum N x| S, built from its parts."""
    return splittable_rep(semidirect_assemble(N, S, action), N.rank)


def test_solvable_example_degree3():
    # N = <b, x'> abelian, S = <z'> acting by b -> b, x' -> 0
    N = catalog.abelian(2)
    S = lie_lattice(["z'"], {})
    action = [ExactMatrix.from_rows([[1, 0], [0, 0]])]
    rep = assembled_rep(N, S, action)
    assert rep.degree == 3
    assert rep.lattice.rank == 3
    assert not rep.homomorphism_violations()
    # Phi(b), Phi(x') are left multiplications: 1 -> generator
    T = TruncatedUEA(build_weighted_basis(N), 1)
    one = T.index[(0, 0)]
    assert column(rep.matrices[0], one) == unit(T.dimension, T.index[(1, 0)])
    assert column(rep.matrices[1], one) == unit(T.dimension, T.index[(0, 1)])
    # Phi(z') is the lifted derivation: fixes the b column, kills 1 and x'
    Dz = rep.matrices[2]
    assert column(Dz, one) == vector([0, 0, 0])
    b_col = T.index[(1, 0)]
    assert column(Dz, b_col) == unit(T.dimension, T.index[(1, 0)])


def test_trivial_complement_is_regular_rep():
    N = catalog.get("heisenberg3").lattice
    S = lie_lattice([], {})
    rep = assembled_rep(N, S, [])
    base = nilpotent_faithful_rep(N)
    assert rep.degree == base.degree
    assert rep.matrices == base.matrices


def test_inner_action_commutator_identity():
    # S rank 1 acting on N by an inner derivation ad_n
    N = catalog.get("heisenberg3").lattice
    S = lie_lattice(["s"], {})
    rng = random.Random(11)
    for _ in range(10):
        v = vector([rng.randint(-3, 3) for _ in range(3)])
        D = ad(N, v)
        rep = assembled_rep(N, S, [D])
        T = TruncatedUEA(build_weighted_basis(N), 2)
        Dstar = T.derivation_star(D)
        for i in range(3):
            ln = T.left_mult_matrix(unit(3, i))
            l_Dn = T.left_mult_matrix(tuple(D.entries[k][i] for k in range(3)))
            assert Dstar * ln - ln * Dstar == l_Dn


def test_commutator_identity_for_solved_derivations():

    rng = random.Random(23)
    for entry in nilpotent_entries():
        N = entry.lattice
        basis = derivation_basis(N)
        T = TruncatedUEA(build_weighted_basis(N), build_weighted_basis(N).nil_class)
        for _ in range(5):
            D = ExactMatrix.zero(N.rank, N.rank)
            for B in basis:
                D = D + B.scale(rng.randint(-2, 2))
            Dstar = T.derivation_star(D)
            for i in range(N.rank):
                ln = T.left_mult_matrix(unit(N.rank, i))
                l_Dn = T.left_mult_matrix(tuple(D.entries[k][i] for k in range(N.rank)))
                assert Dstar * ln - ln * Dstar == l_Dn


def test_restriction_to_n_is_exactly_regular():
    N = catalog.get("heisenberg5").lattice
    S = lie_lattice(["s"], {})
    D = ad(N, vector([1, 2, 0, -1, 3]))
    rep = assembled_rep(N, S, [D])
    base = nilpotent_faithful_rep(N)
    assert rep.matrices[: N.rank] == base.matrices


def test_kernel_meets_n_trivially_and_degree_bound():
    for entry in nilpotent_entries():
        N = entry.lattice
        if N.rank > 6:
            continue
        S = lie_lattice(["s"], {})
        D = ad(N, unit(N.rank, 0))
        rep = assembled_rep(N, S, [D])
        n_block = rep.matrices[: N.rank]
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in M.entries for x in row) for M in n_block],
            cols=rep.degree**2,
        )
        assert rank(stacked) == N.rank
        assert rep.degree == monomial_count(N)
        assert Fraction(rep.degree) <= burde_bound(N.rank)


def test_matches_the_builder_from_the_parts():
    """On every certificate the theorem path builds, the representation of
    the extension equals `ref_splittable_rep` of its split, whose lattice,
    re-assembled from the parts, is the extension itself."""
    for name, L in theorem_inputs():
        cert = embed_splittable(L)
        ext, m = cert.extension, cert.nilpotent_rank
        ref = ref_splittable_rep(*split_semidirect(ext, m))
        rep = splittable_rep(ext, m)
        assert ref.lattice == ext, name
        assert rep.lattice is ext and rep.matrices == ref.matrices, name


def test_rejects_invalid_lattice():
    # [x, y] = z and [y, x] = z: not antisymmetric
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = c[1][0][2] = 1
    with pytest.raises(LatticeValidationError):
        splittable_rep(tensor_lattice(["x", "y", "z"], c), 2)


def test_rejects_first_block_that_is_not_an_ideal():
    # in heisenberg3 <x> is not an ideal: [x, y] = z leaves it
    with pytest.raises(ValueError, match="leaves the claimed ideal block"):
        splittable_rep(catalog.get("heisenberg3").lattice, 1)


def test_rejects_first_block_that_is_not_nilpotent():
    # sl2 is an ideal of itself, with a zero complement, but not nilpotent
    with pytest.raises(NotNilpotentError):
        splittable_rep(catalog.sl2(), 3)


@pytest.mark.parametrize("n_rank", [-1, 4])
def test_rejects_n_rank_out_of_range(n_rank):
    with pytest.raises(ValueError, match="outside 0..3"):
        splittable_rep(catalog.get("heisenberg3").lattice, n_rank)
