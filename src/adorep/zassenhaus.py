"""Representation of a split extension N x| S on the truncated enveloping
algebra of N: vectors of N act by left multiplication, vectors of S by the
lift of their derivation on N.  The restriction to N is exactly the regular
truncated representation, so the whole thing is injective on N."""

from __future__ import annotations

from .lie_core import Known, LieLattice, split_semidirect, unit
from .pbw import TruncatedUEA, build_weighted_basis
from .rep import LinearRep


def splittable_rep(L: LieLattice, n_rank: int, known: Known | None = None) -> LinearRep:
    """Representation of the lattice L whose first n_rank basis vectors span
    a nilpotent ideal N and the others a subalgebra S; its degree is the
    monomial count of N at its nilpotency class.  L is validated by `known`
    (a fresh Known if none is given) and split once, and is the result's
    lattice: it is the semidirect sum of its split, as [n, n'] and [s, s']
    are the blocks of N and S, [s, n] is the action and [n, s] = -[s, n] by
    antisymmetry.
    """
    known = known or Known()
    known.require_valid(L)
    N, _, action = split_semidirect(L, n_rank)
    basis = build_weighted_basis(N, known)
    T = TruncatedUEA(basis, basis.nil_class)
    matrices = [T.left_mult_matrix(unit(N.rank, i)) for i in range(N.rank)]
    matrices += [T.derivation_star(D) for D in action]
    return LinearRep(lattice=L, matrices=tuple(matrices), provenance="zassenhaus")
