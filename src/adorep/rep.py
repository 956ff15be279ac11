"""Finite matrix representations of Lie lattices."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING

from .exact_linalg import ExactMatrix, Vec, block_diag

if TYPE_CHECKING:  # pragma: no cover
    from .lie_core import LieLattice


@dataclass(frozen=True)
class LinearRep:
    """One n x n matrix per basis vector of the lattice, acting on columns."""

    lattice: "LieLattice"
    matrices: tuple[ExactMatrix, ...]
    provenance: str

    @property
    def degree(self) -> int:
        if self.matrices:
            return self.matrices[0].rows
        return 0

    def matrix_of(self, v: Vec) -> ExactMatrix:
        """Image of an arbitrary lattice vector, by linearity, summed in int
        numerators over the lcm of the denominators of the terms."""
        terms = [(c, M) for c, M in zip(v, self.matrices, strict=True) if c]
        den = lcm(*(c.denominator * M.den for c, M in terms))
        rows: list[dict[int, int]] = [{} for _ in range(self.degree)]
        for c, M in terms:
            f = c.numerator * (den // (c.denominator * M.den))
            for acc, row in zip(rows, M.num):
                for j, x in row.items():
                    acc[j] = acc[j] + f * x if j in acc else f * x
        return ExactMatrix.from_ints(rows, self.degree, den)

    @property
    def is_integral(self) -> bool:
        return all(M.is_integral for M in self.matrices)

    def homomorphism_violations(self) -> list[tuple[int, int]]:
        """Basis pairs where M([x_i,x_j]) != [M_i, M_j]."""
        L = self.lattice
        bad = []
        for i in range(L.rank):
            for j in range(i + 1, L.rank):
                lhs = self.matrix_of(L.c[i][j])
                rhs = self.matrices[i] * self.matrices[j] - self.matrices[j] * self.matrices[i]
                if lhs != rhs:
                    bad.append((i, j))
        return bad


def restrict_rep(
    rep: LinearRep, injection: ExactMatrix, lattice: "LieLattice", provenance: str = "restriction"
) -> LinearRep:
    """Pull a representation back along an embedding.

    `injection` rows are the images of the sublattice's basis vectors in the
    coordinates of rep.lattice.
    """
    mats = tuple(rep.matrix_of(row) for row in injection.entries)
    return LinearRep(lattice=lattice, matrices=mats, provenance=provenance)


def direct_sum_rep(a: LinearRep, b: LinearRep, provenance: str = "direct-sum") -> LinearRep:
    """Blockwise direct sum of two representations of the same lattice."""
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise ValueError("direct sum requires representations of the same lattice")
    mats = tuple(block_diag(x, y) for x, y in zip(a.matrices, b.matrices, strict=True))
    return LinearRep(lattice=a.lattice, matrices=mats, provenance=provenance)
