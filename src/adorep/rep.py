"""Finite matrix representations of Lie lattices."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Iterable

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

    def matrices_of_rows(self, M: ExactMatrix) -> list[ExactMatrix]:
        """The image of each row of M, a lattice vector, by linearity."""
        if M.cols != len(self.matrices):
            raise ValueError("dimension mismatch")
        return [self._combination(row.items(), M.den) for row in M.num]

    def matrix_of(self, v: Vec) -> ExactMatrix:
        """`matrices_of_rows` of the one vector v."""
        return self.matrices_of_rows(ExactMatrix.from_rows([v], cols=len(self.matrices)))[0]

    def _combination(self, terms: Iterable[tuple[int, int]], den: int) -> ExactMatrix:
        """sum of (x / den) * matrices[i] over the (i, x) in terms, summed in
        int numerators over den times the lcm of the matrices' denominators."""
        terms = [(x, self.matrices[i]) for i, x in terms]
        total = den * lcm(*(M.den for _, M in terms))
        rows: list[dict[int, int]] = [{} for _ in range(self.degree)]
        for c, M in terms:
            f = c * (total // (den * M.den))
            for acc, row in zip(rows, M.num):
                for j, x in row.items():
                    acc[j] = acc[j] + f * x if j in acc else f * x
        return ExactMatrix.from_ints(rows, self.degree, total)

    @property
    def is_integral(self) -> bool:
        return all(M.is_integral for M in self.matrices)

    def homomorphism_violations(self) -> list[tuple[int, int]]:
        """Basis pairs where M([x_i,x_j]) != [M_i, M_j]."""
        L = self.lattice
        den, T = L.table
        bad = []
        for i in range(L.rank):
            for j in range(i + 1, L.rank):
                lhs = self._combination(T[i][j], den)
                rhs = self.matrices[i] * self.matrices[j] - self.matrices[j] * self.matrices[i]
                if lhs != rhs:
                    bad.append((i, j))
        return bad


def restrict_rep(rep: LinearRep, injection: ExactMatrix, lattice: "LieLattice") -> LinearRep:
    """Pull a representation back along an embedding.

    `injection` rows are the images of the sublattice's basis vectors in the
    coordinates of rep.lattice.
    """
    mats = tuple(rep.matrices_of_rows(injection))
    return LinearRep(lattice=lattice, matrices=mats, provenance="restriction")


def direct_sum_rep(a: LinearRep, b: LinearRep) -> LinearRep:
    """Blockwise direct sum of two representations of the same lattice."""
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise ValueError("direct sum requires representations of the same lattice")
    mats = tuple(block_diag(x, y) for x, y in zip(a.matrices, b.matrices, strict=True))
    return LinearRep(lattice=a.lattice, matrices=mats, provenance="direct-sum")
