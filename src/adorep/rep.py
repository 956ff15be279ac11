"""Finite matrix representations of Lie lattices."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Iterable

from .exact_linalg import ExactMatrix, Row, block_diag

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

    def check_shapes(self) -> None:
        """Raise a ValueError unless there is one matrix per basis vector
        and every matrix is n x n for the one degree n; it names the first
        offending index."""
        if len(self.matrices) != self.lattice.rank:
            raise ValueError("representation size does not match the lattice rank")
        n = self.degree
        for idx, M in enumerate(self.matrices):
            if M.rows != n or M.cols != n:
                raise ValueError(f"matrix {idx} is {M.rows}x{M.cols}, not {n}x{n}")

    def homomorphism_violations(
        self, pairs: Iterable[tuple[int, int]] | None = None
    ) -> list[tuple[int, int]]:
        """Basis pairs i < j where M([x_i, x_j]) != [M_i, M_j], in order;
        with `pairs`, only those pairs i < j are checked, in their order.

        Write M_k = A_k / d_k with A_k its int numerators, [x_i, x_j] =
        sum_k (t_k / den) x_k over the table, and D for the lcm of the d_k
        of those k (1 if there are none).  Each pair sums the int table
            den D (A_i A_j - A_j A_i) - d_i d_j sum_k t_k (D / d_k) A_k,
        which is s ([M_i, M_j] - M([x_i, x_j])) for s = den d_i d_j D.
        s is a product of positive integers, so it is nonzero, and a
        rational matrix times a nonzero integer is zero exactly when the
        matrix is: a pair is reported exactly when its two sides differ.
        `check_shapes` runs before any product; the nonzero rows of every
        A_k are collected once per call, and each pair reads only those.
        """
        self.check_shapes()
        L = self.lattice
        if pairs is None:
            pairs = ((i, j) for i in range(L.rank) for j in range(i + 1, L.rank))
        r, n, T, den = L.rank, self.degree, L.table.num, L.table.den
        nonzero = [{q: row for q, row in enumerate(M.num) if row} for M in self.matrices]
        dens = [M.den for M in self.matrices]
        bad = []
        for i, j in pairs:
            terms = T[i * r + j]
            D = lcm(*(dens[k] for k in terms))
            g = dens[i] * dens[j]
            combo = [(nonzero[k], g * t * (D // dens[k])) for k, t in terms.items()]
            if _commutator_differs(nonzero[i], nonzero[j], den * D, combo, n):
                bad.append((i, j))
        return bad


def _commutator_differs(
    A: dict[int, Row], B: dict[int, Row], f: int, combo: list[tuple[dict[int, Row], int]], n: int
) -> bool:
    """Whether f (A B - B A) - sum_k g_k C_k has a nonzero entry, for the
    n x n int numerator matrices A, B and the (C_k, g_k) of combo, each
    given as its nonzero rows {q: row}.  All terms are summed into one dict
    keyed q n + c for entry (q, c), visiting nonzero rows only: a zero row
    of A (or B) adds nothing to A B (or B A), and row k of B (or A) is read
    only for a nonzero entry in column k."""
    acc: dict[int, int] = {}
    for X, Y, s in ((A, B, f), (B, A, -f)):
        for q, row in X.items():
            base = q * n
            for k, x in row.items():
                if k in Y:
                    sx = s * x
                    for c, y in Y[k].items():
                        key = base + c
                        acc[key] = acc[key] + sx * y if key in acc else sx * y
    for C, g in combo:
        for q, row in C.items():
            base = q * n
            for c, x in row.items():
                key = base + c
                acc[key] = acc[key] - g * x if key in acc else -g * x
    return any(acc.values())


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
