"""Weighted truncations of universal enveloping algebras of nilpotent lattices.

The monomial basis is indexed by exponent vectors over an adapted basis
(deepest lower-central terms first).  Everything rests on one memoised
letter action x_i * x^alpha, straightened by the rewriting rule
x_j x_i = x_i x_j - [x_i, x_j] with eager truncation of monomials whose
weight exceeds the cutoff: left multiplications are sums of letter actions,
and lifted derivations are built column by column from them by Leibniz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_linalg import (
    ExactMatrix,
    Submodule,
    Vec,
    extend_basis,
    invert,
    stack_rows,
)
from .lie_core import (
    LieLattice,
    LeibnizError,
    NotNilpotentError,
    check_derivation,
    lower_central_series,
    subalgebra_lattice,
)

ZERO = Fraction(0)

Monomial = tuple[int, ...]
Element = dict[Monomial, Fraction]


@dataclass(frozen=True)
class WeightedPBWBasis:
    """Adapted ordered basis of a nilpotent lattice with lower-central weights."""

    lattice: LieLattice
    change_of_basis: ExactMatrix  # rows = adapted basis vectors in lattice coords
    inverse: ExactMatrix  # original basis vectors in adapted coords (rows)
    weights: tuple[int, ...]
    nil_class: int
    adapted: LieLattice  # structure constants in the adapted basis

    @property
    def rank(self) -> int:
        return self.lattice.rank


def build_weighted_basis(L: LieLattice) -> WeightedPBWBasis:
    """Adapted basis and weight function from the isolated lower central series.

    The first adapted vectors span the deepest nonzero term; each block
    extends the previous one, so the change of basis is unimodular over Z.
    """
    chain = lower_central_series(L)
    if not chain[-1].is_zero():
        raise NotNilpotentError("weighted PBW basis requires a nilpotent lattice")
    c = len(chain) - 1
    P = ExactMatrix.zero(0, L.rank)
    weights: list[int] = []
    for depth in range(c, 0, -1):
        new_rows = extend_basis(Submodule.of_rows(P, L.domain), chain[depth - 1])
        P = stack_rows([P, new_rows])
        weights.extend([depth] * new_rows.rows)
    if L.rank:
        Pinv = invert(P)
        if L.domain == "Z" and not (P.is_integral and Pinv.is_integral):
            raise RuntimeError("adapted change of basis is not unimodular")
    else:
        Pinv = ExactMatrix.zero(0, 0)
    adapted, _ = subalgebra_lattice(L, Submodule(L.rank, P, L.domain))
    return WeightedPBWBasis(L, P, Pinv, tuple(weights), c, adapted)


class TruncatedUEA:
    """Enveloping algebra of a nilpotent lattice modulo weight > cutoff.

    Monomials are enumerated in graded-lexicographic order.  Instances are
    immutable apart from an internal memo table whose entries are idempotent,
    so concurrent calls are safe and agree.
    """

    def __init__(self, basis: WeightedPBWBasis, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.basis = basis
        self.cutoff = cutoff
        self.monomials: tuple[Monomial, ...] = tuple(
            sorted(
                _enumerate_monomials(basis.weights, cutoff),
                key=lambda a: (self.monomial_weight(a), a),
            )
        )
        self.index: dict[Monomial, int] = {a: i for i, a in enumerate(self.monomials)}
        self._memo: dict[tuple[int, Monomial], Element] = {}
        self._integral = basis.lattice.domain == "Z"

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    @property
    def rank(self) -> int:
        return self.basis.rank

    def monomial_weight(self, alpha: Monomial) -> int:
        return sum(a * w for a, w in zip(alpha, self.basis.weights))

    # -- letter-by-letter multiplication ---------------------------------

    def _letter(self, i: int, alpha: Monomial) -> Element:
        """Normal form of x_i * x^alpha (adapted letters), truncated."""
        if self.basis.weights[i] + self.monomial_weight(alpha) > self.cutoff:
            return {}
        key = (i, alpha)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        j = next((t for t in range(len(alpha)) if alpha[t]), None)
        if j is None or i <= j:
            out = {_inc(alpha, i): Fraction(1)}
        else:
            rest = _dec(alpha, j)
            out = {}
            for beta, cf in self._letter(i, rest).items():
                for gamma, cf2 in self._letter(j, beta).items():
                    _acc(out, gamma, cf * cf2)
            den, T = self.basis.adapted.table
            for k, n in T[i][j]:
                ck = Fraction(n, den)
                for beta, cf in self._letter(k, rest).items():
                    _acc(out, beta, ck * cf)
        out = {a: cf for a, cf in out.items() if cf}
        if self._integral and any(cf.denominator != 1 for cf in out.values()):
            raise RuntimeError("straightening produced a non-integral coefficient over Z")
        self._memo[key] = out
        return out

    def _apply_letter(self, i: int, elem: Element) -> Element:
        out: Element = {}
        for alpha, cf in elem.items():
            for beta, cf2 in self._letter(i, alpha).items():
                _acc(out, beta, cf * cf2)
        return {a: cf for a, cf in out.items() if cf}

    def left_mult_matrix(self, v: Vec) -> ExactMatrix:
        """Matrix of left multiplication by a lattice vector on the monomials."""
        coords = (ExactMatrix.from_rows([v], cols=self.rank) * self.basis.inverse).row(0)
        letters = [(k, cf) for k, cf in enumerate(coords) if cf]
        cols = []
        for beta in self.monomials:
            col: Element = {}
            for k, cf in letters:
                for gamma, cf2 in self._letter(k, beta).items():
                    _acc(col, gamma, cf * cf2)
            cols.append(col)
        return self._matrix_of_columns(cols)

    def derivation_star(self, D: ExactMatrix) -> ExactMatrix:
        """Matrix of the lifted derivation D* on the monomial basis.

        D is given on the original lattice basis and must satisfy the
        Leibniz identity there; D*(1) = 0 and the lift preserves the weight
        filtration, so the truncation is well defined.  With l the first
        letter of x^beta = x_l x^rest, Leibniz gives
        D*(x^beta) = D(x_l) x^rest + x_l D*(x^rest), and x^rest has lower
        weight, so its column comes earlier in the graded order.
        """
        L = self.basis.lattice
        if not check_derivation(L, D):
            raise LeibnizError("derivation_star requires a Leibniz-compatible matrix")
        if self.rank == 0:
            return ExactMatrix.zero(self.dimension, self.dimension)
        # Dad_cols[t]: the image of adapted letter t under D, in adapted
        # coordinates; row t of P D^T P^-1 is that image
        Dad = self.basis.change_of_basis * D.transpose() * self.basis.inverse
        Dad_cols = [{k: Fraction(x, Dad.den) for k, x in row.items()} for row in Dad.num]
        star: dict[Monomial, Element] = {self.monomials[0]: {}}  # D*(1) = 0
        for beta in self.monomials[1:]:
            l = next(t for t, e in enumerate(beta) if e)
            rest = _dec(beta, l)
            col = self._apply_letter(l, star[rest])
            for k, ck in Dad_cols[l].items():
                for gamma, cf in self._letter(k, rest).items():
                    _acc(col, gamma, ck * cf)
            star[beta] = col
        return self._matrix_of_columns([star[beta] for beta in self.monomials])

    def _matrix_of_columns(self, cols: Sequence[Element]) -> ExactMatrix:
        """Matrix whose column j holds the element cols[j] on the monomials."""
        index = self.index
        by_column = ExactMatrix(
            ({index[alpha]: cf for alpha, cf in col.items()} for col in cols), self.dimension
        )
        return by_column.transpose()


def _enumerate_monomials(weights: Sequence[int], cutoff: int) -> Iterable[Monomial]:
    r = len(weights)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == r:
            yield prefix
            return
        w = weights[i]
        e = 0
        while e * w <= remaining:
            yield from rec(i + 1, remaining - e * w, prefix + (e,))
            e += 1

    yield from rec(0, cutoff, ())


def _inc(alpha: Monomial, i: int) -> Monomial:
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]


def _dec(alpha: Monomial, i: int) -> Monomial:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


def _acc(d: Element, key: Monomial, value: Fraction) -> None:
    d[key] = d.get(key, ZERO) + value

