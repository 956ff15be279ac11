"""Weighted truncations of universal enveloping algebras of nilpotent lattices.

The monomial basis is indexed by exponent vectors over an adapted basis
(deepest lower-central terms first); products are straightened by the
rewriting rule x_j x_i = x_i x_j - [x_i, x_j] with eager truncation of
monomials whose weight exceeds the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_linalg import (
    ExactMatrix,
    Submodule,
    Vec,
    hnf,
    invert,
    vec_mat,
)
from .lie_core import (
    LieLattice,
    LeibnizError,
    NotNilpotentError,
    check_derivation,
    lower_central_series,
    subalgebra_lattice,
    unit,
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
    from .exact_linalg import extend_basis

    chain = lower_central_series(L)
    if not chain[-1].is_zero():
        raise NotNilpotentError("weighted PBW basis requires a nilpotent lattice")
    c = len(chain) - 1
    rows: list[Vec] = []
    weights: list[int] = []
    for depth in range(c, 0, -1):
        outer = chain[depth - 1]
        inner = Submodule.span(rows, L.rank, L.domain)
        new_rows = extend_basis(inner, outer)
        rows.extend(new_rows.entries)
        weights.extend([depth] * new_rows.rows)
    P = ExactMatrix.from_rows(rows, cols=L.rank)
    if L.rank:
        Pinv = invert(P)
        if L.domain == "Z":
            H, _ = hnf(P)
            if H != ExactMatrix.identity(L.rank):
                raise RuntimeError("adapted change of basis is not unimodular")
    else:
        Pinv = ExactMatrix.zero(0, 0)
    adapted, _ = subalgebra_lattice(
        L, Submodule(L.rank, P, L.domain), prefix="a"
    )
    return WeightedPBWBasis(L, P, Pinv, tuple(weights), c, adapted)


class TruncatedUEA:
    """Enveloping algebra of a nilpotent lattice modulo weight > cutoff.

    Monomials are enumerated in graded-lexicographic order.  Instances are
    immutable apart from an internal memo table whose entries are idempotent,
    so concurrent straightening calls are safe and agree.
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

    def identity_element(self) -> Element:
        return {(0,) * self.rank: Fraction(1)}

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
            for k, ck in enumerate(self.basis.adapted.c[i][j]):
                if ck:
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

    def monomial_times(self, alpha: Monomial, elem: Element) -> Element:
        """x^alpha * elem, applying the letters of alpha right to left."""
        letters: list[int] = []
        for i, e in enumerate(alpha):
            letters.extend([i] * e)
        cur = elem
        for i in reversed(letters):
            cur = self._apply_letter(i, cur)
        return cur

    def multiply(self, u: Element, v: Element) -> Element:
        out: Element = {}
        for alpha, cf in u.items():
            for beta, cf2 in self.monomial_times(alpha, v).items():
                _acc(out, beta, cf * cf2)
        return {a: c for a, c in out.items() if c}

    # -- public operations ------------------------------------------------

    def lattice_element(self, v: Vec) -> Element:
        """Degree-one element for a vector in original lattice coordinates."""
        coords = vec_mat(v, self.basis.inverse) if self.rank else ()
        out: Element = {}
        for k, cf in enumerate(coords):
            if cf and self.basis.weights[k] <= self.cutoff:
                out[_inc((0,) * self.rank, k)] = cf
        return out

    def straighten_adapted(self, word: Sequence[int]) -> Vec:
        """Normal form of a product of adapted basis letters."""
        cur = self.identity_element()
        for i in reversed(list(word)):
            cur = self._apply_letter(i, cur)
        return self.to_vector(cur)

    def straighten(self, word: Sequence[int]) -> Vec:
        """Normal form of a product of original basis vectors."""
        cur = self.identity_element()
        for i in reversed(list(word)):
            cur = self.multiply(self.lattice_element(unit(self.rank, i)), cur)
        return self.to_vector(cur)

    def to_vector(self, elem: Element) -> Vec:
        out = [ZERO] * self.dimension
        for alpha, cf in elem.items():
            out[self.index[alpha]] = cf
        return tuple(out)

    def from_vector(self, coords: Vec) -> Element:
        return {
            self.monomials[i]: cf for i, cf in enumerate(coords) if cf
        }

    def weight_of(self, coords: Vec) -> int | float:
        """Minimum weight of the supported monomials; infinity for zero."""
        weights = [
            self.monomial_weight(self.monomials[i])
            for i, cf in enumerate(coords)
            if cf
        ]
        return min(weights) if weights else math.inf

    def left_mult_matrix(self, v: Vec) -> ExactMatrix:
        """Matrix of left multiplication by a lattice vector on the monomials."""
        elem = self.lattice_element(v)
        cols = []
        for beta in self.monomials:
            col: Element = {}
            for k, cf in self._as_letter_coeffs(elem):
                for gamma, cf2 in self._letter(k, beta).items():
                    _acc(col, gamma, cf * cf2)
            cols.append(col)
        return self._matrix_of_columns(cols)

    def derivation_star(self, D: ExactMatrix) -> ExactMatrix:
        """Matrix of the lifted derivation D* on the monomial basis.

        D is given on the original lattice basis and must satisfy the
        Leibniz identity there; D*(1) = 0 and the lift preserves the weight
        filtration, so the truncation is well defined.
        """
        L = self.basis.lattice
        if not check_derivation(L, D):
            raise LeibnizError("derivation_star requires a Leibniz-compatible matrix")
        if self.rank == 0:
            return ExactMatrix.zero(self.dimension, self.dimension)
        Pt = self.basis.change_of_basis.transpose()
        # Dad_cols[t]: the image of adapted letter t under D, in adapted coordinates
        Dad_cols = (invert(Pt) * D * Pt).transpose().sparse_rows
        cols = []
        for beta in self.monomials:
            letters: list[int] = []
            for i, e in enumerate(beta):
                letters.extend([i] * e)
            col: Element = {}
            for pos in range(len(letters)):
                for k, ck in Dad_cols[letters[pos]].items():
                    word = letters[:pos] + [k] + letters[pos + 1 :]
                    nf = self.identity_element()
                    for i in reversed(word):
                        nf = self._apply_letter(i, nf)
                    for gamma, cf in nf.items():
                        _acc(col, gamma, ck * cf)
            cols.append(col)
        return self._matrix_of_columns(cols)

    def _matrix_of_columns(self, cols: Sequence[Element]) -> ExactMatrix:
        """Matrix whose column j holds the element cols[j] on the monomials."""
        index = self.index
        by_column = ExactMatrix(
            ({index[alpha]: cf for alpha, cf in col.items()} for col in cols), self.dimension
        )
        return by_column.transpose()

    def _as_letter_coeffs(self, elem: Element) -> list[tuple[int, Fraction]]:
        out = []
        for alpha, cf in elem.items():
            nz = [i for i, e in enumerate(alpha) if e]
            if len(nz) != 1 or alpha[nz[0]] != 1:
                raise ValueError("expected a degree-one element")
            out.append((nz[0], cf))
        return out


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


def truncated_uea(L: LieLattice, cutoff: int) -> TruncatedUEA:
    return TruncatedUEA(build_weighted_basis(L), cutoff)
