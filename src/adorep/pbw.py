"""Weighted truncations of universal enveloping algebras of nilpotent lattices.

The monomial basis is indexed by exponent vectors over an adapted basis
(deepest lower-central terms first).  Everything rests on one memoised
letter action x_i * x^alpha, straightened by the rewriting rule
x_j x_i = x_i x_j - [x_i, x_j] with eager truncation of monomials whose
weight exceeds the cutoff: left multiplications are sums of letter actions,
and lifted derivations are built column by column from them by Leibniz.
Coefficients are ints; a Fraction appears only where a lattice over Q has
a non-integral structure constant in the adapted basis.  The coordinates
of a vector and the entries of a derivation enter as int numerators over
one denominator, which becomes the denominator of the matrix, and the
matrices are assembled straight from int numerator rows.  The adapted basis
extends each lower central term to the next, with the terms themselves as
the inner modules; where every term is spanned by lattice basis vectors it
is a permutation of the lattice basis, read off the chain without
elimination.  Monomials are enumerated letter by letter, without
recursion.  The coordinates of a unit vector are a row of the
basis inverse; where that row is one letter with numerator 1, the matrix
columns are the letter's memo entries, shared and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .exact_linalg import (
    ExactMatrix,
    Row,
    Submodule,
    Vec,
    _EMPTY_ROW,
    extend_basis,
    invert,
    stack_rows,
)
from .lie_core import (
    Known,
    LieLattice,
    LeibnizError,
    NotNilpotentError,
    check_derivation,
    subalgebra_lattice,
)

Monomial = tuple[int, ...]
# an int, or a Fraction only where a Q-lattice has a non-integral constant
Coefficient = Union[int, Fraction]
Element = dict[Monomial, Coefficient]

# the letter action past the cutoff; shared and never stored in the memo,
# as no caller mutates what `_letter` returns
_TRUNCATED: Element = {}


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


def build_weighted_basis(L: LieLattice, known: Known | None = None) -> WeightedPBWBasis:
    """Adapted basis and weight function from the isolated lower central series.

    The first adapted vectors span the deepest nonzero term; each block
    extends the previous one.  The step at depth d extends the term
    chain[d] to chain[d - 1], and after it the rows of P are a basis
    (a Z-basis over Z) of chain[d - 1].  By induction on the steps: before
    the first, at depth c, P is empty and chain[c] is 0; a step takes rows
    that extend the basis of chain[d] to one of chain[d - 1], and P is a
    basis of the same module chain[d], so P and those rows are a basis of
    chain[d - 1] too.  So each step's inner module is the chain term
    itself, already canonical, and is never rebuilt from P.  Over Z the
    change of basis P is unimodular without a check: each block completes
    a Z-basis of one isolated term to one of the next (`extend_basis`
    over Z), so P ends as a Z-basis of the first term, Z^r.
    A graded chain, each term's basis made of unit rows (den 1, one entry
    1), is read off without elimination, to the same result: each block
    is the unit rows of chain[d - 1] missing from chain[d], in increasing
    column order.  There the coordinates C of chain[d] in chain[d - 1] are
    0/1 rows selecting columns in increasing order, so over Q the pivots
    of C are the selected columns and the rest are the block; over Z the
    Hermite loop on C^T only swaps rows, as each of its columns has one
    nonzero, a 1, so W is a permutation matrix, W[k:] are the unselected
    unit rows and the Hermite form of their span is those rows in
    increasing order.  P is then a permutation matrix, whose inverse is
    its transpose, and `subalgebra_lattice` reads the coordinates of
    [x_a, x_b] at the permuted columns; its mirrored rows are the table's
    own, re-indexed, as a validated L is antisymmetric.
    L must be a Lie lattice (validated); `subalgebra_lattice` reads the
    adapted constants without a check of its own.  The series `chain` is
    read from `known` (a fresh Known if none is given), which computes it
    unless the call already holds it.
    """
    chain = (known or Known()).series(L)
    if not chain[-1].is_zero():
        raise NotNilpotentError("weighted PBW basis requires a nilpotent lattice")
    c, r = len(chain) - 1, L.rank
    weights: list[int] = []
    graded = all(
        S.basis.den == 1 and all(list(row.values()) == [1] for row in S.basis.num) for S in chain
    )
    if graded:
        order: list[int] = []  # the column of each unit row of P
        for depth in range(c, 0, -1):
            below = {j for row in chain[depth].basis.num for j in row}
            block = [j for row in chain[depth - 1].basis.num for j in row if j not in below]
            order += block
            weights += [depth] * len(block)
        P = ExactMatrix._of(tuple({j: 1} for j in order), 1, r)
        position, T = {j: t for t, j in enumerate(order)}, L.table
        num = tuple(
            {position[k]: x for k, x in T.num[a * r + b].items()} for a in order for b in order
        )
        names = tuple(f"v{t}" for t in range(r))
        adapted = LieLattice(names, ExactMatrix._of(num, T.den, r), L.domain)
        return WeightedPBWBasis(L, P, P.transpose(), tuple(weights), c, adapted)
    P = ExactMatrix.zero(0, r)
    for depth in range(c, 0, -1):
        new_rows = extend_basis(chain[depth], chain[depth - 1])
        P = stack_rows([P, new_rows])
        weights.extend([depth] * new_rows.rows)
    adapted, _ = subalgebra_lattice(L, Submodule(r, P, L.domain))
    return WeightedPBWBasis(L, P, invert(P), tuple(weights), c, adapted)


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
        by_weight = sorted((w, alpha) for alpha, w in _enumerate_monomials(basis.weights, cutoff))
        self._weight = {alpha: w for w, alpha in by_weight}
        self.monomials: tuple[Monomial, ...] = tuple(alpha for _, alpha in by_weight)
        self.index: dict[Monomial, int] = {a: i for i, a in enumerate(self.monomials)}
        self._memo: dict[tuple[int, Monomial], Element] = {}
        # _consts[i][j], j < i (the only pairs `_letter` reads): the adapted
        # [x_i, x_j] as (k, constant) pairs, each constant an int unless it
        # really is non-integral
        T, r = basis.adapted.table, basis.rank
        self._consts = [
            [[(k, _constant(n, T.den)) for k, n in T.num[i * r + j].items()] for j in range(i)]
            for i in range(r)
        ]
        # with den == 1 every coefficient is a sum of products of ints, so
        # no Fraction arises and the integrality check can only fail over Z
        # with den != 1
        self._integral = T.den == 1
        self._check_integral = basis.lattice.domain == "Z" and not self._integral

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
        """Normal form of x_i * x^alpha (adapted letters), truncated; alpha
        is one of the monomials."""
        key = (i, alpha)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.basis.weights[i] + self._weight[alpha] > self.cutoff:
            return _TRUNCATED
        j = next((t for t in range(len(alpha)) if alpha[t]), None)
        if j is None or i <= j:
            out: Element = {_inc(alpha, i): 1}
        else:
            rest = _dec(alpha, j)
            out = {}
            for beta, cf in self._letter(i, rest).items():
                for gamma, cf2 in self._letter(j, beta).items():
                    _acc(out, gamma, cf * cf2)
            for k, ck in self._consts[i][j]:
                for beta, cf in self._letter(k, rest).items():
                    _acc(out, beta, ck * cf)
            out = {a: cf for a, cf in out.items() if cf}
            if self._check_integral and any(cf.denominator != 1 for cf in out.values()):
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
        """Matrix of left multiplication by a lattice vector on the monomials.

        With the adapted coordinates of v as int numerators x_k over d, the
        columns sum x_k * (x_k's letter action) and the matrix is over d.
        The coordinates of the unit vector e_i are row i of the basis
        inverse.  When they are one letter with numerator 1, as wherever
        e_i is itself an adapted basis vector, the columns are that
        letter's memo entries themselves, which `_matrix_of_columns` only
        reads.
        """
        if len(v) != self.rank:
            raise ValueError(f"every row must have length {self.rank}")
        inverse = self.basis.inverse
        support = [i for i, x in enumerate(v) if x]
        if len(support) == 1 and v[support[0]] == 1:
            row, den = inverse.num[support[0]], inverse.den
        else:
            coords = ExactMatrix.from_rows([v], cols=self.rank) * inverse
            row, den = coords.num[0], coords.den
        letters = list(row.items())
        if len(letters) == 1 and letters[0][1] == 1:
            k = letters[0][0]
            return self._matrix_of_columns([self._letter(k, beta) for beta in self.monomials], den)
        cols = []
        for beta in self.monomials:
            col: Element = {}
            for k, cf in letters:
                for gamma, cf2 in self._letter(k, beta).items():
                    _acc(col, gamma, cf * cf2)
            cols.append(col)
        return self._matrix_of_columns(cols, den)

    def derivation_star(self, D: ExactMatrix) -> ExactMatrix:
        """Matrix of the lifted derivation D* on the monomial basis.

        D is given on the original lattice basis and must satisfy the
        Leibniz identity there; D*(1) = 0 and the lift preserves the weight
        filtration, so the truncation is well defined.  With l the first
        letter of x^beta = x_l x^rest, Leibniz gives
        D*(x^beta) = D(x_l) x^rest + x_l D*(x^rest), and x^rest has lower
        weight, so its column comes earlier in the graded order.  D* is
        linear in D, so the recursion runs on the int numerators of D in
        adapted coordinates and the matrix is over their denominator.
        """
        L = self.basis.lattice
        if not check_derivation(L, D):
            raise LeibnizError("derivation_star requires a Leibniz-compatible matrix")
        if self.rank == 0:
            return ExactMatrix.zero(self.dimension, self.dimension)
        # Dad.num[t]: the numerators of the image of adapted letter t under
        # D, in adapted coordinates; row t of P D^T P^-1 is that image
        Dad = self.basis.change_of_basis * D.transpose() * self.basis.inverse
        star: dict[Monomial, Element] = {self.monomials[0]: {}}  # D*(1) = 0
        for beta in self.monomials[1:]:
            l = next(t for t, e in enumerate(beta) if e)
            rest = _dec(beta, l)
            col = self._apply_letter(l, star[rest])
            for k, ck in Dad.num[l].items():
                for gamma, cf in self._letter(k, rest).items():
                    _acc(col, gamma, ck * cf)
            star[beta] = col
        return self._matrix_of_columns([star[beta] for beta in self.monomials], Dad.den)

    def _matrix_of_columns(self, cols: Sequence[Element], den: int) -> ExactMatrix:
        """The matrix over den whose column j holds the element cols[j] on
        the monomials, as int numerator rows; Fraction coefficients are
        brought over the lcm of their denominators first.  An integral
        adapted table makes every coefficient an int, so the scan for
        Fractions is skipped."""
        index = self.index
        rows: list[Row] = [{} for _ in range(self.dimension)]
        fractions = (
            [] if self._integral else [cf for col in cols for cf in col.values() if type(cf) is not int]
        )
        d = lcm(*(cf.denominator for cf in fractions))
        for j, col in enumerate(cols):
            for alpha, cf in col.items():
                if fractions:
                    cf = cf.numerator * (d // cf.denominator)
                if cf:
                    rows[index[alpha]][j] = cf
        num = tuple(row or _EMPTY_ROW for row in rows)
        return ExactMatrix._trusted(num, self.dimension, den * d)


def _enumerate_monomials(weights: Sequence[int], cutoff: int) -> list[tuple[Monomial, int]]:
    """Every monomial of weight at most the cutoff, with its weight, in
    lexicographic order: letter by letter, each prefix in turn is extended
    by every exponent of the next letter that fits."""
    level: list[tuple[Monomial, int]] = [((), 0)]
    for w in weights:
        level = [
            (alpha + (e,), s + e * w) for alpha, s in level for e in range((cutoff - s) // w + 1)
        ]
    return level


def _inc(alpha: Monomial, i: int) -> Monomial:
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]


def _dec(alpha: Monomial, i: int) -> Monomial:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


def _constant(n: int, den: int) -> Coefficient:
    """n / den as an int when den divides n, else as a Fraction."""
    q, m = divmod(n, den)
    return Fraction(n, den) if m else q


def _acc(d: Element, key: Monomial, value: Coefficient) -> None:
    d[key] = d.get(key, 0) + value

