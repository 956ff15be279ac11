"""Weighted truncations of universal enveloping algebras of nilpotent lattices.

The monomial basis is indexed by exponent vectors over an adapted basis
(deepest lower-central terms first); inside `TruncatedUEA` a monomial is
its index in graded order.  Every matrix rests on the letter action
x_i * x^alpha.  Where i is at most the first letter of alpha the product
is already ordered, and it is read off a (first letter, rest) table built
once; the other products are straightened by the rewriting rule
x_j x_i = x_i x_j - [x_i, x_j] with eager truncation of monomials whose
weight exceeds the cutoff, memoised in one list per letter.  Left
multiplications are sums of letter actions, and lifted derivations are
built column by column from them by Leibniz.
Coefficients are ints; a Fraction appears only where a lattice over Q has
a non-integral structure constant in the adapted basis.  The coordinates
of a vector and the entries of a derivation enter as int numerators over
one denominator, which becomes the denominator of the matrix, and the
matrices are assembled straight from int numerator rows.  The adapted basis
extends each lower central term to the next, with the terms themselves as
the inner modules; where every term is spanned by lattice basis vectors it
is a permutation of the lattice basis, read off the chain without
elimination.  Monomials are enumerated letter by letter, without
recursion.  The coordinates of a unit vector are a row of the basis
inverse.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .exact_linalg import (
    ExactMatrix,
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
# an element of the truncated algebra: monomial index -> coefficient
Element = dict[int, Coefficient]

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

    Monomials are enumerated in graded-lexicographic order, and inside the
    class a monomial is its index m in `monomials`.  Three tables locate
    the ordered products: `first[m]` is the first letter of m (the rank r
    for the unit 1, which has none), `rest[m]` is the index of m with one
    x_first removed (0 for the unit), and `up[i]` maps rest[m'] to m' over
    the m' with first[m'] == i.

    Let i <= first(alpha).  Then x_i x^alpha is already ordered: it is the
    monomial alpha + e_i, of weight weight(alpha) + w_i.  Every monomial of
    weight at most the cutoff is enumerated, so the product is kept exactly
    when that weight fits.  When kept, it is a monomial m' whose first
    letter is i, as alpha has no letter before i, and whose rest is alpha.
    A monomial is rest + e_first, so it is determined by (first, rest), and
    m' is the unique monomial with (first, rest) = (i, alpha): up[i][alpha].
    Conversely each m' in up[i] is x_i x^rest[m'], as rest[m'] has no letter
    before i.  So the ordered columns of letter i are the pairs
    (rest[m'], m') over up[i], each a single 1 in row m', and only the
    columns m with first(m) < i are straightened.

    Straightening rewrites x_i x_j = x_j x_i + [x_i, x_j] with i > j; the
    bracket lies deeper in the series, so no term has lower weight than the
    product, and a product whose weight exceeds the cutoff is truncated at
    once.  The monomials are sorted by weight, so the m with x_i x^m inside
    the cutoff are a prefix, range(_fits[i]).  Instances are immutable
    apart from an internal memo, one list per letter, whose entries are
    idempotent, so concurrent calls are safe and agree.
    """

    def __init__(self, basis: WeightedPBWBasis, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.basis = basis
        self.cutoff = cutoff
        r = basis.rank
        by_weight = sorted((w, alpha) for alpha, w in _enumerate_monomials(basis.weights, cutoff))
        self.monomials: tuple[Monomial, ...] = tuple(alpha for _, alpha in by_weight)
        self.index: dict[Monomial, int] = {a: m for m, a in enumerate(self.monomials)}
        first, rest = [r], [0]
        for alpha in self.monomials[1:]:
            j = alpha.index(next(filter(None, alpha)))  # the letter of the first nonzero exponent
            first.append(j)
            rest.append(self.index[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]])
        self.first, self.rest = tuple(first), tuple(rest)
        self.up: tuple[dict[int, int], ...] = tuple({} for _ in range(r))
        for m in range(1, len(first)):
            self.up[first[m]][rest[m]] = m
        ordered = [w for w, _ in by_weight]
        self._fits = [bisect_right(ordered, cutoff - w) for w in basis.weights]
        self._memo: list[list[Element | None]] = [[None] * n for n in self._fits]
        # _consts[i][j], j < i (the only pairs `_letter` reads): the adapted
        # [x_i, x_j] as (k, constant) pairs, each constant an int unless it
        # really is non-integral
        T = basis.adapted.table
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

    def _letter(self, i: int, m: int) -> Element:
        """Normal form of x_i * x^m (adapted letter i, monomial index m),
        truncated."""
        if m >= self._fits[i]:
            return _TRUNCATED
        memo = self._memo[i]
        out = memo[m]
        if out is not None:
            return out
        j = self.first[m]
        if i <= j:
            out = {self.up[i][m]: 1}
        else:
            rest = self.rest[m]
            acc: Element = {}
            for beta, cf in self._letter(i, rest).items():
                for gamma, cf2 in self._letter(j, beta).items():
                    acc[gamma] = acc.get(gamma, 0) + cf * cf2
            for k, ck in self._consts[i][j]:
                for beta, cf in self._letter(k, rest).items():
                    acc[beta] = acc.get(beta, 0) + ck * cf
            out = {a: cf for a, cf in acc.items() if cf}
            if self._check_integral and any(cf.denominator != 1 for cf in out.values()):
                raise RuntimeError("straightening produced a non-integral coefficient over Z")
        memo[m] = out
        return out

    def left_mult_matrix(self, v: Vec) -> ExactMatrix:
        """Matrix of left multiplication by a lattice vector on the monomials.

        With the adapted coordinates of v as int numerators x_k over d, the
        matrix is the sum of x_k times letter k's matrix, over d: the
        ordered columns of letter k read off up[k], the others straightened.
        The coordinates of the unit vector e_i are row i of the basis
        inverse.  With one letter, each entry is written once, as the
        ordered and the straightened columns are disjoint; with more, sums
        may cancel, and zero entries are dropped.
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
        rows: list[Element] = [{} for _ in range(self.dimension)]
        first = self.first
        for k, x in row.items():
            for alpha, m in self.up[k].items():
                entries = rows[m]
                entries[alpha] = entries.get(alpha, 0) + x
            for beta in range(self._fits[k]):
                if first[beta] < k:
                    for m, cf in self._letter(k, beta).items():
                        entries = rows[m]
                        entries[beta] = entries.get(beta, 0) + x * cf
        if len(row) > 1:
            rows = [{j: cf for j, cf in entries.items() if cf} for entries in rows]
        return self._matrix_of_rows(rows, den)

    def derivation_star(self, D: ExactMatrix) -> ExactMatrix:
        """Matrix of the lifted derivation D* on the monomial basis.

        D is given on the original lattice basis and must satisfy the
        Leibniz identity there; D*(1) = 0 and the lift preserves the weight
        filtration, so the truncation is well defined.  With l = first[m],
        x^m = x_l x^rest[m], and Leibniz gives
        D*(x^m) = D(x_l) x^rest + x_l D*(x^rest), and x^rest has lower
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
        letter = self._letter
        rows: list[Element] = [{} for _ in range(self.dimension)]
        star: list[Element] = [{}]  # D*(1) = 0
        for m in range(1, self.dimension):
            l, rest = self.first[m], self.rest[m]
            col: Element = {}
            for alpha, cf in star[rest].items():
                for gamma, cf2 in letter(l, alpha).items():
                    col[gamma] = col.get(gamma, 0) + cf * cf2
            for k, ck in Dad.num[l].items():
                for gamma, cf in letter(k, rest).items():
                    col[gamma] = col.get(gamma, 0) + ck * cf
            col = {gamma: cf for gamma, cf in col.items() if cf}
            for gamma, cf in col.items():
                rows[gamma][m] = cf
            star.append(col)
        return self._matrix_of_rows(rows, Dad.den)

    def _matrix_of_rows(self, rows: list[Element], den: int) -> ExactMatrix:
        """The matrix over den whose rows hold the nonzero coefficients
        `rows`, keyed by column; Fraction coefficients are brought over the
        lcm of their denominators first.  An integral adapted table makes
        every coefficient an int, so the scan for Fractions is skipped."""
        d = 1
        if not self._integral:
            d = lcm(*(cf.denominator for entries in rows for cf in entries.values()))
            rows = [
                {j: cf.numerator * (d // cf.denominator) for j, cf in entries.items()}
                for entries in rows
            ]
        num = tuple(entries or _EMPTY_ROW for entries in rows)
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


def _constant(n: int, den: int) -> Coefficient:
    """n / den as an int when den divides n, else as a Fraction."""
    q, m = divmod(n, den)
    return Fraction(n, den) if m else q

