"""Weighted truncations of universal enveloping algebras of nilpotent lattices.

The monomial basis is indexed by exponent vectors over an adapted basis
(deepest lower-central terms first); inside `TruncatedUEA` a monomial is
its index in graded order, and the index tables are generated weight by
weight without an exponent vector.  Every matrix rests on the letter
action x_i * x^alpha.  Where i is at most the first letter of alpha the
product is already ordered, and it is read off a (first letter, rest)
table; the other products are straightened by the rewriting rule
x_j x_i = x_i x_j - [x_i, x_j] with eager truncation of monomials whose
weight exceeds the cutoff, memoised in one list per letter.  Left
multiplications are sums of letter actions, and lifted derivations are
built column by column from them by Leibniz.  Every coefficient is an
int: an adapted table over a denominator d is straightened in the basis
d x, and d enters the finished matrix as powers only.  The coordinates
of a vector and the entries of a derivation enter as int numerators over
one denominator, which becomes the denominator of the matrix.  The
adapted basis extends each lower central term to the next, with the
terms themselves as the inner modules; where every term is spanned by
lattice basis vectors it is a permutation of the lattice basis, read off
the chain without elimination.  The coordinates of a unit vector are a
row of the basis inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .exact_linalg import ExactMatrix, Vec, _EMPTY_ROW, extend_basis, invert, stack_rows
from .lie_core import (
    Known,
    LieLattice,
    LeibnizError,
    NotNilpotentError,
    _antisymmetric_table,
    check_derivation,
)

Monomial = tuple[int, ...]
# an element of the truncated algebra: monomial index -> coefficient
Element = dict[int, int]

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
    its transpose, and the coordinates of [x_a, x_b] are read at the
    permuted columns; the mirrored rows are the table's own, re-indexed, as
    a validated L is antisymmetric.
    Otherwise P is inverted once, and the adapted constants of the pairs
    p < q are [P_p, P_q] P^-1, the unique coordinates of the brackets in
    the basis P, mirrored (`_antisymmetric_table`) as L is antisymmetric;
    over Z they are integral, as P is unimodular.  That is the table that
    `subalgebra_lattice` would read in the span of P, without a second
    reader of P.  L must be a Lie lattice (validated), so the adapted
    table, L in another basis, is one without a check of its own.  The
    series `chain` is read from `known` (a fresh Known if none is given),
    which computes it unless the call already holds it.
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
    Pinv = invert(P)
    names = tuple(f"v{t}" for t in range(r))
    adapted = LieLattice(names, _antisymmetric_table(L._pair_brackets(P) * Pinv, r), L.domain)
    return WeightedPBWBasis(L, P, Pinv, tuple(weights), c, adapted)


class TruncatedUEA:
    """Enveloping algebra of a nilpotent lattice modulo weight > cutoff.

    Monomials are in graded-lex order, and inside the class a monomial is
    its index m.  `first[m]` is its first letter (the rank r for the unit
    1), `rest[m]` the index of m with one x_first removed (0 for the unit),
    both from `_graded_monomials`, and `up[i]` maps rest[m'] to m' over the
    m' with first[m'] == i.  The exponent vectors `monomials` and their
    `index` are read off first and rest on first use; no product reads them.

    Let i <= first(alpha).  Then x_i x^alpha is already ordered, the
    monomial alpha + e_i of weight weight(alpha) + w_i, kept exactly when
    that weight fits the cutoff.  Kept, its first letter is i, as alpha has
    no letter before i, and its rest is alpha; a monomial is rest + e_first,
    so the product is m' = up[i][alpha].  Conversely each m' in up[i] is
    x_i x^rest[m'], as rest[m'] has no letter before i.  So the ordered
    columns of letter i are the pairs (rest[m'], m') over up[i], each a
    single 1 in row m', and only the columns m with first(m) < i are
    straightened.

    Straightening rewrites x_i x_j = x_j x_i + [x_i, x_j] with i > j; the
    bracket lies deeper in the series, so no term has lower weight than the
    product, and a product whose weight exceeds the cutoff is truncated at
    once.  The monomials are sorted by weight, so the m with x_i x^m inside
    the cutoff are a prefix, range(_fits[i]), of length upto[cutoff - w_i].

    Every coefficient is an int.  With the adapted table c / d, c ints,
    straightening runs in the basis y = d x, as [y_i, y_j] = d^2 (c / d) x_k
    = c y_k.  With deg[m] = deg[rest[m]] + 1 letters, y^m = d^deg[m] x^m,
    so y_k y^m = sum n y^g reads x_k x^m = sum n d^(deg g - deg m - 1) x^g;
    a derivation has one matrix in x and in y = d x, so D*(y^m) = sum n y^g
    reads D*(x^m) = sum n d^(deg g - deg m) x^g.  Over Z a table with
    d != 1 is refused: no validated Z-lattice has one, as its adapted
    basis is a Z-basis.  Instances are immutable apart from the memo, one
    list per letter, and the tables read on first use, all idempotent, so
    concurrent calls are safe and agree.
    """

    def __init__(self, basis: WeightedPBWBasis, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        T = basis.adapted.table
        if T.den != 1 and basis.lattice.domain == "Z":
            raise RuntimeError("adapted table has a non-integral coefficient over Z")
        self.basis, self.cutoff = basis, cutoff
        r = basis.rank
        self.first, self.rest, upto = _graded_monomials(basis.weights, cutoff)
        self.up: tuple[dict[int, int], ...] = tuple({} for _ in range(r))
        for m in range(1, len(self.first)):
            self.up[self.first[m]][self.rest[m]] = m
        self._fits = [upto[cutoff - w] if w <= cutoff else 0 for w in basis.weights]
        self._memo: list[list[Element | None]] = [[None] * n for n in self._fits]
        # _consts[i][j], j < i (the pairs `_letter` reads): the adapted [x_i, x_j]'s numerators
        self._consts = [T.num[i * r : i * r + i] for i in range(r)]

    @property
    def dimension(self) -> int:
        return len(self.first)

    @property
    def rank(self) -> int:
        return self.basis.rank

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        """The exponent vectors in order: monomial m is rest[m] + e_first[m]."""
        out = [(0,) * self.rank]
        for i, m in zip(self.first[1:], self.rest[1:]):
            alpha = out[m]
            out.append(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :])
        return tuple(out)

    @cached_property
    def index(self) -> dict[Monomial, int]:
        return {alpha: m for m, alpha in enumerate(self.monomials)}

    def monomial_weight(self, alpha: Monomial) -> int:
        return sum(a * w for a, w in zip(alpha, self.basis.weights))

    # -- letter-by-letter multiplication ---------------------------------

    def _letter(self, i: int, m: int) -> Element:
        """Normal form of y_i * y^m (adapted letter i, monomial index m, in
        the basis y of the class docstring), truncated."""
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
            for k, ck in self._consts[i][j].items():
                for beta, cf in self._letter(k, rest).items():
                    acc[beta] = acc.get(beta, 0) + ck * cf
            out = {a: cf for a, cf in acc.items() if cf}
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
        return self._matrix_of_rows(rows, den, -1)

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
        return self._matrix_of_rows(rows, Dad.den, 0)

    def _matrix_of_rows(self, rows: list[Element], den: int, shift: int) -> ExactMatrix:
        """The matrix over den of the coefficients `rows` made in the basis
        y, keyed by column: entry (g, m) is rows[g][m] d^(deg g - deg m +
        shift), d the adapted denominator, brought over d^(1 + max deg)."""
        d = self.basis.adapted.table.den
        if d != 1:
            deg = [0]
            for m in self.rest[1:]:
                deg.append(deg[m] + 1)
            top = max(deg) + 1
            rows = [
                {m: cf * d ** (deg[g] - deg[m] + shift + top) for m, cf in entries.items()}
                for g, entries in enumerate(rows)
            ]
            den *= d**top
        num = tuple(entries or _EMPTY_ROW for entries in rows)
        return ExactMatrix._trusted(num, self.dimension, den)


def _graded_monomials(weights: Sequence[int], cutoff: int) -> tuple[list[int], ...]:
    """(first, rest, upto) of the monomials of weight <= cutoff in graded-lex
    order, by weight, then by exponent vector; upto[w] counts weight <= w.

    Weight 0 holds the unit, whose first letter is r.  The monomials of
    weight w are x_i times each of weight w - w_i whose first letter is
    >= i, for i from the last letter down, the rests in their own order.
    That is each monomial once: alpha = x_i x^(alpha - e_i), i its first
    letter.  It is the lex order: a larger first letter is a longer run of
    leading zero exponents, a smaller vector; for one first letter,
    adding e_i keeps the order of the rests, which is lex by induction on
    w.  In a layer the first letters fall, so the rests with first letter
    >= i are a prefix of it.
    """
    r = len(weights)
    first, rest, upto = [r], [0], [1]
    for w in range(1, cutoff + 1):
        for i in range(r - 1, -1, -1):
            v = w - weights[i]
            if v >= 0:
                for m in range(upto[v - 1] if v else 0, upto[v]):
                    if first[m] < i:
                        break
                    first.append(i)
                    rest.append(m)
        upto.append(len(first))
    return first, rest, upto
