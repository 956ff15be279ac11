"""Lie lattices over Z and Lie algebras over Q given by structure constants.

Brackets, ideals, central and derived series, radicals, the Killing form
and the adjoint representation.  Matrices act on column vectors; submodule
bases are rows.  A lattice stores its structure constants once, as the
rank^2 x rank `ExactMatrix` whose row i*rank + j is [x_i, x_j]; the dense
Fraction tensor `c` is a view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exact_linalg import (
    Echelon,
    ExactMatrix,
    Row,
    Submodule,
    Vec,
    _Packing,
    extend_basis,
    invert,
    kernel_basis,
    stack_rows,
    trace_product,
    vector,
)
from .rep import LinearRep

ZERO = Fraction(0)
ONE = Fraction(1)


class LatticeValidationError(ValueError):
    """Raised when a structure-constant tensor fails antisymmetry or Jacobi."""


class LeibnizError(ValueError):
    """Raised when a claimed derivation violates the Leibniz identity."""


class NotNilpotentError(ValueError):
    """Raised when an operation requires a nilpotent lattice."""


@dataclass(frozen=True)
class LieLattice:
    """Lie ring on a free module, encoded by [x_i, x_j] = sum_k c[i][j][k] x_k.

    `table` is the one stored copy of the structure constants: the
    rank^2 x rank matrix with c[i][j] in row i*rank + j, the layout of
    `bracket_rows(I, I)`.  An ExactMatrix is canonical, so equality and
    hashing are value equality however a lattice was built; it is left out
    of repr.  Every bracket, `ad_rows` and the Jacobi and Leibniz checks
    read its sparse int rows `table.num` over `table.den`, whose keys come
    in no particular order.  `c` is a dense view of Fractions, built on first use
    and cached outside equality, hashing and repr; the library never reads
    it.  The rows of a table are never mutated: a bracket of two
    single-entry rows may be a row of the table itself.  The tables that
    the construction builds from a lattice it holds as valid (subalgebras,
    quotients, the scaled nilpotent span, each expansion step) bracket only
    the pairs p < q of a basis and mirror them (`_antisymmetric_table`).
    """

    names: tuple[str, ...]
    table: ExactMatrix = field(repr=False)
    domain: str = "Z"

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if self.domain not in ("Z", "Q"):
            raise ValueError("domain must be 'Z' or 'Q'")
        r = len(self.names)
        if self.table.rows != r * r or self.table.cols != r:
            raise ValueError("a bracket matrix has rank^2 rows of length rank")

    @property
    def rank(self) -> int:
        return len(self.names)

    @cached_property
    def c(self) -> tuple[tuple[Vec, ...], ...]:
        r, rows = self.rank, self.table.entries
        return tuple(rows[i * r : (i + 1) * r] for i in range(r))

    def bracket_rows(self, A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
        """The matrix whose rows are [a, b] for every row a of A and b of B,
        in the order [a0, b0], [a0, b1], ..., [a1, b0], ...  The sums run in
        the int numerators of A, B and the table, over the product of their
        denominators.  `bracket_rows(I, I)` is `table`, c[i][j] in row
        i*rank + j."""
        r = self.rank
        if A.cols != r or B.cols != r:
            raise ValueError("dimension mismatch")
        return self._brackets(((a, b) for a in A.num for b in B.num), A.den * B.den)

    def _brackets(self, pairs: Iterable[tuple[Row, Row]], den: int) -> ExactMatrix:
        """The matrix whose rows are [a, b] / den for the int numerator rows
        (a, b) of `pairs`, each summed sparsely from the table.

        The bracket of the single-entry rows {i: a} and {j: b} is a*b times
        the table row T[i*r + j], and that row itself when a*b == 1: rows
        are never mutated, so the result may share it with the table.
        """
        r, T = self.rank, self.table.num
        out = []
        for arow, brow in pairs:
            if len(arow) == 1 and len(brow) == 1:
                ((i, a),) = arow.items()
                ((j, b),) = brow.items()
                ab, row = a * b, T[i * r + j]
                out.append(row if ab == 1 else {k: ab * t for k, t in row.items()})
                continue
            acc: Row = {}
            for i, a in arow.items():
                for j, b in brow.items():
                    ab = a * b
                    for k, t in T[i * r + j].items():
                        acc[k] = acc[k] + ab * t if k in acc else ab * t
            out.append({k: x for k, x in acc.items() if x})
        return ExactMatrix._trusted(tuple(out), r, den * self.table.den)

    def _pair_brackets(self, A: ExactMatrix) -> ExactMatrix:
        """The rows [a_p, a_q] for the rows p < q of A.  On an antisymmetric
        tensor, where [a_p, a_p] = 0 and [a_q, a_p] = -[a_p, a_q], they span
        the same module as `bracket_rows(A, A)`; on any other they may not."""
        num = A.num
        pairs = ((a, b) for p, a in enumerate(num) for b in num[p + 1 :])
        return self._brackets(pairs, A.den**2)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """[u, v]: `bracket_rows` of one pair of vectors."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("dimension mismatch")
        return self.bracket_rows(ExactMatrix.from_rows([u]), ExactMatrix.from_rows([v])).row(0)

    def ad_rows(self, A: ExactMatrix) -> list[ExactMatrix]:
        """The matrix of ad_a = [a, .] on column vectors for every row a of
        A: entry (k, j) is sum_i a_i c[i][j][k], so ad_a is the transposed
        block of `bracket_rows(A, I)` that holds [a, x_j] in its row j."""
        r = self.rank
        B = self.bracket_rows(A, ExactMatrix.identity(r))
        return [B.take_rows(range(q * r, (q + 1) * r)).transpose() for q in range(A.rows)]

    def to_field(self) -> "LieLattice":
        """The same structure constants viewed over Q, sharing the table."""
        if self.domain == "Q":
            return self
        return LieLattice(self.names, self.table, "Q")


def _antisymmetric_table(half: ExactMatrix, k: int) -> ExactMatrix:
    """The k^2-row matrix whose row p*k + q, p < q, is the row of `half`
    for the pair (p, q), pairs in the order (0, 1), (0, 2), ..., (1, 2), ...;
    row q*k + p is its negative and row p*k + p is empty.  Negation keeps
    the gcds, so the rows stay normalised over half.den."""
    rows: list[Row] = [{}] * (k * k)  # one shared empty row; rows are never mutated
    t = 0
    for p in range(k):
        for q in range(p + 1, k):
            row = half.num[t]
            rows[p * k + q] = row
            rows[q * k + p] = {j: -x for j, x in row.items()}
            t += 1
    return ExactMatrix._of(tuple(rows), half.den, half.cols)


def unit(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return tuple(v)


def lie_lattice(
    names: Sequence[str],
    brackets: Mapping[tuple[int, int], Sequence],
    domain: str = "Z",
) -> LieLattice:
    """Build a lattice from the brackets of pairs i < j; antisymmetry is filled in."""
    r = len(names)
    rows: list[dict[int, Fraction]] = [{} for _ in range(r * r)]
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < r):
            raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < rank")
        v = vector(coeffs)
        if len(v) != r:
            raise ValueError("bracket coefficient vector has wrong length")
        rows[i * r + j] = {k: x for k, x in enumerate(v) if x}
        rows[j * r + i] = {k: -x for k, x in rows[i * r + j].items()}
    return LieLattice(names, ExactMatrix(rows, r), domain)


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_violations: tuple[tuple[int, int, int], ...]
    jacobi_violations: tuple[tuple[int, int, int], ...]
    integrality_violations: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not (
            self.antisymmetry_violations
            or self.jacobi_violations
            or self.integrality_violations
        )

    def raise_if_invalid(self) -> None:
        """LatticeValidationError naming every violation, unless `ok`."""
        if not self.ok:
            raise LatticeValidationError(
                f"invalid lattice: antisymmetry {self.antisymmetry_violations}, "
                f"jacobi {self.jacobi_violations}, "
                f"integrality {self.integrality_violations}"
            )


def validate(L: LieLattice) -> ValidationReport:
    """Report every violated (i, j, k) triple of the lattice axioms, read
    from the int table: c[i][j][k] = n / den is integral iff den divides n,
    and antisymmetric iff n plus the numerator of c[j][i][k] is 0.  Each
    list comes in increasing (i, j, k), whatever the key order of a row.
    Jacobi skips the triples i < j < k whose table rows [x_i, x_j],
    [x_j, x_k] and [x_k, x_i] are all empty: each term of its sum brackets
    one of them, so the sum is 0.  When the table rows are dense
    (`_Packing.rows`), each is packed once into one integer, and a triple
    sums the packed rows [x_a, x_t] times the entries a of its three rows:
    the same zero test, one bigint multiply-add per nonzero."""
    r = L.rank
    T, den = L.table.num, L.table.den
    anti = []
    integ = []
    check_integral = L.domain == "Z" and den != 1
    for i in range(r):
        for j in range(r):
            tij, tji = T[i * r + j], T[j * r + i]
            if tij or tji:
                total = dict(tij)
                for k, x in tji.items():
                    total[k] = total.get(k, 0) + x
                anti.extend((i, j, k) for k in sorted(total) if total[k])
            if check_integral:
                integ.extend((i, j, k) for k in sorted(tij) if tij[k] % den)
    # [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]: every term is a
    # product of two table entries, so the sum is zero iff its numerators
    # over den^2 are; each of its entries is at most 3 |T row|_1^2 in
    # absolute value, the bound of the packed path
    packed = _Packing.rows(T, lambda: 3 * _Packing.l1(T) ** 2)
    jac = []
    for i in range(r):
        for j in range(i + 1, r):
            tij = T[i * r + j]
            for k in range(j + 1, r):
                if not (tij or T[j * r + k] or T[k * r + i]):
                    continue
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                if packed is not None:
                    s = 0
                    for p, q, t in cyclic:
                        for a, x in T[p * r + q].items():
                            s += x * packed[a * r + t]
                    if s:
                        jac.append((i, j, k))
                    continue
                acc = [0] * r
                for p, q, t in cyclic:
                    for a, x in T[p * r + q].items():
                        for b, y in T[a * r + t].items():
                            acc[b] += x * y
                if any(acc):
                    jac.append((i, j, k))
    return ValidationReport(tuple(anti), tuple(jac), tuple(integ))


def is_subalgebra(L: LieLattice, S: Submodule) -> bool:
    """Whether S is closed under the bracket: [u, v] in S for basis vectors
    u, v.  Only the pairs u before v are bracketed, so the tensor must be
    antisymmetric, as on every validated lattice."""
    return S.contains_rows(L._pair_brackets(S.basis))


def is_ideal(L: LieLattice, S: Submodule) -> bool:
    """Whether S is a subalgebra with [x_i, v] in S for every basis vector x_i
    of L and every basis vector v of S.

    S must be a submodule of the ambient space of L (S.ambient_rank ==
    L.rank).  When S lies in L (over Q, or with an integral basis over Z)
    each u in S is a combination of the x_i with coefficients in the domain,
    so the [x_i, v] test already implies closure and the subalgebra test is
    skipped.  A Q-subspace of full rank is the whole space, an ideal by
    definition, and is accepted without a bracket; over Z a full-rank
    sublattice such as 2Z^n need not be an ideal and gets the full test,
    whose `is_subalgebra` needs an antisymmetric tensor.
    """
    if S.ambient_rank != L.rank:
        raise ValueError("dimension mismatch")
    if S.domain == "Q" and S.rank == L.rank:
        return True
    brackets_inside = S.contains_rows(L.bracket_rows(ExactMatrix.identity(L.rank), S.basis))
    if S.domain == "Q" or S.basis.is_integral:
        return brackets_inside
    return brackets_inside and is_subalgebra(L, S)


def bracket_series(
    L: LieLattice,
    S: Submodule,
    partner: Submodule | None = None,
    saturate: bool = True,
) -> list[Submodule]:
    """The chain S, [S, P], [[S, P], P], ... with P the partner, or the
    derived chain S, [S, S], ... when no partner is given.

    The derived chain brackets only the pairs i < j of basis vectors
    (`LieLattice._pair_brackets`), so it needs an antisymmetric tensor
    (every validated lattice); a chain with a partner brackets every
    ordered pair and needs no such property.
    Each new term is saturated unless `saturate` is false; the chain stops
    at the first stationary term, which is included once.  For a Lie
    tensor and a bracket-closed S the chains built here (nested saturated
    terms, or the unsaturated lower central terms of a nilpotent lattice)
    drop in rank at every step, so a chain longer than S.rank + 1 terms
    raises LatticeValidationError instead of running on.
    """
    chain = [S]
    while True:
        last = chain[-1]
        if partner is None:
            brackets = L._pair_brackets(last.basis)
        else:
            brackets = L.bracket_rows(last.basis, partner.basis)
        nxt = Submodule.of_rows(brackets, L.domain)
        if saturate:
            nxt = nxt.saturate()
        if nxt == last:
            return chain
        if len(chain) > S.rank:
            raise LatticeValidationError(
                "bracket chain longer than rank + 1: not a Lie bracket, or S not closed under it"
            )
        chain.append(nxt)


def lower_central_series(L: LieLattice) -> list[Submodule]:
    """Isolated lower central series; stops at the first stationary term.

    The tensor must be antisymmetric, as on every validated lattice: the
    first step [L, L] is then spanned by the brackets of the pairs i < j of
    basis vectors (`LieLattice._pair_brackets`), as in `derived_series`.
    The later steps [C_k, L] go through `bracket_series` with L as the
    partner, whose stopping rule and length bound they keep: that chain
    starts at [L, L], so it has at most rank([L, L]) + 1 <= rank terms
    unless [L, L] = L, where the series is L alone.
    """
    full = Submodule.full(L.rank, L.domain)
    first = Submodule.of_rows(L._pair_brackets(full.basis), L.domain).saturate()
    if first == full:
        return [full]
    return [full] + bracket_series(L, first, full)


def derived_series(L: LieLattice) -> list[Submodule]:
    """Isolated derived series; stops at the first stationary term."""
    return bracket_series(L, Submodule.full(L.rank, L.domain))


def is_nilpotent_submodule(L: LieLattice, S: Submodule) -> bool:
    """Whether the bracket-closed submodule S is nilpotent as a subalgebra."""
    return bracket_series(L, S, S)[-1].is_zero()


def center(L: LieLattice) -> Submodule:
    """Kernel of x -> ad_x; row i of the reshaped table holds every [x_i, x_j]."""
    r = L.rank
    if r == 0:
        return Submodule.zero(0, L.domain)
    return kernel_basis(L.table.reshape(r, r * r), L.domain)


def killing_form(L: LieLattice) -> ExactMatrix:
    """Symmetric matrix k(x_i, x_j) = trace(ad_i ad_j).

    trace(AB) = trace(BA) for any square matrices, so only the upper
    triangle is computed and mirrored, even on a tensor that is not Lie.
    """
    r = L.rank
    ads = L.ad_rows(ExactMatrix.identity(r))
    k = [[ZERO] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            k[i][j] = k[j][i] = trace_product(ads[i], ads[j])
    return ExactMatrix.from_rows(k, cols=r)


def adjoint_rep(L: LieLattice) -> LinearRep:
    ads = L.ad_rows(ExactMatrix.identity(L.rank))
    return LinearRep(lattice=L, matrices=tuple(ads), provenance="adjoint")


def _integer_points(S: Submodule) -> Submodule:
    """The Z-module of the integer points of the Q-span of S."""
    n = S.ambient_rank
    if S.rank == n:
        return Submodule.full(n, "Z")
    return Submodule(n, ExactMatrix._of(S.basis.num, 1, n), "Z").saturate()


def solvable_radical(L: LieLattice) -> Submodule:
    """Cartan-criterion radical {x : k(x, [L, L]) = 0}, saturated.

    Valid in characteristic zero, where the radical of a Z-lattice is the
    integer points of the radical over Q: it is computed and checked to be
    a solvable ideal over Q (the same check, see README), then saturated.
    The derived series comes first: when it reaches 0 it is the check, and
    L is its own radical; otherwise its second term is [L, L].
    """
    LQ = L.to_field()
    chain = derived_series(LQ)
    solvable = chain[-1].is_zero()
    if solvable:
        candidate = Submodule.full(L.rank, "Q")
    else:
        derived = chain[min(1, len(chain) - 1)]
        candidate = kernel_basis(killing_form(LQ) * derived.basis.transpose(), "Q")
    if not (solvable or bracket_series(LQ, candidate)[-1].is_zero()) or not is_ideal(LQ, candidate):
        raise RuntimeError("solvable radical candidate failed verification")
    return candidate if L.domain == "Q" else _integer_points(candidate)


def nilradical(L: LieLattice, rs: Submodule) -> Submodule:
    """Largest nilpotent ideal, via the trace-form radical of the associative
    envelope of ad(R_s) restricted to I = [L, R_s] (characteristic zero only).

    `rs` must be `solvable_radical(L)`, which the caller computes first
    (`Known.radicals` does both).  For x in R_s, ad x maps L into the ideal
    I, so ad x is nilpotent iff ad x|_I is; Dickson's trace criterion holds
    for any representation of a solvable algebra, so x lies in the
    nilradical iff trace(ad x|_I * B) = 0 for every B in the envelope.
    Like R_s it is computed over Q, verified nilpotent and an ideal there,
    and saturated once for a Z-lattice.  When R_s has full rank, I = [L, L]
    is spanned from the pairs i < j of basis vectors only
    (`LieLattice._pair_brackets`), so the tensor must be antisymmetric, as
    on every validated lattice.

    Nilpotent L.  When R_s has full rank, the lower central series of L is
    continued from the I = [L, L] already held, its second term.  If it
    reaches 0, L is nilpotent, hence its own nilradical, and R_s = L is
    returned before the envelope is built.  This is the check the general
    path runs last, `is_nilpotent_submodule(LQ, candidate)`, on the
    candidate L it would return: that chain starts L, [L, L], ...
    """
    if rs.is_zero():
        return rs
    LQ = L.to_field()
    r = L.rank
    basis = ExactMatrix._of(rs.basis.num, 1, r)
    if rs.rank == r:
        # I = [L, L], spanned by the pairs i < j of basis vectors
        brackets = LQ._pair_brackets(ExactMatrix.identity(r))
    else:
        brackets = LQ.bracket_rows(ExactMatrix.identity(r), basis)
    ideal = Submodule.of_rows(brackets, "Q")
    if ideal.is_zero():
        # R_s is central: abelian, hence nilpotent
        return rs
    if rs.rank == r and bracket_series(LQ, ideal, Submodule.full(r, "Q"))[-1].is_zero():
        # L is nilpotent: its lower central series from [L, L] reached 0
        return rs
    # ad x|_I on the basis b_j of I: column j holds the coordinates of
    # [x, b_j], which are row j of the block of x in one batch
    m = ideal.rank
    coords = ideal.coordinate_rows(LQ.bracket_rows(basis, ideal.basis))
    gens = [coords.take_rows(range(q * m, (q + 1) * m)).transpose() for q in range(rs.rank)]
    envelope = _matrix_algebra_closure(gens)
    if not envelope:
        # ad R_s kills I, so (ad x)^2 = 0 on L for every x in R_s
        return rs
    # x in R_s lies in the candidate iff trace(ad_x|_I * B) = 0 for all B
    conditions = ExactMatrix.from_rows(
        [tuple(trace_product(g, B) for B in envelope) for g in gens],
        cols=len(envelope),
    )
    candidate = Submodule.of_rows(kernel_basis(conditions, "Q").basis * basis, "Q")
    if not is_ideal(LQ, candidate) or not is_nilpotent_submodule(LQ, candidate):
        raise RuntimeError("nilradical candidate failed verification")
    return candidate if L.domain == "Q" else _integer_points(candidate)


class Known:
    """The facts that one call has computed about the lattices it reads:
    the validation report, the lower central series and the radicals
    (R_s, R_n) of each.

    Each fact is computed on first use, by the module functions `validate`,
    `lower_central_series`, `solvable_radical` and `nilradical`, and no
    method stores a value that a caller supplies, so a stage handed a Known
    cannot be handed a fact about another lattice.  Facts are keyed by
    `id(L)`, with L kept beside them so that its id is not reused.  A Known
    lives for one call: `ado_representation` and the commands `radicals`,
    `nilrep` and `embed` make one, and a stage called without one makes its
    own, so a bare call computes every fact afresh.  None is kept on a lattice, at module level or in a
    returned object, where it would serve facts across calls.
    """

    def __init__(self) -> None:
        self._facts: dict[tuple[str, int], tuple[LieLattice, object]] = {}

    def _fact(self, kind: str, L: LieLattice, compute):
        fact = self._facts.get((kind, id(L)))
        if fact is None:
            fact = self._facts[kind, id(L)] = (L, compute(L))
        return fact[1]

    def validation(self, L: LieLattice) -> ValidationReport:
        return self._fact("validation", L, validate)

    def require_valid(self, L: LieLattice) -> None:
        self.validation(L).raise_if_invalid()

    def series(self, L: LieLattice) -> list[Submodule]:
        return self._fact("series", L, lower_central_series)

    def radicals(self, L: LieLattice) -> tuple[Submodule, Submodule]:
        """(R_s(L), R_n(L)) of a Lie lattice L, one `solvable_radical`
        serving both.

        If this Known holds the lower central series of L and it reaches 0,
        L is nilpotent and both radicals are L, returned without computing
        anything: a nilpotent L is solvable, so R_s = L, and L is a
        nilpotent ideal of itself, so R_n = L.  L is isolated in itself, so
        these are the full modules that `solvable_radical` and `nilradical`
        return for it (the latter by the same fact, when its own lower
        central series reaches 0).
        """
        return self._fact("radicals", L, self._radicals)

    def _radicals(self, L: LieLattice) -> tuple[Submodule, Submodule]:
        series = self._facts.get(("series", id(L)))
        if series is not None and series[1][-1].is_zero():
            full = Submodule.full(L.rank, L.domain)
            return full, full
        rs = solvable_radical(L)
        return rs, nilradical(L, rs)


def _matrix_algebra_closure(gens: Sequence[ExactMatrix]) -> list[ExactMatrix]:
    """Basis of the associative algebra (no identity) generated by gens.

    A candidate is accepted iff it is independent of those accepted before:
    adding its flattened entries to their echelon leaves a nonzero residual.
    Candidates are the generators, then A * g for every A accepted in the
    previous round and every accepted generator g; products g * A are not
    needed.  Let V be the span of the accepted matrices and G that of the
    generators.  A rejected generator is a combination of accepted ones, so
    G lies in V; and every accepted A was multiplied on the right by every
    accepted generator, each product accepted or already in the span, so
    V * G lies in V.  A word g_1 g_2 ... g_m is then in V by induction on
    m, so V holds the whole algebra, and every accepted matrix is a word.
    The basis may differ from a two-sided closure's; its span does not.
    """
    echelon = Echelon()

    def independent(A: ExactMatrix) -> bool:
        return bool(echelon.add(A.flattened().num[0]))

    # a rejected generator is a combination of accepted ones, so its
    # products with A are combinations of products already tried
    gens = [g for g in gens if not g.is_zero() and independent(g)]
    basis = frontier = gens
    while frontier:
        frontier = [P for A in frontier for g in gens if independent(P := A * g)]
        basis = basis + frontier
    return basis


def check_derivation(L: LieLattice, D: ExactMatrix) -> bool:
    """Leibniz identity D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.  A
    pair i < j whose [x_i, x_j] and columns i and j of D are all empty is
    skipped: each term reads one of them, so both sides are 0."""
    r = L.rank
    if D.rows != r or D.cols != r:
        return False
    # column t of D as (a, numerator) pairs: D x_t = sum_a D[a][t] x_a, and
    # both sides of the identity are numerators over den * d
    cols: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for a, row in enumerate(D.num):
        for t, x in row.items():
            cols[t].append((a, x))
    T = L.table.num
    for i in range(r):
        for j in range(i + 1, r):
            if not (T[i * r + j] or cols[i] or cols[j]):
                continue
            acc = [0] * r
            for t, x in T[i * r + j].items():
                for a, y in cols[t]:
                    acc[a] += x * y
            for a, y in cols[i]:
                for k, x in T[a * r + j].items():
                    acc[k] -= y * x
            for a, y in cols[j]:
                for k, x in T[i * r + a].items():
                    acc[k] -= y * x
            if any(acc):
                return False
    return True


def subalgebra_lattice(L: LieLattice, S: Submodule) -> tuple[LieLattice, ExactMatrix]:
    """Structure constants of a bracket-closed submodule in its own basis.

    The basis rows of S are used in the order given, and the result has the
    domain of S and the names v0, v1, ...; over Z every structure constant
    must be an integer.  Over Q, S itself takes the coordinates, so a
    caller that reads more in the same rows builds one reader; over Z a
    Q-view of the rows takes them.  Returns the abstract lattice and the
    basis matrix (rows = basis vectors in the coordinates of L).

    Preconditions: L is a Lie lattice (antisymmetric and Jacobi), as every
    validated lattice is, and the rows of S are independent, as those of
    every canonical Submodule are.  Then the result is a Lie lattice too,
    without a check of its own.  The coefficients c_ij are the exact
    coordinates of [s_i, s_j] in the rows s_i, so the linear map
    iota(e_i) = s_i is injective and iota([e_i, e_j]) = [s_i, s_j]: it
    preserves the bracket.  An antisymmetry sum or a Jacobi sum of the
    result maps under iota to the same sum in L, which is 0, and an
    injective map sends only 0 to 0.  What is left to test is closure and,
    over Z, integrality.

    Only the pairs i < j are bracketed and solved for.  L is antisymmetric,
    so [s_i, s_i] = 0 and [s_j, s_i] = -[s_i, s_j], and the coordinates of
    those are 0 and the negatives of the ones solved
    (`_antisymmetric_table`).
    """
    Q = S if S.domain == "Q" else Submodule(S.ambient_rank, S.basis, "Q")
    half = Q.coordinate_rows(L._pair_brackets(S.basis))
    if half is None:
        raise ValueError("submodule is not closed under the bracket")
    if S.domain == "Z" and not half.is_integral:
        raise ValueError("submodule has non-integral structure constants")
    names = tuple(f"v{i}" for i in range(S.rank))
    return LieLattice(names, _antisymmetric_table(half, S.rank), S.domain), S.basis


def semidirect_assemble(N: LieLattice, S: LieLattice, action: Sequence[ExactMatrix]) -> LieLattice:
    """Semidirect sum N x| S where [s_a, n] = action[a] applied to n, with
    the names of N followed by those of S.

    Each action matrix must be a derivation of N; the assembled tensor is
    validated (Jacobi failure indicates an inconsistent action).
    """
    L = _assemble_semidirect(N, S, action)
    validate(L).raise_if_invalid()
    return L


def _assemble_semidirect(N: LieLattice, S: LieLattice, action: Sequence[ExactMatrix]) -> LieLattice:
    """`semidirect_assemble` without the final validation: the action
    matrices are checked to be derivations of N and the table is built
    (antisymmetric when those of N and S are), but the Jacobi triples of
    the result are left to the caller."""
    if len(action) != S.rank:
        raise ValueError("one action matrix per S basis vector is required")
    for a, D in enumerate(action):
        if not check_derivation(N, D):
            raise LeibnizError(f"action of S basis vector {a} is not a derivation of N")
    nN, nS = N.rank, S.rank
    r = nN + nS
    den = lcm(N.table.den, S.table.den, *(D.den for D in action))
    rows: list[Row] = [{} for _ in range(r * r)]
    # the tables of N and S as diagonal blocks, S shifted by nN
    for T, shift, n in ((N.table, 0, nN), (S.table, nN, nS)):
        f = den // T.den
        for p, row in enumerate(T.num):
            a, b = divmod(p, n)
            rows[(shift + a) * r + shift + b] = {shift + k: f * x for k, x in row.items()}
    # [s_a, x_i] is column i of action[a]
    for a, D in enumerate(action):
        f = den // D.den
        for k, row in enumerate(D.num):
            for i, x in row.items():
                rows[(nN + a) * r + i][k] = f * x
                rows[i * r + nN + a][k] = -f * x
    domain = "Z" if N.domain == "Z" and S.domain == "Z" else "Q"
    return LieLattice(N.names + S.names, ExactMatrix._trusted(tuple(rows), r, den), domain)


def direct_sum(L1: LieLattice, L2: LieLattice) -> LieLattice:
    zero_action = [ExactMatrix.zero(L1.rank, L1.rank) for _ in range(L2.rank)]
    return semidirect_assemble(L1, L2, zero_action)


def split_semidirect(
    L: LieLattice, n_rank: int
) -> tuple[LieLattice, LieLattice, list[ExactMatrix]]:
    """Recover (N, S, action) from a lattice whose first n_rank basis vectors
    span an ideal and whose remaining vectors span a subalgebra."""
    r = L.rank
    if not 0 <= n_rank <= r:
        raise ValueError(f"ideal block rank {n_rank} is outside 0..{r}")

    def block(pairs: Sequence[tuple[int, int]], cols: range, message: str) -> ExactMatrix:
        """The brackets of `pairs`, which must lie in the coordinates `cols`."""
        B = L.table.take_rows(a * r + b for a, b in pairs)
        if any(j not in cols for row in B.num for j in row):
            raise ValueError(message)
        return B.take_columns(cols)

    ideal, sub = range(n_rank), range(n_rank, r)
    leaves_ideal = "bracket leaves the claimed ideal block"
    N_rows = block([(i, j) for i in ideal for j in ideal], ideal, leaves_ideal)
    N = LieLattice(L.names[:n_rank], N_rows, L.domain)
    S_rows = block([(a, b) for a in sub for b in sub], sub, "bracket leaves the claimed subalgebra block")
    S = LieLattice(L.names[n_rank:], S_rows, L.domain)
    # row j of the block of s_a is [s_a, x_j], column j of the action of s_a
    action = [block([(a, j) for j in ideal], ideal, leaves_ideal).transpose() for a in sub]
    return N, S, action


def scale_lattice(L: LieLattice, k: int) -> LieLattice:
    """Structure constants of the sublattice spanned by k*x_i in its own
    basis, under the same names."""
    return LieLattice(L.names, L.table.scale(k), L.domain)


def change_basis(L: LieLattice, P: ExactMatrix) -> LieLattice:
    """Structure constants in the basis whose vectors are the rows of P,
    named b0, b1, ...

    Over Z the matrix must be unimodular for the result to be the same
    lattice, that is integral with an integral inverse; over Q any
    invertible matrix works.
    """
    n = L.rank
    if P.rows != n or P.cols != n:
        raise ValueError("change of basis must be square of the lattice rank")
    Pinv = invert(P)
    if L.domain == "Z" and not (P.is_integral and Pinv.is_integral):
        raise ValueError("change of basis is not unimodular over Z")
    names = tuple(f"b{i}" for i in range(n))
    return LieLattice(names, L.bracket_rows(P, P) * Pinv, L.domain)


def quotient_lattice(L: LieLattice, ideal: Submodule) -> tuple[LieLattice, ExactMatrix]:
    """Quotient L / ideal with a linear section.

    Returns the quotient lattice, named q0, q1, ..., and the section matrix
    (rows = coset representatives in L-coordinates).  The ideal must
    actually be an ideal; over Z it must also be isolated for the quotient
    to be free.  L must be antisymmetric, as every validated lattice is:
    only the pairs i < j of representatives are bracketed, and the table
    is mirrored from them (`_antisymmetric_table`).
    """
    comp = extend_basis(ideal, Submodule.full(L.rank, L.domain))
    k = comp.rows
    split = Submodule(L.rank, stack_rows([ideal.basis, comp]), "Q")
    coords = split.coordinate_rows(L._pair_brackets(comp))
    if coords is None:
        raise ValueError("quotient section failed")
    half = coords.take_columns(range(ideal.rank, ideal.rank + k))
    names = tuple(f"q{i}" for i in range(k))
    return LieLattice(names, _antisymmetric_table(half, k), L.domain), comp
