"""Exact linear algebra over the integers and rationals.

A matrix is stored as sparse rows of int numerators over one positive
denominator, normalised so that the denominator shares no factor with all
the numerators; a Z-matrix is the case den == 1, and its products, sums
and traces never leave the integers.  Rows keep only their nonzero
entries, so every kernel costs time in the number of nonzeros rather than
the number of cells.  Every rational elimination (RREF, inverses, solves,
kernels) goes through one incremental sparse `Echelon`, which is
fraction-free: each of its rows is a primitive int row whose value is the
row over its own pivot entry.  The one integer normal form, Hermite, runs
on dense int working copies.  Spans and isolated closures over Z come
from it; the kernel over Z is the isolated closure of the rational one.
`extend_basis` over Z reads the inverse transpose of the Hermite
transform off the same loop, which keeps it up to date operation by
operation, so no transform is inverted.
Vectors travel as the rows of a matrix: coordinates and membership take
whole matrices (`Submodule.coordinate_rows`, `contains_rows`), by one
routine: back-substitution in basis rows that lead at distinct columns
(an RREF, a Hermite form, the stacks that `extend_basis` completes over
Q), in rising first column; a row lies in the span iff the residual ends
empty.  Any other basis is read through its RREF and the inverse of its
entries at the pivots, found once per Submodule.  Only `kernel_basis`
builds the tagged echelon of [num | I].  The public constructors check
their rows; rows a kernel built itself go through the private
`ExactMatrix._trusted`, which only normalises, and `_of` wraps normalised
rows setting only `num`, `den` and `cols`.  Canonical inputs come back as
they are (the forms are unique): `rref` of an RREF matrix (reduced rows in
another order, or with zero rows between them, sorted by pivot), `of_rows`
over Z of Hermite rows, `saturate` of a Hermite basis with pivots 1,
`invert` of or a product with the identity.
Otherwise `rref` stops adding rows once the rank reaches the column count.
The verifier's bilinear zero tests (the homomorphism check, the Jacobi
loop of `validate` and the injection check of `verify_certificate`) may
decide their sums on rows packed into one
integer each, `sum_k v_k 2^(w k)` (`_Packing`, Kronecker substitution),
with the slot width w taken from a bound on every slot of the sum that
the check computes first, so the packed sum is 0 exactly when the sum is.
A check packs when its operand rows hold 2 nonzeros or more on average and
its zero tests read each 16 times or more on average (`_Packing.pays`);
otherwise it keeps its nonzero-row loop.  Either path reports the same.
Fractions appear only at the boundary: the dense views `entries` and
`row`, the one-vector wrappers `solve_left` and `Submodule.coordinates`,
and the scalars of non-integral matrices.  The dense view and the hash fill
their slots on first use.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, str, Fraction]
Vec = tuple[Fraction, ...]
Row = dict[int, int]  # column index -> nonzero int numerator

ZERO = Fraction(0)

# Shared by every row without nonzeros; rows are never mutated once built.
_EMPTY_ROW: Row = {}

# ExactMatrix refuses attribute writes: its caches write through
# object.__setattr__, its constructors through the slots' own setters.
_set = object.__setattr__


class NonIntegralMatrixError(ValueError):
    """Raised when an integer-only algorithm receives fractional entries."""


def vector(xs: Iterable[Scalar]) -> Vec:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def zero_vector(n: int) -> Vec:
    return (ZERO,) * n


def _fraction(x: int, den: int) -> Fraction:
    """The value x / den as a Fraction (0 as the shared ZERO)."""
    if not x:
        return ZERO
    return Fraction(x) if den == 1 else Fraction(x, den)


def _scalar(x: int, den: int) -> int | Fraction:
    """x / den as an int when den is 1, else as a Fraction."""
    return x if den == 1 else Fraction(x, den)


def _int_row(values: Iterable[tuple[int, Scalar]]) -> tuple[Row, int]:
    """(row, d): the nonzero (column, value) pairs as int numerators over d,
    the lcm of their denominators."""
    pairs = []
    for j, x in values:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if x:
            pairs.append((j, x))
    d = lcm(*(x.denominator for _, x in pairs))
    if d == 1:
        return {j: x.numerator for j, x in pairs}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in pairs}, d


def _int_rows(rows: Iterable[Iterable[tuple[int, Scalar]]]) -> tuple[tuple[Row, ...], int]:
    """Rows of (column, value) pairs as int numerator rows over the lcm of
    every denominator.  Fractions are in lowest terms, so for each prime of
    that lcm some numerator escapes it: the result is normalised."""
    converted = [_int_row(row) for row in rows]
    den = lcm(*(d for _, d in converted))
    return (
        tuple(
            (row if d == den else {j: x * (den // d) for j, x in row.items()}) or _EMPTY_ROW
            for row, d in converted
        ),
        den,
    )


def _normalized(num: tuple[Row, ...], den: int) -> tuple[tuple[Row, ...], int]:
    """num / den with the denominator made positive and gcd(den, all
    numerators) divided out."""
    if den == 1:
        return num, 1
    g = abs(den)
    for row in num:
        if row:
            g = gcd(g, *row.values())
            if g == 1:
                break
    if den < 0:
        g = -g
    if g == 1:
        return num, den
    return tuple({j: x // g for j, x in row.items()} or _EMPTY_ROW for row in num), den // g


def _dense(row: Row, n: int, den: int) -> list[Fraction]:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = _fraction(x, den)
    return out


class ExactMatrix:
    """Immutable rational matrix: sparse int numerator rows over one
    positive denominator.

    `num[i]` maps column indices to the nonzero numerators of row i, and
    entry (i, j) is num[i].get(j, 0) / den.  den > 0 and gcd(den, every
    numerator) == 1, so the representation is unique: equality and hashing
    are value equality however a matrix was built, and den == 1 exactly
    when the matrix is integral.  `cols` is kept so 0-row shapes survive.
    `entries` is a dense view of Fractions, built on first use and cached;
    the kernels never read it.  Its slot and that of the hash stay unset
    until then.
    """

    __slots__ = ("num", "den", "cols", "_entries", "_hash")

    def __init__(self, rows: Iterable[Mapping[int, Scalar]], cols: int):
        """Matrix from sparse rows: one mapping column -> value per row.

        Zero values are dropped; every column index must lie in range(cols).
        """
        rows = list(rows)
        if any(row and (min(row) < 0 or max(row) >= cols) for row in rows):
            raise ValueError(f"column index outside range({cols})")
        num, den = _int_rows(row.items() for row in rows)
        _set_num(self, num)
        _set_den(self, den)
        _set_cols(self, cols)

    @classmethod
    def from_ints(cls, rows: Iterable[Mapping[int, int]], cols: int, den: int = 1) -> "ExactMatrix":
        """Matrix with entry (i, j) = rows[i].get(j, 0) / den, from int
        numerators (zeros dropped; every column in range(cols)) and a
        nonzero int denominator."""
        if not den:
            raise ZeroDivisionError("matrix denominator is zero")
        num = []
        for row in rows:
            kept = {}
            for j, x in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column index outside range({cols})")
                if x:
                    kept[j] = x
            num.append(kept or _EMPTY_ROW)
        return cls._trusted(tuple(num), cols, den)

    @classmethod
    def _trusted(cls, num: tuple[Row, ...], cols: int, den: int = 1) -> "ExactMatrix":
        """num / den from rows an internal caller built itself: nonzero int
        numerators in range(cols) over a nonzero den.  It only normalises;
        `from_ints` is the checked form."""
        if den == 1:
            return cls._of(num, 1, cols)
        return cls._of(*_normalized(num, den), cols)

    @classmethod
    def _of(cls, num: tuple[Row, ...], den: int, cols: int) -> "ExactMatrix":
        """Wrap rows that are already normalised: nonzero int numerators in
        range(cols) over a positive den sharing no factor with all of them."""
        M = object.__new__(cls)
        _set_num(M, num)
        _set_den(M, den)
        _set_cols(M, cols)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix.from_ints, (self.num, self.cols, self.den))

    @property
    def rows(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> tuple[Vec, ...]:
        dense = getattr(self, "_entries", None)
        if dense is None:
            zero_row = zero_vector(self.cols)
            dense = tuple(
                tuple(_dense(row, self.cols, self.den)) if row else zero_row for row in self.num
            )
            _set(self, "_entries", dense)
        return dense

    @staticmethod
    def from_rows(data: Sequence[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        """Matrix from dense rows, each of length `cols` (default: the
        length of the first row)."""
        if cols is None:
            if not data:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError(f"every row must have length {cols}")
        return ExactMatrix._of(*_int_rows(enumerate(r) for r in data), cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(tuple({i: 1} for i in range(n)), 1, n)

    @staticmethod
    def zero(m: int, n: int) -> "ExactMatrix":
        return ExactMatrix._of((_EMPTY_ROW,) * m, 1, n)

    def row(self, i: int) -> Vec:
        dense = getattr(self, "_entries", None)
        if dense is not None:
            return dense[i]
        return tuple(_dense(self.num[i], self.cols, self.den))

    def transpose(self) -> "ExactMatrix":
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.num):
            for j, x in row.items():
                out[j][i] = x
        return ExactMatrix._of(tuple(r or _EMPTY_ROW for r in out), self.den, self.rows)

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The entries, read in row-major order, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out: list[Row] = [{} for _ in range(rows)]
        n = self.cols
        for i, row in enumerate(self.num):
            for j, x in row.items():
                q, k = divmod(i * n + j, cols)
                out[q][k] = x
        return ExactMatrix._of(tuple(r or _EMPTY_ROW for r in out), self.den, cols)

    def flattened(self) -> "ExactMatrix":
        """The entries as one row of length rows * cols, in row-major order:
        the rows concatenated, row i shifted right by i * cols."""
        n = self.cols
        flat = {i * n + j: x for i, row in enumerate(self.num) for j, x in row.items()}
        return ExactMatrix._of((flat or _EMPTY_ROW,), self.den, self.rows * n)

    def take_rows(self, indices: Iterable[int]) -> "ExactMatrix":
        """The rows at `indices`, in that order."""
        return ExactMatrix._trusted(tuple(self.num[i] for i in indices), self.cols, self.den)

    def take_columns(self, indices: Sequence[int]) -> "ExactMatrix":
        """The matrix whose column t is column indices[t] of this one; an
        index may repeat."""
        targets: dict[int, list[int]] = {}
        for t, j in enumerate(indices):
            targets.setdefault(j, []).append(t)
        rows = tuple(
            {t: x for j, x in row.items() for t in targets.get(j, ())} or _EMPTY_ROW
            for row in self.num
        )
        return ExactMatrix._trusted(rows, len(indices), self.den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.num)

    def trace(self) -> int | Fraction:
        """The trace: an int when the matrix is integral, else a Fraction."""
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return _scalar(sum(row.get(i, 0) for i, row in enumerate(self.num)), self.den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "ExactMatrix", op) -> "ExactMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        out = []
        for a, b in zip(_rescaled(self, den), _rescaled(other, den)):
            acc = dict(a)
            for j, x in b.items():
                acc[j] = op(acc.get(j, 0), x)
            out.append({j: x for j, x in acc.items() if x} or _EMPTY_ROW)
        return ExactMatrix._of(*_normalized(tuple(out), den), self.cols)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "ExactMatrix":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return ExactMatrix.zero(self.rows, self.cols)
        p = c.numerator
        num = self.num
        if p != 1:
            num = tuple({j: p * x for j, x in row.items()} or _EMPTY_ROW for row in num)
        return ExactMatrix._of(*_normalized(num, self.den * c.denominator), self.cols)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The product; I * A and A * I return A as it is."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        brows = other.num
        out = []
        for arow in self.num:
            acc: Row = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: x for j, x in acc.items() if x} or _EMPTY_ROW)
        return ExactMatrix._of(*_normalized(tuple(out), self.den * other.den), other.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.cols, self.den, tuple(frozenset(row.items()) for row in self.num)))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        rows = [list(self.row(i)) for i in range(self.rows)]
        return f"ExactMatrix.from_rows({rows!r}, cols={self.cols})"

    def __str__(self) -> str:
        rows = (self.row(i) for i in range(self.rows))
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"


_set_num, _set_den, _set_cols = (ExactMatrix.__dict__[s].__set__ for s in ("num", "den", "cols"))


def _is_identity(M: ExactMatrix) -> bool:
    """Whether M is an identity matrix, read up to its first other row."""
    if M.den != 1 or len(M.num) != M.cols:
        return False
    for i, row in enumerate(M.num):
        if len(row) != 1 or row.get(i) != 1:
            return False
    return True


def _echelon_pivots(rows: Sequence[Row], unit: int = 0, ordered: bool = True) -> dict[int, int] | None:
    """{first column: row index} of the nonzero rows, in row order, or None
    unless they are in Hermite form (positive first entries, others in
    those columns in [0, that entry)), or with `unit` reduced (first entries
    `unit`, others 0: RREF of rows / unit), first columns rising if `ordered`."""
    pivots: dict[int, int] = {}
    last = -1
    for i, row in enumerate(rows):
        if not row:
            continue
        p = min(row)
        if (row[p] != unit if unit else row[p] <= 0) or p in pivots or (ordered and p < last):
            return None
        pivots[p], last = i, p
    for p, i in pivots.items():
        for j, x in rows[i].items():
            k = pivots.get(j)
            if k is not None and j != p and (unit or not 0 <= x < rows[k][j]):
                return None
    return pivots


def trace_product(A: ExactMatrix, B: ExactMatrix) -> int | Fraction:
    """trace(A * B) without forming the product: the sum of A[i][k] * B[k][i]
    over the nonzero entries of A.  An int when A and B are integral."""
    if A.cols != B.rows or A.rows != B.cols:
        raise ValueError(f"shape mismatch {A.rows}x{A.cols} * {B.rows}x{B.cols}")
    brows = B.num
    total = 0
    for i, row in enumerate(A.num):
        for k, a in row.items():
            b = brows[k].get(i)
            if b is not None:
                total += a * b
    return _scalar(total, A.den * B.den)


class _Packing:
    """Kronecker substitution for the zero tests of bilinear sums (Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", J. Symbolic Comput. 2009): an int row v is packed into
    the one integer P(v) = sum_k v_k 2^(w k), its entries as signed slots
    of w bits.  P is Z-linear, so a sum of terms c * P(v) is P of the row
    sum of c * v, computed with one bigint multiply-add per term instead of
    one per nonzero entry of v.

    The slot width is w = bound.bit_length() + 1, for a bound on |slot| of
    the row sum that the caller computes before packing; then every
    |s_k| <= bound < 2^(w - 1).  Balanced base-2^w digits are unique under
    that bound, so P(s) = 0 exactly when every s_k = 0: if some s_k is not
    0, let k0 be the largest such k; the slots below it sum to at most
    (2^(w - 1) - 1) (2^(w k0) - 1) / (2^w - 1) < 2^(w k0) <= |s_k0 2^(w k0)|
    in absolute value, so P(s) != 0.

    Packing pays only on dense operands that are read often: a read of a
    packed row saves the multiply-adds of all but one of its nonzeros, and
    packing costs one pass over every row it packs.  `pays` is the rule
    that the three checks built on this share (`rep.LinearRep.
    homomorphism_violations`, the Jacobi loop of `lie_core.validate` and
    `pipeline.verify_certificate`'s injection check), a deterministic
    function of counts each check makes while it scans its operands.
    """

    __slots__ = ("width",)

    # the rule's thresholds: the mean nonzeros per nonzero operand row, and
    # the mean reads of one by the zero tests.  On rows of one nonzero the
    # packed path makes as many multiply-adds as the nonzero-row loop, on
    # bigints, and on the small tables of the benchmark's theorem inputs,
    # read fewer than 16 times a row, the pass over the rows outweighs what
    # the reads save.
    DENSITY = 2
    READS = 16

    def __init__(self, bound: int) -> None:
        self.width = bound.bit_length() + 1

    def __call__(self, row: Row) -> int:
        if not row:
            return 0
        w = self.width
        return sum(x << (w * k) for k, x in row.items())

    @staticmethod
    def pays(nonzeros: int, rows: int, reads: Callable[[], int]) -> bool:
        """Whether to pack `rows` nonzero operand rows holding `nonzeros`
        nonzeros in all; reads() counts the reads of them by the zero tests,
        and runs only when the rows are dense."""
        return 0 < rows and _Packing.DENSITY * rows <= nonzeros and _Packing.READS * rows <= reads()

    @staticmethod
    def l1(rows: Iterable[Row]) -> int:
        """The largest sum of |entries| of one of rows; it bounds every
        |entry| too."""
        return max((sum(map(abs, row.values())) for row in rows if row), default=0)


def _rescaled(M: ExactMatrix, den: int) -> tuple[Row, ...]:
    """The numerator rows of M over den, a multiple of M.den."""
    s = den // M.den
    if s == 1:
        return M.num
    return tuple({j: s * x for j, x in row.items()} or _EMPTY_ROW for row in M.num)


def stack_rows(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column mismatch in stack")
    # each block is normalised, so the stack over the lcm of their
    # denominators is too
    den = lcm(*(b.den for b in blocks))
    rows: list[Row] = []
    for b in blocks:
        rows.extend(_rescaled(b, den))
    return ExactMatrix._of(tuple(rows), den, cols)


def block_diag(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    den = lcm(A.den, B.den)
    shift = A.cols
    shifted = tuple(
        {j + shift: x for j, x in row.items()} or _EMPTY_ROW for row in _rescaled(B, den)
    )
    return ExactMatrix._of(_rescaled(A, den) + shifted, den, A.cols + B.cols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _dense_ints(rows: Iterable[Row], n: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _hermite(A: list[list[int]], n: int, W: list[list[int]] | None = None) -> int:
    """Row Hermite form of the int rows A in their first n columns, in place;
    returns the number of pivots.  Every row operation is unimodular and
    spans the whole row, so columns past n ride along (on [M | I] they end
    as the transform).  Pivots are positive, entries above a pivot lie in
    [0, pivot), and the rows without a pivot sink to the bottom.

    With W given, each row operation E on A also maps the rows of W by
    (E^T)^-1, which is the inverse of E as a column operation on W^T: a
    swap swaps, row_r -= q*row_p makes W_p += q*W_r, and a sign flip
    flips.  W starts as the identity, so it ends as (U^T)^-1 for the
    transform U of the whole loop, U^-1 transposed, with no inversion.
    """
    m = len(A)
    piv = 0
    for col in range(n):
        pivot_row = next((r for r in range(piv, m) if A[r][col]), None)
        if pivot_row is None:
            continue
        A[piv], A[pivot_row] = A[pivot_row], A[piv]
        if W is not None:
            W[piv], W[pivot_row] = W[pivot_row], W[piv]
        P = A[piv]
        for r in range(piv + 1, m):
            R, a, b = A[r], P[col], A[r][col]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                A[r] = [y - q * x for x, y in zip(P, R)]
                if W is not None:
                    W[piv] = [u + q * v for u, v in zip(W[piv], W[r])]
            else:
                # (P, R) <- (x*P + y*R, c*P + d*R), determinant x*d - y*c = 1;
                # the inverse transpose of [[x, y], [c, d]] is [[d, -c], [-y, x]]
                x, y, g = _xgcd(a, b)
                c, d = -(b // g), a // g
                P, A[r] = [x * u + y * v for u, v in zip(P, R)], [c * u + d * v for u, v in zip(P, R)]
                if W is not None:
                    Wp, Wr = W[piv], W[r]
                    W[piv] = [d * u - c * v for u, v in zip(Wp, Wr)]
                    W[r] = [x * v - y * u for u, v in zip(Wp, Wr)]
        if P[col] < 0:
            P = [-v for v in P]
            if W is not None:
                W[piv] = [-v for v in W[piv]]
        A[piv] = P
        p = P[col]
        for r in range(piv):
            q = A[r][col] // p
            if q:
                A[r] = [v - q * w for v, w in zip(A[r], P)]
                if W is not None:
                    W[piv] = [u + q * v for u, v in zip(W[piv], W[r])]
        piv += 1
    return piv


def hnf(M: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U*M, U unimodular, pivots positive and entries
    above each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    The Hermite loop runs on [M | I], whose right block ends as U.
    """
    if M.den != 1:
        raise NonIntegralMatrixError("integer algorithm applied to a non-integral matrix")
    m, n = M.rows, M.cols
    A = [row + [int(i == j) for j in range(m)] for i, row in enumerate(_dense_ints(M.num, n))]
    _hermite(A, n)
    H = ExactMatrix.from_ints((dict(enumerate(row[:n])) for row in A), n)
    return H, ExactMatrix.from_ints((dict(enumerate(row[n:])) for row in A), m)


class Echelon:
    """Gauss-Jordan form of the rows added so far, grown one row at a time,
    without fractions.

    `rows` maps each pivot column p to a primitive int row that is positive
    at p, 0 at every other pivot and 0 left of p; its value is the row
    divided by its pivot entry, so the values sorted by pivot are the RREF
    of everything added, and each row is the unique primitive multiple of
    its RREF row.  Vectors come in as int numerator rows; a common
    denominator of the vector does not change its span.  To track
    combinations, add [v_i | e_i]: a unit tag column per row, past the
    columns of the v_i.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, Row] = {}

    def reduce(self, v: Row) -> tuple[Row, int]:
        """(r, d) with r / d the residual of v: v minus v[p] times the value
        of the row of each pivot p.

        Rows are 0 at every other pivot, so the residual is one step, taken
        over D, the lcm of the pivot entries met: r = D*v - sum of
        v[p] * (D / row[p]) * row.  It is 0 at every pivot, and empty iff v
        lies in the span.
        """
        rows = self.rows
        hits = [(p, x) for p, x in v.items() if p in rows]
        if not hits:
            return dict(v), 1
        D = lcm(*(rows[p][p] for p, _ in hits))
        res = dict(v) if D == 1 else {j: D * x for j, x in v.items()}
        for p, x in hits:
            row = rows[p]
            f = x * (D // row[p])
            for j, y in row.items():
                z = res.get(j, 0) - f * y
                if z:
                    res[j] = z
                else:
                    del res[j]
        return res, D

    def add(self, v: Row) -> Row:
        """Reduce v and keep a nonzero residual as a new row, made primitive
        and positive at its first column and cleared from the older rows;
        returns the residual numerators of `reduce`, a positive multiple of
        the residual."""
        res, _ = self.reduce(v)
        if res:
            p = min(res)
            g = gcd(*res.values())
            if res[p] < 0:
                g = -g
            new = res if g == 1 else {j: x // g for j, x in res.items()}
            a = new[p]
            for row in self.rows.values():
                c = row.get(p)
                if c:
                    # row <- (a*row - c*new) / content: positive at its own
                    # pivot (a > 0, and new is 0 there) and 0 at p
                    h = gcd(a, c)
                    a1, c1 = a // h, c // h
                    if a1 != 1:
                        for j in row:
                            row[j] *= a1
                    for j, y in new.items():
                        z = row.get(j, 0) - c1 * y
                        if z:
                            row[j] = z
                        else:
                            del row[j]
                    h = gcd(*row.values())
                    if h != 1:
                        for j in row:
                            row[j] //= h
            self.rows[p] = dict(new) if new is res else new
        return res


def _echelon_matrix(
    E: Echelon, pivots: Sequence[int], shift: int, rows: int, cols: int
) -> ExactMatrix:
    """The values of E's rows at `pivots`, columns shifted left by `shift`,
    padded with zero rows to `rows` rows.  Over the lcm of their pivot
    entries the rows are normalised: for each prime of it, the row whose
    pivot entry holds the highest power is scaled by a factor free of that
    prime, and being primitive it has an entry free of it."""
    den = lcm(*(E.rows[p][p] for p in pivots))
    out = []
    for p in pivots:
        row = E.rows[p]
        s = den // row[p]
        out.append({j - shift: s * x for j, x in row.items()})
    return ExactMatrix._of(tuple(out) + (_EMPTY_ROW,) * (rows - len(out)), den, cols)


def _tagged(M: ExactMatrix) -> Echelon:
    """The echelon of [num | I] with num the numerators of M: row i carries
    a 1 in column M.cols + i, so a combination x of the tagged rows is x
    applied to num, which is M.den * M."""
    n = M.cols
    E = Echelon()
    for i, row in enumerate(M.num):
        E.add({**row, n + i: 1})
    return E


def rref(M: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns).

    An M already in RREF, zero rows only at the end, is returned as it is,
    and reduced nonzero rows in another order, or with zero rows between
    them, are sorted by pivot over zero rows: the RREF is unique.  One scan
    decides both.  Otherwise rows stop being added once the rank reaches
    the column count: every later row lies in the span."""
    found = _echelon_pivots(M.num, M.den, ordered=False)
    if found is not None:
        pivots = tuple(sorted(found))
        indices = [found[p] for p in pivots]
        if indices == list(range(len(indices))):
            return M, pivots
        num = tuple(M.num[i] for i in indices) + (_EMPTY_ROW,) * (M.rows - len(indices))
        return ExactMatrix._of(num, M.den, M.cols), pivots
    E = Echelon()
    for row in M.num:
        E.add(row)
        if len(E.rows) == M.cols:
            break
    pivots = tuple(sorted(E.rows))
    return _echelon_matrix(E, pivots, 0, M.rows, M.cols), pivots


def rank(M: ExactMatrix) -> int:
    return len(rref(M)[1])


def invert(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix (of the identity, itself); raises on singular input."""
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    if _is_identity(M):
        return M
    n = M.rows
    # the RREF of [num | I] is [I | num^-1], and M^-1 = den * num^-1
    aug = ExactMatrix._of(tuple({**row, n + i: 1} for i, row in enumerate(M.num)), 1, 2 * n)
    R, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    inverse = ({j - n: M.den * x for j, x in row.items() if j >= n} for row in R.num)
    return ExactMatrix.from_ints(inverse, n, R.den)


def solve_right(aug: ExactMatrix) -> ExactMatrix | None:
    """The solution x of A x = b, as a 1-row matrix, for the augmented
    matrix aug = [A | b], with every free variable 0; None if inconsistent.
    """
    n = aug.cols - 1
    if n < 0:
        raise ValueError("an augmented matrix has at least one column")
    R, pivots = rref(aug)
    if n in pivots:
        return None
    # each RREF row holds R.den, a value of 1, at its pivot
    return ExactMatrix.from_ints([{c: row.get(n, 0) for row, c in zip(R.num, pivots)}], n, R.den)


def solve_left(B: ExactMatrix, v: Vec) -> Vec | None:
    """Coordinates x with x*B = v, or None if v is outside the row span:
    `solve_right` of [B^T | v^T], every free variable 0.

    When the rows of B are independent x is the only solution.
    """
    if len(v) != B.cols:
        raise ValueError("dimension mismatch")
    x = solve_right(stack_rows([B, ExactMatrix.from_rows([v], B.cols)]).transpose())
    return None if x is None else x.row(0)


@dataclass(frozen=True)
class Submodule:
    """Subgroup of Z^n or subspace of Q^n with a canonical row basis.

    Over Z the basis is H/d where H is the Hermite form of d times the
    generators and d is their common denominator; over Q it is the RREF.
    Equality of Submodules is equality of the canonical data.  A Submodule
    built directly from independent rows takes coordinates in those rows.

    Coordinates are back-substituted (`_coordinates`) in rows that lead at
    distinct columns: an RREF, a Hermite basis or its Q-view, and the
    stack [inner; extend_basis(inner, outer)] over Q.  There, a nonzero
    combination of outer's RREF rows leads at the outer pivot of its first
    nonzero coefficient, so inner leads at the outer pivots at rref(C)'s
    pivots, C its coordinates in outer, and the added rows at the others.
    Any other basis B = T * E, E its RREF and T its entries at E's pivots,
    is read in E, times T^-1.  The first query picks the path and keeps
    what it read (outside equality, hashing, repr and pickles); dependent
    or zero rows are a ValueError there.
    """

    ambient_rank: int
    basis: ExactMatrix
    domain: str  # "Z" or "Q"

    @property
    def rank(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.rank == 0

    @staticmethod
    def of_rows(M: ExactMatrix, domain: str) -> "Submodule":
        """The canonical Submodule spanned by the rows of M.  Over Z, nonzero
        rows in Hermite form are kept: `_hermite` makes no operation on them."""
        if domain not in ("Z", "Q"):
            raise ValueError("domain must be 'Z' or 'Q'")
        n = M.cols
        if domain == "Q":
            R, pivots = rref(M)
            return Submodule(n, ExactMatrix._of(R.num[: len(pivots)], R.den, n), "Q")
        rows = tuple(row for row in M.num if row)
        if _echelon_pivots(rows) is None:
            A = _dense_ints(rows, n)
            rows = tuple({j: x for j, x in enumerate(row) if x} for row in A[: _hermite(A, n)])
        return Submodule(n, ExactMatrix._trusted(rows, n, M.den), "Z")

    @staticmethod
    def zero(ambient_rank: int, domain: str = "Z") -> "Submodule":
        return Submodule(ambient_rank, ExactMatrix.zero(0, ambient_rank), domain)

    @staticmethod
    def full(ambient_rank: int, domain: str = "Z") -> "Submodule":
        return Submodule(ambient_rank, ExactMatrix.identity(ambient_rank), domain)

    @cached_property
    def _reader(self) -> tuple[ExactMatrix, list[tuple[int, int]], ExactMatrix | None]:
        """(R, leads, inverse): the rows R that back-substitution reads,
        their (first column, row index) pairs in rising column order, and
        None when R is the basis, else T^-1 for the basis T * R.  A square
        basis of independent rows has the identity as its RREF, so T is the
        basis itself, and `invert` alone decides whether it is singular."""
        B = self.basis
        leads = sorted((min(row), i) for i, row in enumerate(B.num) if row)
        if len({p for p, _ in leads}) == B.rows:
            return B, leads, None
        if B.is_square:
            try:
                inverse = invert(B)
            except ValueError:
                raise ValueError("coordinates need independent basis rows") from None
            return ExactMatrix.identity(B.rows), [(i, i) for i in range(B.rows)], inverse
        E, pivots = rref(B)
        if len(pivots) < B.rows:
            raise ValueError("coordinates need independent basis rows")
        return E, [(p, i) for i, p in enumerate(pivots)], invert(B.take_columns(pivots))

    def __getstate__(self) -> dict:
        # what the first query read stays out of pickles; a copy reads its own
        return {k: v for k, v in self.__dict__.items() if k != "_reader"}

    def _coordinates(self, w: Row, d: int) -> tuple[Row, int] | None:
        """Coordinates of w / d as (x, e), x / e, respecting the domain, or
        None if w / d has none.  With num / den the rows read, x * num =
        den * w / d: walk the rows in rising first column p, the residual
        starting at den * w over D = d.  A row's coordinate is the residual
        at p over the row's entry a there; subtracting it clears p for good.
        If a does not divide the residual at p, the residual and D take the
        factor it lacks.  w is in the span iff the residual ends empty;
        coordinates are unique, so over Z the first non-integer decides."""
        R, leads, inverse = self._reader
        integral = self.domain == "Z" and inverse is None
        rows, D = R.num, d
        res = dict(w) if R.den == 1 else {j: R.den * c for j, c in w.items()}
        x: Row = {}
        for p, i in leads:
            c = res.get(p)
            if c is None:
                continue
            row = rows[i]
            a = row[p]
            q, r = divmod(c, a)
            if r:
                if integral:
                    return None
                g = gcd(c, a)
                s, q = a // g, c // g
                res = {j: s * y for j, y in res.items()}
                x = {t: s * y for t, y in x.items()}
                D *= s
            elif integral and q % D:
                return None
            x[i] = q
            for j, y in row.items():
                z = res.get(j, 0) - q * y
                if z:
                    res[j] = z
                else:
                    del res[j]
        if res:
            return None
        if inverse is None:
            return x, D
        y = ExactMatrix._trusted((x or _EMPTY_ROW,), self.rank, D) * inverse
        return None if self.domain == "Z" and y.den != 1 else (y.num[0], y.den)

    def coordinate_rows(self, M: ExactMatrix) -> ExactMatrix | None:
        """The matrix X with X * basis = M, respecting the domain (Z:
        integral), or None if a row of M has no such coordinates."""
        if M.cols != self.ambient_rank:
            raise ValueError("dimension mismatch")
        found = [self._coordinates(row, M.den) for row in M.num]
        if None in found:
            return None
        den = lcm(*(e for _, e in found))
        rows = tuple(
            (x if e == den else {i: c * (den // e) for i, c in x.items()}) or _EMPTY_ROW
            for x, e in found
        )
        return ExactMatrix._trusted(rows, self.rank, den)

    def contains_rows(self, M: ExactMatrix) -> bool:
        """Whether every row of M has coordinates in the basis, respecting
        the domain; stops at the first row that has none."""
        if M.cols != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(self._coordinates(row, M.den) is not None for row in M.num)

    def coordinates(self, v: Vec) -> Vec | None:
        """`coordinate_rows` of the one vector v."""
        X = self.coordinate_rows(ExactMatrix.from_rows([v], cols=self.ambient_rank))
        return None if X is None else X.row(0)

    def sum(self, other: "Submodule") -> "Submodule":
        self._check_compatible(other)
        return Submodule.of_rows(stack_rows([self.basis, other.basis]), self.domain)

    def saturate(self) -> "Submodule":
        """The closure in (1/d) * Z^n, d the basis's denominator: the points
        of (1/d) * Z^n in the Q-span.  For d = 1 that is the isolated
        closure; Z(1/2, 0) + Z(0, 1/3) closes to (1/6) * Z^2.  No-op over Q.

        The basis rows must be independent.  With B their numerators (k x n)
        and H the Hermite form of B^T, B = T * W for T = H[:k]^T triangular
        and W spanning the integer points of the Q-span (see `extend_basis`),
        so the closure is the Hermite form of W = T^-1 * B, over d.  If B is
        in Hermite form with pivots 1, its minor at the pivots is
        unitriangular: back-substitution gives every integer point of its
        Q-span integral coordinates, so B spans them, and the closure is self."""
        if self.domain == "Q" or len(_echelon_pivots(self.basis.num, 1) or ()) == self.rank:
            return self
        n, k = self.ambient_rank, self.rank
        B = self.basis.num
        H = _dense_ints(self.basis.transpose().num, k)
        if _hermite(H, k) != k:
            raise ValueError("saturate needs independent basis rows")
        W: list[Row] = []
        for i in range(k):
            acc = dict(B[i])
            for j in range(i):
                t = H[j][i]
                if t:
                    for c, x in W[j].items():
                        acc[c] = acc.get(c, 0) - t * x
            p = H[i][i]
            W.append({c: x // p for c, x in acc.items() if x})
        sat = Submodule.of_rows(ExactMatrix._of(tuple(W), 1, n), "Z")
        return Submodule(n, ExactMatrix.from_ints(sat.basis.num, n, self.basis.den), "Z")

    def _check_compatible(self, other: "Submodule") -> None:
        if self.ambient_rank != other.ambient_rank or self.domain != other.domain:
            raise ValueError("incompatible submodules")


def kernel_basis(M: ExactMatrix, domain: str = "Q") -> Submodule:
    """Left kernel {v : v*M = 0}; over Z the saturated integral kernel.

    Over Q the rows of the echelon of [num | I] that pivot in the tag
    columns are [0 | k] with the k the RREF basis of the kernel.  Over Z
    the numerators of those rows span a full-rank sublattice of the
    integer points of that Q-space, so their saturation is all of them.
    """
    n = M.cols
    E = _tagged(M)
    pivots = [p for p in sorted(E.rows) if p >= n]
    basis = _echelon_matrix(E, pivots, n, len(pivots), M.rows)
    if domain == "Q":
        return Submodule(M.rows, basis, "Q")
    return Submodule(M.rows, ExactMatrix._of(basis.num, 1, M.rows), "Z").saturate()


def extend_basis(inner: Submodule, outer: Submodule) -> ExactMatrix:
    """Rows extending inner's basis to a basis of outer.

    Over Z this requires inner to be isolated in outer (the coordinate
    matrix must be completable to a unimodular one).
    """
    C = outer.coordinate_rows(inner.basis)
    if C is None:
        raise ValueError("inner is not contained in outer")
    k, m = inner.rank, outer.rank
    if k == m:
        return ExactMatrix.zero(0, outer.ambient_rank)
    if outer.domain == "Q":
        _, pivots = rref(C)
        extra = [outer.basis.num[c] for c in range(m) if c not in pivots]
        return ExactMatrix.from_ints(extra[: m - k], outer.ambient_rank, outer.basis.den)
    # over Z the coordinates are integral.  With H = U * C^T the Hermite
    # form of C^T and U its transform, C = H^T * W for the unimodular
    # W = (U^T)^-1, which the Hermite loop keeps up to date itself, and
    # H^T = [T | 0] with T (k x k) triangular: the first k rows of W span
    # the integer points of the Q-span of C, which holds C with index
    # |det T|, and the rest complete them to a basis of Z^m; saturation
    # forces |det T| = 1
    H = _dense_ints(C.transpose().num, k)
    W = [[int(i == j) for j in range(m)] for i in range(m)]
    _hermite(H, k, W)
    det = 1
    for i in range(k):
        det *= H[i][i]
    if abs(det) != 1:
        raise ValueError("inner is not isolated in outer; cannot extend over Z")
    rest = tuple({j: x for j, x in enumerate(row) if x} for row in W[k:])
    completion = ExactMatrix._of(rest, 1, m) * outer.basis
    # Unimodular transformations among the completion rows preserve the
    # property that inner + completion is a basis; canonicalize via HNF.
    return Submodule.of_rows(completion, "Z").basis
