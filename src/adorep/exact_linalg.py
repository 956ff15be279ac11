"""Exact linear algebra over the integers and rationals.

Matrices carry Fraction entries and are immutable.  They are stored as
sparse rows (only the nonzero entries), so every kernel costs time in the
number of nonzeros rather than the number of cells.  Every rational
elimination (RREF, inverses, solves, kernels) goes through one incremental
sparse `Echelon`; the one integer normal form, Hermite, runs on dense int
working copies and wraps its results back into matrices.  Spans, isolated
closures and kernels over Z all come from it.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, str, Fraction]
Vec = tuple[Fraction, ...]
Row = dict[int, Fraction]  # column index -> nonzero entry

ZERO = Fraction(0)
ONE = Fraction(1)

# Shared by every row without nonzeros; rows are never mutated once built.
_EMPTY_ROW: Row = {}


class NonIntegralMatrixError(ValueError):
    """Raised when an integer-only algorithm receives fractional entries."""


def frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(xs: Iterable[Scalar]) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vector(n: int) -> Vec:
    return (ZERO,) * n


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vec) -> bool:
    return all(a == 0 for a in v)


def _sparse(values: Iterable[tuple[int, Scalar]]) -> Row:
    """Row of the nonzero (column, value) pairs, values made Fractions."""
    row = {}
    for j, x in values:
        x = frac(x)
        if x:
            row[j] = x
    return row or _EMPTY_ROW


def _dense(row: Mapping[int, Fraction], n: int) -> list[Fraction]:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return out


class ExactMatrix:
    """Immutable matrix of Fractions stored as sparse rows.

    `sparse_rows[i]` maps column indices to the nonzero entries of row i;
    zeros are never stored, so equality and hashing are value equality
    however a matrix was built.  `cols` is kept so 0-row shapes survive.
    `entries` is a dense view (a tuple of row tuples) built on first use
    and cached; the kernels never read it.
    """

    __slots__ = ("sparse_rows", "cols", "_entries", "_hash")

    def __init__(self, rows: Iterable[Mapping[int, Scalar]], cols: int):
        """Matrix from sparse rows: one mapping column -> value per row.

        Zero values are dropped; every column index must lie in range(cols).
        """
        self._init(tuple(_sparse(row.items()) for row in rows), cols)

    @classmethod
    def _of(cls, rows: tuple[Row, ...], cols: int) -> "ExactMatrix":
        """Wrap rows that already hold only nonzero Fractions."""
        M = object.__new__(cls)
        M._init(rows, cols)
        return M

    def _init(self, rows: tuple[Row, ...], cols: int) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "sparse_rows", rows)
        setattr_(self, "cols", cols)
        setattr_(self, "_entries", None)
        setattr_(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix, (self.sparse_rows, self.cols))

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @property
    def entries(self) -> tuple[Vec, ...]:
        dense = self._entries
        if dense is None:
            zero_row = zero_vector(self.cols)
            dense = tuple(
                tuple(_dense(row, self.cols)) if row else zero_row for row in self.sparse_rows
            )
            object.__setattr__(self, "_entries", dense)
        return dense

    @staticmethod
    def from_rows(data: Sequence[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        if data:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return ExactMatrix._of(tuple(_sparse(enumerate(r)) for r in data), cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(tuple({i: ONE} for i in range(n)), n)

    @staticmethod
    def zero(m: int, n: int) -> "ExactMatrix":
        return ExactMatrix._of((_EMPTY_ROW,) * m, n)

    @staticmethod
    def from_columns(cols: Sequence[Vec], rows: int | None = None) -> "ExactMatrix":
        if not cols:
            if rows is None:
                raise ValueError("empty matrix needs an explicit row count")
            return ExactMatrix.zero(rows, 0)
        m = len(cols[0])
        if any(len(c) != m for c in cols):
            raise ValueError("ragged columns")
        out: list[Row] = [{} for _ in range(m)]
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                x = frac(x)
                if x:
                    out[i][j] = x
        return ExactMatrix._of(tuple(r or _EMPTY_ROW for r in out), len(cols))

    def row(self, i: int) -> Vec:
        if self._entries is not None:
            return self._entries[i]
        return tuple(_dense(self.sparse_rows[i], self.cols))

    def column(self, j: int) -> Vec:
        return tuple(row.get(j, ZERO) for row in self.sparse_rows)

    def transpose(self) -> "ExactMatrix":
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return ExactMatrix._of(tuple(r or _EMPTY_ROW for r in out), self.rows)

    def flattened(self) -> "ExactMatrix":
        """The entries as one row of length rows * cols, in row-major order."""
        n = self.cols
        flat = {i * n + j: x for i, row in enumerate(self.sparse_rows) for j, x in row.items()}
        return ExactMatrix._of((flat or _EMPTY_ROW,), self.rows * n)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.sparse_rows for x in row.values())

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((row.get(i, ZERO) for i, row in enumerate(self.sparse_rows)), ZERO)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "ExactMatrix", op) -> "ExactMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self.sparse_rows, other.sparse_rows):
            if not b:
                out.append(a)
                continue
            acc = dict(a)
            for j, x in b.items():
                acc[j] = op(acc.get(j, ZERO), x)
            out.append({j: x for j, x in acc.items() if x} or _EMPTY_ROW)
        return ExactMatrix._of(tuple(out), self.cols)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-ONE)

    def scale(self, c: Scalar) -> "ExactMatrix":
        cf = frac(c)
        if not cf:
            return ExactMatrix.zero(self.rows, self.cols)
        return ExactMatrix._of(
            tuple({j: cf * x for j, x in row.items()} or _EMPTY_ROW for row in self.sparse_rows),
            self.cols,
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        brows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            acc: Row = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: x for j, x in acc.items() if x} or _EMPTY_ROW)
        return ExactMatrix._of(tuple(out), other.cols)

    def power(self, k: int) -> "ExactMatrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        result = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self.sparse_rows == other.sparse_rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.cols, tuple(frozenset(row.items()) for row in self.sparse_rows)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        rows = [list(self.row(i)) for i in range(self.rows)]
        return f"ExactMatrix.from_rows({rows!r}, cols={self.cols})"

    def __str__(self) -> str:
        rows = (self.row(i) for i in range(self.rows))
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"


def mat_vec(M: ExactMatrix, v: Vec) -> Vec:
    """M applied to a column vector (returned as a tuple)."""
    if len(v) != M.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum((x * v[j] for j, x in row.items()), ZERO) for row in M.sparse_rows)


def vec_mat(v: Vec, M: ExactMatrix) -> Vec:
    """Row vector times matrix."""
    if len(v) != M.rows:
        raise ValueError("dimension mismatch")
    out = [ZERO] * M.cols
    for c, row in zip(v, M.sparse_rows):
        if c:
            for j, x in row.items():
                out[j] += c * x
    return tuple(out)


def trace_product(A: ExactMatrix, B: ExactMatrix) -> Fraction:
    """trace(A * B) without forming the product: the sum of A[i][k] * B[k][i]
    over the nonzero entries of A."""
    if A.cols != B.rows or A.rows != B.cols:
        raise ValueError(f"shape mismatch {A.rows}x{A.cols} * {B.rows}x{B.cols}")
    brows = B.sparse_rows
    total = ZERO
    for i, row in enumerate(A.sparse_rows):
        for k, a in row.items():
            b = brows[k].get(i)
            if b is not None:
                total += a * b
    return total


def stack_rows(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    cols = blocks[0].cols
    rows: list[Row] = []
    for b in blocks:
        if b.cols != cols:
            raise ValueError("column mismatch in stack")
        rows.extend(b.sparse_rows)
    return ExactMatrix._of(tuple(rows), cols)


def block_diag(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    shift = A.cols
    shifted = tuple({j + shift: x for j, x in row.items()} or _EMPTY_ROW for row in B.sparse_rows)
    return ExactMatrix._of(A.sparse_rows + shifted, A.cols + B.cols)


def lcm_denominators(M: ExactMatrix) -> int:
    """Least positive integer d with d*M integral."""
    d = 1
    for row in M.sparse_rows:
        for x in row.values():
            d = lcm(d, x.denominator)
    return d


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


def _to_int_lists(M: ExactMatrix) -> list[list[int]]:
    if not M.is_integral:
        raise NonIntegralMatrixError("integer algorithm applied to a non-integral matrix")
    return [[int(x) for x in _dense(row, M.cols)] for row in M.sparse_rows]


def _wrap_int(A: list[list[int]], cols: int) -> ExactMatrix:
    return ExactMatrix._of(
        tuple({j: Fraction(x) for j, x in enumerate(row) if x} or _EMPTY_ROW for row in A), cols
    )


def _row_combine(
    mats: Sequence[list[list[int]]], r: int, s: int, a: int, b: int, c: int, d: int
) -> None:
    """(row r, row s) <- (a*r + b*s, c*r + d*s) in each matrix, a*d - b*c = +-1."""
    for T in mats:
        Tr, Ts = T[r], T[s]
        for k in range(len(Tr)):
            Tr[k], Ts[k] = a * Tr[k] + b * Ts[k], c * Tr[k] + d * Ts[k]


def hnf(M: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U*M, U unimodular, pivots positive and entries
    above each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    m, n = M.rows, M.cols
    A = _to_int_lists(M)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    piv = 0
    for col in range(n):
        pivot_row = next((r for r in range(piv, m) if A[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != piv:
            A[piv], A[pivot_row] = A[pivot_row], A[piv]
            U[piv], U[pivot_row] = U[pivot_row], U[piv]
        for r in range(piv + 1, m):
            if A[r][col] == 0:
                continue
            a, b = A[piv][col], A[r][col]
            if b % a == 0:
                q = b // a
                _row_combine((A, U), piv, r, 1, 0, -q, 1)
            else:
                x, y, g = _xgcd(a, b)
                _row_combine((A, U), piv, r, x, y, -(b // g), a // g)
        if A[piv][col] < 0:
            A[piv] = [-v for v in A[piv]]
            U[piv] = [-v for v in U[piv]]
        p = A[piv][col]
        for r in range(piv):
            q = A[r][col] // p
            if q:
                A[r] = [v - q * w for v, w in zip(A[r], A[piv])]
                U[r] = [v - q * w for v, w in zip(U[r], U[piv])]
        piv += 1
        if piv == m:
            break
    return _wrap_int(A, n), _wrap_int(U, m)


def _hermite_completion(B: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(H, W) with H the Hermite form of B^T and W unimodular, B = H^T * W.

    For integral B (k x n) of rank k, H^T = [T | 0] with T (k x k)
    triangular: the first k rows of W span the integer points of the
    Q-span of B, which holds B with index |det T|, and the remaining rows
    complete them to a basis of Z^n.
    """
    H, U = hnf(B.transpose())
    return H, invert(U.transpose())


def _subtract(row: Row, c: Fraction, other: Row) -> None:
    """row -= c * other in place, dropping the entries that cancel."""
    for j, x in other.items():
        y = row.get(j, ZERO) - c * x
        if y:
            row[j] = y
        else:
            del row[j]


class Echelon:
    """Gauss-Jordan form of the rows added so far, grown one row at a time.

    `rows` maps each pivot column to a sparse row that is 1 at its pivot, 0
    at every other pivot and 0 left of its pivot, so the rows sorted by
    pivot are the RREF of everything added.  To track combinations, add
    [v_i | e_i]: a unit tag column per row, past the columns of the v_i.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, Row] = {}

    def reduce(self, v: Row) -> Row:
        """The residual of v: v minus v[p] times the row of each pivot p.

        It is 0 at every pivot, and empty iff v lies in the span.
        """
        res = dict(v)
        rows = self.rows
        for p in [p for p in res if p in rows]:
            _subtract(res, res[p], rows[p])
        return res

    def add(self, v: Row) -> Row:
        """Reduce v and keep a nonzero residual as a new row, normalised at
        its first column and cleared from the older rows; returns the
        residual before normalising."""
        res = self.reduce(v)
        if res:
            p = min(res)
            inv = 1 / res[p]
            new = {j: x * inv for j, x in res.items()}
            for row in self.rows.values():
                if p in row:
                    _subtract(row, row[p], new)
            self.rows[p] = new
        return res


def _tagged(M: ExactMatrix) -> Echelon:
    """The echelon of [M | I]: row i of M carries a 1 in column M.cols + i."""
    n = M.cols
    E = Echelon()
    for i, row in enumerate(M.sparse_rows):
        E.add({**row, n + i: ONE})
    return E


def rref(M: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns)."""
    E = Echelon()
    for row in M.sparse_rows:
        E.add(row)
    pivots = tuple(sorted(E.rows))
    R = tuple(E.rows[p] for p in pivots) + (_EMPTY_ROW,) * (M.rows - len(pivots))
    return ExactMatrix._of(R, M.cols), pivots


def rank(M: ExactMatrix) -> int:
    return len(rref(M)[1])


def invert(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    aug = ExactMatrix._of(
        tuple({**row, n + i: ONE} for i, row in enumerate(M.sparse_rows)), 2 * n
    )
    R, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return ExactMatrix._of(
        tuple({j - n: x for j, x in row.items() if j >= n} for row in R.sparse_rows), n
    )


def solve_right(A: ExactMatrix, b: Vec) -> Vec | None:
    """One solution x of A x = b, or None if inconsistent."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    n = A.cols
    aug = ExactMatrix(({**row, n: bi} for row, bi in zip(A.sparse_rows, b)), n + 1)
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for row, col in zip(R.sparse_rows, pivots):
        x[col] = row.get(n, ZERO)
    return tuple(x)


def left_solver(B: ExactMatrix) -> Callable[[Vec], Vec | None]:
    """The map v -> x with x*B = v, or None if v is outside the row span.

    B is factored once as the echelon of [B | I]; each vector then costs
    one sparse reduction of [v | 0], which leaves [0 | -x] when v is in the
    span.  When the rows of B are independent x is the only solution.
    """
    k, n = B.rows, B.cols
    E = _tagged(B)

    def solve(v: Vec) -> Vec | None:
        if len(v) != n:
            raise ValueError("dimension mismatch")
        res = E.reduce({j: x for j, x in enumerate(v) if x})
        if any(j < n for j in res):
            return None
        x = [ZERO] * k
        for j, y in res.items():
            x[j - n] = -y
        return tuple(x)

    return solve


def solve_left(B: ExactMatrix, v: Vec) -> Vec | None:
    """Coordinates x with x*B = v, or None if v is outside the row span."""
    return left_solver(B)(v)


@dataclass(frozen=True)
class Submodule:
    """Subgroup of Z^n or subspace of Q^n with a canonical row basis.

    Over Z the basis is H/d where H is the Hermite form of d times the
    generators and d is their common denominator; over Q it is the RREF.
    Equality of Submodules is equality of the canonical data.  The basis is
    factored once, on the first `coordinates` call, and the solver kept on
    the instance (outside equality, hashing and repr).
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
    def span(vectors: Sequence[Vec], ambient_rank: int, domain: str = "Z") -> "Submodule":
        if domain not in ("Z", "Q"):
            raise ValueError("domain must be 'Z' or 'Q'")
        M = ExactMatrix.from_rows(list(vectors), cols=ambient_rank)
        if domain == "Q":
            R, pivots = rref(M)
            rows = R.sparse_rows[: len(pivots)]
            return Submodule(ambient_rank, ExactMatrix._of(rows, ambient_rank), "Q")
        d = lcm_denominators(M)
        H, _ = hnf(M.scale(d))
        rows = tuple(r for r in H.sparse_rows if r)
        basis = ExactMatrix._of(rows, ambient_rank).scale(Fraction(1, d))
        return Submodule(ambient_rank, basis, "Z")

    @staticmethod
    def zero(ambient_rank: int, domain: str = "Z") -> "Submodule":
        return Submodule(ambient_rank, ExactMatrix.zero(0, ambient_rank), domain)

    @staticmethod
    def full(ambient_rank: int, domain: str = "Z") -> "Submodule":
        return Submodule(ambient_rank, ExactMatrix.identity(ambient_rank), domain)

    @cached_property
    def _solve(self) -> Callable[[Vec], Vec | None]:
        return left_solver(self.basis)

    def __getstate__(self) -> dict:
        # the cached solver is a closure, which cannot be pickled; an
        # unpickled copy builds its own on first use
        return {k: v for k, v in self.__dict__.items() if k != "_solve"}

    def coordinates(self, v: Vec) -> Vec | None:
        """Coordinates of v in the basis, respecting the domain (Z: integral)."""
        x = self._solve(v)
        if x is None:
            return None
        if self.domain == "Z" and any(c.denominator != 1 for c in x):
            return None
        return x

    def contains(self, v: Vec) -> bool:
        return self.coordinates(v) is not None

    def contains_submodule(self, other: "Submodule") -> bool:
        return all(self.contains(r) for r in other.basis.entries)

    def sum(self, other: "Submodule") -> "Submodule":
        self._check_compatible(other)
        return Submodule.span(
            list(self.basis.entries) + list(other.basis.entries),
            self.ambient_rank,
            self.domain,
        )

    def intersect(self, other: "Submodule") -> "Submodule":
        self._check_compatible(other)
        if self.rank == 0 or other.rank == 0:
            return Submodule.zero(self.ambient_rank, self.domain)
        stacked = stack_rows([self.basis, -other.basis])
        if self.domain == "Q":
            ker = [k for k in kernel_basis(stacked, "Q").basis.entries]
        else:
            d = lcm_denominators(stacked)
            ker = [k for k in kernel_basis(stacked.scale(d), "Z").basis.entries]
        vecs = [vec_mat(k[: self.rank], self.basis) for k in ker]
        return Submodule.span(vecs, self.ambient_rank, self.domain)

    def saturate(self) -> "Submodule":
        """Isolated closure: same Q-span, torsion-free quotient.  No-op over Q."""
        if self.domain == "Q" or self.rank == 0:
            return self
        d = lcm_denominators(self.basis)
        _, W = _hermite_completion(self.basis.scale(d))
        sat = Submodule.span([W.row(i) for i in range(self.rank)], self.ambient_rank, "Z")
        return Submodule(self.ambient_rank, sat.basis.scale(Fraction(1, d)), "Z")

    def _check_compatible(self, other: "Submodule") -> None:
        if self.ambient_rank != other.ambient_rank or self.domain != other.domain:
            raise ValueError("incompatible submodules")


def kernel_basis(M: ExactMatrix, domain: str = "Q") -> Submodule:
    """Left kernel {v : v*M = 0}; over Z the saturated integral kernel.

    Over Q the rows of the echelon of [M | I] that pivot in the tag columns
    are [0 | k] with the k the RREF basis of the kernel.
    """
    if domain == "Q":
        n = M.cols
        E = _tagged(M)
        rows = tuple({j - n: x for j, x in E.rows[p].items()} for p in sorted(E.rows) if p >= n)
        return Submodule(M.rows, ExactMatrix._of(rows, M.rows), "Q")
    # U is unimodular, so its rows at the zero rows of H = U*M span the
    # saturated kernel
    H, U = hnf(M)
    rows = [U.row(i) for i, h in enumerate(H.sparse_rows) if not h]
    return Submodule.span(rows, M.rows, "Z")


def extend_basis(inner: Submodule, outer: Submodule) -> ExactMatrix:
    """Rows extending inner's basis to a basis of outer.

    Over Z this requires inner to be isolated in outer (the coordinate
    matrix must be completable to a unimodular one).
    """
    inner_coords = []
    for r in inner.basis.entries:
        x = outer.coordinates(r)
        if x is None:
            raise ValueError("inner is not contained in outer")
        inner_coords.append(x)
    k, m = inner.rank, outer.rank
    if k == m:
        return ExactMatrix.zero(0, outer.ambient_rank)
    if outer.domain == "Q":
        C = ExactMatrix.from_rows(inner_coords, cols=m)
        _, pivots = rref(C)
        extra = [outer.basis.entries[c] for c in range(m) if c not in pivots]
        return ExactMatrix.from_rows(extra[: m - k], cols=outer.ambient_rank)
    C = ExactMatrix.from_rows(inner_coords, cols=m)
    if not C.is_integral:
        raise ValueError("inner has non-integral coordinates in outer")
    H, W = _hermite_completion(C)
    # C = [T | 0] * W; saturation forces |det T| = 1
    det = ONE
    for i in range(k):
        det *= H.sparse_rows[i].get(i, ZERO)
    if abs(det) != 1:
        raise ValueError("inner is not isolated in outer; cannot extend over Z")
    rows = [vec_mat(W.row(i), outer.basis) for i in range(k, m)]
    # Unimodular transformations among the completion rows preserve the
    # property that inner + completion is a basis; canonicalize via HNF.
    canon = Submodule.span(rows, outer.ambient_rank, "Z")
    return canon.basis
