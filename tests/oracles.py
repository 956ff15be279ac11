"""Independent oracles used by the tests.

These deliberately avoid the library's straightening and decomposition code
paths: the tensor-algebra oracle reduces words by unordered rewriting to a
fixed point (and lifts derivations word by word on top of it), and the
polynomial helpers are self-contained.  `ref_solvable_radical` and
`ref_nilradical` work on the dense adjoint matrices of L over Q: the
Killing-form radical and the envelope method on all of L, where the library
runs the derived series first and restricts the envelope to the ideal
[L, R_s].  `ref_hnf` is Euclid's column-by-column Hermite form, where the
library combines rows by extended gcds.  `ref_derived_series` brackets all
ordered pairs of basis vectors, where the library brackets the pairs
i < j only.  `ref_splittable_rep` builds the representation of a split
extension from its parts and re-assembles the lattice, where the library
takes the assembled lattice and splits it once.  `ref_mu_search` searches
for the rescaling integer mu round by round, where the library computes it
in closed form.  `ref_homomorphism_violations` compares two normalised
matrices per basis pair, where the library sums one int table per pair.
`ref_nilrep_violations` raises the image of every row of R_n to the
degree, and `ref_verify_representation` builds the representation report
from these two full scans, where the library checks pairs with a
generator, and images of generators, first.
`ref_verify_certificate` tests that nbar is an ideal and nilpotent before
it compares nbar with the nilradical of the extension, where the library
reads both properties off that comparison when it holds.
`ref_expansion_checks` runs the full checks of one elementary expansion
(Jacobi on every triple, the homomorphism on every pair, a fresh
nilradical), where the library certifies every step from its parts.
`ref_rescale_nilpotency` tests the scaled nilpotent lattice and the
nilpotent block of the extension with the saturated lower central series,
where the library reads nilpotency off one unsaturated chain.
`ref_levi_facts`, `ref_state_invariants`, `ref_step_facts`,
`ref_rescale_facts` and `ref_unimodular` run the construction checks that
the library dropped: it proves those facts in the docstrings of the
functions that build the rows, rather than checking them.
`ref_brackets` sums every pair term by term, where the library reads the
bracket of two single-entry rows off one table row; `ref_coordinate_rows`
solves on the tagged echelon of any basis, where the library reads a basis
in reduced echelon form at its pivots; `ref_subalgebra_lattice` and
`ref_quotient_lattice` bracket all ordered pairs, where the library
brackets the pairs p < q and mirrors them.  `ref_matrix_algebra_closure`
and `ref_nilradical` close the envelope on both sides, where the library
multiplies on the right only.  `ref_integer_kernel` reads the integer
kernel off the Hermite transform, where the library saturates the rational
kernel.  `is_semisimple` tests a trivial centre and a full-rank Killing
form, where the library reads semisimplicity off Cartan's criterion,
R_s = 0.  `ref_zprimes` replays the expansion maps to follow the
generators z', which the library's loop does not carry.
"""

import importlib.util
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

from adorep import catalog
from adorep.exact_linalg import (
    Echelon,
    ExactMatrix,
    Submodule,
    extend_basis,
    hnf,
    invert,
    kernel_basis,
    rank,
    stack_rows,
)
from adorep.jsonio import frac_to_str
from adorep.lie_core import (
    LieLattice,
    NotNilpotentError,
    center,
    is_ideal,
    is_nilpotent_submodule,
    killing_form,
    lower_central_series,
    nilradical,
    semidirect_assemble,
    solvable_radical,
    split_semidirect,
    unit,
    validate,
)
from adorep.nilrep import _sqrt_interval, eta_interval
from adorep.pbw import TruncatedUEA, build_weighted_basis
from adorep.pipeline import CertificateReport, VerificationReport, degree_bound
from adorep.rep import LinearRep

BENCH = Path(__file__).resolve().parent.parent / "bench"

ZERO = Fraction(0)


def span(vectors, n, domain="Z"):
    """The canonical Submodule spanned by dense vectors of length n."""
    return Submodule.of_rows(ExactMatrix.from_rows(list(vectors), cols=n), domain)


def ad(L, v):
    """The matrix of ad_v on column vectors, for one dense vector v."""
    return L.ad_rows(ExactMatrix.from_rows([v], cols=L.rank))[0]


def column(M, j):
    """Column j of M as a dense vector."""
    return M.transpose().row(j)


def tensor_normal_form(word, adapted_c, weights, cutoff):
    """Normal form of a tensor word (adapted-basis letters) modulo the ideal
    generated by [x,y] - (xy - yx) and modulo monomials of weight > cutoff.

    Rewrites an arbitrary inversion x_a x_b (a > b) to x_b x_a + [x_a, x_b]
    until no inversions remain.  Returns {exponent_tuple: coefficient}.
    """
    r = len(weights)
    result = {}
    pending = [(tuple(word), Fraction(1))]
    while pending:
        w, cf = pending.pop()
        if sum(weights[l] for l in w) > cutoff:
            continue
        pos = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if pos is None:
            alpha = [0] * r
            for l in w:
                alpha[l] += 1
            key = tuple(alpha)
            result[key] = result.get(key, ZERO) + cf
            continue
        a, b = w[pos], w[pos + 1]
        pending.append((w[:pos] + (b, a) + w[pos + 2 :], cf))
        for t, c in enumerate(adapted_c[a][b]):
            if c:
                pending.append((w[:pos] + (t,) + w[pos + 2 :], cf * c))
    return {k: v for k, v in result.items() if v}


def oracle_vector(word, T):
    """Tensor-oracle normal form expressed on T's monomial basis."""
    nf = tensor_normal_form(
        word, T.basis.adapted.c, T.basis.weights, T.cutoff
    )
    out = [ZERO] * T.dimension
    for alpha, cf in nf.items():
        out[T.index[alpha]] = cf
    return tuple(out)


def ref_derivation_star(T, D):
    """Dense rows of the lifted derivation D* on T's monomials.

    D (original coordinates, acting on columns) becomes D_ad on the adapted
    letters; D*(x^beta) then spreads D over every letter position p of the
    word of beta, sum_k D_ad[k][l_p] * (word with l_p -> k), and each word
    is reduced by the tensor oracle.
    """
    P = T.basis.change_of_basis.entries
    Pinv = T.basis.inverse.entries
    Dr = D.entries
    r = len(P)
    # D_ad[k][l]: coordinate k of D(adapted letter l)
    D_ad = [
        [
            sum(
                (Pinv[i][k] * Dr[i][j] * P[l][j] for i in range(r) for j in range(r)),
                ZERO,
            )
            for l in range(r)
        ]
        for k in range(r)
    ]
    n = T.dimension
    rows = [[ZERO] * n for _ in range(n)]
    for col, beta in enumerate(T.monomials):
        word = [l for l, e in enumerate(beta) for _ in range(e)]
        for p, l in enumerate(word):
            for k in range(r):
                if D_ad[k][l]:
                    nf = oracle_vector(word[:p] + [k] + word[p + 1 :], T)
                    for row, x in enumerate(nf):
                        rows[row][col] += D_ad[k][l] * x
    return rows


def poly_trim(p):
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_divmod(a, b):
    rem = list(a)
    quo = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return poly_trim(quo), poly_trim(rem)


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def poly_derivative(a):
    return poly_trim([i * a[i] for i in range(1, len(a))])


def is_squarefree(p):
    g = poly_gcd(p, poly_derivative(p))
    return len(g) == 1


def brute_force_hnf(M_rows, op_bound=6):
    """Canonical Hermite form of a small integer matrix found by searching
    unimodular row transforms with bounded entries.  2x2 only."""
    from itertools import product

    best = None
    for a, b, c, d in product(range(-op_bound, op_bound + 1), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        r0 = (a * M_rows[0][0] + b * M_rows[1][0], a * M_rows[0][1] + b * M_rows[1][1])
        r1 = (c * M_rows[0][0] + d * M_rows[1][0], c * M_rows[0][1] + d * M_rows[1][1])
        H = (r0, r1)
        if not _is_hnf_2x2(H):
            continue
        if best is None:
            best = H
        elif H != best:
            raise AssertionError(f"two distinct Hermite forms found: {best} vs {H}")
    return best


def _is_hnf_2x2(H):
    (a, b), (c, d) = H
    if c != 0:
        return False
    if a <= 0 or d <= 0:
        return False
    # entry above the second pivot reduced into [0, pivot)
    if not (0 <= b < d):
        return False
    return True


def ref_hnf(A, cols):
    """Row Hermite normal form of an integral matrix by Euclid's algorithm
    on each column: the row with the smallest nonzero |entry| at or below
    the current row divides the rows below it with remainder until it is
    their only nonzero entry; then it is made positive and the entries
    above it are reduced into [0, pivot).  Zero rows come last."""
    H = [[int(x) for x in row] for row in A]
    m = len(H)
    r = 0
    for c in range(cols):
        while True:
            nonzero = [i for i in range(r, m) if H[i][c]]
            if not nonzero:
                break
            p = min(nonzero, key=lambda i: abs(H[i][c]))
            H[r], H[p] = H[p], H[r]
            for i in range(r + 1, m):
                q = H[i][c] // H[r][c]
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
            if not any(H[i][c] for i in range(r + 1, m)):
                break
        if r == m or not H[r][c]:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            H[i] = [x - q * y for x, y in zip(H[i], H[r])]
        r += 1
    return H


# -- helpers that only the tests use --------------------------------------


def acceptance_entries():
    """Concrete lattices the acceptance suite runs over (all of rank <= 6)."""
    out = [catalog.get(n) for n in catalog.names() if n != "abelian_r"]
    out += [catalog.get(f"abelian_{r}") for r in range(1, 7)]
    return out


def nilpotent_entries(max_rank=6):
    """The nilpotent catalog lattices of the acceptance suite up to max_rank."""
    return [
        e
        for e in acceptance_entries()
        if e.expected["nilpotency_class"] is not None and e.lattice.rank <= max_rank
    ]


def is_nilpotent(L):
    """Whether the isolated lower central series of L reaches 0."""
    return lower_central_series(L)[-1].is_zero()


def nilpotency_class(L):
    """The length of the isolated lower central series of a nilpotent L."""
    chain = lower_central_series(L)
    if not chain[-1].is_zero():
        raise NotNilpotentError("lattice is not nilpotent")
    return len(chain) - 1


def burde_bound_is_tight(r):
    """B(r) < (eta + 1/100) * 2^r / sqrt(r), decided in rational arithmetic."""
    eta_lo, eta_hi = eta_interval()
    sqrt_r_lo, sqrt_r_hi = _sqrt_interval(Fraction(r))
    return eta_hi * sqrt_r_hi <= (eta_lo + Fraction(1, 100)) * sqrt_r_lo


def count_satisfies_burde(count, r):
    """Decide count <= eta * 2^r / sqrt(r) via count^2 * r <= eta^2 * 4^r."""
    if r < 1:
        raise ValueError("r must be at least 1")
    eta_lo, _ = eta_interval()
    return Fraction(count) ** 2 * r <= eta_lo**2 * 4**r


def power(M, k):
    """M^k for a square ExactMatrix M and k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("negative power of a matrix")
    if not M.is_square:
        raise ValueError("power of a non-square matrix")
    result = ExactMatrix.identity(M.rows)
    while k:
        if k & 1:
            result = result * M
        k >>= 1
        if k:
            M = M * M
    return result


# -- plain list-of-lists Fraction matrices --------------------------------
# A reference for the library's ExactMatrix kernel that shares none of its
# storage or elimination code: every matrix is a dense list of rows.


def ref_mul(A, B, inner, n):
    """A (m x inner) times B (inner x n); the shapes are explicit so that
    0-row and 0-column factors keep them."""
    return [[sum((A[i][k] * B[k][j] for k in range(inner)), ZERO) for j in range(n)] for i in range(len(A))]


def ref_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ref_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ref_scale(c, A):
    return [[c * a for a in row] for row in A]


def ref_transpose(A, cols):
    return [[A[i][j] for i in range(len(A))] for j in range(cols)]


def ref_trace(A):
    return sum((A[i][i] for i in range(len(A))), ZERO)


def ref_is_zero(A):
    return all(x == 0 for row in A for x in row)


def ref_rref(A, cols):
    """(reduced row echelon form, pivot columns) by Gauss-Jordan elimination,
    choosing the pivot row with the smallest index."""
    R = [list(row) for row in A]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        lead = R[r][c]
        R[r] = [x / lead for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def ref_rank(A, cols):
    return len(ref_rref(A, cols)[1])


def ref_solve_left(B, cols, v):
    """Some x with x * B = v, or None: eliminate on [B^T | v]."""
    m = len(B)
    aug = [[B[i][j] for i in range(m)] + [v[j]] for j in range(cols)]
    R, pivots = ref_rref(aug, m + 1)
    if m in pivots:
        return None
    x = [ZERO] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x


def checked_storage(M):
    """(num, den, cols) of `ExactMatrix.from_ints` applied to M's own rows:
    what the checked int constructor stores for the same values."""
    N = ExactMatrix.from_ints(M.num, M.cols, M.den)
    return N.num, N.den, N.cols


def ref_invert(A):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(A)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    R, pivots = ref_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def ref_left_kernel(A, cols):
    """RREF basis of {v : v * A = 0}: the free-variable solutions of
    A^T x = 0, each 1 in its free column, then put in reduced form."""
    R, pivots = ref_rref(ref_transpose(A, cols), len(A))
    basis = []
    for f in (c for c in range(len(A)) if c not in pivots):
        x = [ZERO] * len(A)
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -R[r][f]
        basis.append(x)
    return [row for row in ref_rref(basis, len(A))[0] if any(row)]


def ref_integer_kernel(M):
    """{v in Z^m : v*M = 0} as the library built it before it saturated the
    rational kernel: with (H, U) the Hermite form of the numerators of M,
    which have the same integer kernel, the rows of the unimodular U at
    the zero rows of H = U*num span it."""
    H, U = hnf(ExactMatrix.from_ints(M.num, M.cols))
    rows = [u for u, h in zip(U.num, H.num) if not h]
    return Submodule.of_rows(ExactMatrix.from_ints(rows, M.rows), "Z")


def ref_det(A):
    """Determinant of a square matrix by Laplace expansion along the first row."""
    if not A:
        return Fraction(1)
    return sum(
        ((-1) ** j * A[0][j] * ref_det([row[:j] + row[j + 1 :] for row in A[1:]])
         for j in range(len(A)) if A[0][j]),
        ZERO,
    )


def ref_minors_gcd(A, cols):
    """gcd of the k x k minors of an integral k x cols matrix (1 when k = 0).

    It is 1 iff the rows are a basis of a saturated sublattice of Z^cols:
    one that holds every integer point of its Q-span."""
    from itertools import combinations
    from math import gcd

    g = 0
    for picked in combinations(range(cols), len(A)):
        det = ref_det([[row[j] for j in picked] for row in A])
        assert det.denominator == 1
        g = gcd(g, int(det))
    return g


def ref_solve_right(A, cols, b):
    """The particular solution of A x = b whose free variables are 0, read
    from the RREF of [A | b]; None if the system is inconsistent."""
    R, pivots = ref_rref([list(row) + [bi] for row, bi in zip(A, b)], cols + 1)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = R[r][cols]
    return x


def ref_minimal_polynomial(A, n):
    """Coefficients, constant first, of the monic minimal polynomial of the
    n x n matrix A: the first flattened power A^k that depends on the ones
    before it, solved for."""
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    powers = [identity]
    while True:
        flat = [[x for row in P for x in row] for P in powers]
        if ref_rank(flat, n * n) < len(flat):
            x = ref_solve_left(flat[:-1], n * n, flat[-1])
            return [-c for c in x] + [Fraction(1)]
        powers.append(ref_mul(powers[-1], A, n, n))


def ref_matrix_algebra_closure(gens, n):
    """Basis of the associative algebra (no identity) generated by the n x n
    matrices gens, closed on both sides: candidates are the generators,
    then A*g and g*A for each A found in the previous round, where the
    library takes A*g only; each is kept iff the rank of all kept
    matrices, flattened, rises with it."""
    gens = [g for g in gens if not ref_is_zero(g)]
    basis = []

    def try_add(A):
        flat = [[x for row in M for x in row] for M in basis + [A]]
        if ref_rank(flat, n * n) == len(flat):
            basis.append(A)
            return True
        return False

    for g in gens:
        try_add(g)
    frontier = list(basis)
    while frontier:
        new = []
        for A in frontier:
            for g in gens:
                for P in (ref_mul(A, g, n, n), ref_mul(g, A, n, n)):
                    if try_add(P):
                        new.append(P)
        frontier = new
    return basis


# -- the kernels before single-term brackets, pivot coordinates and tables
# from the pairs p < q -------------------------------------------------------


def ref_brackets(L, pairs, den):
    """The rows [a, b] / den for the int numerator rows (a, b) of `pairs`,
    every one summed term by term from the table, single-entry rows too."""
    r, T = L.rank, L.table.num
    out = []
    for arow, brow in pairs:
        acc = {}
        for i, a in arow.items():
            for j, b in brow.items():
                for k, t in T[i * r + j].items():
                    acc[k] = acc.get(k, 0) + a * b * t
        out.append({k: x for k, x in acc.items() if x})
    return ExactMatrix.from_ints(out, r, den * L.table.den)


def ref_coordinate_rows(S, M):
    """The X with X * S.basis = M, integral over Z, or None, from the
    echelon of the tagged rows [num_i | e_i] of the basis, whatever its
    form: one reduction of [w | 0] leaves [0 | -y] with y * num = w."""
    B, n = S.basis, S.ambient_rank
    E = Echelon()
    for i, row in enumerate(B.num):
        E.add({**row, n + i: 1})
    found = []
    for w in M.num:
        res, D = E.reduce(w)
        if res and min(res) < n:
            return None
        x, e = {j - n: -B.den * y for j, y in res.items()}, D * M.den
        if S.domain == "Z" and any(c % e for c in x.values()):
            return None
        found.append((x, e))
    den = lcm(*(e for _, e in found))
    rows = [{i: c * (den // e) for i, c in x.items()} for x, e in found]
    return ExactMatrix.from_ints(rows, S.rank, den)


def ref_contains_rows(S, M):
    return ref_coordinate_rows(S, M) is not None


def _all_pairs(A):
    return [(a, b) for a in A.num for b in A.num]


def ref_subalgebra_lattice(L, S):
    """`subalgebra_lattice` from the brackets of all k^2 ordered pairs of
    basis rows, solved on the tagged echelon."""
    products = ref_brackets(L, _all_pairs(S.basis), S.basis.den**2)
    coords = ref_coordinate_rows(Submodule(S.ambient_rank, S.basis, "Q"), products)
    assert coords is not None and (S.domain == "Q" or coords.is_integral)
    return LieLattice(tuple(f"v{i}" for i in range(S.rank)), coords, S.domain), S.basis


def ref_quotient_lattice(L, ideal):
    """`quotient_lattice` from the brackets of all k^2 ordered pairs of
    coset representatives, solved on the tagged echelon."""
    comp = extend_basis(ideal, Submodule.full(L.rank, L.domain))
    k = comp.rows
    split = Submodule(L.rank, stack_rows([ideal.basis, comp]), "Q")
    coords = ref_coordinate_rows(split, ref_brackets(L, _all_pairs(comp), comp.den**2))
    table = coords.take_columns(range(ideal.rank, ideal.rank + k))
    return LieLattice(tuple(f"q{i}" for i in range(k)), table, L.domain), comp


# -- dense structure-constant tensors -------------------------------------
# The bracket as the dense triple loop over c[i][j][k], kept here as the
# reference for the library's sparse integer table.


def ref_bracket(c, u, v):
    """[u, v] = sum_ijk u_i v_j c[i][j][k] x_k, over every index triple."""
    r = len(c)
    out = [ZERO] * r
    for i in range(r):
        for j in range(r):
            for k in range(r):
                out[k] += u[i] * v[j] * c[i][j][k]
    return tuple(out)


def tensor_lattice(names, c, domain="Z"):
    """The lattice whose structure constants are the dense tensor c, Lie or
    not: its table has the r^2 rows c[i][j]."""
    r = len(names)
    rows = [c[i][j] for i in range(r) for j in range(r)]
    return LieLattice(names, ExactMatrix.from_rows(rows, cols=r), domain)


def ref_table(c):
    """The table of the dense tensor c: the dense matrix whose row i*r + j
    is c[i][j]."""
    r = len(c)
    return ExactMatrix.from_rows([c[i][j] for i in range(r) for j in range(r)], cols=r)


def dense_lattice_json(L):
    """The lattice JSON written from the dense tensor c: each nonzero
    c[i][j], i < j, as number strings, and the domain unless it is Z."""
    brackets = [
        {"i": i, "j": j, "coeffs": [frac_to_str(x) for x in L.c[i][j]]}
        for i in range(L.rank)
        for j in range(i + 1, L.rank)
        if any(L.c[i][j])
    ]
    out = {"rank": L.rank, "names": list(L.names), "brackets": brackets}
    if L.domain != "Z":
        out["domain"] = L.domain
    return out


def ref_derived_series(L, S):
    """The derived chain S, [S, S], ... of L, each term spanned by the dense
    brackets of all k^2 ordered pairs of its k basis vectors, saturated over
    Z, up to the first stationary term (included once).  The library is used
    only to span and saturate."""
    chain = [S]
    while True:
        rows = chain[-1].basis.entries
        brackets = [ref_bracket(L.c, u, v) for u in rows for v in rows]
        nxt = span(brackets, L.rank, L.domain).saturate()
        if nxt == chain[-1]:
            return chain
        assert len(chain) <= S.rank, "derived chain of a Lie tensor longer than rank + 1"
        chain.append(nxt)


def ref_validate(c, integral):
    """(antisymmetry, Jacobi, integrality) violations of the tensor c, as
    lists of (i, j, k); Jacobi on i < j < k with five ref_bracket calls."""
    r = len(c)
    units = [tuple(Fraction(int(a == i)) for a in range(r)) for i in range(r)]
    triples = [(i, j, k) for i in range(r) for j in range(r) for k in range(r)]
    anti = [(i, j, k) for i, j, k in triples if c[i][j][k] != -c[j][i][k]]
    integ = [(i, j, k) for i, j, k in triples if integral and c[i][j][k].denominator != 1]
    jac = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                ei, ej, ek = units[i], units[j], units[k]
                terms = (
                    ref_bracket(c, ref_bracket(c, ei, ej), ek),
                    ref_bracket(c, ref_bracket(c, ej, ek), ei),
                    ref_bracket(c, ref_bracket(c, ek, ei), ej),
                )
                if any(sum(t[a] for t in terms) != 0 for a in range(r)):
                    jac.append((i, j, k))
    return anti, jac, integ


def ref_is_derivation(c, D):
    """Whether D[x_i, x_j] = [D x_i, x_j] + [x_i, D x_j] for all i < j, with
    D a dense list of rows acting on columns."""
    r = len(c)
    units = [tuple(Fraction(int(a == i)) for a in range(r)) for i in range(r)]

    def apply(v):
        return tuple(sum((D[a][b] * v[b] for b in range(r)), ZERO) for a in range(r))

    for i in range(r):
        for j in range(i + 1, r):
            lhs = apply(ref_bracket(c, units[i], units[j]))
            left = ref_bracket(c, apply(units[i]), units[j])
            right = ref_bracket(c, units[i], apply(units[j]))
            if any(lhs[a] != left[a] + right[a] for a in range(r)):
                return False
    return True


def derivation_basis(L):
    """Basis of the derivation algebra of L over Q, by solving the Leibniz
    equations: a generator of test derivations.

    The unknowns are the entries D[a][b], row-major, and each pair i < j
    gives one equation per component k, read from the table over its
    denominator (a scaling that leaves the solutions unchanged).
    """
    r = L.rank
    if r == 0:
        return []
    T = L.table.num
    eq_rows = []
    for i in range(r):
        for j in range(i + 1, r):
            eqs = [{} for _ in range(r)]
            # D applied to [x_i,x_j]: sum_t c_ij^t D[k][t]
            for t, x in T[i * r + j].items():
                for k in range(r):
                    eqs[k][k * r + t] = x
            # minus [D x_i, x_j] and [x_i, D x_j], with D x_i = sum_a D[a][i] x_a
            for a in range(r):
                for k, x in T[a * r + j].items():
                    eqs[k][a * r + i] = eqs[k].get(a * r + i, 0) - x
                for k, x in T[i * r + a].items():
                    eqs[k][a * r + j] = eqs[k].get(a * r + j, 0) - x
            eq_rows.extend(eqs)
    system = ExactMatrix.from_ints(eq_rows, r * r) if eq_rows else ExactMatrix.zero(1, r * r)
    sols = kernel_basis(system.transpose(), "Q").basis
    return [sols.take_rows([q]).reshape(r, r) for q in range(sols.rows)]


# -- the nilradical from the full adjoint representation --------------------


def _reduce(echelon, v):
    """v minus its projection on the span of `echelon`, a list of (pivot,
    row) pairs each with a 1 at its pivot and 0 at the other pivots."""
    v = list(v)
    for p, row in echelon:
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _add_if_independent(echelon, v):
    """Append v to the echelon and return True iff it is not in its span."""
    v = _reduce(echelon, v)
    p = next((i for i, a in enumerate(v) if a), None)
    if p is None:
        return False
    v = [a / v[p] for a in v]
    for k, (q, row) in enumerate(echelon):
        if row[p]:
            f = row[p]
            echelon[k] = (q, [a - f * b for a, b in zip(row, v)])
    echelon.append((p, v))
    return True


def _ref_adjoints(L):
    """(table, ads): table[i * r + j] = [x_i, x_j] as a dense vector and
    ads[i] the dense matrix of ad(x_i), entry (k, j) = c[i][j][k]."""
    r = L.rank
    table = [L.c[i][j] for i in range(r) for j in range(r)]
    ads = [[[table[i * r + j][k] for j in range(r)] for k in range(r)] for i in range(r)]
    return table, ads


def _ref_killing_radical(r, table, ads):
    """R_s over Q as dense rows: [L, L]^perp under the Killing form."""
    killing = [[ref_trace(ref_mul(A, B, r, r)) for B in ads] for A in ads]
    derived = [w for w in table if any(w)]
    if not derived:
        return [[Fraction(int(a == i)) for a in range(r)] for i in range(r)]
    pairing = [[sum((row[a] * w[a] for a in range(r)), ZERO) for w in derived] for row in killing]
    return ref_left_kernel(pairing, len(derived))


def _ref_module(rows, L):
    """The span of dense rows in L's domain; over Z, with each row's
    denominators cleared, saturated.  The library is used only to return
    the result as a Submodule."""
    if L.domain == "Z":
        rows = [[lcm(*(e.denominator for e in v)) * e for e in v] for v in rows]
    return span([tuple(v) for v in rows], L.rank, L.domain).saturate()


def ref_solvable_radical(L):
    """Solvable radical of L on dense lists: the Killing-form radical
    [L, L]^perp, saturated over Z."""
    table, ads = _ref_adjoints(L)
    return _ref_module(_ref_killing_radical(L.rank, table, ads), L)


def ref_nilradical(L):
    """Nilradical of L on dense lists: R_s = [L, L]^perp under the Killing
    form, then the x in R_s with trace(ad_x * B) = 0 for every B in the
    associative envelope of ad(R_s) on all of L, saturated over Z.

    The envelope multiplies each new matrix by every nonzero generator, on
    both sides."""
    r = L.rank
    table, ads = _ref_adjoints(L)

    def combine(coeffs, mats):
        return [
            [sum((x * M[k][j] for x, M in zip(coeffs, mats)), ZERO) for j in range(r)]
            for k in range(r)
        ]

    rs = _ref_killing_radical(r, table, ads)
    rs_ads = [combine(x, ads) for x in rs]
    gens = [A for A in rs_ads if not ref_is_zero(A)]
    echelon, envelope = [], []
    frontier = [A for A in gens if _add_if_independent(echelon, [a for row in A for a in row])]
    while frontier:
        envelope += frontier
        frontier = [
            P
            for A in frontier
            for g in gens
            for P in (ref_mul(A, g, r, r), ref_mul(g, A, r, r))
            if _add_if_independent(echelon, [a for row in P for a in row])
        ]
    if envelope:
        conditions = [[ref_trace(ref_mul(A, B, r, r)) for B in envelope] for A in rs_ads]
        coeffs = ref_left_kernel(conditions, len(envelope))
        rn = [[sum((x[a] * rs[a][i] for a in range(len(rs))), ZERO) for i in range(r)] for x in coeffs]
    else:
        rn = rs
    return _ref_module(rn, L)


def load_bench(name):
    """The module bench/<name>.py, loaded from source as bench_<name>
    without writing bytecode under bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def load_bench_run(monkeypatch):
    """bench/run.py, which imports tracer.py by its bare name, from bench/
    on sys.path; a tracer module it imports is dropped again."""
    monkeypatch.syspath_prepend(str(BENCH))
    had_tracer = "tracer" in sys.modules
    try:
        return load_bench("run")
    finally:
        if not had_tracer:
            sys.modules.pop("tracer", None)


def theorem_inputs(seed=23):
    """(name, lattice) for every catalog lattice, then for every case of the
    benchmark's theorem-solvable and theorem-scrambled workloads at seed."""
    out = [(name, catalog.get(name).lattice) for name in catalog.names()]
    workloads = load_bench("workloads")
    for workload in ("theorem-solvable", "theorem-scrambled"):
        out += [(f"{workload}:{c.name}", c.lattice) for c in workloads.build(workload, seed)]
    return out


def ref_splittable_rep(N, S, action):
    """The representation of N x| S built from its parts: the lattice is
    `semidirect_assemble(N, S, action)` (Leibniz checks and validation),
    N acts by left multiplication and S by the lifts of its derivations."""
    ambient = semidirect_assemble(N, S, action)
    basis = build_weighted_basis(N)
    T = TruncatedUEA(basis, basis.nil_class)
    matrices = [T.left_mult_matrix(unit(N.rank, i)) for i in range(N.rank)]
    matrices += [T.derivation_star(D) for D in action]
    return LinearRep(lattice=ambient, matrices=tuple(matrices), provenance="zassenhaus")


def ref_mu_search(state, rn, max_rounds=64):
    """The bounded search for mu that `integral_rescale` ran before mu had a
    closed form: while the coordinates of [N, N] in the basis (X, mu XP) or
    of [mu XP, L] in X have a denominator, multiply mu by the lcm of the
    denominators.  X is the image of rn, R_n(L).  Returns (mu, number of
    escalations)."""
    K, images, XP = state.K, state.embedding, state.xprimes
    X = rn.basis * images
    in_x = Submodule(K.rank, X, "Q")
    mu = 1
    for rounds in range(max_rounds):
        scaled = XP.scale(mu)
        n_mat = stack_rows([X, scaled])
        closure = Submodule(K.rank, n_mat, "Q").coordinate_rows(K.bracket_rows(n_mat, n_mat))
        into_x = in_x.coordinate_rows(K.bracket_rows(scaled, images))
        dens = {x.denominator for M in (closure, into_x) for row in M.entries for x in row}
        if dens <= {1}:
            return mu, rounds
        mu *= lcm(*dens)
    raise AssertionError(f"mu search exceeded {max_rounds} rounds")


def ref_homomorphism_violations(rep):
    """Basis pairs i < j where M([x_i, x_j]) != [M_i, M_j], each side a
    normalised `ExactMatrix`: two products and their difference against
    the image of the bracket vector by linearity."""
    L, mats = rep.lattice, rep.matrices
    bad = []
    for i in range(L.rank):
        for j in range(i + 1, L.rank):
            lhs = rep.matrices_of_rows(ExactMatrix.from_rows([L.c[i][j]], cols=L.rank))[0]
            rhs = mats[i] * mats[j] - mats[j] * mats[i]
            if lhs != rhs:
                bad.append((i, j))
    return bad


def ref_nilrep_violations(rep):
    """Rows of a fresh R_n(L) whose image is not nilpotent: every row of
    R_n, its image recombined from the matrices and raised to the degree."""
    rn = nilradical(rep.lattice)
    return [
        idx
        for idx, M in enumerate(rep.matrices_of_rows(rn.basis))
        if not power(M, rep.degree).is_zero()
    ]


def ref_verify_representation(L, rep):
    """The representation report with both scans run in full: the
    homomorphism on every pair of basis vectors (`ref_homomorphism_violations`)
    and nilpotency on every row of R_n (`ref_nilrep_violations`)."""
    rep = LinearRep(lattice=L, matrices=rep.matrices, provenance=rep.provenance)
    violations = tuple(ref_homomorphism_violations(rep))
    nil = tuple(ref_nilrep_violations(rep))
    stacked = ExactMatrix.from_rows(
        [[x for row in M.entries for x in row] for M in rep.matrices], cols=rep.degree**2
    )
    faithful = rank(stacked) == L.rank
    bound = degree_bound(L.rank)
    return VerificationReport(
        degree=rep.degree,
        bound=bound,
        homomorphism_ok=not violations,
        homomorphism_violations=violations,
        integral_ok=rep.is_integral if L.domain == "Z" else True,
        faithful_ok=faithful,
        kernel_witness=() if faithful else tuple(kernel_basis(stacked, "Q").basis.entries),
        nilrep_ok=not nil,
        nilrep_violations=nil,
        degree_ok=rep.degree <= bound,
    )


def ref_verify_certificate(cert):
    """The certificate check with every property tested on its own: nbar an
    ideal, then nilpotent, then equal to a fresh nilradical of the
    extension; the radicals of the original lattice are computed here."""
    L, ext = cert.original, cert.extension
    original_valid = validate(L).ok
    extension_valid = validate(ext).ok
    inj = cert.injection
    I = ExactMatrix.identity(L.rank)
    lie = original_valid and extension_valid
    nbar = cert.nilpotent_part
    nbar_ideal = lie and is_ideal(ext, nbar)
    nbar_nilp = nbar_ideal and is_nilpotent_submodule(ext, nbar)
    rs = solvable_radical(L) if lie else None
    return CertificateReport(
        original_valid=original_valid,
        extension_valid=extension_valid,
        extension_integral=ext.domain == "Z" and inj.is_integral,
        injection_injective=rank(inj) == L.rank,
        injection_homomorphism=L.bracket_rows(I, I) * inj == ext.bracket_rows(inj, inj),
        nbar_is_ideal=nbar_ideal,
        nbar_is_nilpotent=nbar_nilp,
        nbar_is_nilradical=lie and nilradical(ext) == nbar,
        rn_image_contained=lie and nbar.contains_rows(nilradical(L, rs).basis * inj),
        rank_matches=lie and nbar.rank == rs.rank,
    )


def ref_expansion_checks(before, after):
    """The full checks of the elementary expansion from `before` to
    `after`, which `elementary_expansion` replaces by checks on the step's
    parts: (K2 passes `validate`, iota is a homomorphism on all pairs, the
    nilradical of K2 is the claimed R_n).  On a state outside the step's
    contract the two can disagree.  iota is rebuilt from the step's
    ideal, the complement and y (`_ref_iota`)."""
    K, K2 = before.K, after.K
    iota = _ref_iota(before, after.trace[-1])
    I = ExactMatrix.identity(K.rank)
    return (
        validate(K2).ok,
        K.bracket_rows(I, I) * iota == K2.bracket_rows(iota, iota),
        nilradical(K2) == after.Rn,
    )


def _ref_iota(before, step):
    """The map of the expansion `step` from the coordinates of `before.K`
    to those of the expanded algebra: the inverse of the basis
    [ideal; S; y], with the y coordinate going to both x' and z'."""
    Y = ExactMatrix.from_rows([step.y], cols=before.K.rank)
    split_inv = invert(stack_rows([step.ideal_basis, before.S.basis, Y]))
    xp = before.K.rank - 1
    return split_inv.take_columns([*range(xp), xp, xp])


def ref_zprimes(states):
    """The generators z' of every expansion in the coordinates of the last
    state, for the states of one loop, each the expansion of the one
    before.  Each step maps the z' so far forward by its iota and adds its
    own z', the last coordinate of the expanded algebra."""
    Z = ExactMatrix.zero(0, states[0].K.rank)
    for before, after in zip(states, states[1:]):
        zp = ExactMatrix.identity(after.K.rank).take_rows([after.K.rank - 1])
        Z = stack_rows([Z * _ref_iota(before, after.trace[-1]), zp])
    return Z


def is_semisimple(L):
    """A nonzero L with trivial centre and a Killing form of full rank over
    Q: a second definition of semisimplicity, against the library's
    Cartan criterion R_s = 0."""
    return L.rank > 0 and center(L).is_zero() and rank(killing_form(L)) == L.rank


def ref_levi_facts(rs, levi, r):
    """The two checks `levi_decomposition` ran on its complement `levi` to
    the radical `rs` in rank r, which hold by construction: (the complement
    has rank r - rk R_s, it meets the radical in 0)."""
    t = r - rs.rank
    return levi.rank == t, rs.sum(levi).rank == rs.rank + t


def ref_state_invariants(state):
    """The invariants of an expansion state as `_check_state_invariants`
    checked them before the loop read [N, K] off its own steps and before
    the first two were proved to hold by construction: (K = N + S as
    modules, N contains R_n, [K, N] inside R_n), the last by bracketing
    every basis vector of K with every basis vector of N."""
    K, N, S, Rn = state.K, state.N, state.S, state.Rn
    return (
        N.rank + S.rank == K.rank and N.sum(S).rank == K.rank,
        N.contains_rows(Rn.basis),
        Rn.contains_rows(K.bracket_rows(ExactMatrix.identity(K.rank), N.basis)),
    )


def ref_step_facts(before, after):
    """The two checks an elementary expansion ran on its direction y and
    its ideal, which hold by construction: (y lies in N, the ideal misses y
    and has codimension one in N)."""
    step = after.trace[-1]
    Y = ExactMatrix.from_rows([step.y], cols=before.K.rank)
    ideal = Submodule.of_rows(step.ideal_basis, "Q")
    codim_one = not ideal.contains_rows(Y) and ideal.rank == before.N.rank - 1
    return before.N.contains_rows(Y), codim_one


def ref_rescale_facts(state, rn, cert):
    """The four checks `integral_rescale` ran on the final state and the
    certificate, which hold by construction: ((X, XP) spans N with
    rk N rows, X the image of rn = R_n(L) and XP the generators x';
    (X, XP) and S have as many rows as K; nbar has rank rk N; the
    injection is injective)."""
    X, XP = rn.basis * state.embedding, state.xprimes
    n = X.rows + XP.rows
    spans = Submodule.of_rows(stack_rows([X, XP]), "Q") == state.N and n == state.N.rank
    return (
        spans,
        n + state.S.rank == state.K.rank,
        cert.nilpotent_rank == n,
        rank(cert.injection) == cert.original.rank,
    )


def ref_unimodular(basis):
    """The check `build_weighted_basis` ran on a basis over Z, which holds
    by construction: the change of basis and its inverse are integral."""
    return basis.change_of_basis.is_integral and basis.inverse.is_integral


def ref_rescale_nilpotency(state, rn, cert):
    """The two nilpotency checks `integral_rescale` ran before it read
    nilpotency off one unsaturated lower central chain: `is_nilpotent` of
    N_lat, the span (X, mu XP) of the final state's nilpotent part in its
    own basis, X the image of rn = R_n(L), and of the nilpotent block of
    the extension."""
    K = state.K
    X = rn.basis * state.embedding
    n_mat = stack_rows([X, state.xprimes.scale(cert.mu)])
    closure = Submodule(K.rank, n_mat, "Q").coordinate_rows(K.bracket_rows(n_mat, n_mat))
    N_lat = LieLattice([f"v{i}" for i in range(n_mat.rows)], closure)
    block = split_semidirect(cert.extension, cert.nilpotent_rank)[0]
    return is_nilpotent(N_lat), is_nilpotent(block)
