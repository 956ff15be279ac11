"""Embedding an integer Lie lattice into a splittable one.

The pipeline works over Q first: a Levi decomposition splits off a
semisimple complement, then elementary expansions repeatedly replace a
direction y of the solvable part by two formal generators carrying the
nilpotent and semisimple parts of ad_y (y embeds as their sum).  Once the
solvable part has become nilpotent, everything is rescaled by two integers
mu and lambda so that the relevant spans are honest Z-lattices, giving an
extension whose nilpotent radical has the rank of the original solvable
radical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Sequence

from .exact_linalg import (
    Echelon,
    ExactMatrix,
    Submodule,
    Vec,
    extend_basis,
    invert,
    kernel_basis,
    left_solver,
    mat_vec,
    rank,
    solve_left,
    solve_right,
    stack_rows,
    vec_mat,
    vec_scale,
    zero_vector,
)
from .lie_core import (
    LieLattice,
    bracket_series,
    check_derivation,
    is_nilpotent,
    is_subalgebra,
    killing_form,
    nilradical,
    quotient_lattice,
    require_valid,
    semidirect_assemble,
    solvable_radical,
    span_bracket,
    split_semidirect,
    subalgebra_lattice,
    unit,
)

log = logging.getLogger(__name__)

ZERO = Fraction(0)


class LiftingError(RuntimeError):
    """A Levi lift step produced an inconsistent linear system."""


class ExpansionError(RuntimeError):
    """An elementary expansion could not maintain its invariants."""


class ScalarSearchError(RuntimeError):
    """The search for the scaling integers exceeded its configured bound."""


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]  # coefficients low to high


def _ptrim(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coeff = rem[i + len(b) - 1] * inv_lead
        if coeff:
            quo[i] = coeff
            for j, y in enumerate(b):
                rem[i + j] -= coeff * y
    return _ptrim(quo), _ptrim(rem)


def _pmonic(a: Poly) -> Poly:
    return tuple(x / a[-1] for x in a) if a else a


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _pderiv(a: Poly) -> Poly:
    return _ptrim([i * a[i] for i in range(1, len(a))])


def _peval_matrix(p: Poly, A: ExactMatrix) -> ExactMatrix:
    n = A.rows
    out = ExactMatrix.zero(n, n)
    if not p:
        return out
    out = ExactMatrix.identity(n).scale(p[-1])
    for c in reversed(p[:-1]):
        out = out * A + ExactMatrix.identity(n).scale(c)
    return out


def minimal_polynomial(A: ExactMatrix) -> Poly:
    """Monic minimal polynomial over Q, found as the first linear dependence
    among the flattened powers of A.

    Power k enters the echelon as [A^k | e_k]; the first residual that
    vanishes on the n*n matrix columns is [0 | m] with m the coefficients.
    """
    if not A.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    nn = A.rows * A.rows
    echelon = Echelon()
    power = ExactMatrix.identity(A.rows)
    for k in count():
        # [num | den * e_k] is den times [A^k | e_k]; the residual at the
        # first dependence is a positive multiple of [0 | m]
        res = echelon.add({**power.flattened().num[0], nn + k: power.den})
        if min(res) >= nn:
            lead = res[nn + k]
            return tuple(Fraction(res.get(nn + i, 0), lead) for i in range(k + 1))
        power = power * A


def jordan_chevalley(A: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """A = S + N with S semisimple, N nilpotent, both polynomials in A.

    S is found by Newton's iteration S <- S - f(S) f'(S)^-1 from S = A,
    with f the squarefree part of the minimal polynomial, so no eigenvalue
    factorization is needed and everything stays rational.  f'(S) is
    invertible (f is squarefree and f'(S) - f'(A) is a nilpotent commuting
    with f'(A)), and f(S) lies in the 2^k-th power of the nilpotent f(A)
    after k steps, so it vanishes within bit_length(n) + 1 steps.
    """
    if not A.is_square:
        raise ValueError("jordan_chevalley of a non-square matrix")
    n = A.rows
    if n == 0:
        return A, A
    m = minimal_polynomial(A)
    f = _pdivmod(m, _pgcd(m, _pderiv(m)))[0]
    if len(f) == len(m):
        return A, ExactMatrix.zero(n, n)
    df = _pderiv(f)
    S = A
    for _ in range(n.bit_length() + 1):
        fS = _peval_matrix(f, S)
        if fS.is_zero():
            return S, A - S
        S = S - fS * invert(_peval_matrix(df, S))
    raise RuntimeError("Newton iteration for the semisimple part did not converge")


# ---------------------------------------------------------------------------
# Levi decomposition
# ---------------------------------------------------------------------------


def _closed_sublattice(K: LieLattice, S: Submodule, prefix: str) -> LieLattice:
    """`subalgebra_lattice` of a submodule the construction has already made
    closed and integral, so a failure is an internal error, not a property
    of the input."""
    try:
        return subalgebra_lattice(K, S, prefix)[0]
    except ValueError as exc:
        raise RuntimeError(f"construction produced a bad sublattice: {exc}") from exc


def _extend_constructed(inner: Submodule, outer: Submodule) -> ExactMatrix:
    """`extend_basis` of two submodules the construction has already nested,
    so a failure is an internal error, not a property of the input."""
    try:
        return extend_basis(inner, outer)
    except ValueError as exc:
        raise RuntimeError(f"construction produced submodules that do not nest: {exc}") from exc


def levi_decomposition(
    L: LieLattice, rs: Submodule | None = None
) -> tuple[Submodule, Submodule]:
    """Solvable radical and a semisimple complement closed under the bracket.

    The complement starts as a linear section of L / R_s and is corrected
    layer by layer along the derived series of the radical; each correction
    solves the classical cocycle system, which Levi's theorem guarantees to
    be consistent.  `rs`, when given, must be `solvable_radical(L.to_field())`;
    a caller that already holds it saves recomputing it.
    """
    if L.domain != "Q":
        L = L.to_field()
    r = L.rank
    if rs is None:
        rs = solvable_radical(L)
    if rs.rank == 0:
        return rs, Submodule.full(r, "Q")
    if rs.rank == r:
        return rs, Submodule.zero(r, "Q")
    try:
        quotient, section = quotient_lattice(L, rs)
    except ValueError as exc:
        raise RuntimeError(f"construction produced a bad quotient: {exc}") from exc
    t = quotient.rank
    sigma = [section.entries[i] for i in range(t)]

    chain = bracket_series(L, rs)

    for depth in range(len(chain) - 1):
        Dk, Dk1 = chain[depth], chain[depth + 1]
        comp = _extend_constructed(Dk1, Dk)
        d = comp.rows
        if d == 0:
            continue
        layer_solve = left_solver(stack_rows([Dk1.basis, comp]) if Dk1.rank else comp)

        def project(w: Vec) -> Vec:
            coords = layer_solve(w)
            if coords is None:
                raise LiftingError("Levi defect escaped its derived-series layer")
            return coords[Dk1.rank :]

        acting = L.brackets(sigma, comp.entries)
        action = [[project(acting[a * d + b]) for b in range(d)] for a in range(t)]
        eq_rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for i in range(t):
            for j in range(i + 1, t):
                defect = list(L.bracket(sigma[i], sigma[j]))
                for a in range(t):
                    cq = quotient.c[i][j][a]
                    if cq:
                        for idx in range(r):
                            defect[idx] -= cq * sigma[a][idx]
                defect = tuple(defect)
                target = project(defect)
                for component in range(d):
                    row = [ZERO] * (t * d)
                    for b in range(d):
                        row[j * d + b] += action[i][b][component]
                        row[i * d + b] -= action[j][b][component]
                    for a in range(t):
                        cq = quotient.c[i][j][a]
                        if cq:
                            row[a * d + component] -= cq
                    eq_rows.append(row)
                    rhs.append(-target[component])
        if eq_rows:
            system = ExactMatrix.from_rows(eq_rows, cols=t * d)
            solution = solve_right(system, tuple(rhs))
            if solution is None:
                raise LiftingError("Levi correction system is inconsistent")
            for a in range(t):
                adjusted = list(sigma[a])
                for b in range(d):
                    coeff = solution[a * d + b]
                    if coeff:
                        for idx in range(r):
                            adjusted[idx] += coeff * comp.entries[b][idx]
                sigma[a] = tuple(adjusted)

    closure = L.brackets(sigma, sigma)
    for i in range(t):
        for j in range(t):
            got = closure[i * t + j]
            want = list(zero_vector(r))
            for a in range(t):
                cq = quotient.c[i][j][a]
                if cq:
                    for idx in range(r):
                        want[idx] += cq * sigma[a][idx]
            if got != tuple(want):
                raise LiftingError("lifted complement is not closed under the bracket")

    levi = Submodule.span(sigma, r, "Q")
    if levi.rank != t or not is_subalgebra(L, levi):
        raise LiftingError("lifted complement has the wrong rank or is not a subalgebra")
    levi_lat = _closed_sublattice(L, levi, "v")
    if rank(killing_form(levi_lat)) != t:
        raise LiftingError("lifted complement is not semisimple")
    if not rs.intersect(levi).is_zero():
        raise LiftingError("lifted complement meets the radical")
    return rs, levi


# ---------------------------------------------------------------------------
# Elementary expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionStep:
    index: int
    y: Vec  # in the coordinates of the algebra being expanded
    ideal_basis: ExactMatrix
    semisimple_part: ExactMatrix
    nilpotent_part: ExactMatrix
    dim_n_before: int
    dim_n_after: int
    dim_rn_before: int
    dim_rn_after: int


@dataclass(frozen=True)
class ExpansionState:
    """Q-algebra K = N + S with N a solvable ideal containing the nilpotent
    radical and S a complement acting completely reducibly on N."""

    K: LieLattice
    N: Submodule
    S: Submodule
    Rn: Submodule
    rn_original: Submodule  # R_n of the original Z-lattice, in its coordinates
    embedding: ExactMatrix  # rows: images of the original basis in K coords
    xprimes: tuple[Vec, ...]
    zprimes: tuple[Vec, ...]
    trace: tuple[ExpansionStep, ...]


def initial_state(L: LieLattice) -> ExpansionState:
    """The unexpanded state of the Z-lattice L.

    The Q-spans of its radicals are the canonical RREF bases that the same
    radicals of `L.to_field()` return.
    """
    rs = solvable_radical(L)
    rn = nilradical(L, rs)
    LQ = L.to_field()
    rad, levi = levi_decomposition(LQ, Submodule.span(rs.basis.entries, L.rank, "Q"))
    state = ExpansionState(
        K=LQ,
        N=rad,
        S=levi,
        Rn=Submodule.span(rn.basis.entries, L.rank, "Q"),
        rn_original=rn,
        embedding=ExactMatrix.identity(L.rank),
        xprimes=(),
        zprimes=(),
        trace=(),
    )
    _check_state_invariants(state)
    return state


def _check_state_invariants(state: ExpansionState) -> None:
    """K = N + S as modules, N a solvable ideal containing R_n with
    [N, K] inside R_n."""
    K, N, S, Rn = state.K, state.N, state.S, state.Rn
    if N.rank + S.rank != K.rank or N.sum(S).rank != K.rank:
        raise ExpansionError("solvable part and complement do not split the algebra")
    if not N.contains_submodule(Rn):
        raise ExpansionError("solvable part does not contain the nilpotent radical")
    units = [unit(K.rank, i) for i in range(K.rank)]
    if not all(Rn.contains(w) for w in K.brackets(units, N.basis.entries)):
        raise ExpansionError("[N, K] escapes the nilpotent radical")


def elementary_expansion(state: ExpansionState) -> ExpansionState:
    """One expansion: pick y in N centralizing S and outside the nilpotent
    radical, split ad_y into semisimple and nilpotent parts, and replace y
    by formal generators z', x' carrying those parts (y = x' + z').

    dim N is unchanged while dim R_n grows by exactly one; both facts are
    re-verified on the expanded algebra.
    """
    K, N, S, Rn = state.K, state.N, state.S, state.Rn
    n = K.rank
    if Rn.rank == N.rank:
        raise ExpansionError("solvable part is already nilpotent; nothing to expand")

    centralizer = _centralizer_in(K, N, S)
    avoid = Rn.sum(span_bracket(K, N, N))
    y = next(
        (row for row in centralizer.basis.entries if not avoid.contains(row)),
        None,
    )
    if y is None:
        raise ExpansionError(
            "no centralizing direction outside the nilpotent radical; "
            "complete reducibility failed upstream"
        )

    comp = _extend_constructed(Rn, N)
    split_n = stack_rows([Rn.basis, comp]) if Rn.rank else comp
    ybar = solve_left(split_n, y)
    if ybar is None:
        raise ExpansionError("chosen direction is not in the solvable part")
    ybar = ybar[Rn.rank :]
    pivot = next(i for i, x in enumerate(ybar) if x)
    ideal_rows = list(Rn.basis.entries) + [
        comp.entries[q] for q in range(comp.rows) if q != pivot
    ]
    ideal = Submodule.span(ideal_rows, n, "Q")
    if ideal.contains(y) or ideal.rank != N.rank - 1:
        raise ExpansionError("codimension-one ideal construction failed")

    ad_y = K.ad(y)
    ds, dn = jordan_chevalley(ad_y)
    for part, tag in ((ds, "semisimple"), (dn, "nilpotent")):
        if not check_derivation(K, part):
            raise ExpansionError(f"{tag} part of ad_y violates the Leibniz identity")

    k, t = ideal.rank, S.rank
    old_vectors = list(ideal.basis.entries) + list(S.basis.entries)
    split = stack_rows([ideal.basis, S.basis, ExactMatrix.from_rows([y])])
    split_inv = invert(split)

    def iota_coords(v: Vec) -> Vec:
        alpha = vec_mat(v, split_inv)
        return alpha[: k + t] + (alpha[k + t], alpha[k + t])

    step_no = len(state.trace) + 1
    names = tuple(f"v{step_no}_{p}" for p in range(k + t)) + (
        f"x'{step_no}",
        f"z'{step_no}",
    )
    c: list[list[Vec]] = [[zero_vector(n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    products = K.brackets(old_vectors, old_vectors)
    for p in range(k + t):
        for q in range(k + t):
            alpha = vec_mat(products[p * (k + t) + q], split_inv)
            if alpha[k + t] != 0:
                raise ExpansionError("bracket of ideal+complement left their span")
            c[p][q] = alpha[: k + t] + (ZERO, ZERO)
    xp, zp = k + t, k + t + 1
    for p in range(k + t):
        w_n = iota_coords(mat_vec(dn, old_vectors[p]))
        w_s = iota_coords(mat_vec(ds, old_vectors[p]))
        c[xp][p] = w_n
        c[p][xp] = vec_scale(Fraction(-1), w_n)
        c[zp][p] = w_s
        c[p][zp] = vec_scale(Fraction(-1), w_s)
    K2 = LieLattice(names, tuple(tuple(row) for row in c), "Q")
    require_valid(K2)

    iota = ExactMatrix.from_rows([iota_coords(unit(n, i)) for i in range(n)])
    images = iota.entries
    for i in range(n):
        for j, rhs in enumerate(K2.brackets(images[i : i + 1], images[i + 1 :]), start=i + 1):
            if vec_mat(K.c[i][j], iota) != rhs:
                raise ExpansionError("expansion embedding is not a homomorphism")

    new_N = Submodule.span(
        [unit(n + 1, p) for p in range(k)] + [unit(n + 1, xp)], n + 1, "Q"
    )
    new_S = Submodule.span(
        [unit(n + 1, k + q) for q in range(t)] + [unit(n + 1, zp)], n + 1, "Q"
    )
    new_Rn = Submodule.span(
        [vec_mat(row, iota) for row in Rn.basis.entries] + [unit(n + 1, xp)],
        n + 1,
        "Q",
    )
    recomputed = nilradical(K2)
    if recomputed != new_Rn:
        raise ExpansionError("nilpotent radical of the expansion is not R_n + x'")

    step = ExpansionStep(
        index=step_no,
        y=y,
        ideal_basis=ideal.basis,
        semisimple_part=ds,
        nilpotent_part=dn,
        dim_n_before=N.rank,
        dim_n_after=new_N.rank,
        dim_rn_before=Rn.rank,
        dim_rn_after=new_Rn.rank,
    )
    log.info(
        "expansion %d: rank %d -> %d, dim R_n %d -> %d",
        step_no,
        n,
        n + 1,
        Rn.rank,
        new_Rn.rank,
    )
    new_state = ExpansionState(
        K=K2,
        N=new_N,
        S=new_S,
        Rn=new_Rn,
        rn_original=state.rn_original,
        embedding=state.embedding * iota,
        xprimes=tuple(vec_mat(x, iota) for x in state.xprimes) + (unit(n + 1, xp),),
        zprimes=tuple(vec_mat(z, iota) for z in state.zprimes) + (unit(n + 1, zp),),
        trace=state.trace + (step,),
    )
    _check_state_invariants(new_state)
    return new_state


def _centralizer_in(K: LieLattice, N: Submodule, S: Submodule) -> Submodule:
    """{v in N : [v, S] = 0}."""
    if S.rank == 0:
        return N
    m = S.rank
    products = K.brackets(N.basis.entries, S.basis.entries)
    rows = [sum(products[a * m : (a + 1) * m], ()) for a in range(N.rank)]
    conditions = ExactMatrix.from_rows(rows, cols=S.rank * K.rank)
    coeffs = kernel_basis(conditions, "Q")
    vecs = [vec_mat(x, N.basis) for x in coeffs.basis.entries]
    return Submodule.span(vecs, K.rank, "Q")


# ---------------------------------------------------------------------------
# Integral rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingCertificate:
    original: LieLattice
    extension: LieLattice
    injection: ExactMatrix  # rows: images of the original basis vectors
    nilpotent_rank: int  # the first nilpotent_rank extension coordinates
    mu: int
    lam: int
    rs_rank: int
    trace: tuple[ExpansionStep, ...]

    @property
    def nilpotent_part(self) -> Submodule:
        rows = [unit(self.extension.rank, i) for i in range(self.nilpotent_rank)]
        return Submodule.span(rows, self.extension.rank, self.extension.domain)

    @property
    def complement(self) -> Submodule:
        rows = [
            unit(self.extension.rank, i)
            for i in range(self.nilpotent_rank, self.extension.rank)
        ]
        return Submodule.span(rows, self.extension.rank, self.extension.domain)

    def split(self) -> tuple[LieLattice, LieLattice, list[ExactMatrix]]:
        return split_semidirect(self.extension, self.nilpotent_rank)


def integral_rescale(
    L: LieLattice, state: ExpansionState, max_scalar_search: int = 64
) -> EmbeddingCertificate:
    """Turn the final Q-splitting into a Z-lattice extension.

    mu makes the span of R_n(L) and the scaled new generators bracket-closed
    with the new generators mapping the image of L into R_n(L); lambda
    clears the denominators of the image of L against that span.  The
    nilpotent part of the extension is the sum of the lower-central terms
    scaled by powers of 1/lambda.  R_n(L) is read from the state.
    """
    K = state.K
    nK = K.rank
    rn_L = state.rn_original
    s = rn_L.rank
    x_vecs = [vec_mat(row, state.embedding) for row in rn_L.basis.entries]
    xp_vecs = list(state.xprimes)
    r_new = len(xp_vecs)
    images = list(state.embedding.entries)

    span_check = Submodule.span(x_vecs + xp_vecs, nK, "Q")
    if span_check != state.N or s + r_new != state.N.rank:
        raise ExpansionError("radical basis plus new generators do not span N")

    solve_x = left_solver(ExactMatrix.from_rows(x_vecs, cols=nK))
    mu = 1
    bad: list[int] = []  # stays empty when max_scalar_search <= 0
    for attempt in range(max_scalar_search):
        bad = []
        basis_rows = x_vecs + [vec_scale(Fraction(mu), xp) for xp in xp_vecs]
        solve_basis = left_solver(ExactMatrix.from_rows(basis_rows, cols=nK))
        for a in range(len(basis_rows)):
            for w in K.brackets(basis_rows[a : a + 1], basis_rows[a + 1 :]):
                coords = solve_basis(w)
                if coords is None:
                    raise ExpansionError("bracket left the span of the nilpotent part")
                bad.extend(c.denominator for c in coords if c.denominator != 1)
        # basis_rows[s:] are the scaled new generators
        for br in K.brackets(basis_rows[s:], images):
            coords = solve_x(br)
            if coords is None:
                raise ExpansionError(
                    "new generator does not map the lattice into its nilpotent radical"
                )
            bad.extend(c.denominator for c in coords if c.denominator != 1)
        if not bad:
            break
        mu *= lcm(*bad)
        log.info("scalar search: escalating mu to %d", mu)
    else:
        raise ScalarSearchError(
            f"mu search exceeded {max_scalar_search} rounds; offending denominators {sorted(set(bad))}"
        )

    n_rows = x_vecs + [vec_scale(Fraction(mu), xp) for xp in xp_vecs]
    n_mat = ExactMatrix.from_rows(n_rows, cols=nK) if n_rows else ExactMatrix.zero(0, nK)
    N_lat = _closed_sublattice(K, Submodule(nK, n_mat, "Z"), "n")
    if not is_nilpotent(N_lat):
        raise ExpansionError("scaled span of the nilpotent part is not nilpotent")

    split = stack_rows([n_mat, state.S.basis]) if state.S.rank else n_mat
    if split.rows != nK:
        raise ExpansionError("nilpotent part and complement do not fill the algebra")
    split_inv = invert(split)

    lam = 1
    n_parts: list[Vec] = []
    s_parts: list[Vec] = []
    for w in images:
        alpha = vec_mat(w, split_inv)
        n_coords, s_coords = alpha[: s + r_new], alpha[s + r_new :]
        lam = lcm(lam, *(c.denominator for c in n_coords)) if n_coords else lam
        n_parts.append(vec_mat(n_coords, n_mat) if n_rows else zero_vector(nK))
        s_parts.append(
            vec_mat(s_coords, state.S.basis) if state.S.rank else zero_vector(nK)
        )

    # Unsaturated lower-central terms of N_lat, nonzero ones only: the
    # rescaling needs gamma_i itself, and N_lat is nilpotent, so the chain
    # ends in its one zero term.
    full = Submodule.full(N_lat.rank, "Z")
    central_terms = bracket_series(N_lat, full, full, saturate=False)[:-1]
    nbar_gens: list[Vec] = []
    for i, term in enumerate(central_terms, start=1):
        scale = Fraction(1, lam**i)
        for row in term.basis.entries:
            nbar_gens.append(vec_scale(scale, vec_mat(row, n_mat)))
    nbar = Submodule.span(nbar_gens, nK, "Z")
    if nbar.rank != s + r_new:
        raise ExpansionError("rescaled nilpotent part has the wrong rank")
    if not is_subalgebra(K, nbar):
        raise ExpansionError("rescaled nilpotent part is not closed under the bracket")

    sbar = Submodule.span(s_parts, nK, "Z")
    if not is_subalgebra(K, sbar):
        raise ExpansionError("projected complement is not closed under the bracket")
    acting = K.brackets(sbar.basis.entries, nbar.basis.entries)
    if not all(nbar.contains(w) for w in acting):
        raise ExpansionError("complement does not normalize the nilpotent part")

    Nbar_lat = _closed_sublattice(K, nbar, "n")
    if not is_nilpotent(Nbar_lat):
        raise ExpansionError("rescaled nilpotent part is not nilpotent")
    Sbar_lat = _closed_sublattice(K, sbar, "s")
    m = nbar.rank
    action = [
        ExactMatrix.from_columns(
            [nbar.coordinates(w) for w in acting[a * m : (a + 1) * m]], rows=m
        )
        for a in range(sbar.rank)
    ]
    extension = semidirect_assemble(Nbar_lat, Sbar_lat, action)

    inj_rows = []
    for n_part, s_part in zip(n_parts, s_parts):
        n_coords = nbar.coordinates(n_part)
        s_coords = sbar.coordinates(s_part)
        if n_coords is None or s_coords is None:
            raise ExpansionError("image of the lattice is not integral in the extension")
        inj_rows.append(tuple(n_coords) + tuple(s_coords))
    injection = ExactMatrix.from_rows(inj_rows, cols=extension.rank)
    if rank(injection) != L.rank:
        raise ExpansionError("injection into the extension is not injective")

    log.info(
        "rescale: mu=%d lambda=%d, extension rank %d, nilpotent rank %d",
        mu,
        lam,
        extension.rank,
        nbar.rank,
    )
    return EmbeddingCertificate(
        original=L,
        extension=extension,
        injection=injection,
        nilpotent_rank=nbar.rank,
        mu=mu,
        lam=lam,
        rs_rank=state.N.rank,
        trace=state.trace,
    )


def embed_splittable(L: LieLattice, max_scalar_search: int = 64) -> EmbeddingCertificate:
    """End-to-end embedding of a Z-Lie lattice into a splittable one.

    The expansion loop runs exactly rk R_s - rk R_n times: dim R_n grows by
    one per round while dim N stays fixed.  Since R_n is the nilradical and
    lies in the ideal N, N is nilpotent exactly when the two ranks agree.
    """
    if L.domain != "Z":
        raise ValueError("embedding is defined for lattices over Z")
    require_valid(L)
    state = initial_state(L)
    while state.Rn.rank < state.N.rank:
        state = elementary_expansion(state)
    return integral_rescale(L, state, max_scalar_search)
