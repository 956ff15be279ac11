"""Embedding an integer Lie lattice into a splittable one.

The pipeline works over Q first: a Levi decomposition splits off a
semisimple complement, then elementary expansions repeatedly replace a
direction y of the solvable part by two formal generators carrying the
nilpotent and semisimple parts of ad_y (y embeds as their sum).  Once the
solvable part has become nilpotent, everything is rescaled by two integers
mu and lambda so that the relevant spans are honest Z-lattices, giving an
extension whose nilpotent radical has the rank of the original solvable
radical.  Both integers are lcms of denominators, computed in closed form.

On a valid Z-lattice the construction cannot fail, so `embed_splittable`
files any ValueError raised after its input checks as a bug (RuntimeError).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Sequence

from .exact_linalg import (
    Echelon,
    ExactMatrix,
    Submodule,
    Vec,
    extend_basis,
    invert,
    kernel_basis,
    rank,
    solve_right,
    stack_rows,
)
from .lie_core import (
    Known,
    LieLattice,
    _antisymmetric_table,
    _assemble_semidirect,
    bracket_series,
    is_nilpotent_submodule,
    killing_form,
    lie_lattice,
    quotient_lattice,
    split_semidirect,
    subalgebra_lattice,
)

log = logging.getLogger(__name__)


class LiftingError(RuntimeError):
    """A Levi lift step produced an inconsistent linear system."""


class ExpansionError(RuntimeError):
    """An elementary expansion could not maintain its invariants."""


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------

IntPoly = tuple[int, ...]  # coefficients low to high


def _primitive(p: Sequence[int]) -> IntPoly:
    """p without trailing zeros, divided by its content, leading
    coefficient positive (the empty tuple for 0)."""
    q = list(p)
    while q and not q[-1]:
        q.pop()
    if not q:
        return ()
    g = gcd(*q)
    if q[-1] < 0:
        g = -g
    return tuple(x // g for x in q)


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> list[int]:
    """The remainder of lc(b)^(deg a - deg b + 1) a by b, in integers: each
    step scales the remainder by lc(b) and clears its top coefficient."""
    rem, n, lead = list(a), len(b), b[-1]
    for i in range(len(a) - n, -1, -1):
        c = rem[i + n - 1]
        rem = [lead * x for x in rem]
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return rem[: n - 1]


def _integer_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive gcd of two primitive polynomials, by the primitive
    pseudo-remainder sequence: a pseudo-remainder is a Q-combination of
    a and b, and its primitive part has the same gcd with b over Q."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(a: IntPoly, g: IntPoly) -> IntPoly:
    """a / g for a primitive g that divides a over Q: by Gauss's lemma the
    quotient is integral, so each step of long division divides exactly."""
    rem, n = list(a), len(g)
    quo = [0] * (len(a) - n + 1)
    for i in range(len(a) - n, -1, -1):
        c = rem[i + n - 1] // g[-1]
        quo[i] = c
        for j, y in enumerate(g):
            rem[i + j] -= c * y
    return tuple(quo)


def _derivative(a: IntPoly) -> IntPoly:
    return tuple(i * a[i] for i in range(1, len(a)))


def _peval_matrix(p: Sequence[int], A: ExactMatrix) -> ExactMatrix:
    n = A.rows
    out = ExactMatrix.zero(n, n)
    if not p:
        return out
    out = ExactMatrix.identity(n).scale(p[-1])
    for c in reversed(p[:-1]):
        out = out * A + ExactMatrix.identity(n).scale(c)
    return out


def minimal_polynomial(A: ExactMatrix) -> IntPoly:
    """The minimal polynomial over Q as a primitive int polynomial with a
    positive leading coefficient, found as the first linear dependence
    among the flattened powers of A.

    Power k enters the echelon as [A^k | e_k]; the first residual that
    vanishes on the n*n matrix columns is [0 | m] times a positive number
    (its entry at e_k is positive: no older row reaches that column).
    """
    if not A.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    nn = A.rows * A.rows
    echelon = Echelon()
    power = ExactMatrix.identity(A.rows)
    for k in count():
        # [num | den * e_k] is den times [A^k | e_k]
        res = echelon.add({**power.flattened().num[0], nn + k: power.den})
        if min(res) >= nn:
            return _primitive([res.get(nn + i, 0) for i in range(k + 1)])
        power = power * A


def jordan_chevalley(A: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """A = S + N with S semisimple, N nilpotent, both polynomials in A.

    S is found by Newton's iteration S <- S - f(S) f'(S)^-1 from S = A,
    with f the squarefree part of the minimal polynomial, so no eigenvalue
    factorization is needed and everything stays rational.  f'(S) is
    invertible (f is squarefree and f'(S) - f'(A) is a nilpotent commuting
    with f'(A)), and f(S) lies in the 2^k-th power of the nilpotent f(A)
    after k steps, so it vanishes within bit_length(n) + 1 steps.
    f = m / gcd(m, m') is taken in integers, from the primitive integer
    multiple of m and a primitive pseudo-remainder sequence: a constant
    multiple c f scales f(S) and f'(S) by c, so the step is unchanged.
    """
    if not A.is_square:
        raise ValueError("jordan_chevalley of a non-square matrix")
    n = A.rows
    if n == 0:
        return A, A
    m = minimal_polynomial(A)
    f = _exact_quotient(m, _integer_gcd(m, _primitive(_derivative(m))))
    if len(f) == len(m):
        return A, ExactMatrix.zero(n, n)
    df = _derivative(f)
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


def levi_decomposition(L: LieLattice, rs: Submodule) -> Submodule:
    """A semisimple complement to the solvable radical `rs`, closed under
    the bracket.  `rs` must be `solvable_radical(L.to_field())`, which the
    caller already holds.

    The complement starts as a linear section of L / R_s and is corrected
    layer by layer along the derived series of the radical; each correction
    solves the classical cocycle system, which Levi's theorem guarantees to
    be consistent.

    The rows of sigma stay independent modulo `rs`, so the complement has
    rank t and meets `rs` in 0, without a check: sigma starts as the unit
    rows that complete `rs` (`quotient_lattice`), and every correction is a
    combination of comp, which lies in a derived term of `rs`.

    The returned complement is a subalgebra without a check of its own.
    With s_1, ..., s_t the rows of sigma, the checked equation
    `L._pair_brackets(sigma) == cq * sigma` says that every [s_i, s_j],
    i < j, is a combination of the s_a; so is every other pair, as
    [s_i, s_i] = 0 and [s_j, s_i] = -[s_i, s_j].  By bilinearity
    span(sigma) is closed under the bracket, and it is `levi`.  The Killing
    check stays: it tests that `rs` is the whole radical, a precondition
    rather than a fact of the lift.

    The brackets of sigma and the rows of the quotient's table cq are read,
    solved and checked on the pairs i < j only: L is a validated Lie
    algebra, so its bracket is antisymmetric, and so is that of the
    quotient, whose table `quotient_lattice` builds that way; the other
    rows of the full equation are zero or the negatives of these.
    """
    if L.domain != "Q":
        L = L.to_field()
    r = L.rank
    if rs.rank == 0:
        return Submodule.full(r, "Q")
    if rs.rank == r:
        return Submodule.zero(r, "Q")
    quotient, sigma = quotient_lattice(L, rs)
    t = quotient.rank
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    # row p: the coordinates of [q_i, q_j] in the quotient's basis, for the
    # p-th pair (i, j) of `pairs`, the order of `_pair_brackets`
    cq = quotient.table.take_rows(i * t + j for i, j in pairs)

    chain = bracket_series(L, rs)

    for depth in range(len(chain) - 1):
        Dk, Dk1 = chain[depth], chain[depth + 1]
        comp = extend_basis(Dk1, Dk)
        d = comp.rows
        if d == 0:
            continue
        layer = Submodule(r, stack_rows([Dk1.basis, comp]), "Q")

        def project(W: ExactMatrix) -> ExactMatrix:
            """The comp coordinates of the rows of W, which must lie in Dk."""
            coords = layer.coordinate_rows(W)
            if coords is None:
                raise LiftingError("Levi defect escaped its derived-series layer")
            return coords.take_columns(range(Dk1.rank, Dk1.rank + d))

        # row a*d + b: [sigma_a, comp_b]; row p: the defect of the p-th pair
        action = project(L.bracket_rows(sigma, comp))
        target = project(L._pair_brackets(sigma) - cq * sigma)
        # unknown a*d + b is the coefficient of comp_b added to sigma_a, and
        # column t*d holds the right-hand side; one equation per pair i < j
        # and component e, all numerators over den, which cancels
        n = t * d
        den = lcm(action.den, cq.den, target.den)
        fa, fq, ft = den // action.den, den // cq.den, den // target.den
        A = action.num
        eq_rows: list[dict[int, int]] = []
        for (i, j), q_row, b_row in zip(pairs, cq.num, target.num):
            for e in range(d):
                row: dict[int, int] = {}
                for b in range(d):
                    row[j * d + b] = row.get(j * d + b, 0) + fa * A[i * d + b].get(e, 0)
                    row[i * d + b] = row.get(i * d + b, 0) - fa * A[j * d + b].get(e, 0)
                for a, x in q_row.items():
                    row[a * d + e] = row.get(a * d + e, 0) - fq * x
                row[n] = -ft * b_row.get(e, 0)
                eq_rows.append(row)
        solution = solve_right(ExactMatrix.from_ints(eq_rows, n + 1))
        if solution is None:
            raise LiftingError("Levi correction system is inconsistent")
        sigma = sigma + solution.reshape(t, d) * comp

    if L._pair_brackets(sigma) != cq * sigma:
        raise LiftingError("lifted complement is not closed under the bracket")

    levi = Submodule.of_rows(sigma, "Q")
    if rank(killing_form(subalgebra_lattice(L, levi)[0])) != t:
        raise LiftingError("lifted complement is not semisimple")
    return levi


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
    embedding: ExactMatrix  # rows: images of the original basis in K coords
    xprimes: ExactMatrix  # rows: the generators x' so far, in K coords
    trace: tuple[ExpansionStep, ...]


def initial_state(L: LieLattice, rs: Submodule, rn: Submodule) -> ExpansionState:
    """The unexpanded state of the Z-lattice L, from its radicals
    `(rs, rn) = Known().radicals(L)`.  Their Q-spans are the canonical RREF
    bases that the same radicals of `L.to_field()` return.

    Two invariants of the state hold by construction: S is Levi's
    complement to N = R_s (`levi_decomposition`), so K = N + S as modules,
    and `nilradical` builds R_n inside R_s = N.  `_check_state_invariants`
    tests the third, [N, K] inside R_n.
    """
    LQ = L.to_field()
    N = Submodule.of_rows(rs.basis, "Q")
    state = ExpansionState(
        K=LQ,
        N=N,
        S=levi_decomposition(LQ, N),
        Rn=Submodule.of_rows(rn.basis, "Q"),
        embedding=ExactMatrix.identity(L.rank),
        xprimes=ExactMatrix.zero(0, L.rank),
        trace=(),
    )
    _check_state_invariants(state, LQ.bracket_rows(ExactMatrix.identity(LQ.rank), N.basis))
    return state


def _check_state_invariants(state: ExpansionState, brackets: ExactMatrix) -> None:
    """[N, K] inside R_n.  `brackets` must be rows that span [K, N].  The
    other invariants, K = N + S as modules and R_n inside N, hold by
    construction (`initial_state`, `elementary_expansion`)."""
    if not state.Rn.contains_rows(brackets):
        raise ExpansionError("[N, K] escapes the nilpotent radical")


def elementary_expansion(state: ExpansionState) -> ExpansionState:
    """One expansion: pick y in N centralizing S and outside the nilpotent
    radical, split ad_y into semisimple and nilpotent parts, and replace y
    by formal generators z', x' carrying those parts (y = x' + z').

    dim N is unchanged while dim R_n grows by exactly one.

    `state` must be one that `initial_state` or `elementary_expansion`
    returned: then K is a validated Lie algebra, R_n is its nilradical and
    the state invariants hold.  The step is certified from its parts: the
    Leibniz checks of the assembler, dn ds == ds dn on ideal + S, the
    homomorphism on the pairs (e_i, y), the state invariants of the new
    state read off `products`, `w_n` and `w_s`, and one nilpotency check of
    new_Rn.  What the step does with any other state is unspecified;
    `verify_certificate` re-checks the final extension on its own either
    way.

    Y has to miss R_n + [N, N].  The state invariant [N, K] inside R_n,
    with N inside K, puts [N, N] inside R_n, so missing R_n is the same
    condition, and [N, N] is not spanned.

    Facts of the construction, which hold for any R_n inside N and are not
    checked:

    - Y lies in N: it is a row of the centralizer's basis, and
      `_centralizer_in` builds that basis from combinations of N's rows.
    - ideal has rank dim N - 1 and misses Y: [R_n; comp] is a basis of N,
      ideal keeps every row of it but comp's pivot row, and Y's coordinate
      on that row is nonzero.
    - new_N and new_S are complementary unit spans of K2, and new_Rn lies
      in new_N: iota sends the rows of ideal, R_n among their
      combinations, to the first k coordinates, and x' is a row of new_N.

    Why the checks suffice on such a state:

    - Leibniz.  It is checked for dn and ds on ideal + S only: as
      Jordan-Chevalley parts of the derivation ad_y they are derivations
      of K (Humphreys 1972, 4.2), so a check on K rejects nothing, and
      they map ideal + S into itself (the y-entry check), so they restrict
      to it.
    - Jacobi.  ideal + S is a bracket-closed subspace of the validated K
      (the y-entry check), so the triples inside it hold; the triples with
      one of x', z' are the Leibniz checks of its part; and the triple
      (x', z', b) sums to [ds, dn] b.  So with the table antisymmetric by
      construction, the one condition left is dn ds = ds dn on ideal + S.
    - Homomorphism.  On the pairs inside ideal + S, iota reproduces the
      very numbers `base` was built from.  By bilinearity, and the
      antisymmetry of both brackets, the pairs (e_i, y) are the rest.
    - Nilradical.  new_Rn lies in new_N, and the state check gives
      [new_N, K2] in new_Rn, so new_Rn is an ideal of K2, and
      one nilpotency check makes it a nilpotent ideal, which lies in
      nilradical(K2).  Conversely, R_n is the nilradical of K: this holds
      at the start because `initial_state` takes R_n(L), and then by
      induction.  iota is an injective homomorphism onto the
      codimension-one subspace {v : v_x' = v_z'}, so nilradical(K2)
      meets iota(K) in a nilpotent ideal of iota(K), a copy of K, which
      lies in iota(R_n).  Hence dim nilradical(K2) <= rk R_n + 1 =
      dim new_Rn, and a nilpotent ideal of that dimension is the
      nilradical.
    - [new_N, K2] inside new_Rn.  It is read off the numbers the step
      already holds rather than bracketed out.  new_N has the basis
      ideal, x'.  In the basis [old; y], the rows p * (k + t) + q, q < k,
      of `products` are [old_p, ideal_q]; row p of w_n is
      [x', old_p] = dn old_p, the negative of [old_p, x']; row q < k of
      w_s is [z', ideal_q]; and [x', x'] = [z', x'] = 0.  None has a y
      entry, so the same rows, read in the coordinates of K2, span
      [K2, new_N].
    """
    K, N, S, Rn = state.K, state.N, state.S, state.Rn
    n = K.rank
    if Rn.rank == N.rank:
        raise ExpansionError("solvable part is already nilpotent; nothing to expand")

    centralizer = _centralizer_in(K, N, S)
    candidates = (centralizer.basis.take_rows([q]) for q in range(centralizer.rank))
    Y = next((row for row in candidates if not Rn.contains_rows(row)), None)
    if Y is None:
        raise ExpansionError(
            "no centralizing direction outside the nilpotent radical; "
            "complete reducibility failed upstream"
        )

    comp = extend_basis(Rn, N)
    # Y lies in N, and outside R_n, so it has a nonzero comp coordinate
    ybar = Submodule(n, stack_rows([Rn.basis, comp]), "Q").coordinate_rows(Y)
    pivot = min(j for j in ybar.num[0] if j >= Rn.rank) - Rn.rank
    kept = comp.take_rows(q for q in range(comp.rows) if q != pivot)
    ideal = Submodule.of_rows(stack_rows([Rn.basis, kept]), "Q")

    ds, dn = jordan_chevalley(K.ad_rows(Y)[0])

    k, t = ideal.rank, S.rank
    old = stack_rows([ideal.basis, S.basis])
    split_inv = invert(stack_rows([old, Y]))
    xp, zp = k + t, k + t + 1
    # iota: K coordinates -> K2 coordinates, y's coordinate going to x' and z'
    iota = split_inv.take_columns([*range(xp), xp, xp])

    step_no = len(state.trace) + 1
    # in the basis [old; y]: the brackets of old and the images of old under
    # dn and ds.  [N, K] lies in R_n, inside the ideal, so none has a y entry.
    # K is validated, so the brackets of the pairs p < q give the rest
    products = _antisymmetric_table(K._pair_brackets(old) * split_inv, xp)
    w_n, w_s = (old * part.transpose() * split_inv for part in (dn, ds))
    if any(xp in row for M in (products, w_n, w_s) for row in M.num):
        raise ExpansionError("bracket of ideal+complement or a part of ad_y left their span")
    # K2 = (ideal + S) extended by x' and z' acting as dn and ds
    base = LieLattice(
        [f"v{step_no}_{p}" for p in range(xp)], products.take_columns(range(xp)), "Q"
    )
    generators = lie_lattice([f"x'{step_no}", f"z'{step_no}"], {}, "Q")
    action = [W.take_columns(range(xp)).transpose() for W in (w_n, w_s)]
    K2 = _assemble_semidirect(base, generators, action)
    on_ideal_n, on_ideal_s = action
    if on_ideal_n * on_ideal_s != on_ideal_s * on_ideal_n:
        raise ExpansionError("the parts of ad_y do not commute on ideal+complement")
    if K.bracket_rows(ExactMatrix.identity(n), Y) * iota != K2.bracket_rows(iota, Y * iota):
        raise ExpansionError("expansion embedding is not a homomorphism")

    E = ExactMatrix.identity(K2.rank)
    new_N = Submodule.of_rows(E.take_rows([*range(k), xp]), "Q")
    new_S = Submodule.of_rows(E.take_rows([*range(k, xp), zp]), "Q")
    new_Rn = Submodule.of_rows(stack_rows([Rn.basis * iota, E.take_rows([xp])]), "Q")

    step = ExpansionStep(
        index=step_no,
        y=Y.row(0),
        ideal_basis=ideal.basis,
        semisimple_part=ds,
        nilpotent_part=dn,
        dim_n_before=N.rank,
        dim_n_after=new_N.rank,
        dim_rn_before=Rn.rank,
        dim_rn_after=new_Rn.rank,
    )
    new_state = ExpansionState(
        K=K2,
        N=new_N,
        S=new_S,
        Rn=new_Rn,
        embedding=state.embedding * iota,
        xprimes=stack_rows([state.xprimes * iota, E.take_rows([xp])]),
        trace=state.trace + (step,),
    )
    # rows spanning [K2, new_N], read off the step (see the docstring)
    ideal_pairs = [p * xp + q for p in range(xp) for q in range(k)]
    spanning = stack_rows([products.take_rows(ideal_pairs), w_n, w_s.take_rows(range(k))])
    brackets = ExactMatrix.from_ints(spanning.num, K2.rank, spanning.den)
    _check_state_invariants(new_state, brackets)
    # the invariants make new_Rn an ideal, so this is the nilradical check
    if not is_nilpotent_submodule(K2, new_Rn):
        raise ExpansionError("nilpotent radical of the expansion is not R_n + x'")
    log.info(
        "expansion %d: rank %d -> %d, dim R_n %d -> %d",
        step_no,
        n,
        n + 1,
        Rn.rank,
        new_Rn.rank,
    )
    return new_state


def _centralizer_in(K: LieLattice, N: Submodule, S: Submodule) -> Submodule:
    """{v in N : [v, S] = 0}."""
    if S.rank == 0:
        return N
    # row a: the brackets [n_a, s_b] for every b, side by side
    conditions = K.bracket_rows(N.basis, S.basis).reshape(N.rank, S.rank * K.rank)
    coeffs = kernel_basis(conditions, "Q")
    return Submodule.of_rows(coeffs.basis * N.basis, "Q")


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
        return self._coordinate_span(range(self.nilpotent_rank))

    @property
    def complement(self) -> Submodule:
        return self._coordinate_span(range(self.nilpotent_rank, self.extension.rank))

    def _coordinate_span(self, coordinates: range) -> Submodule:
        units = ExactMatrix.identity(self.extension.rank).take_rows(coordinates)
        return Submodule.of_rows(units, self.extension.domain)


def integral_rescale(L: LieLattice, state: ExpansionState, rn: Submodule) -> EmbeddingCertificate:
    """Turn the final Q-splitting into a Z-lattice extension.

    mu makes the span of R_n(L) and the scaled new generators bracket-closed
    with the new generators mapping the image of L into R_n(L); lambda
    clears the denominators of the image of L against that span.  The
    nilpotent part of the extension is the sum of the lower-central terms
    scaled by powers of 1/lambda.  `rn` must be R_n(L), the radical the
    loop started from, and `state` the state the loop ended in.

    Four facts of that state are not checked.  (X, XP), with X the image
    of R_n(L) and XP the generators x', is a basis of N: its rows span R_n
    at the start, each step maps them by iota and adds x', so they span
    iota(R_n) + x' = new_R_n, of rank one more, and the loop ends when
    R_n = N.  So `split` is a basis of K, by the split invariant K = N + S.
    nbar has the rank of N: the first central term of N_lat is all of it.
    And the injection is injective: `embedding` is a product of injective
    maps iota, and the rows of ext are independent.

    mu is the lcm of the denominators of the coordinates below at mu = 1.
    Write the basis of N as (X, mu XP), with X the image of R_n(L) and XP
    the new generators x'.  Every coordinate read has the form c mu^k:

    - [X_i, X_j] has k = 0 and is integral: R_n(L) is an isolated ideal of
      the Z-lattice L, and the embedding is a homomorphism;
    - [X_i, mu x'_a] has k = 1 on X, and its part on XP is 0, because
      `into_x` shows [x'_a, L] inside span_Q X and X_i lies in L;
    - [mu x'_a, mu x'_b] has k = 2 on X and k = 1 on XP;
    - `into_x`, the X coordinates of [mu x'_a, L], has k = 1.

    Hence this mu clears every denominator, and a second escalation is never
    needed.  The coordinates are recomputed once at mu as a self-check; a
    denominator left over is an ExpansionError, a bug.

    Nilpotency is read off the one lower central chain of N_lat that the
    rescaling needs (`_nilpotent_central_terms`).  The nilpotent block of
    the extension needs no check of its own: nbar lies in span_Q(n_mat) and
    has the same rank, so the block and N_lat are Z-forms of one Q-algebra,
    and nilpotency does not depend on the basis.
    """
    K = state.K
    nK = K.rank
    X = rn.basis * state.embedding
    XP = state.xprimes
    images = state.embedding

    in_x = Submodule(nK, X, "Q")

    def scaled_basis(mu: int) -> tuple[ExactMatrix, ExactMatrix, set[int]]:
        """The basis (X, mu XP), the structure constants of its span in it,
        read by `subalgebra_lattice` over Q, and the denominators of those
        and of `into_x`.  K is a Lie algebra, the validated input or a
        step's K2, which `_assemble_semidirect` builds antisymmetric from
        antisymmetric parts, as `subalgebra_lattice` needs."""
        scaled = XP.scale(mu)
        n_mat = stack_rows([X, scaled])
        closure = subalgebra_lattice(K, Submodule(nK, n_mat, "Q"))[0].table
        into_x = in_x.coordinate_rows(K.bracket_rows(scaled, images))
        if into_x is None:
            raise ExpansionError(
                "new generator does not map the lattice into its nilpotent radical"
            )
        return n_mat, closure, _denominators(closure) | _denominators(into_x)

    n_mat, closure, bad = scaled_basis(1)
    mu = lcm(*bad)  # 1 when there is nothing to clear
    if bad:
        log.info("scalar search: escalating mu to %d", mu)
        n_mat, closure, bad = scaled_basis(mu)
        if bad:
            raise ExpansionError(f"denominators {sorted(bad)} remain at mu = {mu}")

    # the integral structure constants of N in the basis n_mat.  Its rows
    # are independent (a basis of N, see the docstring) and closed, and K is
    # a Lie algebra, so N_lat is a Lie lattice without a check of its own,
    # by the argument of `subalgebra_lattice`
    N_lat = LieLattice([f"v{i}" for i in range(n_mat.rows)], closure)
    central_terms = _nilpotent_central_terms(N_lat)

    split = stack_rows([n_mat, state.S.basis])
    alpha = images * invert(split)
    lam = alpha.take_columns(range(n_mat.rows)).den
    s_parts = alpha.take_columns(range(n_mat.rows, nK)) * state.S.basis

    # the rescaling needs the unsaturated terms gamma_i themselves
    nbar_gens = [
        term.basis.scale(Fraction(1, lam**i)) * n_mat
        for i, term in enumerate(central_terms, start=1)
    ]
    nbar = Submodule.of_rows(stack_rows([ExactMatrix.zero(0, nK), *nbar_gens]), "Z")

    # nbar and sbar lie in the two blocks of `split`, so their bases
    # together are a basis of the extension; split_semidirect checks that
    # nbar is an ideal and sbar a subalgebra
    sbar = Submodule.of_rows(s_parts, "Z")
    m = nbar.rank
    # one Q-view of that basis reads both the extension's constants and the
    # injection, each then checked to be integral
    ext = Submodule(nK, stack_rows([nbar.basis, sbar.basis]), "Q")
    table = subalgebra_lattice(K, ext)[0].table
    if not table.is_integral:
        raise ExpansionError("extension has non-integral structure constants")
    names = tuple(f"n{i}" for i in range(m)) + tuple(f"s{a}" for a in range(sbar.rank))
    extension = LieLattice(names, table, "Z")
    split_semidirect(extension, m)

    injection = ext.coordinate_rows(images)
    if injection is None or not injection.is_integral:
        raise ExpansionError("image of the lattice is not integral in the extension")

    log.info(
        "rescale: mu=%d lambda=%d, extension rank %d, nilpotent rank %d",
        mu,
        lam,
        extension.rank,
        m,
    )
    return EmbeddingCertificate(
        original=L,
        extension=extension,
        injection=injection,
        nilpotent_rank=m,
        mu=mu,
        lam=lam,
        rs_rank=state.N.rank,
        trace=state.trace,
    )


def _nilpotent_central_terms(N: LieLattice) -> list[Submodule]:
    """The nonzero terms of the unsaturated lower central series of the
    Z-lattice N; an error if N is not nilpotent.

    This accepts exactly the N whose `lower_central_series` reaches 0.
    Term by term, the two chains have the same Q-spans: saturation keeps a
    Q-span, and the Q-span of [U, N] depends only on that of U.  So they
    reach 0 together.  When N is nilpotent the Q-ranks drop at every step
    until 0, so this chain ends in its one zero term within rank + 1 terms.
    Otherwise it stops at a nonzero term, an ExpansionError here, or keeps
    shrinking in index, which `bracket_series` stops with its
    LatticeValidationError; `embed_splittable` files that ValueError as a
    construction failure.
    """
    full = Submodule.full(N.rank, "Z")
    chain = bracket_series(N, full, full, saturate=False)
    if not chain[-1].is_zero():
        raise ExpansionError("scaled span of the nilpotent part is not nilpotent")
    return chain[:-1]


def _denominators(M: ExactMatrix) -> set[int]:
    """The denominators other than 1 of the entries of M."""
    if M.den == 1:
        return set()
    return {M.den // gcd(x, M.den) for row in M.num for x in row.values()} - {1}


def embed_splittable(L: LieLattice, known: Known | None = None) -> EmbeddingCertificate:
    """End-to-end embedding of a Z-Lie lattice into a splittable one.

    After the domain check L is validated and its radicals are read from
    `known` (a fresh Known if none is given), which computes each unless
    the call already holds it.  Both stages read the radicals:
    `initial_state` both, `integral_rescale` R_n(L).

    Levi's theorem and the proofs of the steps make the construction
    succeed on a valid Z-lattice, so after the input checks any ValueError
    is a bug: it is re-raised as RuntimeError("construction failed: ...").

    The expansion loop runs exactly rk R_s - rk R_n times: dim R_n grows by
    one per round while dim N stays fixed.  Since R_n is the nilradical and
    lies in the ideal N, N is nilpotent exactly when the two ranks agree.
    Each state the loop hands to `elementary_expansion` is one that
    `initial_state` or the step itself returned, so each step is certified
    from its parts.
    """
    if L.domain != "Z":
        raise ValueError("embedding is defined for lattices over Z")
    known = known or Known()
    known.require_valid(L)
    try:
        rs, rn = known.radicals(L)
        state = initial_state(L, rs, rn)
        while state.Rn.rank < state.N.rank:
            state = elementary_expansion(state)
        return integral_rescale(L, state, rn)
    except ValueError as exc:
        raise RuntimeError(f"construction failed: {exc}") from exc
