"""End-to-end construction of a faithful representation with a certified
degree bound, plus independent checkers for representations and embedding
certificates.

The checkers recompute everything they assert (validity, brackets,
radicals, ranks) from structure constants and exact linear algebra; they
never trust state produced by the constructors.  `ado_representation`
makes one `Known`, the facts the call computes about the lattices it
reads, validates L with it first, and hands it to the construction
(`embed_splittable`, `splittable_rep`, `nilpotent_faithful_rep`) and to
both checkers, so each fact about a lattice is computed once per call; the
construction may trust the verifier, never the other way round.  A stage
called without a Known makes its own and computes every fact itself.
"""

from __future__ import annotations

import logging
from typing import Callable
from dataclasses import dataclass, fields
from fractions import Fraction

from .embed import EmbeddingCertificate, embed_splittable
from .exact_linalg import Echelon, ExactMatrix, Vec, _Packing, kernel_basis, rank, stack_rows
from .lie_core import Known, LieLattice, adjoint_rep, is_ideal, is_nilpotent_submodule
from .nilrep import birkhoff_bounds, burde_bound, nilpotent_faithful_rep
from .rep import LinearRep, direct_sum_rep, restrict_rep
from .zassenhaus import splittable_rep

log = logging.getLogger(__name__)


class VerificationFailure(RuntimeError):
    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def degree_bound(r: int) -> Fraction:
    """Certified rational upper bound r + B(r) for the representation degree."""
    return r + burde_bound(r)


@dataclass(frozen=True)
class VerificationReport:
    degree: int
    bound: Fraction
    homomorphism_ok: bool
    homomorphism_violations: tuple[tuple[int, int], ...]
    integral_ok: bool
    faithful_ok: bool
    kernel_witness: tuple[Vec, ...]
    nilrep_ok: bool
    nilrep_violations: tuple[int, ...]
    degree_ok: bool

    @property
    def ok(self) -> bool:
        return all(self.checks().values())

    def checks(self) -> dict[str, bool]:
        # the keys are the published names of the JSON report
        return {
            "homomorphism": self.homomorphism_ok,
            "integrality": self.integral_ok,
            "faithfulness": self.faithful_ok,
            "nil_representation": self.nilrep_ok,
            "degree_bound": self.degree_ok,
        }


def verify_representation(
    L: LieLattice, rep: LinearRep, known: Known | None = None
) -> VerificationReport:
    """Independent checks: homomorphism on all basis pairs, integrality over
    Z, faithfulness via a rank (of column 0, then of the stacked matrices),
    nilpotency of the images of the nilpotent radical, and the degree bound.
    L is validated and R_n(L) computed by `known` (a fresh Known if none
    is given), so each is computed here unless the call already holds it.

    Two checks run on generators first.  Each falls back to its full scan,
    merged in the scan's order, when the reduced check reports anything, so
    every report is the full scan's.  The proofs below show that a reduced
    check that reports nothing implies a full scan that reports nothing.
    Write rho for the linear map x -> matrix, and G for the rows of the
    basis of R_n = R_n(L) that are independent modulo [R_n, R_n] and the
    rows before them (`_generators`).  Over Q, G and [R_n, R_n] span R_n.

    Homomorphism, when R_n = L (L nilpotent): only the pairs i < j with i
    or j in G are checked; all spans are over Q.
    (1) H = {x : rho[x, y] = [rho x, rho y] for all y} is a subspace, and
    it holds x_g for every g in G.  Both sides are linear in y, so basis
    vectors y = x_j suffice.  For j != g the pair {g, j} is checked, and
    swapping it negates both sides, by the antisymmetry of the validated L
    and of the commutator; for j = g both sides are 0.
    (2) H is a subalgebra.  For x, x' in H, Jacobi in L and then in the
    matrices gives rho[[x, x'], y] = rho[x, [x', y]] - rho[x', [x, y]]
    = [rho x, [rho x', rho y]] - [rho x', [rho x, rho y]]
    = [[rho x, rho x'], rho y] = [rho [x, x'], rho y].
    (3) A set that spans a nilpotent L modulo [L, L] generates it.  Let M
    be the subalgebra it generates and g_k the k-th term of the lower
    central series (g_1 = L, g_(c+1) = 0), so that L = M + g_2.  g_k is
    spanned by the brackets [y_1, [y_2, ..., y_k]] of elements of L.
    Write each y_i = m_i + n_i with m_i in M and n_i in g_2 and expand: the
    bracket of the m_i lies in M, and every other term has an entry in g_2,
    so it lies in g_(k+1).  Hence L = M + g_k implies L = M + g_(k+1), and
    by induction L = M + g_(c+1) = M.  By (1)-(3), H = L.

    Faithfulness: the rank of the r x n matrix whose row i is column 0 of
    M_i is taken first (a positive multiple of each row, which keeps the
    rank).  If it is r, then sum_i c_i M_i = 0 gives sum_i c_i M_i e_0 = 0,
    so every c_i = 0 and rho is injective; otherwise the rank of the
    flattened matrices decides, and their kernel is the witness.  On the
    nilpotent shortcut rho(x) 1 = x, so the first rank is always r.

    Nilpotency, once the homomorphism check has passed: only the images of
    the rows of R_n in G are checked.  rho(R_n) is then a Lie algebra of
    matrices, the image of a nilpotent one, so it is solvable.  By Lie's
    theorem it is upper triangular in a basis over the algebraic closure;
    its diagonal entries are linear forms on it, and they vanish on its
    derived algebra, as a commutator of upper triangular matrices is
    strictly upper triangular (these are the weights of Jacobson, Lie
    Algebras, 1962, ch. II).  rho(G) spans rho(R_n) modulo
    rho[R_n, R_n] = [rho R_n, rho R_n], so when every rho(g) is nilpotent,
    every diagonal form vanishes on all of rho(R_n), and every image of R_n
    is nilpotent.  When R_n = L, its canonical basis is the identity, and
    its images are read from `rep.matrices`.  Each image checked goes to
    `_is_nilpotent_matrix`: a support graph without a cycle proves it
    nilpotent in time linear in its nonzeros, and repeated squaring decides
    the rest.
    """
    known = known or Known()
    known.require_valid(L)
    n = rep.degree
    bound_to_L = LinearRep(lattice=L, matrices=rep.matrices, provenance=rep.provenance)
    bound_to_L.check_shapes()
    rn = known.radicals(L)[1]
    gens = _generators(L, rn.basis)
    full = rn.rank == L.rank
    if full:
        pairs = [(i, j) for i in range(L.rank) for j in range(i + 1, L.rank)]
        violations = _reduced(
            bound_to_L.homomorphism_violations, pairs, lambda p: p[0] in gens or p[1] in gens
        )
    else:
        violations = bound_to_L.homomorphism_violations()
    integral_ok = rep.is_integral if L.domain == "Z" else True

    witness: tuple[Vec, ...] = ()
    # row i is d_i times column 0 of M_i = A_i / d_i
    first = ExactMatrix.from_ints(
        ({q: row[0] for q, row in enumerate(M.num) if 0 in row} for M in rep.matrices), n
    )
    faithful_ok = rank(first) == L.rank
    if not faithful_ok:
        stacked = stack_rows([M.flattened() for M in rep.matrices])
        faithful_ok = rank(stacked) == L.rank
        if not faithful_ok:
            witness = tuple(kernel_basis(stacked, "Q").basis.entries)

    def not_nilpotent(rows: list[int]) -> list[int]:
        if full:
            images = [rep.matrices[i] for i in rows]
        else:
            images = rep.matrices_of_rows(rn.basis.take_rows(rows))
        return [i for i, M in zip(rows, images) if not _is_nilpotent_matrix(M)]

    rows = list(range(rn.rank))
    if violations:
        nil_violations = not_nilpotent(rows)
    else:
        nil_violations = _reduced(not_nilpotent, rows, gens.__contains__)
    nilrep_ok = not nil_violations

    bound = degree_bound(L.rank) if L.rank >= 1 else Fraction(0)
    degree_ok = Fraction(n) <= bound if L.rank >= 1 else n == 0

    return VerificationReport(
        degree=n,
        bound=bound,
        homomorphism_ok=not violations,
        homomorphism_violations=tuple(violations),
        integral_ok=integral_ok,
        faithful_ok=faithful_ok,
        kernel_witness=witness,
        nilrep_ok=nilrep_ok,
        nilrep_violations=tuple(nil_violations),
        degree_ok=degree_ok,
    )


def _generators(L: LieLattice, B: ExactMatrix) -> set[int]:
    """The indices of the rows of B, a basis of a subalgebra S of L, that
    are independent modulo [S, S] and the rows before them: one Echelon
    seeded with the pair brackets of B takes the rows in order.  Over Q the
    rows at these indices and [S, S] span S."""
    E = Echelon()
    for row in L._pair_brackets(B).num:
        if row:
            E.add(row)
    gens = set()
    for i, row in enumerate(B.num):
        if len(E.rows) == B.rows:  # E spans S: every later row is dependent
            break
        if E.add(row):
            gens.add(i)
    return gens


def _reduced(check: Callable[[list], list], items: list, first: Callable[[object], bool]) -> list:
    """`check(items)`, for a check that reports the items it rejects in
    order, run on the items for which `first` holds; only when that reports
    anything are the other items checked, and the two reports are merged
    in the order of the sorted items."""
    bad = check([x for x in items if first(x)])
    if bad:
        bad = sorted(bad + check([x for x in items if not first(x)]))
    return bad


def _is_nilpotent_matrix(M: ExactMatrix) -> bool:
    """Whether M^n = 0 for the n x n matrix M.

    First the support graph, with an edge i -> j for every nonzero entry
    (i, j), is sorted topologically (Kahn), in time linear in the nonzeros.
    If it has no cycle, ordering the indices by that sort makes M strictly
    upper triangular, P M P^-1 for a permutation matrix P, so M^n = 0 and M
    is accepted.  If it has a cycle (a nonzero diagonal entry is one), the
    support decides nothing, [[1, 1], [-1, -1]] is nilpotent, and M goes to
    repeated squaring that stops at the first zero power: M^(2^j) = 0
    implies M^n = 0, and a nonzero M^e with e >= n means M is not
    nilpotent.  Squaring alone accepts exactly the nilpotent matrices, and
    the support test accepts only nilpotent ones, so the two together
    accept exactly the matrices that squaring alone does.
    """
    rows = M.num
    indegree = [0] * M.cols
    for row in rows:
        for j in row:
            indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if not d]
    for i in ready:  # the loop also visits the indices appended below
        for j in rows[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    if len(ready) == M.rows:
        return True
    P, e = M, 1
    while not P.is_zero():
        if e >= M.rows:
            return False
        P, e = P * P, 2 * e
    return True


@dataclass(frozen=True)
class CertificateReport:
    original_valid: bool
    extension_valid: bool
    extension_integral: bool
    injection_injective: bool
    injection_homomorphism: bool
    nbar_is_ideal: bool
    nbar_is_nilpotent: bool
    nbar_is_nilradical: bool
    rn_image_contained: bool
    rank_matches: bool

    @property
    def ok(self) -> bool:
        return all(self.checks().values())

    def checks(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def verify_certificate(cert: EmbeddingCertificate, known: Known | None = None) -> CertificateReport:
    """Re-verify an embedding certificate from scratch.

    The validity of both lattices, R_s(L), R_n(L) and R_n(ext) are read
    from `known` (a fresh Known if none is given), which computes each one
    that the call does not already hold.

    `nbar_is_nilradical` is checked first; when it holds, nbar is an ideal
    and nilpotent without a further test.  `nilradical` of ext returns the
    integer points of a Q-ideal that it has itself checked to be nilpotent,
    and `extension_valid` makes the structure constants of ext integral, so
    those integer points are closed under the bracket with every basis
    vector of ext and form a nilpotent Z-ideal.  When it fails, both properties are
    tested on their own.
    """
    known = known or Known()
    L, ext = cert.original, cert.extension
    original_valid = known.validation(L).ok
    extension_valid = known.validation(ext).ok
    extension_integral = ext.domain == "Z" and cert.injection.is_integral

    inj = cert.injection
    injective = rank(inj) == L.rank
    # radicals and series are defined for Lie lattices only, and the
    # nilpotency chain for a bracket-closed nbar only; elsewhere they may
    # fail or never end, so those checks fail unrun
    lie = original_valid and extension_valid
    hom = _injection_homomorphism(L, ext, inj, lie)

    nbar = cert.nilpotent_part
    nbar_is_nilradical = lie and known.radicals(ext)[1] == nbar
    if nbar_is_nilradical:
        nbar_ideal = nbar_nilp = True
    else:
        nbar_ideal = lie and is_ideal(ext, nbar)
        nbar_nilp = nbar_ideal and is_nilpotent_submodule(ext, nbar)

    # one R_s(L) serves both the rank check and R_n(L)
    rs, rn = known.radicals(L) if lie else (None, None)
    rn_image = lie and nbar.contains_rows(rn.basis * inj)
    rank_matches = lie and nbar.rank == rs.rank

    return CertificateReport(
        original_valid=original_valid,
        extension_valid=extension_valid,
        extension_integral=extension_integral,
        injection_injective=injective,
        injection_homomorphism=hom,
        nbar_is_ideal=nbar_ideal,
        nbar_is_nilpotent=nbar_nilp,
        nbar_is_nilradical=nbar_is_nilradical,
        rn_image_contained=rn_image,
        rank_matches=rank_matches,
    )


def _injection_homomorphism(
    L: LieLattice, ext: LieLattice, inj: ExactMatrix, antisymmetric: bool
) -> bool:
    """Whether inj[x_p, x_q] = [inj x_p, inj x_q] for every pair of basis
    vectors of L, inj its rows in ext.

    Without `antisymmetric` every ordered pair is compared, as the
    matrices `L.table * inj` and `ext.bracket_rows(inj, inj)`.  With it,
    both tables are antisymmetric (both lattices are valid), and the pairs
    p < q decide: for p = q both sides are 0, as c_pp = -c_pp in L and
    [u, u] = sum_(a<b) u_a u_b (c_ab + c_ba) + sum_a u_a^2 c_aa = 0 in ext;
    and the pair (q, p) negates both sides of the pair (p, q).

    On the pairs p < q, when the rows of inj and of ext's table are dense
    (`_Packing.rows`), they are packed once into one integer each, and a
    pair tests that
        dI dE sum_a T[pq][a] inj[a] - dT sum_(a,b) u_a v_b E[a, b]
    is 0, with T/dT, E/dE and inj/dI the int numerators of L's table,
    ext's table and inj, and u, v the rows p and q of inj: that is
    dT dI^2 dE times the difference of the two sides.
    """
    r = L.rank
    if not antisymmetric or inj.rows != r or inj.cols != ext.rank:
        # a shape mismatch raises in the product or the brackets
        return L.table * inj == ext.bracket_rows(inj, inj)
    pairs = [p * r + q for p in range(r) for q in range(p + 1, r)]
    I, T, E = inj.num, L.table.num, ext.table.num
    dT, dI, dE = L.table.den, inj.den, ext.table.den

    def bound() -> int:
        # entry k of a pair's sum is at most dI dE |T row|_1 |inj row|_1 +
        # dT |inj row|_1^2 |E row|_1 in absolute value
        il1 = _Packing.l1(I)
        return il1 * (dI * dE * _Packing.l1(T) + dT * il1 * _Packing.l1(E))

    packed = _Packing.rows(I + E, bound)
    if packed is None:
        return L.table.take_rows(pairs) * inj == ext._pair_brackets(inj)
    R = ext.rank
    packed_inj, packed_ext = packed[:r], packed[r:]
    for pq in pairs:
        p, q = divmod(pq, r)
        v = I[q]
        s = dI * dE * sum(x * packed_inj[a] for a, x in T[pq].items())
        for a, x in I[p].items():
            s -= dT * x * sum(y * packed_ext[a * R + b] for b, y in v.items())
        if s:
            return False
    return True


@dataclass(frozen=True)
class AdoReport:
    path: str  # nilpotent-shortcut | semisimple-shortcut | theorem
    degree: int
    bound: Fraction
    phi_degree: int | None
    rs_rank: int
    verification: VerificationReport
    certificate_report: CertificateReport | None
    comparison_bounds: dict[str, Fraction] | None

    @property
    def ok(self) -> bool:
        cert_ok = self.certificate_report.ok if self.certificate_report else True
        return self.verification.ok and cert_ok


def ado_representation(
    L: LieLattice, strict: bool = False
) -> tuple[LinearRep, AdoReport, EmbeddingCertificate | None]:
    """Faithful representation of degree at most rank + B(rank).

    Without `strict`, nilpotent lattices get the truncated regular
    representation alone and semisimple ones the adjoint alone; the strict
    path always runs the embedding construction and the direct sum with the
    adjoint.

    One Known serves the whole call: L is validated first, and every stage
    reads its facts about L and the extension from it, so each is computed
    once.  Off the strict path the lower central series of L is computed
    first: it picks the nilpotent shortcut, `nilpotent_faithful_rep` builds
    on it, and the radicals of a nilpotent L are read off it.  The strict
    path never reads the series of L, so it does not compute it.
    """
    known = Known()
    known.require_valid(L)
    r = L.rank
    if r == 0:
        raise ValueError("rank-zero lattice has nothing to represent")
    nilpotent = not strict and known.series(L)[-1].is_zero()
    cert: EmbeddingCertificate | None = None
    cert_report: CertificateReport | None = None
    comparison = None
    if nilpotent:
        path = "nilpotent-shortcut"
        rs_rank = r  # a nilpotent lattice is its own solvable radical
        comparison = birkhoff_bounds(r, len(known.series(L)) - 1)
    elif not strict and known.radicals(L)[0].is_zero():
        # in characteristic zero a zero radical is semisimplicity (Cartan)
        path = "semisimple-shortcut"
        rs_rank = 0
    else:
        path = "theorem"
        # outside the boundary below: its Z-domain check is an input error
        cert = embed_splittable(L, known)
        rs_rank = cert.rs_rank
        cert_report = verify_certificate(cert, known)
        if not cert_report.ok:
            raise VerificationFailure("embedding certificate failed verification", cert_report)
    try:  # on a validated L and a certified extension, a ValueError is a bug
        if cert is not None:
            phi = splittable_rep(cert.extension, cert.nilpotent_rank, known)
            rep = direct_sum_rep(restrict_rep(phi, cert.injection, L), adjoint_rep(L))
        else:
            phi = rep = nilpotent_faithful_rep(L, known) if nilpotent else adjoint_rep(L)
    except ValueError as exc:
        raise RuntimeError(f"construction failed: {exc}") from exc
    phi_degree = None if path == "semisimple-shortcut" else phi.degree

    report = verify_representation(L, rep, known)
    ado_report = AdoReport(
        path=path,
        degree=report.degree,
        bound=report.bound,
        phi_degree=phi_degree,
        rs_rank=rs_rank,
        verification=report,
        certificate_report=cert_report,
        comparison_bounds=comparison,
    )
    if not report.ok:
        raise VerificationFailure(
            f"representation failed verification: {report.checks()}", ado_report
        )
    log.info("ado path=%s degree=%d bound=%s", path, report.degree, report.bound)
    return rep, ado_report, cert
