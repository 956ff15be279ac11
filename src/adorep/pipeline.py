"""End-to-end construction of a faithful representation with a certified
degree bound, plus independent checkers for representations and embedding
certificates.

The checkers recompute everything they assert (validity, brackets,
radicals, ranks) from structure constants and exact linear algebra; they
never trust state produced by the constructors.  `ado_representation`
runs its verification stage first on the input: the stage validates L and,
on the theorem path, computes R_s(L) and R_n(L) before the construction,
which reads them.  The stage's table then serves the same facts to both
checkers, so each is computed once per call; the construction may trust
the verifier, never the other way round.  A direct call of a checker
validates and computes its own.
"""

from __future__ import annotations

import logging
from contextvars import ContextVar
from typing import Callable
from dataclasses import dataclass, fields
from fractions import Fraction

from .embed import EmbeddingCertificate, embed_splittable
from .exact_linalg import ExactMatrix, Submodule, Vec, kernel_basis, rank, stack_rows
from .lie_core import (
    LieLattice,
    adjoint_rep,
    is_ideal,
    is_nilpotent_submodule,
    is_semisimple,
    lower_central_series,
    nilradical,
    solvable_radical,
    validate,
)
from .nilrep import birkhoff_bounds, burde_bound, nilpotent_faithful_rep
from .rep import LinearRep, direct_sum_rep, restrict_rep
from .zassenhaus import splittable_rep

log = logging.getLogger(__name__)


class VerificationFailure(RuntimeError):
    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


# What the current verification stage of `ado_representation` has computed
# about the lattices it verifies, keyed by (function, lattice): their
# `validate` reports and `_radicals`.  None outside a stage, so that every
# other caller of a checker computes its own.
_stage_table: ContextVar[dict[tuple[Callable, LieLattice], object] | None] = ContextVar(
    "_stage_table", default=None
)


def _stage_fact(compute: Callable, L: LieLattice):
    """`compute(L)`, once per verification stage: the stage's table holds
    only what this function put there."""
    table = _stage_table.get()
    if table is None:
        return compute(L)
    key = (compute, L)
    if key not in table:
        table[key] = compute(L)
    return table[key]


def _radicals(L: LieLattice) -> tuple[Submodule, Submodule]:
    """(R_s(L), R_n(L)) from the structure constants of L."""
    rs = solvable_radical(L)
    return rs, nilradical(L, rs)


def _in_stage(table: dict, step, *args):
    """`step(*args)` with `table` as the table of the verification stage;
    the table is unset again however the step ends."""
    token = _stage_table.set(table)
    try:
        return step(*args)
    finally:
        _stage_table.reset(token)


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


def verify_representation(L: LieLattice, rep: LinearRep) -> VerificationReport:
    """Independent checks: homomorphism on all basis pairs, integrality over
    Z, faithfulness via the rank of the stacked matrices, nilpotency of the
    images of the nilpotent radical, and the degree bound."""
    _stage_fact(validate, L).raise_if_invalid()
    if len(rep.matrices) != L.rank:
        raise ValueError("representation size does not match the lattice rank")
    n = rep.degree
    bound_to_L = LinearRep(lattice=L, matrices=rep.matrices, provenance=rep.provenance)
    violations = tuple(bound_to_L.homomorphism_violations())
    integral_ok = rep.is_integral if L.domain == "Z" else True

    witness: tuple[Vec, ...] = ()
    if L.rank == 0:
        faithful_ok = True
    else:
        stacked = stack_rows([M.flattened() for M in rep.matrices])
        faithful_ok = rank(stacked) == L.rank
        if not faithful_ok:
            witness = tuple(kernel_basis(stacked, "Q").basis.entries)

    rn = _stage_fact(_radicals, L)[1]
    nil_violations = [
        idx
        for idx, M in enumerate(rep.matrices_of_rows(rn.basis))
        if not _is_nilpotent_matrix(M)
    ]
    nilrep_ok = not nil_violations

    bound = degree_bound(L.rank) if L.rank >= 1 else Fraction(0)
    degree_ok = Fraction(n) <= bound if L.rank >= 1 else n == 0

    return VerificationReport(
        degree=n,
        bound=bound,
        homomorphism_ok=not violations,
        homomorphism_violations=violations,
        integral_ok=integral_ok,
        faithful_ok=faithful_ok,
        kernel_witness=witness,
        nilrep_ok=nilrep_ok,
        nilrep_violations=tuple(nil_violations),
        degree_ok=degree_ok,
    )


def _is_nilpotent_matrix(M: ExactMatrix) -> bool:
    """Whether M^n = 0 for the n x n matrix M, by repeated squaring that
    stops at the first zero power: M^(2^j) = 0 implies M^n = 0, and a
    nonzero M^e with e >= n means M is not nilpotent."""
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


def verify_certificate(cert: EmbeddingCertificate) -> CertificateReport:
    """Re-verify an embedding certificate from scratch.

    `nbar_is_nilradical` is checked first; when it holds, nbar is an ideal
    and nilpotent without a further test.  `nilradical(ext)` returns the
    integer points of a Q-ideal that it has itself checked to be nilpotent,
    and `extension_valid` makes the structure constants of ext integral, so
    those integer points are closed under the bracket with every basis
    vector of ext and form a nilpotent Z-ideal.  When it fails, both properties are
    tested on their own.
    """
    L, ext = cert.original, cert.extension
    original_valid = _stage_fact(validate, L).ok
    extension_valid = _stage_fact(validate, ext).ok
    extension_integral = ext.domain == "Z" and cert.injection.is_integral

    inj = cert.injection
    injective = rank(inj) == L.rank
    I = ExactMatrix.identity(L.rank)
    hom = L.bracket_rows(I, I) * inj == ext.bracket_rows(inj, inj)

    # radicals and series are defined for Lie lattices only, and the
    # nilpotency chain for a bracket-closed nbar only; elsewhere they may
    # fail or never end, so those checks fail unrun
    lie = original_valid and extension_valid
    nbar = cert.nilpotent_part
    nbar_is_nilradical = lie and nilradical(ext) == nbar
    if nbar_is_nilradical:
        nbar_ideal = nbar_nilp = True
    else:
        nbar_ideal = lie and is_ideal(ext, nbar)
        nbar_nilp = nbar_ideal and is_nilpotent_submodule(ext, nbar)

    # one fresh R_s(L) serves both the rank check and R_n(L)
    rs, rn = _stage_fact(_radicals, L) if lie else (None, None)
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

    The verification stage runs first: it validates L and, on the theorem
    path, computes the radicals of L, which `embed_splittable` reads.  Both
    checkers then read these facts from the stage's table.
    """
    stage: dict[tuple[Callable, LieLattice], object] = {}
    _in_stage(stage, _stage_fact, validate, L).raise_if_invalid()
    r = L.rank
    if r == 0:
        raise ValueError("rank-zero lattice has nothing to represent")
    cert: EmbeddingCertificate | None = None
    cert_report: CertificateReport | None = None
    comparison = None

    # the strict path never reads the series, so it does not compute it
    chain = None if strict else lower_central_series(L)
    if chain is not None and chain[-1].is_zero():
        path = "nilpotent-shortcut"
        rs_rank = r  # a nilpotent lattice is its own solvable radical
        rep = nilpotent_faithful_rep(L)
        phi_degree = rep.degree
        comparison = birkhoff_bounds(r, len(chain) - 1)
    elif not strict and is_semisimple(L.to_field()):
        path = "semisimple-shortcut"
        rs_rank = 0  # a nondegenerate Killing form means a zero radical
        rep = adjoint_rep(L)
        phi_degree = None
    else:
        path = "theorem"
        cert = embed_splittable(L, _in_stage(stage, _stage_fact, _radicals, L))
        rs_rank = cert.rs_rank
        cert_report = _in_stage(stage, verify_certificate, cert)
        if not cert_report.ok:
            raise VerificationFailure("embedding certificate failed verification", cert_report)
        try:
            phi = splittable_rep(cert.extension, cert.nilpotent_rank)
        except ValueError as exc:  # on a certified extension, a bug
            raise RuntimeError(f"construction produced a bad extension: {exc}") from exc
        rep = direct_sum_rep(restrict_rep(phi, cert.injection, L), adjoint_rep(L))
        phi_degree = phi.degree

    report = _in_stage(stage, verify_representation, L, rep)
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
