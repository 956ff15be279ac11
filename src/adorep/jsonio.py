"""JSON encoding of lattices, representations, reports and certificates.

All numbers travel as decimal strings ("num" or "num/den") so arbitrary
precision survives any toolchain.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .embed import EmbeddingCertificate, ExpansionStep
from .exact_linalg import ExactMatrix, Vec
from .lie_core import LieLattice
from .pipeline import AdoReport, CertificateReport, VerificationReport
from .rep import LinearRep


class JsonFormatError(ValueError):
    """Raised on malformed or non-schema JSON input."""


def frac_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# the schema's number strings, "num" and "num/den" in ASCII digits; Fraction
# reads more (decimals, spaces, signs, underscores, other digits and exponent
# notation, the last at a cost exponential in the length of the exponent)
_NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def frac_from_json(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise JsonFormatError(f"expected a number string, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _NUMBER.fullmatch(x):
            raise JsonFormatError(f"bad number string {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise JsonFormatError(f"bad number string {x!r}") from exc
    raise JsonFormatError(f"expected a number string, got {type(x).__name__}")


def vec_to_json(v: Vec) -> list[str]:
    return [frac_to_str(x) for x in v]


def vec_from_json(data: Any, length: int | None = None) -> Vec:
    if not isinstance(data, list):
        raise JsonFormatError("expected a list of number strings")
    v = tuple(frac_from_json(x) for x in data)
    if length is not None and len(v) != length:
        raise JsonFormatError(f"expected a vector of length {length}, got {len(v)}")
    return v


def matrix_to_json(M: ExactMatrix) -> list[list[str]]:
    return [vec_to_json(M.row(i)) for i in range(M.rows)]


def matrix_from_json(data: Any, cols: int | None = None) -> ExactMatrix:
    """Matrix from a list of rows, each of length `cols` (default: the
    length of the first row)."""
    if not isinstance(data, list):
        raise JsonFormatError("expected a list of rows")
    rows = [vec_from_json(row) for row in data]
    if cols is None:
        if not rows:
            raise JsonFormatError("empty matrix needs an explicit column count")
        cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise JsonFormatError(f"every matrix row must have length {cols}")
    return ExactMatrix.from_rows(rows, cols=cols)


def _is_index(x: Any) -> bool:
    """A JSON integer; booleans are rejected although bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def lattice_to_json(L: LieLattice) -> dict:
    """The brackets [x_i, x_j], i < j, that are nonzero, read off the table."""
    r = L.rank
    brackets = []
    for i in range(r):
        for j in range(i + 1, r):
            if L.table.num[i * r + j]:
                brackets.append({"i": i, "j": j, "coeffs": vec_to_json(L.table.row(i * r + j))})
    out = {"rank": L.rank, "names": list(L.names), "brackets": brackets}
    if L.domain != "Z":
        out["domain"] = L.domain
    return out


def lattice_from_json(data: Any) -> LieLattice:
    if not isinstance(data, dict):
        raise JsonFormatError("lattice JSON must be an object")
    try:
        r = data["rank"]
        names = data["names"]
        brackets = data["brackets"]
    except KeyError as exc:
        raise JsonFormatError(f"lattice JSON missing key {exc}") from exc
    if not _is_index(r) or r < 0:
        raise JsonFormatError("rank must be a nonnegative integer")
    if not isinstance(names, list) or len(names) != r:
        raise JsonFormatError("names must list one label per basis vector")
    domain = data.get("domain", "Z")
    if domain not in ("Z", "Q"):
        raise JsonFormatError("domain must be 'Z' or 'Q'")
    if not isinstance(brackets, list):
        raise JsonFormatError("brackets must be a list")
    table = {}
    for item in brackets:
        if not isinstance(item, dict) or not {"i", "j", "coeffs"} <= set(item):
            raise JsonFormatError("each bracket needs keys i, j, coeffs")
        i, j = item["i"], item["j"]
        if not (_is_index(i) and _is_index(j) and 0 <= i < j < r):
            raise JsonFormatError(f"bracket indices ({i},{j}) must satisfy 0 <= i < j < rank")
        if (i, j) in table:
            raise JsonFormatError(f"duplicate bracket for pair ({i},{j})")
        table[(i, j)] = vec_from_json(item["coeffs"], length=r)
    from .lie_core import lie_lattice

    return lie_lattice([str(n) for n in names], table, domain)


def rep_to_json(rep: LinearRep) -> dict:
    return {
        "degree": rep.degree,
        "matrices": [matrix_to_json(M) for M in rep.matrices],
        "provenance": rep.provenance,
    }


def rep_from_json(data: Any, lattice: LieLattice) -> LinearRep:
    if not isinstance(data, dict):
        raise JsonFormatError("representation JSON must be an object")
    try:
        degree = data["degree"]
        matrices = data["matrices"]
    except KeyError as exc:
        raise JsonFormatError(f"representation JSON missing key {exc}") from exc
    if not _is_index(degree) or degree < 0:
        raise JsonFormatError("degree must be a nonnegative integer")
    if not isinstance(matrices, list) or len(matrices) != lattice.rank:
        raise JsonFormatError("need one matrix per lattice basis vector")
    if degree and not matrices:
        # LinearRep reads its degree off its matrices: none have degree 0
        raise JsonFormatError("a representation with no matrices has degree 0")
    mats = []
    for m in matrices:
        M = matrix_from_json(m, cols=degree)
        if M.rows != degree or M.cols != degree:
            raise JsonFormatError("matrices must be square of the stated degree")
        mats.append(M)
    return LinearRep(
        lattice=lattice,
        matrices=tuple(mats),
        provenance=str(data.get("provenance", "external")),
    )


def verification_report_to_json(rep: VerificationReport) -> dict:
    return {
        "ok": rep.ok,
        "degree": rep.degree,
        "degree_bound": frac_to_str(rep.bound),
        "checks": rep.checks(),
        "homomorphism_violations": [list(p) for p in rep.homomorphism_violations],
        "kernel_witness": [vec_to_json(v) for v in rep.kernel_witness],
        "nilrep_violations": list(rep.nilrep_violations),
    }


def certificate_report_to_json(rep: CertificateReport) -> dict:
    return {"ok": rep.ok, "checks": rep.checks()}


def step_to_json(step: ExpansionStep) -> dict:
    return {
        "index": step.index,
        "y": vec_to_json(step.y),
        "ideal_basis": matrix_to_json(step.ideal_basis),
        "semisimple_part": matrix_to_json(step.semisimple_part),
        "nilpotent_part": matrix_to_json(step.nilpotent_part),
        "dim_n_before": step.dim_n_before,
        "dim_n_after": step.dim_n_after,
        "dim_rn_before": step.dim_rn_before,
        "dim_rn_after": step.dim_rn_after,
    }


def certificate_to_json(cert: EmbeddingCertificate) -> dict:
    return {
        "original": lattice_to_json(cert.original),
        "extension": lattice_to_json(cert.extension),
        "injection": matrix_to_json(cert.injection),
        "nilpotent_rank": cert.nilpotent_rank,
        "nilpotent_basis": matrix_to_json(cert.nilpotent_part.basis),
        "complement_basis": matrix_to_json(cert.complement.basis),
        "mu": cert.mu,
        "lambda": cert.lam,
        "rs_rank": cert.rs_rank,
        "trace": [step_to_json(s) for s in cert.trace],
    }


def ado_report_to_json(report: AdoReport) -> dict:
    out = {
        "ok": report.ok,
        "path": report.path,
        "degree": report.degree,
        "degree_bound": frac_to_str(report.bound),
        "phi_degree": report.phi_degree,
        "rs_rank": report.rs_rank,
        "verification": verification_report_to_json(report.verification),
    }
    if report.certificate_report is not None:
        out["certificate"] = certificate_report_to_json(report.certificate_report)
    if report.comparison_bounds is not None:
        out["comparison_bounds"] = {
            k: frac_to_str(v) for k, v in report.comparison_bounds.items()
        }
    return out
