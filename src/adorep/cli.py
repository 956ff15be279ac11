"""Command-line interface.

Exit codes: 0 success, 1 an invalid input or a failed verification (with
a witness in the report), 2 I/O or format errors, 3 internal errors (a bug,
not a property of the input).  A construction that has passed its input
checks cannot fail, so `embed_splittable` and `ado_representation` raise
every failure inside it as a RuntimeError, exit 3.  Set ADO_LOG=info or
ADO_LOG=debug for progress messages on stderr; ADO_LOG takes debug, info,
warning, error or critical in any case, and any other value means warning.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import catalog
from .jsonio import (
    JsonFormatError,
    ado_report_to_json,
    certificate_report_to_json,
    certificate_to_json,
    frac_to_str,
    lattice_from_json,
    lattice_to_json,
    matrix_to_json,
    rep_from_json,
    rep_to_json,
    verification_report_to_json,
)
from .lie_core import Known, LieLattice, center, derived_series, validate
from .nilrep import birkhoff_bounds, burde_bound, nilpotent_faithful_rep
from .pipeline import (
    VerificationFailure,
    ado_representation,
    degree_bound,
    verify_certificate,
    verify_representation,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_FORMAT = 2
EXIT_INTERNAL = 3


def _emit(payload, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


def _read_json(path: str):
    """The JSON document in the file; a ValueError of the parse (bad JSON,
    bad UTF-8, an integer literal past the interpreter's digit limit) is a
    JsonFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise JsonFormatError(str(exc)) from exc


def _load_lattice(path: str) -> LieLattice:
    return lattice_from_json(_read_json(path))


def cmd_validate(args) -> int:
    L = _load_lattice(args.file)
    report = validate(L)
    _emit(
        {
            "ok": report.ok,
            "antisymmetry_violations": [list(t) for t in report.antisymmetry_violations],
            "jacobi_violations": [list(t) for t in report.jacobi_violations],
            "integrality_violations": [list(t) for t in report.integrality_violations],
        },
        args.pretty,
    )
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_radicals(args) -> int:
    L = _load_lattice(args.file)
    known = Known()
    known.require_valid(L)
    chain = known.series(L)
    rs, rn = known.radicals(L)
    payload = {
        "center": matrix_to_json(center(L).basis),
        "solvable_radical": matrix_to_json(rs.basis),
        "nilradical": matrix_to_json(rn.basis),
        "lower_central": [matrix_to_json(m.basis) for m in chain],
        "derived": [matrix_to_json(m.basis) for m in derived_series(L)],
    }
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_nilrep(args) -> int:
    L = _load_lattice(args.file)
    if L.rank == 0:
        # the same refusal as `ado`, before any work
        raise ValueError("rank-zero lattice has nothing to represent")
    # one Known: L is validated once, before the series; the construction
    # builds on that one series, its length is the class, and on a
    # nilpotent L the verifier reads both radicals off it
    known = Known()
    known.require_valid(L)
    chain = known.series(L)
    rep = nilpotent_faithful_rep(L, known)
    report = verify_representation(L, rep, known)
    _emit(
        {
            "representation": rep_to_json(rep),
            # rep acts on the truncated enveloping algebra, one PBW monomial per basis vector
            "monomial_count": rep.degree,
            "burde_bound": frac_to_str(burde_bound(L.rank)),
            "comparison_bounds": {
                k: frac_to_str(v)
                for k, v in birkhoff_bounds(L.rank, len(chain) - 1).items()
            },
            "report": verification_report_to_json(report),
        },
        args.pretty,
    )
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_embed(args) -> int:
    from .embed import embed_splittable

    L = _load_lattice(args.file)
    # one Known: L is validated first, and its radicals are computed once
    # for both the construction and the verifier
    known = Known()
    known.require_valid(L)
    cert = embed_splittable(L, known)
    report = verify_certificate(cert, known)
    payload = certificate_to_json(cert)
    payload["report"] = certificate_report_to_json(report)
    _emit(payload, args.pretty)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_ado(args) -> int:
    L = _load_lattice(args.file)
    rep, report, cert = ado_representation(L, strict=args.strict_theorem_path)
    payload = {
        "representation": rep_to_json(rep),
        "report": ado_report_to_json(report),
        "degree_bound": frac_to_str(degree_bound(L.rank)),
    }
    if args.emit_certificate and cert is not None:
        payload["certificate"] = certificate_to_json(cert)
    _emit(payload, args.pretty)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_verify(args) -> int:
    L = _load_lattice(args.lattice)
    rep = rep_from_json(_read_json(args.representation), L)
    report = verify_representation(L, rep)
    _emit(verification_report_to_json(report), args.pretty)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_catalog(args) -> int:
    if args.name is None:
        _emit(catalog.names(), args.pretty)
        return EXIT_OK
    try:
        entry = catalog.get(args.name)
    except KeyError:
        print(f"unknown catalog entry: {args.name}", file=sys.stderr)
        return EXIT_FORMAT
    _emit(lattice_to_json(entry.lattice), args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adorep",
        description="Faithful integer matrix representations of Lie lattices "
        "with certified degree bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("radicals", help="center, radicals and series")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_radicals)

    p = sub.add_parser("nilrep", help="faithful representation of a nilpotent lattice")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_nilrep)

    p = sub.add_parser("embed", help="splittable extension certificate")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("ado", help="faithful representation within the degree bound")
    p.add_argument("file")
    p.add_argument("--strict-theorem-path", action="store_true",
                   help="disable the nilpotent and semisimple shortcuts")
    p.add_argument("--emit-certificate", action="store_true")
    common(p)
    p.set_defaults(func=cmd_ado)

    p = sub.add_parser("verify", help="independently check a representation file")
    p.add_argument("lattice")
    p.add_argument("representation")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list built-in lattices or emit one")
    p.add_argument("name", nargs="?")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    name = os.environ.get("ADO_LOG", "warning").upper()
    known = name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, name) if known else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, JsonFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except RuntimeError as exc:
        # ExpansionError, LiftingError, the radicals' self-checks and the
        # construction's "construction failed" re-raises: all bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
