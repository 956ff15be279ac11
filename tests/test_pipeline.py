import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from adorep import catalog
from adorep.cli import main
from adorep.embed import EmbeddingCertificate, embed_splittable
from adorep.exact_linalg import ExactMatrix, Submodule, invert
from adorep.jsonio import ado_report_to_json, certificate_to_json, lattice_to_json, rep_to_json
from adorep.lie_core import (
    Known,
    LatticeValidationError,
    adjoint_rep,
    change_basis,
    direct_sum,
    lie_lattice,
    nilradical,
    solvable_radical,
    unit,
)
from adorep.nilrep import burde_bound
from adorep.pipeline import (
    VerificationFailure,
    ado_representation,
    degree_bound,
    verify_certificate,
    verify_representation,
)
from adorep.rep import LinearRep
from adorep.zassenhaus import splittable_rep

from oracles import (
    acceptance_entries,
    load_bench,
    load_bench_run,
    power,
    ref_verify_certificate,
    series_inputs,
    tensor_lattice,
    theorem_inputs,
)


def test_degree_bound_examples():
    assert Fraction(1575, 100) < degree_bound(3) < Fraction(1577, 100)  # ~ 15.76
    assert Fraction(652, 100) < degree_bound(1) < Fraction(653, 100)  # ~ 6.53
    assert Fraction(980, 100) < degree_bound(2) < Fraction(982, 100)  # ~ 9.81


def test_ado_h3_both_paths():
    L = catalog.get("heisenberg3").lattice
    rep, report, cert = ado_representation(L)
    assert report.path == "nilpotent-shortcut"
    assert report.degree == 7
    assert cert is None
    rep, report, cert = ado_representation(L, strict=True)
    assert report.path == "theorem"
    assert report.degree == 10
    assert report.phi_degree == 7
    assert cert is not None and verify_certificate(cert).ok


def test_ado_strict_path_computes_no_lower_central_series(monkeypatch):
    # only the nilpotent shortcut reads the series of L; `splittable_rep`
    # still computes the series of the extension's nilpotent block
    import adorep.lie_core

    L = catalog.get("heisenberg3").lattice
    real = adorep.lie_core.lower_central_series

    def refuse(M):
        if M is L:
            raise AssertionError("lower_central_series of L called on the strict path")
        return real(M)

    monkeypatch.setattr(adorep.lie_core, "lower_central_series", refuse)
    _, report, _ = ado_representation(L, strict=True)
    assert report.path == "theorem" and report.ok


def test_ado_solv2():
    L = catalog.get("solv2").lattice
    rep, report, _ = ado_representation(L, strict=True)
    assert report.degree == 5
    assert report.verification.ok
    assert Fraction(report.degree) <= degree_bound(2)


def test_ado_abelian_rank1():
    L = catalog.abelian(1)
    rep, report, _ = ado_representation(L)
    assert report.path == "nilpotent-shortcut"
    assert report.degree == 2
    rep, report, _ = ado_representation(L, strict=True)
    assert report.degree == 3
    assert Fraction(report.degree) <= degree_bound(1)


def test_ado_semisimple_shortcut():
    L = catalog.get("sl2").lattice
    rep, report, _ = ado_representation(L)
    assert report.path == "semisimple-shortcut"
    assert report.degree == 3
    rep, report, _ = ado_representation(L, strict=True)
    assert report.degree == 4


def test_ado_expected_strict_degrees():
    for entry in acceptance_entries():
        rep, report, _ = ado_representation(entry.lattice, strict=True)
        assert report.degree == entry.expected["strict_ado_degree"], entry.name
        assert report.ok


def test_strict_ado_of_t2_to_the_sixth():
    """Six chained expansions, each certified from its parts, end in a
    verified representation of degree 6 * 6 + 1."""
    L = catalog.t2_upper()
    for _ in range(5):
        L = direct_sum(L, catalog.t2_upper())
    rep, report, cert = ado_representation(L, strict=True)
    assert len(cert.trace) == 6
    assert report.degree == rep.degree == 37
    assert report.ok and report.certificate_report.ok


def test_phi_degree_bounded_by_rs_burde():
    # deg Phi <= B(rk R_s) <= B(r), with the rank-one edge evaluated directly
    for entry in acceptance_entries():
        rep, report, _ = ado_representation(entry.lattice, strict=True)
        r = entry.lattice.rank
        q = report.rs_rank
        assert report.phi_degree is not None
        if q >= 1:
            assert Fraction(report.phi_degree) <= burde_bound(q)
            assert burde_bound(q) <= burde_bound(r)
        else:
            assert report.phi_degree == 1
        assert report.degree == report.phi_degree + r


def test_verify_adjoint_sl2():
    L = catalog.get("sl2").lattice
    report = verify_representation(L, adjoint_rep(L))
    assert report.ok
    assert report.degree == 3


def test_verify_rejects_adjoint_h3():
    L = catalog.get("heisenberg3").lattice
    report = verify_representation(L, adjoint_rep(L))
    assert not report.faithful_ok
    assert report.homomorphism_ok
    # the kernel witness spans the center <z>
    assert report.kernel_witness == (unit(3, 2),)
    assert not report.ok


def test_verify_rejects_zero_rep():
    L = catalog.abelian(1)
    rep = LinearRep(lattice=L, matrices=(ExactMatrix.zero(1, 1),), provenance="zero")
    report = verify_representation(L, rep)
    assert report.homomorphism_ok
    assert not report.faithful_ok


def test_verify_rejects_non_homomorphism():
    L = catalog.get("heisenberg3").lattice
    mats = (
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        ExactMatrix.from_rows([[0, 0], [1, 0]]),
        ExactMatrix.zero(2, 2),  # but [M_x, M_y] = diag(1, -1) != 0
    )
    report = verify_representation(L, LinearRep(L, mats, "broken"))
    assert not report.homomorphism_ok
    assert (0, 1) in report.homomorphism_violations


def test_verify_flags_non_integral_over_z():
    L = catalog.abelian(1)
    M = ExactMatrix.from_rows([["1/2", 0], [0, 0]])
    report = verify_representation(L, LinearRep(L, (M,), "frac"))
    assert not report.integral_ok


def test_nil_representation_property():
    for entry in acceptance_entries():
        L = entry.lattice
        rep, report, _ = ado_representation(L, strict=True)
        from adorep.lie_core import nilradical

        n = rep.degree
        for M in rep.matrices_of_rows(nilradical(L, solvable_radical(L)).basis):
            assert power(M, n).is_zero()


def test_ado_rejects_invalid_lattice():
    bad = lie_lattice(["a", "b", "c"], {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    with pytest.raises(Exception):
        ado_representation(bad)


def jordan_block(n):
    return ExactMatrix.from_rows([[int(j == i + 1) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verify_accepts_jordan_block_of_full_index(n):
    # J_n has index exactly n, which is not a power of two; its support is
    # acyclic, which proves it nilpotent without a power (the conjugate
    # below reaches the squaring)
    J = jordan_block(n)
    assert not power(J, n - 1).is_zero() and power(J, n).is_zero()
    L = catalog.abelian(2)
    report = verify_representation(L, LinearRep(L, (J, J * J), "jordan"))
    assert report.nilrep_ok and report.nilrep_violations == ()
    assert report.ok


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verify_accepts_a_cyclic_conjugate_of_a_jordan_block(n):
    # the support of J_n conjugated by U = I + E_(n-1, 0) has the cycle
    # 1 -> 2 -> ... -> n-1 -> 1, so the squaring check must go past the
    # nonzero powers 2^j < n to the first zero power (the 8th for n = 5, 7
    # and the 16th for n = 9)
    U = ExactMatrix.identity(n) + ExactMatrix.from_rows(
        [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
    )
    C = U * jordan_block(n) * invert(U)
    assert C.num[n - 1].get(1) == 1
    assert not power(C, n - 1).is_zero() and power(C, n).is_zero()
    L = catalog.abelian(2)
    report = verify_representation(L, LinearRep(L, (C, C * C), "conjugate"))
    assert report.nilrep_ok and report.nilrep_violations == ()
    assert report.ok


@pytest.mark.parametrize("n", [5, 7])
def test_verify_flags_non_nilpotent_image(n):
    # J_n + E_{n,1} is the cyclic shift: a permutation, never nilpotent
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    rows[n - 1][0] = 1
    L = catalog.abelian(1)
    report = verify_representation(L, LinearRep(L, (ExactMatrix.from_rows(rows),), "shift"))
    assert report.nilrep_violations == (0,)
    assert not report.nilrep_ok and not report.ok


def test_verify_rejects_one_corrupted_diagonal_entry():
    # The image of a bracket must have trace 0; adding 1 to a diagonal entry
    # of the matrix of a basis vector that occurs in a bracket breaks that.
    L = catalog.get("heisenberg3").lattice  # [x, y] = z
    rep, _, _ = ado_representation(L)
    z = rep.matrices[2]
    for d in range(rep.degree):
        rows = [list(row) for row in z.entries]
        rows[d][d] += 1
        mats = rep.matrices[:2] + (ExactMatrix.from_rows(rows),)
        report = verify_representation(L, LinearRep(L, mats, "corrupted"))
        assert not report.ok
        assert (0, 1) in report.homomorphism_violations


# SHA-256 of the JSON of strict ado's representation, report and certificate.
# A change to the kernels must leave every output byte unchanged; a change
# meant to alter outputs updates these digests and says why.
GOLDEN = {
    "t2_upper": "816a9c11b2d6407e0b733763d6d7172a43a912ec4ce24d165bc167ae36487313",
    "churkin_sl2_t2": "02a9fd870f507569a4d3195150273a82f40f85163ffd466ad871a366fa8730fe",
    "solv3_weights": "77b4546dea1ac455184cbee1b64205d9566e1f7a1b769383f1f5f48677225793",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_strict_ado_output_is_pinned(name):
    rep, report, cert = ado_representation(catalog.get(name).lattice, strict=True)
    text = json.dumps(
        [rep_to_json(rep), ado_report_to_json(report), certificate_to_json(cert)],
        sort_keys=True,
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


CATALOG_ADO_GOLDEN = "419b3bc2ece0f35acf802fca828fb7280907e34452bfff5f07a7ced05036a323"


def test_catalog_ado_output_digest_is_pinned():
    """One SHA-256 over non-strict and strict `ado` of every catalog lattice.

    Recipe: for each name in `catalog.names()` order, and for strict False
    then True, run `ado_representation(catalog.get(name).lattice, strict)`
    and feed `json.dumps([rep_to_json(rep), ado_report_to_json(report),
    C], sort_keys=True)`, with C `certificate_to_json(cert)` or None when
    there is no certificate, UTF-8 encoded, into one running SHA-256.

    The same recipe over the cases of `bench/workloads.build(workload, seed)`,
    in that order and with each case's own `strict`, gives the benchmark's
    per-workload output digest, which `WORKLOAD_ADO_GOLDEN` pins at seed 23.
    """
    digest = hashlib.sha256()
    for name in catalog.names():
        for strict in (False, True):
            rep, report, cert = ado_representation(catalog.get(name).lattice, strict=strict)
            text = json.dumps(
                [
                    rep_to_json(rep),
                    ado_report_to_json(report),
                    None if cert is None else certificate_to_json(cert),
                ],
                sort_keys=True,
            )
            digest.update(text.encode())
    assert digest.hexdigest() == CATALOG_ADO_GOLDEN


# The benchmark's per-workload output digest at seed 23: the recipe of
# `test_catalog_ado_output_digest_is_pinned` over the workload's cases.
# theorem-scrambled is the one input set on which the Levi correction
# solves a nonzero system.
WORKLOAD_ADO_GOLDEN = {
    "nilpotent-regular": "6102f2a4f0f4fd29735c4639fd9c2257c82fc3bb49fc7ce530edca5deaa4fa10",
    "theorem-solvable": "5961fdd2a1940ba36b7ef88cb7f1e0f44bdf49fb765bd0a3be0151ea0eb72f86",
    "theorem-scrambled": "f139ac5c0a283de10d88666850c93ce324ddf64e7c353bf5df564291458b9fbe",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ADO_GOLDEN))
def test_workload_ado_output_digest_is_pinned(workload):
    digest = hashlib.sha256()
    for case in load_bench("workloads").build(workload, 23):
        rep, report, cert = ado_representation(case.lattice, strict=case.strict)
        text = json.dumps(
            [
                rep_to_json(rep),
                ado_report_to_json(report),
                None if cert is None else certificate_to_json(cert),
            ],
            sort_keys=True,
        )
        digest.update(text.encode())
    assert digest.hexdigest() == WORKLOAD_ADO_GOLDEN[workload]


# SHA-256 of the output of `adorep radicals` on every catalog lattice, in
# catalog order: it fixes the canonical bases that kernel_basis and
# Submodule.of_rows return.
RADICALS_GOLDEN = "0b26cb2f0c9ac43f0ec3467db1ab1c95c7c4a7ef6e7ffccc6d29f0a06a8e6d65"


def test_radicals_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for name in catalog.names():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice_to_json(catalog.get(name).lattice)))
        assert main(["radicals", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == RADICALS_GOLDEN


@pytest.mark.parametrize("strict", [False, True])
def test_reported_rs_rank_is_the_solvable_radical_rank(strict):
    for name in catalog.names():
        L = catalog.get(name).lattice
        _, report, _ = ado_representation(L, strict=strict)
        assert report.rs_rank == solvable_radical(L).rank, (name, report.path)


def test_certificate_with_an_unclosed_nilpotent_part_fails(alarm):
    # span(e, f) in sl2 is not a subalgebra: the chain e,f -> h -> e,f of
    # its nilpotency test cycles, so the check must fail without running it
    L = lie_lattice(["e", "f", "h"], {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]})
    cert = EmbeddingCertificate(L, L, ExactMatrix.identity(3), 2, 1, 1, 0, ())
    alarm(10)
    report = verify_certificate(cert)
    assert report.extension_valid and not report.nbar_is_ideal
    assert not report.nbar_is_nilpotent and not report.ok


def test_certificate_rejects_every_structure_constant_change():
    """+1 on any single entry of the extension's tensor must fail
    verification."""
    _, _, cert = ado_representation(catalog.get("churkin_sl2_t2").lattice, strict=True)
    ext = cert.extension
    assert verify_certificate(cert).ok
    r = ext.rank
    for i in range(r):
        for j in range(r):
            for k in range(r):
                c = [[list(v) for v in row] for row in ext.c]
                c[i][j][k] += 1
                tensor = tuple(tuple(map(tuple, row)) for row in c)
                changed = tensor_lattice(ext.names, tensor, ext.domain)
                report = verify_certificate(dataclasses.replace(cert, extension=changed))
                assert not report.ok, (i, j, k)


@pytest.mark.parametrize("name", ["t2_upper", "solv2", "solv3_weights", "churkin_sl2_t2"])
def test_certificate_with_a_too_small_nilpotent_part_fails(name):
    # the first nilpotent_rank - 1 coordinates still span a nilpotent ideal,
    # so only the fresh nilradical (and rank) checks can see the defect
    _, _, cert = ado_representation(catalog.get(name).lattice, strict=True)
    report = verify_certificate(dataclasses.replace(cert, nilpotent_rank=cert.nilpotent_rank - 1))
    assert not report.nbar_is_nilradical and not report.ok


def test_verify_representation_validates_its_lattice():
    # [x, y] = z/2 is a Lie algebra over Q but not a Z-lattice
    half = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, Fraction(1, 2)]})
    rep = LinearRep(half, (ExactMatrix.zero(1, 1),) * 3, "zero")
    with pytest.raises(LatticeValidationError, match=r"\(0, 1, 2\)"):
        verify_representation(half, rep)


def _corrupted_certificates(cert):
    """cert with nilpotent_rank off by one either way (where that still
    names coordinates of the extension), one injection entry + 1, and one
    extension structure constant + 1."""
    ext = cert.extension
    out = [
        dataclasses.replace(cert, nilpotent_rank=k)
        for k in (cert.nilpotent_rank - 1, cert.nilpotent_rank + 1)
        if 0 <= k <= ext.rank
    ]
    rows = [list(row) for row in cert.injection.entries]
    rows[0][0] += 1
    out.append(dataclasses.replace(cert, injection=ExactMatrix.from_rows(rows, cols=ext.rank)))
    c = [[list(v) for v in row] for row in ext.c]
    c[0][ext.rank - 1][0] += 1
    tensor = tuple(tuple(map(tuple, row)) for row in c)
    out.append(dataclasses.replace(cert, extension=tensor_lattice(ext.names, tensor, ext.domain)))
    return out


@pytest.fixture(scope="module")
def strict_runs():
    """(name, lattice, rep, report, cert) of strict ado on every theorem input."""
    return [
        (name, L, *ado_representation(L, strict=True)) for name, L in theorem_inputs()
    ]


def test_certificate_reports_match_the_reference_check(strict_runs):
    """`ref_verify_certificate` tests every property on its own; the library
    reads ideal and nilpotency off a matching nilradical.  The corrupted
    certificates reach both branches."""
    branches = set()
    for name, _, _, _, cert in strict_runs:
        for case in [cert, *_corrupted_certificates(cert)]:
            report = verify_certificate(case)
            assert report == ref_verify_certificate(case), name
            branches.add(report.nbar_is_nilradical)
    assert branches == {False, True}


def test_ado_reports_match_direct_checks(strict_runs):
    for name, L, rep, report, cert in strict_runs:
        assert report.verification == verify_representation(L, rep), name
        assert report.certificate_report == verify_certificate(cert), name


def _holding_the_facts_of(L):
    """A Known that holds the validation and the radicals of L, as the one
    of `ado_representation` does when it reaches the checkers."""
    known = Known()
    known.require_valid(L)
    known.radicals(L)
    return known


def test_checkers_handed_the_radicals_report_what_they_compute_alone(strict_runs, monkeypatch):
    """A Known holding the validation and radicals of L, handed to a
    checker, changes no report: on every catalog lattice, and on one
    corrupted matrix and one corrupted injection, made as the benchmark's
    negative controls make them."""
    run = load_bench_run(monkeypatch)
    rng = random.Random(23)
    catalog_runs = [r for r in strict_runs if r[0] in catalog.names()]
    assert len(catalog_runs) == len(catalog.names())
    for name, L, rep, _, cert in catalog_runs:
        known = _holding_the_facts_of(L)
        assert verify_representation(L, rep, known) == verify_representation(L, rep), name
        assert verify_certificate(cert, known) == verify_certificate(cert), name
    _, L, rep, _, cert = next(r for r in catalog_runs if r[0] == "t2_upper")
    known = _holding_the_facts_of(L)
    bad_rep = run.corrupt_rep(rep, L, rng)
    report = verify_representation(L, bad_rep, known)
    assert report == verify_representation(L, bad_rep) and not report.homomorphism_ok
    bad_cert = run.corrupt_certificate(cert, rng)
    cert_report = verify_certificate(bad_cert, known)
    assert cert_report == verify_certificate(bad_cert) and not cert_report.injection_homomorphism


def test_ado_rejects_a_non_injective_certificate(monkeypatch):
    import adorep.pipeline

    L = catalog.t2_upper()
    assert ado_representation(L, strict=True)[1].ok
    real = adorep.pipeline.embed_splittable

    def not_injective(L, *args):
        # a zero image of the first basis vector
        cert = real(L, *args)
        rows = [list(row) for row in cert.injection.entries]
        rows[0] = [0] * len(rows[0])
        return dataclasses.replace(cert, injection=ExactMatrix.from_rows(rows, cols=len(rows[0])))

    monkeypatch.setattr(adorep.pipeline, "embed_splittable", not_injective)
    with pytest.raises(VerificationFailure, match="certificate") as failure:
        ado_representation(L, strict=True)
    assert not failure.value.report.injection_injective


def _counting(monkeypatch, fnames, key=lambda L: L.rank):
    """`key` (by default the rank) of the lattices that each
    `adorep.lie_core` function in `fnames` is called on, wherever the
    library calls it from."""
    import adorep.embed
    import adorep.lie_core
    import adorep.pipeline

    seen = {fname: [] for fname in fnames}
    for fname, calls in seen.items():
        original = getattr(adorep.lie_core, fname)

        def counting(L, *args, _original=original, _calls=calls):
            _calls.append(key(L))
            return _original(L, *args)

        for module in (adorep.lie_core, adorep.embed, adorep.pipeline):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, counting)
    return seen


@pytest.mark.parametrize("name", ["t2_upper", "churkin_sl2_t2"])
def test_strict_ado_computes_the_radicals_of_the_input_once(monkeypatch, name):
    """`ado_representation` computes them before the construction and
    passes them to it and to both checkers."""
    seen = _counting(monkeypatch, ["solvable_radical", "nilradical"])
    L = catalog.get(name).lattice
    ado_representation(L, strict=True)
    assert {fname: calls.count(L.rank) for fname, calls in seen.items()} == {
        "solvable_radical": 1,
        "nilradical": 1,
    }


@pytest.mark.parametrize("name", ["F7", "heisenberg9"])
def test_nilpotent_ado_reads_the_radicals_off_its_series(monkeypatch, name):
    """Off the strict path a nilpotent L is its own R_s and R_n, read off
    the lower central series that picks the shortcut, so neither radical
    is computed; the strict path computes each once for L."""
    import adorep.embed
    import adorep.lie_core
    import adorep.pipeline

    cases = {c.name: c.lattice for c in load_bench("workloads").build("nilpotent-regular", 23)}
    L = cases[name]
    seen = {"solvable_radical": [], "nilradical": []}
    for fname, calls in seen.items():
        original = getattr(adorep.lie_core, fname)

        def recording(M, *args, _original=original, _calls=calls):
            _calls.append(M is L)
            return _original(M, *args)

        for module in (adorep.lie_core, adorep.embed, adorep.pipeline):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, recording)
    _, report, _ = ado_representation(L)
    assert report.path == "nilpotent-shortcut"
    assert seen == {"solvable_radical": [], "nilradical": []}
    # the strict verifier also computes both radicals of the extension,
    # which for a nilpotent L has L's rank
    ado_representation(L, strict=True)
    assert {fname: calls.count(True) for fname, calls in seen.items()} == {
        "solvable_radical": 1,
        "nilradical": 1,
    }


@pytest.mark.parametrize("name, L", series_inputs(), ids=[n for n, _ in series_inputs()])
def test_radicals_read_off_the_series_equal_the_computed_ones(name, L):
    known = Known()
    if known.series(L)[-1].is_zero():
        full = Submodule.full(L.rank, L.domain)
        assert known.radicals(L) == (full, full)
    computed = solvable_radical(L)
    assert known.radicals(L) == (computed, nilradical(L, computed))


def _scrambled_t2_squared():
    workloads = load_bench("workloads")
    P, _ = workloads.random_unimodular(random.Random(23), 6)
    return change_basis(workloads.t2_power(2), ExactMatrix.from_rows(P))


@pytest.mark.parametrize(
    "L",
    [catalog.t2_upper(), catalog.churkin_sl2_t2(), _scrambled_t2_squared()],
    ids=["t2_upper", "churkin_sl2_t2", "scrambled t2^2"],
)
def test_strict_ado_validates_each_lattice_once(monkeypatch, L):
    """One Known serves the whole call: `validate` runs on L, first in
    `ado_representation`, and on the extension, in `verify_certificate`,
    whose validation `splittable_rep` reads; each radical is computed once
    for L and once for the extension.  No sublattice the construction
    builds is validated on its own."""
    seen = _counting(monkeypatch, ["validate", "solvable_radical", "nilradical"], key=lambda M: M)
    _, _, cert = ado_representation(L, strict=True)
    named = {
        fname: ["L" if M is L else "ext" if M is cert.extension else M.rank for M in calls]
        for fname, calls in seen.items()
    }
    assert named == {fname: ["L", "ext"] for fname in seen}


def test_no_fact_outlives_its_call(monkeypatch):
    """Two calls on the same lattice object each validate it and compute
    its series and radicals: a Known lives for one call."""
    L = catalog.churkin_sl2_t2()
    fnames = ["validate", "lower_central_series", "solvable_radical", "nilradical"]
    seen = _counting(monkeypatch, fnames, key=lambda M: M is L)
    for _ in range(2):
        assert ado_representation(L)[1].path == "theorem"
    assert {fname: calls.count(True) for fname, calls in seen.items()} == dict.fromkeys(fnames, 2)


def test_nilpotent_shortcut_validates_at_most_twice(monkeypatch):
    """L once, first in `ado_representation`; `nilpotent_faithful_rep` and
    the checker read that validation from the call's Known."""
    seen = _counting(monkeypatch, ["validate"])
    _, report, _ = ado_representation(catalog.get("heisenberg5").lattice)
    assert report.path == "nilpotent-shortcut"
    assert seen["validate"] == [5]


def test_direct_checker_calls_validate_and_compute_their_own_radicals(monkeypatch):
    """Called without `radicals`, each call of a checker validates its
    lattices and computes the radicals of L afresh."""
    L = catalog.churkin_sl2_t2()
    rep, _, cert = ado_representation(L, strict=True)
    seen = _counting(monkeypatch, ["validate", "solvable_radical", "nilradical"])
    for _ in range(2):
        assert verify_certificate(cert).ok
    # L and the extension, each with both radicals (the nilradical of the
    # extension computes its own R_s)
    ext = cert.extension.rank
    assert seen == {
        "validate": [L.rank, ext] * 2,
        "solvable_radical": [ext, L.rank] * 2,
        "nilradical": [ext, L.rank] * 2,
    }
    for calls in seen.values():
        calls.clear()
    for _ in range(2):
        assert verify_representation(L, rep).ok
    assert seen == {
        "validate": [L.rank] * 2,
        "solvable_radical": [L.rank] * 2,
        "nilradical": [L.rank] * 2,
    }


def test_direct_construction_calls_validate_and_compute_their_own_facts(monkeypatch):
    """Called without a Known, `embed_splittable` validates L and computes
    its radicals on each call, and `splittable_rep` validates the extension
    and computes the series of its nilpotent block on each call."""
    L = catalog.churkin_sl2_t2()
    _, report, cert = ado_representation(L, strict=True)
    fnames = ["validate", "lower_central_series", "solvable_radical", "nilradical"]
    seen = _counting(monkeypatch, fnames)
    for _ in range(2):
        assert embed_splittable(L) == cert
    assert seen == {
        "validate": [L.rank] * 2,
        "lower_central_series": [],
        "solvable_radical": [L.rank] * 2,
        "nilradical": [L.rank] * 2,
    }
    for calls in seen.values():
        calls.clear()
    ext, m = cert.extension, cert.nilpotent_rank
    for _ in range(2):
        assert splittable_rep(ext, m).degree == report.phi_degree
    assert seen == {
        "validate": [ext.rank] * 2,
        "lower_central_series": [m] * 2,
        "solvable_radical": [],
        "nilradical": [],
    }
