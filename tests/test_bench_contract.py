"""The benchmark's contract with the library: every name that bench/tracer.py
wraps resolves, every workload of bench/workloads.py builds, and the
negative controls of bench/run.py, which read `L.c`, `.entries` and
`ExactMatrix.from_rows`, still produce inputs that the verifiers reject.

bench/run.py resolves the traced names after each untraced pass, so a
library change that drops or renames one would otherwise break the
benchmark without failing a test.  The bench modules are loaded from
source and nothing is written under bench/.
"""

import json
import random

import pytest

from adorep.jsonio import lattice_to_json
from adorep.lie_core import LieLattice
from adorep.pipeline import ado_representation, verify_certificate, verify_representation

from oracles import dense_lattice_json, load_bench, load_bench_run

tracer = load_bench("tracer")
workloads = load_bench("workloads")


TRACED = tracer.SPANS + tracer.COUNTED


@pytest.mark.parametrize("module, path, metric", TRACED, ids=[m for _, _, m in TRACED])
def test_traced_name_resolves(module, path, metric):
    owner, attr, original = tracer._resolve(module, path)
    assert callable(original)
    assert tracer._holders(owner, attr, original)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_builds(workload):
    cases = workloads.build(workload, 23)
    assert cases
    for case in cases:
        assert isinstance(case.lattice, LieLattice)
        assert case.degree > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_lattice_json_is_the_dense_encoding_byte_for_byte(workload):
    for case in workloads.build(workload, 23):
        encoded = json.dumps(lattice_to_json(case.lattice))
        assert encoded == json.dumps(dense_lattice_json(case.lattice)), case.name


def test_negative_controls_are_rejected(monkeypatch):
    run = load_bench_run(monkeypatch)
    case = min(workloads.build("theorem-solvable", 23), key=lambda c: (c.degree, c.name))
    rep, report, cert = ado_representation(case.lattice, strict=case.strict)
    assert report.ok and report.degree == case.degree and verify_certificate(cert).ok
    rng = random.Random(23)
    bad_rep = run.corrupt_rep(rep, case.lattice, rng)
    assert not verify_representation(case.lattice, bad_rep).ok
    bad_cert = run.corrupt_certificate(cert, rng)
    assert bad_cert.injection != cert.injection
    # corrupt_certificate checks in its own arithmetic that the injection
    # is no longer a homomorphism
    report = verify_certificate(bad_cert)
    assert not report.injection_homomorphism and not report.ok
