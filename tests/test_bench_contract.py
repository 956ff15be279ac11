"""The benchmark's contract with the library: every name that bench/tracer.py
wraps resolves, and every workload of bench/workloads.py builds.

bench/run.py resolves the traced names after each untraced pass, so a
library change that drops or renames one would otherwise break the
benchmark without failing a test.  The bench modules are loaded from
source and nothing is written under bench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from adorep.lie_core import LieLattice

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
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


tracer = load("tracer")
workloads = load("workloads")


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
