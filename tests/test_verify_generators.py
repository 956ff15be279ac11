"""The verifier's homomorphism and nilpotency checks on generators against
the full scans, and what they cost.

`verify_representation` checks, when L is nilpotent, only the pairs with a
generator of L modulo [L, L], and the images of generators of R_n modulo
[R_n, R_n]; it falls back to the full scans when a reduced check reports
anything.  `ref_verify_representation` runs both scans in full.  The two
reports must agree field by field on valid representations, on
representations with one entry changed, and on representations with a
1 x 1 block chi appended: chi is 0 on [L, L] and nonzero somewhere, so the
sum is still a faithful homomorphism, but the image of some generator is
not nilpotent.  Faithfulness takes the rank of column 0 of the matrices
first and flattens them only when that rank falls short of rank L; the
reports must agree on representations that need the flattened rank, and on
unfaithful ones, where the kernel witness comes from it.
"""

import random
import sys
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, Submodule, block_diag, invert, kernel_basis
from adorep.lie_core import adjoint_rep, change_basis, lie_lattice, lower_central_series
from adorep.nilrep import nilpotent_faithful_rep
from adorep.pipeline import (
    VerificationReport,
    _is_nilpotent_matrix,
    ado_representation,
    verify_representation,
)
from adorep.rep import LinearRep, restrict_rep

from oracles import load_bench, ref_is_nilpotent_matrix, ref_verify_representation


@lru_cache(maxsize=None)
def cases():
    workloads = load_bench("workloads")
    out = {}
    rng = random.Random(23)
    for case in workloads.build("nilpotent-regular", 23):
        L = case.lattice
        rep = nilpotent_faithful_rep(L)
        out[f"nilpotent-regular:{case.name}"] = rep
        P = ExactMatrix.from_rows(workloads.random_unimodular(rng, L.rank)[0])
        out[f"scrambled:{case.name}"] = restrict_rep(rep, P, change_basis(L, P))
    for name in catalog.names():
        out[f"strict:{name}"] = ado_representation(catalog.get(name).lattice, strict=True)[0]
    return out


def characters(L):
    """A basis of the linear forms on L that vanish on [L, L], as integer rows."""
    I = ExactMatrix.identity(L.rank)
    derived = Submodule.of_rows(L.bracket_rows(I, I), "Q")
    rows = kernel_basis(derived.basis.transpose(), "Q").basis.entries
    return [[int(x * lcm(*(y.denominator for y in v))) for x in v] for v in rows]


def assert_same_report(L, rep):
    got, want = verify_representation(L, rep), ref_verify_representation(L, rep)
    for f in fields(VerificationReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    return got


def test_valid_cases_pass_both_checks():
    for name, rep in cases().items():
        assert assert_same_report(rep.lattice, rep).ok, name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_changed_entry_gives_the_full_scans_report(data):
    rep = cases()[data.draw(st.sampled_from(sorted(cases())))]
    n = rep.degree
    idx = data.draw(st.integers(0, len(rep.matrices) - 1))
    row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    E = ExactMatrix.from_rows([[delta if (i, j) == (row, col) else 0 for j in range(n)] for i in range(n)])
    mats = list(rep.matrices)
    mats[idx] = mats[idx] + E
    assert_same_report(rep.lattice, LinearRep(rep.lattice, tuple(mats), "changed"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_character_block_gives_the_full_scans_report(data):
    names = sorted(name for name, rep in cases().items() if characters(rep.lattice))
    name = data.draw(st.sampled_from(names))
    rep = cases()[name]
    L, basis = rep.lattice, characters(rep.lattice)
    coeffs = data.draw(
        st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)).filter(any)
    )
    chi = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(L.rank)]
    mats = tuple(block_diag(M, ExactMatrix.from_rows([[x]])) for M, x in zip(rep.matrices, chi))
    report = assert_same_report(L, LinearRep(L, mats, "with a character"))
    # a faithful homomorphism; on a nilpotent L, R_n = L and chi is nonzero
    # on some generator, so nilpotency fails
    assert report.homomorphism_ok and report.faithful_ok
    if not name.startswith("strict:"):
        assert not report.nilrep_ok


def test_heisenberg_with_a_character_fails_only_nilpotency():
    L = catalog.get("heisenberg3").lattice  # [x, y] = z
    rep = nilpotent_faithful_rep(L)
    mats = tuple(block_diag(M, ExactMatrix.from_rows([[x]])) for M, x in zip(rep.matrices, [1, 0, 0]))
    report = assert_same_report(L, LinearRep(L, mats, "with a character"))
    assert report.nilrep_violations == (0,)
    assert {k for k, ok in report.checks().items() if not ok} == {"nil_representation"}


# -- what the checks cost on a non-strict ado of F7 ------------------------


def count_calls(monkeypatch, module, name):
    """Count the calls of `module.name` wherever an adorep module holds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "adorep"]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def f7():
    return load_bench("workloads").filiform(7)


def counters(monkeypatch):
    import adorep.pipeline
    import adorep.rep

    return (
        count_calls(monkeypatch, adorep.rep, "_commutator_differs"),
        count_calls(monkeypatch, adorep.pipeline, "_is_nilpotent_matrix"),
    )


def test_f7_computes_its_lower_central_series_once_and_validates_once(monkeypatch):
    # ado_representation validates L and computes the series; nilpotent_faithful_rep
    # and build_weighted_basis take it from there
    import adorep.lie_core

    series = count_calls(monkeypatch, adorep.lie_core, "lower_central_series")
    validations = count_calls(monkeypatch, adorep.lie_core, "validate")
    _, report, _ = ado_representation(f7())
    assert report.path == "nilpotent-shortcut"
    assert len(series) == 1
    assert len(validations) == 1


def test_f7_checks_pairs_and_images_of_its_two_generators(monkeypatch):
    L = f7()
    assert L.rank == 7 and len(lower_central_series(L)[1].basis.entries) == 5
    pairs, powers = counters(monkeypatch)
    _, report, _ = ado_representation(L)
    assert report.ok
    # 21 pairs, of which 10 have neither index among the 2 generators
    assert len(pairs) == 11
    assert len(powers) == 2


def test_f7_with_a_changed_entry_falls_back_to_the_full_scans(monkeypatch):
    L = f7()
    rep, _, _ = ado_representation(L)
    n = rep.degree
    mats = list(rep.matrices)
    mats[0] = mats[0] + ExactMatrix.from_rows([[int(i == j == 0) for j in range(n)] for i in range(n)])
    bad = LinearRep(L, tuple(mats), "changed")
    pairs, powers = counters(monkeypatch)
    report = verify_representation(L, bad)
    assert not report.homomorphism_ok
    assert report == ref_verify_representation(L, bad)
    # 11 pairs with a generator, then the other 10; every image once
    assert len(pairs) == 21
    assert len(powers) == 7


def flattened_calls(monkeypatch):
    """The matrices that `ExactMatrix.flattened` is called on, in order."""
    original = ExactMatrix.flattened
    calls = []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "flattened", counting)
    return calls


def test_faithfulness_flattens_only_when_column_zero_falls_short(monkeypatch):
    # rho(x) 1 = x on the nilpotent shortcut: column 0 has rank L
    pairs, _ = counters(monkeypatch)
    flat = flattened_calls(monkeypatch)
    _, report, _ = ado_representation(f7())
    assert report.ok
    assert len(flat) == 0
    assert len(pairs) == 11
    # the strict churkin_sl2_t2 needs the flattened rank: its matrices are
    # flattened once each (the construction flattens other matrices)
    rep, report, _ = ado_representation(catalog.churkin_sl2_t2(), strict=True)
    assert report.ok
    mine = [M for M in flat if any(M is N for N in rep.matrices)]
    assert len(mine) == len(rep.matrices) == len({id(M) for M in mine})


def faithfulness_cases():
    """name -> (rep, faithful) for representations whose column 0 has rank
    below rank L, so faithfulness needs the flattened rank."""
    churkin = catalog.churkin_sl2_t2()
    # unit upper times unit lower bidiagonal: unimodular
    U = ExactMatrix.from_rows([[int(j == i) + int(j == i + 1) * (-1) ** i for j in range(6)] for i in range(6)])
    D = ExactMatrix.from_rows([[int(j == i) + int(j == i - 1) * (-1) ** i for j in range(6)] for i in range(6)])
    L = f7()
    mats = nilpotent_faithful_rep(L).matrices
    return {
        "adjoint sl2": (adjoint_rep(catalog.sl2()), True),
        "strict churkin_sl2_t2": (ado_representation(churkin, strict=True)[0], True),
        "strict churkin_sl2_t2, bidiagonal basis": (
            ado_representation(change_basis(churkin, U * D), strict=True)[0],
            True,
        ),
        "F7, last matrix the sum of the first two": (
            LinearRep(L, mats[:-1] + (mats[0] + mats[1],), "sum"),
            False,
        ),
        "F7, a repeated matrix": (LinearRep(L, (mats[0],) + mats[:-1], "repeated"), False),
        "degree 0, rank 1": (LinearRep(lie_lattice(["x"], {}), (ExactMatrix.zero(0, 0),), "zero"), False),
    }


@pytest.mark.parametrize("name", list(faithfulness_cases()))
def test_faithfulness_fallback_gives_the_full_scans_report(monkeypatch, name):
    rep, faithful = faithfulness_cases()[name]
    flat = flattened_calls(monkeypatch)
    report = assert_same_report(rep.lattice, rep)
    assert flat, "column 0 decided faithfulness"
    assert report.faithful_ok == faithful
    assert bool(report.kernel_witness) == (not faithful)


# -- nilpotency from the support graph --------------------------------------


@st.composite
def square_matrices(draw):
    """(kind, M): a permuted strictly triangular matrix, a unimodular
    conjugate of one (nilpotent, and its support mostly has a cycle), a
    sparse random matrix or a scalar matrix, over a denominator of 1 to 4."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("permuted", "conjugate", "random", "scalar")))
    entries = st.integers(-3, 3)
    if kind == "scalar":
        M = ExactMatrix.identity(n).scale(draw(entries))
    elif kind == "random":
        sparse = st.sampled_from((0, 0, 0, 1, -1, 2))
        M = ExactMatrix.from_rows([[draw(sparse) for _ in range(n)] for _ in range(n)])
    else:
        T = [[draw(entries) if i < j else 0 for j in range(n)] for i in range(n)]
        p = draw(st.permutations(range(n)))
        M = ExactMatrix.from_rows([[T[p[i]][p[j]] for j in range(n)] for i in range(n)])
        if kind == "conjugate":
            # unit upper times unit lower bidiagonal: unimodular
            signs = [draw(st.sampled_from((-1, 1))) for _ in range(2 * n)]
            upper = [[int(i == j) or signs[i] * int(j == i + 1) for j in range(n)] for i in range(n)]
            lower = [[int(i == j) or signs[n + j] * int(i == j + 1) for j in range(n)] for i in range(n)]
            U = ExactMatrix.from_rows(upper) * ExactMatrix.from_rows(lower)
            M = U * M * invert(U)
    return kind, M.scale(Fraction(1, draw(st.integers(1, 4))))


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_nilpotency_check_agrees_with_squaring_alone(case):
    kind, M = case
    nilpotent = _is_nilpotent_matrix(M)
    assert nilpotent == ref_is_nilpotent_matrix(M)
    if kind in ("permuted", "conjugate"):
        assert nilpotent


@pytest.mark.parametrize(
    "rows, nilpotent",
    [([[1, 1], [-1, -1]], True), ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False)],
    ids=["nilpotent with a cyclic support", "3-cycle permutation"],
)
def test_nilpotency_check_on_cyclic_supports(rows, nilpotent):
    M = ExactMatrix.from_rows(rows)
    assert _is_nilpotent_matrix(M) == ref_is_nilpotent_matrix(M) == nilpotent


def test_f7_images_are_proved_nilpotent_without_a_product(monkeypatch):
    """The truncated regular representation raises the PBW weight, so the
    support of every image is acyclic and no power is taken."""
    rep = nilpotent_faithful_rep(f7())

    def no_product(self, other):
        raise AssertionError("a matrix product in the nilpotency check")

    monkeypatch.setattr(ExactMatrix, "__mul__", no_product)
    assert all(_is_nilpotent_matrix(M) for M in rep.matrices)
