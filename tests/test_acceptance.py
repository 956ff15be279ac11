"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Expected values are exact; no floating point tolerances anywhere."""

import json
import random
import time
from fractions import Fraction

import pytest

from adorep import catalog
from adorep.embed import embed_splittable, jordan_chevalley, minimal_polynomial
from adorep.exact_linalg import ExactMatrix, block_diag, invert, solve_left, vector
from adorep.lie_core import (
    adjoint_rep,
    nilradical,
    solvable_radical,
    unit,
    validate,
)
from adorep.nilrep import burde_bound, monomial_count
from adorep.pbw import TruncatedUEA, build_weighted_basis
from adorep.pipeline import (
    ado_representation,
    degree_bound,
    verify_certificate,
    verify_representation,
)

from oracles import (
    acceptance_entries,
    ad,
    count_satisfies_burde,
    derivation_basis,
    is_squarefree,
    nilpotent_entries,
    oracle_vector,
    power,
)
from pbw_words import apply_word, letter_matrices, multiply, unit_monomial, weight


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def certificates():
    out = {}
    for entry in acceptance_entries():
        t0 = time.monotonic()
        cert = embed_splittable(entry.lattice)
        out[entry.name] = (cert, time.monotonic() - t0)
    return out


def test_criterion_01_end_to_end_degree_bound():
    ok = True
    for entry in acceptance_entries():
        L = entry.lattice
        assert L.rank <= 6
        t0 = time.monotonic()
        rep, report, _ = ado_representation(L, strict=True)
        elapsed = time.monotonic() - t0
        checks = report.verification.checks()
        within = Fraction(report.degree) <= degree_bound(L.rank)
        if not (all(checks.values()) and within and elapsed < 60):
            ok = False
    _report(1, "end-to-end-degree-bound", ok)


def test_criterion_02_nilpotent_degrees():
    ok = True
    t0 = time.monotonic()
    h3 = catalog.get("heisenberg3").lattice
    from adorep.nilrep import nilpotent_faithful_rep

    ok &= nilpotent_faithful_rep(h3).degree == 7
    ok &= Fraction(7) <= burde_bound(3)
    for r in range(1, 7):
        ok &= nilpotent_faithful_rep(catalog.abelian(r)).degree == r + 1
    for entry in nilpotent_entries():
        r = entry.lattice.rank
        count = monomial_count(entry.lattice)
        ok &= Fraction(count) <= burde_bound(r)
        ok &= count_satisfies_burde(count, r)
    ok &= (time.monotonic() - t0) < 10 * (len(nilpotent_entries()) + 7)
    _report(2, "nilpotent-degree", ok)


def test_criterion_03_pbw_oracle_equivalence():
    rng = random.Random(20240601)
    ok = True
    targets = [
        e.lattice
        for e in nilpotent_entries()
        if e.lattice.rank <= 3
    ]
    assert targets
    per_lattice = 500 // len(targets) + 1
    total = 0
    for L in targets:
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        mats = letter_matrices(T)
        one = unit_monomial(T)
        for _ in range(per_lattice):
            word = [rng.randrange(L.rank) for _ in range(rng.randint(0, 5))]
            if apply_word(mats, word, one) != oracle_vector(word, T):
                ok = False
            total += 1
    assert total >= 500
    _report(3, "pbw-oracle-equivalence", ok)


def test_criterion_04_derivation_lift_identities():
    rng = random.Random(42)
    ok = True
    entries = nilpotent_entries()
    per_entry = 200 // len(entries) + 1
    checked = 0
    for entry in entries:
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class + 1)
        solved = derivation_basis(L)
        for k in range(per_entry):
            if k % 2 == 0:
                v = vector([rng.randint(-4, 4) for _ in range(L.rank)])
                D = ad(L, v)
            else:
                D = ExactMatrix.zero(L.rank, L.rank)
                for Bmat in solved:
                    D = D + Bmat.scale(rng.randint(-2, 2))
            Ds = T.derivation_star(D)
            # lifted derivations never lower the weight of a monomial
            for col, beta in enumerate(T.monomials):
                wb = T.monomial_weight(beta)
                for row, alpha in enumerate(T.monomials):
                    if Ds.entries[row][col] != 0 and T.monomial_weight(alpha) < wb:
                        ok = False
            # the commutator identity behind the split representation
            for i in range(L.rank):
                ln = T.left_mult_matrix(unit(L.rank, i))
                l_Dn = T.left_mult_matrix(
                    tuple(D.entries[a][i] for a in range(L.rank))
                )
                if Ds * ln - ln * Ds != l_Dn:
                    ok = False
            checked += 1
    assert checked >= 200
    _report(4, "derivation-lift-identities", ok)


def _random_rational_matrix(rng, n):
    return ExactMatrix.from_rows(
        [
            [
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def _random_jordan_type(rng, n):
    blocks = []
    left = n
    while left:
        size = rng.randint(1, left)
        eig = Fraction(rng.randint(-3, 3))
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = eig
            if i + 1 < size:
                rows[i][i + 1] = Fraction(1)
        blocks.append(ExactMatrix.from_rows(rows))
        left -= size
    J = blocks[0]
    for b in blocks[1:]:
        J = block_diag(J, b)
    P = ExactMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
        E[i][j] = Fraction(rng.randint(-2, 2))
        P = P * ExactMatrix.from_rows(E)
    return P * J * invert(P)


def test_criterion_05_jordan_chevalley():
    rng = random.Random(161803)
    ok = True
    for trial in range(300):
        n = rng.randint(1, 6)
        A = (
            _random_rational_matrix(rng, n)
            if trial % 2 == 0
            else _random_jordan_type(rng, n)
        )
        S, N = jordan_chevalley(A)
        if S + N != A:
            ok = False
        if S * N != N * S:
            ok = False
        if not power(N, 6).is_zero():
            ok = False
        if not is_squarefree([Fraction(x) for x in minimal_polynomial(S)]):
            ok = False
        # S belongs to Q[A]: solve for a polynomial
        m = minimal_polynomial(A)
        powers = []
        acc = ExactMatrix.identity(n)
        for _ in range(len(m) - 1):
            powers.append(tuple(x for row in acc.entries for x in row))
            acc = acc * A
        target = tuple(x for row in S.entries for x in row)
        if solve_left(ExactMatrix.from_rows(powers), target) is None:
            ok = False
    _report(5, "jordan-chevalley", ok)


def test_criterion_06_embedding_certificates(certificates):
    ok = True
    for entry in acceptance_entries():
        cert, elapsed = certificates[entry.name]
        report = verify_certificate(cert)
        if not report.ok:
            ok = False
        if cert.nilpotent_rank != entry.expected["rs_rank"]:
            ok = False
        if elapsed >= 120:
            ok = False
    # the non-splittable lattice still receives a valid splittable extension
    churkin, _ = certificates["churkin_sl2_t2"]
    if churkin.nilpotent_rank != 3:
        ok = False
    _report(6, "embedding-certificate", ok)


def test_criterion_07_loop_variant(certificates):
    ok = True
    for entry in acceptance_entries():
        cert, _ = certificates[entry.name]
        if len(cert.trace) != entry.expected["rs_rank"] - entry.expected["rn_rank"]:
            ok = False
        for step in cert.trace:
            if step.dim_n_before != step.dim_n_after:
                ok = False
            if step.dim_rn_after != step.dim_rn_before + 1:
                ok = False
    _report(7, "expansion-loop-variant", ok)


def test_criterion_08_nil_representation():
    ok = True
    for entry in acceptance_entries():
        L = entry.lattice
        rep, report, _ = ado_representation(L, strict=True)
        n = rep.degree
        for M in rep.matrices_of_rows(nilradical(L, solvable_radical(L)).basis):
            if not power(M, n).is_zero():
                ok = False
    _report(8, "nil-representation", ok)


def test_criterion_09_superadditivity():
    rng = random.Random(271828)
    ok = True
    entries = nilpotent_entries()
    per_entry = 1000 // len(entries) + 1
    checked = 0
    for entry in entries:
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        mats = letter_matrices(T)
        for _ in range(per_entry):
            u, v = [Fraction(0)] * T.dimension, [Fraction(0)] * T.dimension
            for w in (u, v):
                for _ in range(rng.randint(1, 3)):
                    w[rng.randrange(T.dimension)] = Fraction(rng.randint(-3, 3))
            if weight(T, multiply(T, mats, u, v)) < weight(T, u) + weight(T, v):
                ok = False
            checked += 1
    assert checked >= 1000
    _report(9, "weight-superadditivity", ok)


def test_criterion_10_negative_controls(tmp_path, capsys):
    ok = True
    # the verifier must reject the adjoint of h3 with the center as witness
    h3 = catalog.get("heisenberg3").lattice
    report = verify_representation(h3, adjoint_rep(h3))
    if report.faithful_ok or report.kernel_witness != (unit(3, 2),):
        ok = False
    if report.ok:
        ok = False
    # validate must reject a corrupted structure-constant file
    from adorep.cli import main

    corrupted = {
        "rank": 3,
        "names": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
            {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
        ],
    }
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(corrupted))
    code = main(["validate", str(path)])
    capsys.readouterr()
    if code != 1:
        ok = False
    _report(10, "negative-controls", ok)
