"""The homomorphism check against its ExactMatrix formulation, and the
shapes it accepts.

`LinearRep.homomorphism_violations` sums one int table per basis pair;
`ref_homomorphism_violations` compares two normalised matrices.  Both must
report the same pairs for representations with one corrupted entry: the
truncated regular representations of the nilpotent-regular lattices, the
strict representations of the catalog, and representations over Q whose
structure constants are not integral and whose matrices have denominators
that do not divide one another.  `_commutator_differs`, which sums one
pair's table over nonzero rows only, must give the verdict of
`ref_commutator_differs`, the row-by-row sum over every row.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog
from adorep.exact_linalg import ExactMatrix
from adorep.lie_core import change_basis
from adorep.nilrep import nilpotent_faithful_rep
from adorep.pipeline import ado_representation, verify_representation
from adorep.rep import LinearRep, _commutator_differs, restrict_rep

from oracles import load_bench, ref_commutator_differs, ref_homomorphism_violations

# new bases over Q, one row per basis vector in the old coordinates
Q_BASES = {
    "heisenberg5": [
        ["1/2", 0, 0, 0, 0],
        ["1/5", "1/3", 0, 0, 0],
        [0, 0, "1/5", 0, 0],
        [0, 0, 0, "1/7", 0],
        ["1/11", 0, 0, 0, "2/9"],
    ],
    "churkin_sl2_t2": [
        ["1/2", 0, 0, 0, 0, 0],
        [0, "1/3", 0, 0, 0, 0],
        [0, 0, "5/7", 0, 0, 0],
        [0, "1/2", 0, "1/5", 0, 0],
        [0, 0, 0, 0, "3/4", 0],
        ["1/3", 0, 0, 0, 0, "1/11"],
    ],
}


def over_q(rep, rows):
    """rep in the basis `rows` of its lattice viewed over Q."""
    P = ExactMatrix.from_rows(rows)
    return restrict_rep(rep, P, change_basis(rep.lattice.to_field(), P))


@lru_cache(maxsize=None)
def cases():
    out = {}
    for case in load_bench("workloads").build("nilpotent-regular", 23):
        out[f"nilpotent-regular:{case.name}"] = nilpotent_faithful_rep(case.lattice)
    for name in catalog.names():
        out[f"strict:{name}"] = ado_representation(catalog.get(name).lattice, strict=True)[0]
    for name, rows in Q_BASES.items():
        out[f"q:{name}"] = over_q(out[f"strict:{name}"], rows)
    return out


def test_cases_are_homomorphisms():
    for name, rep in cases().items():
        assert rep.homomorphism_violations() == ref_homomorphism_violations(rep) == [], name


def unrelated(a, b):
    return a % b and b % a


def test_q_cases_reach_unrelated_denominators():
    # non-integral constants and matrices whose denominators do not divide
    # one another, and in heisenberg5 a bracket whose two terms are such
    # matrices, so the pair's lcm D differs from each term's denominator
    for name in Q_BASES:
        rep = cases()[f"q:{name}"]
        assert rep.lattice.domain == "Q" and rep.lattice.table.den != 1
        dens = [M.den for M in rep.matrices]
        assert any(unrelated(a, b) for a in dens for b in dens), name
    rep = cases()["q:heisenberg5"]
    dens = [M.den for M in rep.matrices]
    assert any(
        unrelated(dens[k], dens[l])
        for terms in rep.lattice.table.num
        for k in terms
        for l in terms
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrupted_entry_matches_oracle(data):
    name = data.draw(st.sampled_from(sorted(cases())))
    rep = cases()[name]
    idx = data.draw(st.integers(0, len(rep.matrices) - 1))
    n = rep.degree
    row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = Fraction(
        data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.sampled_from([1, 2, 3, 11]))
    )
    E = ExactMatrix([{col: delta} if k == row else {} for k in range(n)], n)
    mats = list(rep.matrices)
    mats[idx] = mats[idx] + E
    bad = LinearRep(lattice=rep.lattice, matrices=tuple(mats), provenance="corrupted")
    assert bad.homomorphism_violations() == ref_homomorphism_violations(bad)


def test_corrupted_entry_is_reported():
    rep = cases()["q:heisenberg5"]
    mats = list(rep.matrices)
    mats[0] = mats[0] + ExactMatrix([{0: Fraction(1, 3)}] + [{}] * (rep.degree - 1), rep.degree)
    bad = LinearRep(lattice=rep.lattice, matrices=tuple(mats), provenance="corrupted")
    found = bad.homomorphism_violations()
    assert found and found == ref_homomorphism_violations(bad)


def commutator(A, B, f):
    """The rows of f (A B - B A), zeros dropped."""
    out = []
    for a, b in zip(A, B):
        acc = {}
        for X, Y, s in ((a, B, f), (b, A, -f)):
            for k, x in X.items():
                for c, y in Y[k].items():
                    acc[c] = acc.get(c, 0) + s * x * y
        out.append({c: x for c, x in acc.items() if x})
    return out


NONZERO = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def commutator_cases(draw):
    """(n, A, B, f, combo, exact): sparse n x n int matrices as rows, each
    row empty or not by a coin; with `exact`, the last term of combo (or
    B = A when combo is empty) makes f (A B - B A) = sum g_k C_k, and then
    one entry of one matrix may be changed (`exact` is then False)."""
    n = draw(st.integers(0, 8))
    cell = st.sampled_from((0, 0, 0, 1, -1, 2, -3))

    def matrix():
        return [
            {} if draw(st.booleans()) else {c: x for c in range(n) if (x := draw(cell))}
            for _ in range(n)
        ]

    A, B = matrix(), matrix()
    f = draw(st.sampled_from((1, 2, 6)))
    combo = [(matrix(), draw(NONZERO)) for _ in range(draw(st.integers(0, 3)))]
    exact = draw(st.booleans())
    if exact and combo:
        rest = commutator(A, B, f)
        for C, g in combo[:-1]:
            for acc, row in zip(rest, C):
                for c, x in row.items():
                    acc[c] = acc.get(c, 0) - g * x
        combo[-1] = ([{c: x for c, x in row.items() if x} for row in rest], 1)
    elif exact:
        B = [dict(row) for row in A]
    if exact and n and draw(st.booleans()):
        M = draw(st.sampled_from([A, B] + [C for C, _ in combo]))
        q, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        M[q] = {**M[q], c: M[q].get(c, 0) + draw(NONZERO)}
        M[q] = {k: x for k, x in M[q].items() if x}
        exact = False
    return n, A, B, f, combo, exact


@settings(max_examples=300, deadline=None)
@given(commutator_cases())
def test_commutator_kernel_matches_the_row_by_row_sum(case):
    n, A, B, f, combo, exact = case

    def nonzero(M):
        return {q: row for q, row in enumerate(M) if row}

    got = _commutator_differs(nonzero(A), nonzero(B), f, [(nonzero(C), g) for C, g in combo], n)
    assert got == ref_commutator_differs(A, B, f, combo)
    if exact:
        assert not got


@pytest.mark.parametrize(
    "idx, M, message",
    [
        # mixed degrees: the first matrix sets the degree
        (1, ExactMatrix.identity(3), "matrix 1 is 3x3, not 2x2"),
        (0, ExactMatrix.identity(3), "matrix 1 is 2x2, not 3x3"),
        # non-square
        (1, ExactMatrix.zero(2, 3), "matrix 1 is 2x3, not 2x2"),
        (0, ExactMatrix.zero(2, 1), "matrix 0 is 2x1, not 2x2"),
    ],
)
def test_verify_rejects_badly_shaped_matrices(monkeypatch, idx, M, message):
    L = catalog.get("abelian_2").lattice
    mats = [ExactMatrix.identity(2), ExactMatrix.zero(2, 2)]
    mats[idx] = M
    bad = LinearRep(lattice=L, matrices=tuple(mats), provenance="bad")

    def no_product(A, B):
        raise AssertionError("a product ran before the shape check")

    monkeypatch.setattr(ExactMatrix, "__mul__", no_product)
    with pytest.raises(ValueError, match=message):
        verify_representation(L, bad)
