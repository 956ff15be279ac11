from fractions import Fraction

import pytest

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, rank
from adorep.lie_core import LatticeValidationError, NotNilpotentError, lie_lattice, unit
from adorep.nilrep import (
    birkhoff_bounds,
    burde_bound,
    eta_interval,
    monomial_count,
    nilpotent_faithful_rep,
)
from adorep.pbw import TruncatedUEA, build_weighted_basis

from oracles import burde_bound_is_tight, count_satisfies_burde, nilpotent_entries, power


def brute_monomial_count(weights, cutoff):
    """Independent enumeration over the full exponent box."""
    if not weights:
        return 1
    count = 0
    bounds = [cutoff // w + 1 for w in weights]

    def rec(i, used):
        nonlocal count
        if i == len(weights):
            count += 1
            return
        for e in range(bounds[i]):
            if used + e * weights[i] <= cutoff:
                rec(i + 1, used + e * weights[i])

    rec(0, 0)
    return count


def test_monomial_count_examples():
    assert monomial_count(catalog.get("heisenberg3").lattice) == 7
    assert monomial_count(catalog.abelian(3)) == 4
    # rank-4 class-2: heisenberg3 plus a central direction
    from adorep.lie_core import direct_sum

    L = direct_sum(catalog.get("heisenberg3").lattice, catalog.abelian(1))
    got = monomial_count(L)
    B = build_weighted_basis(L)
    assert got == brute_monomial_count(B.weights, B.nil_class)
    assert got == 11


def test_free_nilpotent_class3_degree():
    # free class-3 algebra on two generators: x3 = [x1,x2], x4 = [x1,x3],
    # x5 = [x2,x3]; weights (3,3,2,1,1) give 15 monomials of weight <= 3
    from adorep.lie_core import lie_lattice

    L = lie_lattice(
        ["x1", "x2", "x3", "x4", "x5"],
        {
            (0, 1): [0, 0, 1, 0, 0],
            (0, 2): [0, 0, 0, 1, 0],
            (1, 2): [0, 0, 0, 0, 1],
        },
    )
    B = build_weighted_basis(L)
    assert B.nil_class == 3
    assert sorted(B.weights) == [1, 1, 2, 3, 3]
    assert monomial_count(L) == 15
    assert monomial_count(L) == brute_monomial_count(B.weights, B.nil_class)
    rep = nilpotent_faithful_rep(L)
    assert rep.degree == 15
    assert not rep.homomorphism_violations()


def test_monomial_count_matches_enumeration_oracle():
    for entry in nilpotent_entries():
        B = build_weighted_basis(entry.lattice)
        assert monomial_count(entry.lattice) == brute_monomial_count(
            B.weights, B.nil_class
        )


def test_eta_interval_tightness():
    lo, hi = eta_interval()
    assert lo < hi
    assert hi - lo < Fraction(1, 10**9)
    # eta ~ 2.763
    assert Fraction(2762, 1000) < lo and hi < Fraction(2764, 1000)


def test_burde_bound_examples():
    b3 = burde_bound(3)
    lo, hi = eta_interval()
    assert lo * 8 / _sqrt_upper(3) <= b3  # certified upper bound property
    assert Fraction(1275, 100) < b3 < Fraction(1277, 100)  # ~ 12.76
    assert Fraction(552, 100) < burde_bound(1) < Fraction(553, 100)  # ~ 5.53
    assert Fraction(2209, 100) < burde_bound(4) < Fraction(2211, 100)  # ~ 22.1


def _sqrt_upper(r):
    from adorep.nilrep import _sqrt_interval

    return _sqrt_interval(Fraction(r))[1]


def test_burde_bound_is_a_true_enclosure():
    # B(r) is above eta*2^r/sqrt(r) and below (eta + 0.01)*2^r/sqrt(r)
    for r in range(1, 13):
        assert burde_bound_is_tight(r)
        # lower comparison: count = floor(B(r)) + 1 must violate the
        # eta-level check while floor of the true value passes
        assert not count_satisfies_burde(int(burde_bound(r)) + 1, r)


def test_burde_bound_monotone():
    values = [burde_bound(r) for r in range(1, 13)]
    for a, b in zip(values, values[1:]):
        assert a <= b


def test_burde_bound_rejects_bad_rank():
    with pytest.raises(ValueError):
        burde_bound(0)


def test_counts_within_bound_for_catalog():
    for entry in nilpotent_entries():
        r = entry.lattice.rank
        count = monomial_count(entry.lattice)
        assert count_satisfies_burde(count, r)
        assert Fraction(count) <= burde_bound(r)


def test_birkhoff_comparison_bounds():
    b = birkhoff_bounds(3, 2)
    assert b["geometric_series"] == 13  # (3^3 - 1) / 2
    assert b["binomial"] == 10  # C(5, 2)
    assert birkhoff_bounds(1, 3)["geometric_series"] == 4


def test_nilpotent_rep_degrees():
    assert nilpotent_faithful_rep(catalog.get("heisenberg3").lattice).degree == 7
    rep1 = nilpotent_faithful_rep(catalog.abelian(1))
    assert rep1.degree == 2
    assert rep1.matrices[0] == ExactMatrix.from_rows([[0, 0], [1, 0]])
    for r in range(1, 7):
        assert nilpotent_faithful_rep(catalog.abelian(r)).degree == r + 1


def test_nilpotent_rep_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        nilpotent_faithful_rep(catalog.get("solv2").lattice)


def test_nilpotent_rep_invariants():
    for entry in nilpotent_entries():
        L = entry.lattice
        rep = nilpotent_faithful_rep(L)
        assert rep.degree == monomial_count(L)
        assert not rep.homomorphism_violations()
        assert rep.is_integral
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in M.entries for x in row) for M in rep.matrices],
            cols=rep.degree**2,
        )
        assert rank(stacked) == L.rank  # faithful
        # strict weight grading: l_x raises weight by at least omega(x)
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        for i in range(L.rank):
            M = T.left_mult_matrix(unit(L.rank, i))
            w_i = min(
                B.weights[k]
                for k, c in enumerate(T.basis.inverse.entries[i])
                if c != 0
            )
            for col, beta in enumerate(T.monomials):
                for row, alpha in enumerate(T.monomials):
                    if M.entries[row][col] != 0:
                        assert (
                            T.monomial_weight(alpha)
                            >= T.monomial_weight(beta) + w_i
                        )
            # hence nilpotent
            assert power(rep.matrices[i], rep.degree).is_zero()


def test_nilpotent_faithful_rep_validates_its_lattice():
    # [x, y] = z/2 is a Lie algebra over Q but not a Z-lattice
    half = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, Fraction(1, 2)]})
    with pytest.raises(LatticeValidationError, match=r"\(0, 1, 2\)"):
        nilpotent_faithful_rep(half)
