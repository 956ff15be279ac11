import math
import random
from fractions import Fraction

import pytest

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, vector
from adorep.lie_core import (
    LeibnizError,
    NotNilpotentError,
    lie_lattice,
    unit,
)
from adorep.pbw import TruncatedUEA, build_weighted_basis, truncated_uea

from oracles import oracle_vector


def h3():
    return catalog.get("heisenberg3").lattice


def filiform4():
    # class-3 nilpotent on 4 generators: [e1,e2]=e3, [e1,e3]=e4
    return lie_lattice(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]},
    )


def test_weighted_basis_h3():
    B = build_weighted_basis(h3())
    assert B.nil_class == 2
    assert B.weights == (2, 1, 1)
    # adapted order: z first, then x, y
    assert B.change_of_basis == ExactMatrix.from_rows(
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    )


def test_weighted_basis_abelian():
    B = build_weighted_basis(catalog.abelian(2))
    assert B.weights == (1, 1)
    assert B.nil_class == 1


def test_weighted_basis_filiform():
    B = build_weighted_basis(filiform4())
    assert B.nil_class == 3
    assert sorted(B.weights) == [1, 1, 2, 3]
    assert B.weights[0] == 3  # deepest term first


def test_weighted_basis_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        build_weighted_basis(catalog.get("solv2").lattice)


def test_truncation_dimension_h3():
    T = truncated_uea(h3(), 2)
    assert T.dimension == 7
    weights = [T.monomial_weight(a) for a in T.monomials]
    assert weights == sorted(weights)  # graded order


def test_straighten_yx():
    T = truncated_uea(h3(), 2)
    v = T.straighten([1, 0])  # word (y, x) in original indices
    elem = T.from_vector(v)
    # adapted order (z, x, y): expect xy - z
    assert elem == {(0, 1, 1): Fraction(1), (1, 0, 0): Fraction(-1)}


def test_straighten_sorted_word_is_single_monomial():
    T = truncated_uea(h3(), 2)
    v = T.straighten_adapted([1, 2])  # x then y, already sorted
    assert T.from_vector(v) == {(0, 1, 1): Fraction(1)}
    # weight beyond cutoff vanishes
    v = T.straighten_adapted([0, 1])  # z * x has weight 3
    assert all(x == 0 for x in v)


def test_straighten_yxx_vanishes():
    T = truncated_uea(h3(), 2)
    assert all(x == 0 for x in T.straighten([1, 0, 0]))


def test_left_mult_examples():
    T = truncated_uea(h3(), 2)
    Mx = T.left_mult_matrix(unit(3, 0))
    one = T.index[(0, 0, 0)]
    assert T.from_vector(Mx.column(one)) == {(0, 1, 0): Fraction(1)}
    y = T.index[(0, 0, 1)]
    assert T.from_vector(Mx.column(y)) == {(0, 1, 1): Fraction(1)}
    z = T.index[(1, 0, 0)]
    assert all(c == 0 for c in Mx.column(z))
    x = T.index[(0, 1, 0)]
    assert T.from_vector(Mx.column(x)) == {(0, 2, 0): Fraction(1)}
    # zero vector gives the zero matrix
    assert T.left_mult_matrix(vector([0, 0, 0])).is_zero()


def test_left_mult_abelian_rank1():
    T = truncated_uea(catalog.abelian(1), 1)
    assert T.left_mult_matrix(unit(1, 0)) == ExactMatrix.from_rows([[0, 0], [1, 0]])


def test_derivation_star_examples():
    T = truncated_uea(h3(), 2)
    assert T.derivation_star(ExactMatrix.zero(3, 3)).is_zero()
    D = h3().ad(unit(3, 0))  # inner derivation ad_x
    Ds = T.derivation_star(D)
    y = T.index[(0, 0, 1)]
    assert T.from_vector(Ds.column(y)) == {(1, 0, 0): Fraction(1)}  # D*(y) = z
    xy = T.index[(0, 1, 1)]
    assert all(c == 0 for c in Ds.column(xy))  # x z truncates away
    one = T.index[(0, 0, 0)]
    assert all(c == 0 for c in Ds.column(one))  # D*(1) = 0


def test_derivation_star_abelian_restriction():
    ab = catalog.abelian(2)
    T = truncated_uea(ab, 1)
    D = ExactMatrix.from_rows([[1, 2], [3, 4]])
    Ds = T.derivation_star(D)
    # on one-letter monomials D* equals D; on 1 it vanishes
    for j in range(2):
        col = Ds.column(T.index[tuple(1 if k == j else 0 for k in range(2))])
        got = {T.monomials[i]: c for i, c in enumerate(col) if c}
        want = {
            tuple(1 if k == a else 0 for k in range(2)): D.entries[a][j]
            for a in range(2)
            if D.entries[a][j]
        }
        assert got == want
    assert all(c == 0 for c in Ds.column(T.index[(0, 0)]))


def test_derivation_star_rejects_non_leibniz():
    T = truncated_uea(h3(), 2)
    bad = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(LeibnizError):
        T.derivation_star(bad)


def test_weight_of():
    T = truncated_uea(h3(), 2)
    zero = tuple(Fraction(0) for _ in range(T.dimension))
    assert T.weight_of(zero) == math.inf
    for alpha in T.monomials:
        v = T.to_vector({alpha: Fraction(1)})
        assert T.weight_of(v) == T.monomial_weight(alpha)
    v = T.straighten([1, 0])  # xy - z
    assert T.weight_of(v) == 2


def test_defining_ideal_relation():
    # straighten(x_i x_j) - straighten(x_j x_i) = coordinates of [x_i, x_j]
    for entry in catalog.nilpotent_entries():
        L = entry.lattice
        T = truncated_uea(L, 2 * max(build_weighted_basis(L).weights, default=1))
        for i in range(L.rank):
            for j in range(L.rank):
                lhs = tuple(
                    a - b
                    for a, b in zip(T.straighten([i, j]), T.straighten([j, i]))
                )
                rhs = T.to_vector(T.lattice_element(L.bracket(unit(L.rank, i), unit(L.rank, j))))
                assert lhs == rhs


def test_superadditivity_random():
    rng = random.Random(1234)
    for entry in catalog.nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        for _ in range(60):
            u = _random_element(rng, T)
            v = _random_element(rng, T)
            prod = T.multiply(u, v)
            wu, wv = T.weight_of(T.to_vector(u)), T.weight_of(T.to_vector(v))
            assert T.weight_of(T.to_vector(prod)) >= wu + wv


def _random_element(rng, T, max_terms=3):
    elem = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = rng.choice(T.monomials)
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            elem[alpha] = elem.get(alpha, Fraction(0)) + coeff
    return {a: c for a, c in elem.items() if c}


def test_associativity_random_words():
    rng = random.Random(77)
    for L in (h3(), filiform4(), catalog.abelian(3)):
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        r = L.rank
        for _ in range(40):
            length = rng.randint(3, 6)
            word = [rng.randrange(r) for _ in range(length)]
            cut = rng.randrange(1, length)
            u = T.from_vector(T.straighten_adapted(word[:cut]))
            v = T.from_vector(T.straighten_adapted(word[cut:]))
            assert T.to_vector(T.multiply(u, v)) == T.straighten_adapted(word)


def test_oracle_equivalence_random_words():
    rng = random.Random(2024)
    targets = [e.lattice for e in catalog.nilpotent_entries() if e.lattice.rank <= 3]
    targets.append(filiform4())
    for L in targets:
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        r = L.rank
        for _ in range(120):
            word = [rng.randrange(r) for _ in range(rng.randint(0, 5))]
            assert T.straighten_adapted(word) == oracle_vector(word, T)


def test_block_triangularity_of_lifted_derivations():
    rng = random.Random(5)
    for entry in catalog.nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class + 1)  # one past the class
        for _ in range(10):
            v = vector([rng.randint(-3, 3) for _ in range(L.rank)])
            Ds = T.derivation_star(L.ad(v))
            for col, beta in enumerate(T.monomials):
                wb = T.monomial_weight(beta)
                for row, alpha in enumerate(T.monomials):
                    if Ds.entries[row][col] != 0:
                        assert T.monomial_weight(alpha) >= wb


def test_integral_coefficients_over_z():
    for entry in catalog.nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        for i in range(L.rank):
            assert T.left_mult_matrix(unit(L.rank, i)).is_integral
