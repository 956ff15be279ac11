import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog, nilrep, pbw
from adorep.exact_linalg import ExactMatrix, vector
from adorep.lie_core import (
    LeibnizError,
    NotNilpotentError,
    change_basis,
    lie_lattice,
    unit,
)
from adorep.pbw import TruncatedUEA, _graded_monomials, build_weighted_basis
from adorep.pipeline import ado_representation

from oracles import (
    RefTruncatedUEA,
    ad,
    column,
    derivation_basis,
    is_nilpotent,
    load_bench,
    nilpotent_entries,
    oracle_vector,
    ref_build_weighted_basis,
    ref_derivation_star,
    ref_enumerate_monomials,
    series_inputs,
)
from pbw_words import (
    apply_word,
    letter_matrices,
    mat_vec,
    monomial_word,
    multiply,
    unit_monomial,
    weight,
)


def h3():
    return catalog.get("heisenberg3").lattice


def filiform4():
    # class-3 nilpotent on 4 generators: [e1,e2]=e3, [e1,e3]=e4
    return lie_lattice(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]},
    )


def fractional_q4():
    # over Q the adapted constants keep a denominator (30 here)
    brackets = {(0, 1): [0, 0, "1/2", 0], (0, 2): [0, 0, 0, "-2/3"], (1, 2): [0, 0, 0, "3/5"]}
    return lie_lattice(["e1", "e2", "e3", "e4"], brackets, "Q")


def uea(L, cutoff):
    return TruncatedUEA(build_weighted_basis(L), cutoff)


def element(T, v):
    """The monomials supporting a coordinate vector, with their coefficients."""
    return {T.monomials[i]: c for i, c in enumerate(v) if c}


def original_letters(T):
    """Left multiplications by the original basis vectors."""
    return [T.left_mult_matrix(unit(T.rank, i)) for i in range(T.rank)]


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
    T = uea(h3(), 2)
    assert T.dimension == 7
    weights = [T.monomial_weight(a) for a in T.monomials]
    assert weights == sorted(weights)  # graded order


def test_straighten_yx():
    T = uea(h3(), 2)
    v = apply_word(original_letters(T), [1, 0], unit_monomial(T))  # y x
    # adapted order (z, x, y): expect xy - z
    assert element(T, v) == {(0, 1, 1): Fraction(1), (1, 0, 0): Fraction(-1)}


def test_straighten_sorted_word_is_single_monomial():
    T = uea(h3(), 2)
    letters = letter_matrices(T)
    v = apply_word(letters, [1, 2], unit_monomial(T))  # x then y, already sorted
    assert element(T, v) == {(0, 1, 1): Fraction(1)}
    # weight beyond cutoff vanishes
    v = apply_word(letters, [0, 1], unit_monomial(T))  # z * x has weight 3
    assert all(x == 0 for x in v)


def test_straighten_yxx_vanishes():
    T = uea(h3(), 2)
    assert all(x == 0 for x in apply_word(original_letters(T), [1, 0, 0], unit_monomial(T)))


def test_left_mult_examples():
    T = uea(h3(), 2)
    Mx = T.left_mult_matrix(unit(3, 0))
    one = T.index[(0, 0, 0)]
    assert element(T, column(Mx, one)) == {(0, 1, 0): Fraction(1)}
    y = T.index[(0, 0, 1)]
    assert element(T, column(Mx, y)) == {(0, 1, 1): Fraction(1)}
    z = T.index[(1, 0, 0)]
    assert all(c == 0 for c in column(Mx, z))
    x = T.index[(0, 1, 0)]
    assert element(T, column(Mx, x)) == {(0, 2, 0): Fraction(1)}
    # zero vector gives the zero matrix
    assert T.left_mult_matrix(vector([0, 0, 0])).is_zero()


def test_left_mult_abelian_rank1():
    T = uea(catalog.abelian(1), 1)
    assert T.left_mult_matrix(unit(1, 0)) == ExactMatrix.from_rows([[0, 0], [1, 0]])


def test_derivation_star_examples():
    T = uea(h3(), 2)
    assert T.derivation_star(ExactMatrix.zero(3, 3)).is_zero()
    D = ad(h3(), unit(3, 0))  # inner derivation ad_x
    Ds = T.derivation_star(D)
    y = T.index[(0, 0, 1)]
    assert element(T, column(Ds, y)) == {(1, 0, 0): Fraction(1)}  # D*(y) = z
    xy = T.index[(0, 1, 1)]
    assert all(c == 0 for c in column(Ds, xy))  # x z truncates away
    one = T.index[(0, 0, 0)]
    assert all(c == 0 for c in column(Ds, one))  # D*(1) = 0


def test_derivation_star_abelian_restriction():
    ab = catalog.abelian(2)
    T = uea(ab, 1)
    D = ExactMatrix.from_rows([[1, 2], [3, 4]])
    Ds = T.derivation_star(D)
    # on one-letter monomials D* equals D; on 1 it vanishes
    for j in range(2):
        col = column(Ds, T.index[tuple(1 if k == j else 0 for k in range(2))])
        want = {
            tuple(1 if k == a else 0 for k in range(2)): D.entries[a][j]
            for a in range(2)
            if D.entries[a][j]
        }
        assert element(T, col) == want
    assert all(c == 0 for c in column(Ds, T.index[(0, 0)]))


def test_derivation_star_rejects_non_leibniz():
    T = uea(h3(), 2)
    bad = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(LeibnizError):
        T.derivation_star(bad)


def test_defining_ideal_relation():
    # x_i x_j - x_j x_i = [x_i, x_j], on the unit monomial and as matrices
    for entry in nilpotent_entries():
        L = entry.lattice
        T = uea(L, 2 * max(build_weighted_basis(L).weights, default=1))
        mats = original_letters(T)
        one = unit_monomial(T)
        for i in range(L.rank):
            for j in range(L.rank):
                lhs = tuple(
                    a - b
                    for a, b in zip(apply_word(mats, [i, j], one), apply_word(mats, [j, i], one))
                )
                l_bracket = T.left_mult_matrix(L.bracket(unit(L.rank, i), unit(L.rank, j)))
                assert lhs == mat_vec(l_bracket, one)
                assert mats[i] * mats[j] - mats[j] * mats[i] == l_bracket


def test_superadditivity_random():
    rng = random.Random(1234)
    for entry in nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        mats = letter_matrices(T)
        for _ in range(60):
            u = _random_element(rng, T)
            v = _random_element(rng, T)
            prod = multiply(T, mats, u, v)
            assert weight(T, prod) >= weight(T, u) + weight(T, v)


def _random_element(rng, T, max_terms=3):
    out = [Fraction(0)] * T.dimension
    for _ in range(rng.randint(1, max_terms)):
        out[rng.randrange(T.dimension)] += rng.randint(-3, 3)
    return tuple(out)


def test_oracle_equivalence_random_words():
    rng = random.Random(2024)
    targets = [e.lattice for e in nilpotent_entries() if e.lattice.rank <= 3]
    targets += [filiform4(), fractional_q4()]
    for L in targets:
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        mats = letter_matrices(T)
        r = L.rank
        for _ in range(120):
            word = [rng.randrange(r) for _ in range(rng.randint(0, 5))]
            assert apply_word(mats, word, unit_monomial(T)) == oracle_vector(word, T)


def test_derivation_star_matches_oracle():
    # inner derivations and combinations of a derivation basis, lifted at
    # the class and one past it
    rng = random.Random(31)
    for entry in nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        solved = derivation_basis(L)
        for cutoff in (B.nil_class, B.nil_class + 1):
            T = TruncatedUEA(B, cutoff)
            for k in range(4):
                if k % 2 == 0:
                    D = ad(L, vector([rng.randint(-3, 3) for _ in range(L.rank)]))
                else:
                    D = ExactMatrix.zero(L.rank, L.rank)
                    for basis_D in solved:
                        D = D + basis_D.scale(rng.randint(-2, 2))
                want = tuple(tuple(row) for row in ref_derivation_star(T, D))
                assert T.derivation_star(D).entries == want


def test_pbw_over_q_matches_oracles():
    # non-integral constants and coordinates: the Fraction coefficients of
    # the straightening and of the lifts still agree with the tensor oracle
    rng = random.Random(7)
    L = fractional_q4()
    B = build_weighted_basis(L)
    assert B.adapted.table.den != 1
    solved = derivation_basis(L)
    for cutoff in (B.nil_class, B.nil_class + 1):
        T = TruncatedUEA(B, cutoff)
        Pinv = B.inverse.entries
        for k in range(4):
            v = vector([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 7])) for _ in range(L.rank)])
            coords = [
                sum((v[i] * Pinv[i][t] for i in range(L.rank)), Fraction(0)) for t in range(L.rank)
            ]
            want = [[Fraction(0)] * T.dimension for _ in range(T.dimension)]
            for col, beta in enumerate(T.monomials):
                for t, ct in enumerate(coords):
                    for row, x in enumerate(oracle_vector([t] + monomial_word(beta), T)):
                        want[row][col] += ct * x
            M = T.left_mult_matrix(v)
            assert M.entries == tuple(tuple(row) for row in want)
            if k % 2 == 0:
                D = ad(L, v)
            else:
                D = ExactMatrix.zero(L.rank, L.rank)
                for basis_D in solved:
                    D = D + basis_D.scale(Fraction(rng.randint(-2, 2), rng.choice([1, 3])))
            want = tuple(tuple(row) for row in ref_derivation_star(T, D))
            assert T.derivation_star(D).entries == want
        assert not T.left_mult_matrix(unit(L.rank, 0)).is_integral


def test_straightening_rejects_non_integral_over_z():
    # a basis whose lattice claims Z but whose adapted constants are not
    # integral ([x, y] = z/2) is refused when the algebra is built
    L = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, "1/2"]}, "Q")
    B = build_weighted_basis(L)
    with pytest.raises(RuntimeError, match="non-integral coefficient over Z"):
        T = TruncatedUEA(dataclasses.replace(B, lattice=dataclasses.replace(L, domain="Z")), 2)
        T.left_mult_matrix(unit(3, 1))
    # over Q the same straightening keeps the Fraction
    assert not TruncatedUEA(B, 2).left_mult_matrix(unit(3, 1)).is_integral


def test_block_triangularity_of_lifted_derivations():
    rng = random.Random(5)
    for entry in nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class + 1)  # one past the class
        for _ in range(10):
            v = vector([rng.randint(-3, 3) for _ in range(L.rank)])
            Ds = T.derivation_star(ad(L, v))
            for col, beta in enumerate(T.monomials):
                wb = T.monomial_weight(beta)
                for row, alpha in enumerate(T.monomials):
                    if Ds.entries[row][col] != 0:
                        assert T.monomial_weight(alpha) >= wb


def test_integral_coefficients_over_z():
    for entry in nilpotent_entries():
        L = entry.lattice
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        for i in range(L.rank):
            assert T.left_mult_matrix(unit(L.rank, i)).is_integral


def _construction_inputs():
    """(name, lattice): every nilpotent catalog lattice and every
    nilpotent-regular lattice at seed 23, plain, in one seeded unimodular
    basis and in one seeded permutation of its basis, and a Q-lattice whose
    adapted constants are not integral."""
    out = [(name, L) for name, L in series_inputs() if is_nilpotent(L)]
    rng = random.Random(23)
    for name, L in out[::2]:
        perm = ExactMatrix.from_ints([{j: 1} for j in rng.sample(range(L.rank), L.rank)], L.rank)
        out.append((f"permuted {name}", change_basis(L, perm)))
    return out + [("fractional_q4", fractional_q4())]


def _single_letter(row):
    return len(row) == 1 and 1 in row.values()


@pytest.mark.parametrize(
    "name, L", _construction_inputs(), ids=[n for n, _ in _construction_inputs()]
)
def test_pbw_construction_equals_the_old_code(name, L, monkeypatch):
    # the plain and permuted lower central series are spanned by basis
    # vectors, so the adapted basis is read off them; a scrambled one is
    # not, unless the lattice is abelian
    steps = []
    extend = pbw.extend_basis
    monkeypatch.setattr(pbw, "extend_basis", lambda *args: steps.append(args) or extend(*args))
    B = build_weighted_basis(L)
    ref = ref_build_weighted_basis(L)
    assert B == ref
    assert (not steps) == (not name.startswith("scrambled") or B.nil_class == 1)
    rng = random.Random(name)
    r = L.rank
    vectors = [unit(r, i) for i in range(r)]
    vectors += [vector([rng.randint(-3, 3) for _ in range(r)]) for _ in range(2)]
    for cutoff in (B.nil_class, B.nil_class + 1):
        T, R = TruncatedUEA(B, cutoff), RefTruncatedUEA(ref, cutoff)
        assert T.monomials == R.monomials
        # each monomial's weight is the oracle's, and the products x_i x^m
        # inside the cutoff are the monomials of weight <= cutoff - w_i
        assert [T.monomial_weight(a) for a in T.monomials] == [R.weight[a] for a in R.monomials]
        assert T._fits == [
            sum(R.weight[a] + w <= cutoff for a in R.monomials) for w in B.weights
        ]
        first = [T.left_mult_matrix(v) for v in vectors]
        assert first == [R.left_mult_matrix(v) for v in vectors]
        derivations = [ad(L, v) for v in vectors]
        assert [T.derivation_star(D) for D in derivations] == [
            R.derivation_star(D) for D in derivations
        ]
        # the one-letter columns are the memo's own entries; nothing that
        # ran since has changed them
        assert [T.left_mult_matrix(v) for v in vectors] == first
        with pytest.raises(ValueError):
            T.left_mult_matrix(vector([1] + [0] * r))
        with pytest.raises(ValueError):
            T.left_mult_matrix(vector([0] * (r - 1)))


def test_pbw_construction_inputs_take_both_letter_paths():
    # a unit vector's coordinates are one letter with numerator 1 on the
    # plain nilpotent-regular lattices, and more than that on some of their
    # scrambled copies; the Q-lattice's adapted table is not integral
    rows = {
        name: build_weighted_basis(L).inverse.num for name, L in _construction_inputs()
    }
    assert all(_single_letter(row) for row in rows["F7"] + rows["heisenberg9"])
    scrambled = [row for name, num in rows.items() if name.startswith("scrambled F") for row in num]
    assert not all(_single_letter(row) for row in scrambled)
    assert build_weighted_basis(fractional_q4()).adapted.table.den != 1


def test_straightening_over_z_refuses_a_half_integral_adapted_table():
    # a weighted basis whose lattice is heisenberg3 over Z and whose adapted
    # table is [x, y] = z/2, denominator 2, is refused when the algebra is
    # built, before the left multiplication by y, which straightens
    # y x = x y - z/2, and before the lift of D with D(y) = x
    half = build_weighted_basis(lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, "1/2"]}, "Q"))
    B = dataclasses.replace(half, lattice=h3())
    assert B.lattice.domain == "Z" and B.adapted.table.den == 2
    with pytest.raises(RuntimeError, match="non-integral coefficient over Z"):
        TruncatedUEA(B, 2).left_mult_matrix(unit(3, 1))
    D = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(RuntimeError, match="non-integral coefficient over Z"):
        TruncatedUEA(B, 2).derivation_star(D)


_WORKLOADS = load_bench("workloads")


@st.composite
def uea_inputs(draw):
    """A nilpotent catalog lattice, a Heisenberg or filiform lattice of a
    drawn rank, or fractional_q4, plain or in a drawn unimodular basis; an
    offset 0-2 past the class for the cutoff; and a seed for the vectors."""
    kind = draw(st.sampled_from(["catalog", "heisenberg", "filiform", "fractional_q4"]))
    if kind == "catalog":
        L = draw(st.sampled_from(nilpotent_entries())).lattice
    elif kind == "heisenberg":
        L = catalog.heisenberg(draw(st.integers(1, 3)))
    elif kind == "filiform":
        L = _WORKLOADS.filiform(draw(st.integers(3, 6)))
    else:
        L = fractional_q4()
    if draw(st.booleans()):
        P, _ = _WORKLOADS.random_unimodular(random.Random(draw(st.integers(0, 2**16))), L.rank)
        L = change_basis(L, ExactMatrix.from_rows(P))
    return L, draw(st.integers(0, 2)), draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(uea_inputs())
def test_index_tables_and_products_equal_the_tuple_oracle(drawn):
    L, offset, seed = drawn
    B = build_weighted_basis(L)
    cutoff = B.nil_class + offset
    T, R = TruncatedUEA(B, cutoff), RefTruncatedUEA(B, cutoff)
    r = L.rank
    assert T.monomials == R.monomials
    # monomial m is x_first[m] times monomial rest[m], whose letters are all
    # at least first[m]; up[i] inverts rest over the first letter i
    assert T.first[0] == r
    for m in range(1, T.dimension):
        i, alpha = T.first[m], T.monomials[T.rest[m]]
        assert T.monomials[m] == alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
        assert T.first[T.rest[m]] >= i
    assert list(T.up) == [
        {T.rest[m]: m for m in range(1, T.dimension) if T.first[m] == i} for i in range(r)
    ]
    rng = random.Random(seed)
    vectors = [unit(r, i) for i in range(r)]
    vectors += [vector([rng.randint(-3, 3) for _ in range(r)]) for _ in range(2)]
    assert [T.left_mult_matrix(v) for v in vectors] == [R.left_mult_matrix(v) for v in vectors]
    derivations = [ad(L, v) for v in vectors]
    assert [T.derivation_star(D) for D in derivations] == [
        R.derivation_star(D) for D in derivations
    ]


def _tables_of_sorted_monomials(weights, cutoff):
    """(first, rest, upto) read off the exponent vectors of the reference
    enumeration, sorted by weight and then lexicographically."""
    r = len(weights)
    ordered = sorted((w, alpha) for alpha, w in ref_enumerate_monomials(weights, cutoff))
    index = {alpha: m for m, (_, alpha) in enumerate(ordered)}
    first, rest = [], []
    for _, alpha in ordered:
        i = next((t for t, e in enumerate(alpha) if e), r)
        first.append(i)
        rest.append(0 if i == r else index[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]])
    upto = [sum(w <= v for w, _ in ordered) for v in range(cutoff + 1)]
    return first, rest, upto


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=6), st.integers(0, 8))
def test_graded_monomials_equal_the_sorted_enumeration(weights, cutoff):
    # weights above the cutoff leave their letter out of every monomial
    assert _graded_monomials(weights, cutoff) == _tables_of_sorted_monomials(weights, cutoff)


def _rational_upper_triangular(n, rng):
    """Strictly upper triangular n x n matrices over Q in the basis
    c_ij E_ij, i < j, each c_ij a drawn fraction: [E_ij, E_jl] = E_il, so
    [c_ij E_ij, c_jl E_jl] = (c_ij c_jl / c_il) c_il E_il."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    c = {p: Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 5])) for p in pairs}
    at = {p: t for t, p in enumerate(pairs)}
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a < b and (j == k or l == i):
                row = [Fraction(0)] * len(pairs)
                if j == k:
                    row[at[i, l]] += c[i, j] * c[k, l] / c[i, l]
                if l == i:
                    row[at[k, j]] -= c[i, j] * c[k, l] / c[k, j]
                brackets[a, b] = [str(x) for x in row]
    return lie_lattice([f"e{i}{j}" for i, j in pairs], brackets, "Q")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rational_upper_triangular_algebras_match_the_reference(n):
    # the adapted tables have denominators, so every matrix is straightened
    # in the scaled basis and brought back by powers of the denominator
    rng = random.Random(n)
    dens = set()
    for _ in range(3):
        L = _rational_upper_triangular(n, rng)
        B = build_weighted_basis(L)
        dens.add(B.adapted.table.den)
        assert B.nil_class == n - 1
        solved = derivation_basis(L)
        for cutoff in (B.nil_class, B.nil_class + 1):
            T, R = TruncatedUEA(B, cutoff), RefTruncatedUEA(B, cutoff)
            vectors = [unit(L.rank, i) for i in range(L.rank)]
            vectors += [
                vector([Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range(L.rank)])
                for _ in range(2)
            ]
            assert [T.left_mult_matrix(v) for v in vectors] == [
                R.left_mult_matrix(v) for v in vectors
            ]
            D = ExactMatrix.zero(L.rank, L.rank)
            for basis_D in solved:
                D = D + basis_D.scale(Fraction(rng.randint(-2, 2), rng.choice([1, 3])))
            for D in (D, ad(L, vectors[-1])):
                want = tuple(tuple(row) for row in ref_derivation_star(T, D))
                assert T.derivation_star(D).entries == want
    assert dens - {1}


def test_left_multiplications_never_build_the_exponent_vectors():
    for L in (filiform4(), fractional_q4(), _WORKLOADS.filiform(6)):
        B = build_weighted_basis(L)
        T = TruncatedUEA(B, B.nil_class)
        for i in range(L.rank):
            T.left_mult_matrix(unit(L.rank, i))
        assert "monomials" not in vars(T) and "index" not in vars(T)
        assert len(T.monomials) == T.dimension and "monomials" in vars(T)


@pytest.mark.parametrize("name", ["F7", "heisenberg9"])
def test_graded_chains_build_the_adapted_basis_without_elimination(name, eliminations, monkeypatch):
    # a non-strict ado of the plain lattice runs no Hermite loop and no
    # Echelon in `build_weighted_basis`; one of its scrambled copy does
    inputs = dict(series_inputs())
    counts = []

    def counted(L, known=None):
        before = dict(eliminations)
        B = build_weighted_basis(L, known)
        counts.append(tuple(eliminations[k] - before[k] for k in ("_hermite", "Echelon")))
        return B

    monkeypatch.setattr(nilrep, "build_weighted_basis", counted)
    for L in (inputs[name], inputs[f"scrambled {name}"]):
        assert ado_representation(L)[1].ok
    plain, scrambled = counts
    assert plain == (0, 0)
    assert scrambled[0] > 0 and scrambled[1] > 0
