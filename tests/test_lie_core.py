import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, Submodule, rank, vector
from adorep.lie_core import (
    LatticeValidationError,
    LeibnizError,
    LieLattice,
    _matrix_algebra_closure,
    adjoint_rep,
    bracket_series,
    center,
    change_basis,
    check_derivation,
    derived_series,
    direct_sum,
    is_ideal,
    is_nilpotent_submodule,
    killing_form,
    lie_lattice,
    lower_central_series,
    nilradical,
    quotient_lattice,
    scale_lattice,
    semidirect_assemble,
    solvable_radical,
    split_semidirect,
    is_subalgebra,
    subalgebra_lattice,
    unit,
    validate,
)
from adorep.pipeline import ado_representation

from oracles import (
    acceptance_entries,
    ad,
    checked_storage,
    column,
    derivation_basis,
    is_nilpotent,
    is_semisimple,
    nilpotency_class,
    power,
    ref_bracket,
    ref_brackets,
    ref_derived_series,
    ref_is_derivation,
    ref_lower_central_series,
    ref_matrix_algebra_closure,
    ref_nilradical,
    ref_quotient_lattice,
    ref_rank,
    ref_solvable_radical,
    ref_subalgebra_lattice,
    ref_table,
    ref_validate,
    series_inputs,
    span,
    tensor_lattice,
)


def h3():
    return catalog.get("heisenberg3").lattice


def sl2():
    return catalog.get("sl2").lattice


def solv2():
    return catalog.get("solv2").lattice


def test_validate_heisenberg_and_abelian():
    assert validate(h3()).ok
    assert validate(catalog.abelian(4)).ok


def test_validate_reports_antisymmetry_violation():
    r = 2
    z = (Fraction(0),) * r
    one = (Fraction(1), Fraction(0))
    c = ((z, one), (one, z))  # c[0][1] = c[1][0] = e0: not antisymmetric
    bad = tensor_lattice(("a", "b"), c, "Z")
    report = validate(bad)
    assert not report.ok
    assert (0, 1, 0) in report.antisymmetry_violations


def test_validate_reports_jacobi_violation():
    # [a,b]=c, [a,c]=a breaks Jacobi on (a,b,c)
    bad = lie_lattice(["a", "b", "c"], {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    report = validate(bad)
    assert report.jacobi_violations


def test_bracket_examples():
    L = h3()
    assert L.bracket(unit(3, 0), unit(3, 1)) == vector([0, 0, 1])
    assert L.bracket(unit(3, 0), unit(3, 0)) == vector([0, 0, 0])
    assert L.bracket(unit(3, 0), unit(3, 2)) == vector([0, 0, 0])
    v = vector([2, 3, -1])
    assert L.bracket(v, v) == vector([0, 0, 0])


def test_lower_central_series():
    chain = lower_central_series(h3())
    assert [m.rank for m in chain] == [3, 1, 0]
    assert nilpotency_class(h3()) == 2
    assert [m.rank for m in lower_central_series(catalog.abelian(4))] == [4, 0]
    chain = lower_central_series(solv2())
    assert [m.rank for m in chain] == [2, 1]
    assert not is_nilpotent(solv2())


@pytest.mark.parametrize("name, L", series_inputs(), ids=[n for n, _ in series_inputs()])
def test_lower_central_series_equals_the_all_ordered_pairs_chain(name, L):
    # [L, L] from the pairs i < j spans what all r^2 ordered pairs span
    assert lower_central_series(L) == ref_lower_central_series(L)


def test_derived_series():
    assert [m.rank for m in derived_series(solv2())] == [2, 1, 0]
    assert derived_series(solv2())[-1].is_zero()
    assert [m.rank for m in derived_series(sl2())] == [3]
    assert not derived_series(sl2())[-1].is_zero()
    assert [m.rank for m in derived_series(catalog.abelian(2))] == [2, 0]


def test_center():
    assert center(h3()).basis == ExactMatrix.from_rows([[0, 0, 1]])
    assert center(catalog.abelian(3)).rank == 3
    assert center(sl2()).rank == 0


def test_ideal_and_subalgebra_predicates():
    L = h3()
    x_only = span([unit(3, 0)], 3, "Z")
    assert is_subalgebra(L, x_only)
    assert not is_ideal(L, x_only)  # [y, x] = -z leaves span(x)
    x_and_y = span([unit(3, 0), unit(3, 1)], 3, "Z")
    assert not is_subalgebra(L, x_and_y)  # [x, y] = z leaves span(x, y)
    assert not is_ideal(L, x_and_y)
    # over Z, span(x/2, y/2, z/2) holds every [x_i, v] but not
    # [x/2, y/2] = z/4: a fractional basis still gets the closure test
    halves = Submodule.of_rows(ExactMatrix.identity(3).scale(Fraction(1, 2)), "Z")
    assert halves.contains_rows(L.bracket_rows(ExactMatrix.identity(3), halves.basis))
    assert not is_subalgebra(L, halves)
    assert not is_ideal(L, halves)
    for entry in acceptance_entries():
        M = entry.lattice
        for S in (center(M), solvable_radical(M), rn_of(M)):
            assert is_ideal(M, S)


def test_is_nilpotent_submodule():
    L = solv2()
    assert not is_nilpotent_submodule(L, solvable_radical(L))
    assert is_nilpotent_submodule(L, rn_of(L))


def test_bracket_series_saturation():
    # [x, y] = 2z: the second lower-central term is 2z, saturated to z
    L = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, 2]})
    full = Submodule.full(3, "Z")
    saturated = bracket_series(L, full, full)
    unsaturated = bracket_series(L, full, full, saturate=False)
    assert [m.basis for m in saturated[1:]] == [
        ExactMatrix.from_rows([[0, 0, 1]]),
        ExactMatrix.zero(0, 3),
    ]
    assert [m.basis for m in unsaturated[1:]] == [
        ExactMatrix.from_rows([[0, 0, 2]]),
        ExactMatrix.zero(0, 3),
    ]
    assert saturated == lower_central_series(L)


def test_bracket_series_is_bounded_on_a_non_lie_tensor(alarm):
    # c[1][0][6] += 1 makes churkin_sl2_t2's strict extension
    # non-antisymmetric, and the chain of its nilpotent part then cycles
    _, _, cert = ado_representation(catalog.get("churkin_sl2_t2").lattice, strict=True)
    c = [[list(v) for v in row] for row in cert.extension.c]
    c[1][0][6] += 1
    tensor = tuple(tuple(map(tuple, row)) for row in c)
    broken = tensor_lattice(cert.extension.names, tensor, cert.extension.domain)
    alarm(10)
    with pytest.raises(LatticeValidationError, match=r"longer than rank \+ 1"):
        is_nilpotent_submodule(broken, cert.nilpotent_part)


def test_derived_series_on_a_non_lie_tensor_ends(alarm):
    # the derived chain brackets only the pairs i < j, which assumes an
    # antisymmetric tensor; on the broken tensor of the test above it must
    # still end, in a chain or in LatticeValidationError
    _, _, cert = ado_representation(catalog.get("churkin_sl2_t2").lattice, strict=True)
    c = [[list(v) for v in row] for row in cert.extension.c]
    c[1][0][6] += 1
    broken = tensor_lattice(cert.extension.names, tuple(tuple(map(tuple, row)) for row in c))
    alarm(10)
    try:
        chain = derived_series(broken)
    except LatticeValidationError:
        return
    assert chain[0] == Submodule.full(broken.rank, "Z")
    assert len(chain) <= broken.rank + 1


def test_full_rank_sublattice_that_brackets_escape_is_not_an_ideal():
    # [x, y] = z: {x, y, 2z} has full rank, but [x, y] = z leaves it; only
    # over Q is a full-rank submodule the whole space, an ideal unchecked
    L = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 2)]
    S = span(rows, 3, "Z")
    assert S.rank == L.rank
    assert not is_ideal(L, S)
    assert is_ideal(L, Submodule.full(3, "Z"))
    assert is_ideal(L.to_field(), span(rows, 3, "Q"))
    with pytest.raises(ValueError):
        is_ideal(L.to_field(), Submodule.full(4, "Q"))


def test_killing_form():
    K = killing_form(sl2())
    assert K.entries[1][1] == 8  # kappa(h, h)
    assert K.entries[0][2] == 4  # kappa(e, f)
    assert K.entries[0][0] == 0
    assert killing_form(catalog.abelian(2)).is_zero()
    assert killing_form(h3()).is_zero()


@pytest.mark.parametrize("name", catalog.names())
def test_killing_form_equals_the_full_square_of_traces(name):
    L = catalog.get(name).lattice
    ads = [ad(L, unit(L.rank, i)) for i in range(L.rank)]
    full = [[(A * B).trace() for B in ads] for A in ads]
    assert killing_form(L) == ExactMatrix.from_rows(full, cols=L.rank)


def test_solvable_radical():
    assert solvable_radical(sl2()).rank == 0
    assert solvable_radical(solv2()).rank == 2
    both = direct_sum(sl2(), h3())
    rs = solvable_radical(both)
    assert rs.rank == 3
    # the radical of the direct sum is the h3 block
    assert rs == span(
        [unit(6, 3), unit(6, 4), unit(6, 5)], 6, "Z"
    )


def rn_of(L):
    """R_n(L), from the R_s(L) that `nilradical` takes."""
    return nilradical(L, solvable_radical(L))


def test_nilradical():
    assert rn_of(h3()).rank == 3
    assert rn_of(solv2()).basis == ExactMatrix.from_rows([[0, 1]])
    assert rn_of(sl2()).rank == 0
    t2 = catalog.t2_upper()
    rn = rn_of(t2)
    assert rn.rank == 2
    assert rn.contains_rows(ExactMatrix.from_rows([[1, 0, 1]]))  # the identity matrix direction
    assert rn.contains_rows(ExactMatrix.from_rows([[0, 1, 0]]))


def test_nilradical_of_a_central_radical_skips_the_envelope(monkeypatch):
    # sl2 + Z: R_s = Z is central, so I = [L, R_s] = 0
    import adorep.lie_core

    def unreachable(gens):
        raise AssertionError("envelope built for a central radical")

    monkeypatch.setattr(adorep.lie_core, "_matrix_algebra_closure", unreachable)
    L = direct_sum(sl2(), catalog.abelian(1))
    for K in (L, L.to_field()):
        rs = solvable_radical(K)
        assert rs == span([unit(4, 3)], 4, K.domain)
        assert nilradical(K, rs) == rs


def test_adjoint_rep():
    rep = adjoint_rep(h3())
    assert not rep.homomorphism_violations()
    # Ad(x) maps y to z and kills everything else
    Ax = rep.matrices[0]
    assert column(Ax, 1) == vector([0, 0, 1])
    assert column(Ax, 0) == vector([0, 0, 0])
    assert all(m.is_zero() for m in adjoint_rep(catalog.abelian(2)).matrices)
    assert rank(
        ExactMatrix.from_rows(
            [tuple(x for row in m.entries for x in row) for m in adjoint_rep(sl2()).matrices]
        )
    ) == 3


def test_adjoint_kernel_is_center():
    for entry in acceptance_entries():
        L = entry.lattice
        rep = adjoint_rep(L)
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in m.entries for x in row) for m in rep.matrices],
            cols=L.rank * L.rank,
        )
        from adorep.exact_linalg import kernel_basis

        assert kernel_basis(stacked, L.domain) == center(L)


def test_semidirect_assemble_examples():
    # rank-1 abelian acted on by identity gives [s, n] = n
    N = catalog.abelian(1)
    S = lie_lattice(["s"], {})
    L = semidirect_assemble(N, S, [ExactMatrix.identity(1)])
    assert L.bracket(unit(2, 1), unit(2, 0)) == vector([1, 0])
    assert validate(L).ok
    # zero action is the direct sum
    Lsum = semidirect_assemble(h3(), S, [ExactMatrix.zero(3, 3)])
    assert Lsum == direct_sum(h3(), S)
    # trivial complement
    L0 = semidirect_assemble(h3(), lie_lattice([], {}), [])
    assert L0.rank == 3
    assert [m.rank for m in lower_central_series(L0)] == [3, 1, 0]


def test_semidirect_rejects_non_derivation():
    N = h3()
    S = lie_lattice(["s"], {})
    bad = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])  # kills x,y, fixes z
    with pytest.raises(LeibnizError):
        semidirect_assemble(N, S, [bad])


def test_split_semidirect_round_trip():
    N = h3()
    S = lie_lattice(["s"], {})
    D = next(D for D in derivation_basis(N) if not D.is_zero())
    # integer-scaled derivation keeps everything over Z
    D = D.scale(D.den)
    L = semidirect_assemble(N, S, [D])
    N2, S2, action = split_semidirect(L, 3)
    assert N2 == N
    assert S2.rank == 1
    assert action[0] == D


@pytest.mark.parametrize("n_rank", [-1, 4])
def test_split_semidirect_rejects_n_rank_out_of_range(n_rank):
    with pytest.raises(ValueError, match="outside 0..3"):
        split_semidirect(h3(), n_rank)


def test_derivation_basis_properties():
    for L in (h3(), sl2(), solv2()):
        basis = derivation_basis(L)
        for D in basis:
            assert check_derivation(L, D)
        # inner derivations belong to the space
        stacked = ExactMatrix.from_rows(
            [tuple(x for row in D.entries for x in row) for D in basis],
            cols=L.rank * L.rank,
        )
        for i in range(L.rank):
            inner = ad(L, unit(L.rank, i))
            from adorep.exact_linalg import solve_left

            assert solve_left(stacked, tuple(x for row in inner.entries for x in row)) is not None


def test_radical_containments_across_catalog():
    for entry in acceptance_entries():
        L = entry.lattice
        assert validate(L).ok
        rs = solvable_radical(L)
        rn = nilradical(L, rs)
        assert rs.contains_rows(rn.basis)
        assert is_ideal(L, rn) and is_ideal(L, rs)
        # [L, R_s] inside R_n
        assert rn.contains_rows(L.bracket_rows(ExactMatrix.identity(L.rank), rs.basis))
        # radicals and series terms are isolated sublattices of Z^n
        assert rs == rs.saturate()
        assert rn == rn.saturate()
        assert center(L) == center(L).saturate()
        assert rs.basis.is_integral
        assert rn.basis.is_integral
        assert center(L).basis.is_integral
        for m in lower_central_series(L):
            assert m == m.saturate()
        # expected invariants from the catalog
        assert rs.rank == entry.expected["rs_rank"]
        assert rn.rank == entry.expected["rn_rank"]
        assert center(L).rank == entry.expected["center_rank"]
        if entry.expected["nilpotency_class"] is not None:
            assert nilpotency_class(L) == entry.expected["nilpotency_class"]
        else:
            assert not is_nilpotent(L)


def test_nilradical_on_random_solvable_lattices():
    rng = random.Random(5150)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        A = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        V = catalog.abelian(n)
        Y = lie_lattice(["y"], {})
        L = semidirect_assemble(V, Y, [A])
        rn = rn_of(L)
        assert rn.basis.is_integral
        assert rn == rn.saturate()
        assert solvable_radical(L).contains_rows(rn.basis)
        for row in rn.basis.entries:
            assert power(ad(L, row), L.rank).is_zero()
        checked += 1
    assert checked == 60


def test_semisimple_detection():
    assert is_semisimple(sl2().to_field())
    assert not is_semisimple(h3().to_field())
    assert not is_semisimple(catalog.get("churkin_sl2_t2").lattice.to_field())
    # the reference agrees with the library's Cartan criterion, R_s = 0
    for name in catalog.names():
        L = catalog.get(name).lattice.to_field()
        assert is_semisimple(L) == (L.rank > 0 and solvable_radical(L).is_zero()), name


def test_change_basis():
    from adorep.lie_core import change_basis

    L = h3()
    P = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])  # unimodular
    M = change_basis(L, P)
    assert validate(M).ok
    assert rn_of(M).rank == 3
    from adorep.nilrep import monomial_count

    assert monomial_count(M) == 7
    with pytest.raises(ValueError):
        change_basis(L, ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_subalgebra_and_quotient():
    L = direct_sum(sl2(), solv2()).to_field()
    rs = solvable_radical(L)
    sub, basis = subalgebra_lattice(L, rs)
    assert sub.rank == 2
    assert derived_series(sub)[-1].is_zero()
    quot, section = quotient_lattice(L, rs)
    assert quot.rank == 3
    assert is_semisimple(quot)


def test_subalgebra_lattice_checks_closure_and_integrality():
    """With the validation gone, these are the checks it keeps: in
    heisenberg3 [x, y] = z leaves span(x, y), and over Z the sublattice
    with basis x, y, 2z has [x, y] = (1/2) 2z."""
    with pytest.raises(ValueError, match="not closed under the bracket"):
        subalgebra_lattice(h3(), span([unit(3, 0), unit(3, 1)], 3, "Z"))
    half = span([unit(3, 0), unit(3, 1), vector([0, 0, 2])], 3, "Z")
    with pytest.raises(ValueError, match="non-integral structure constants"):
        subalgebra_lattice(h3(), half)
    # over Q the same span is all of L, with integral constants
    sub, _ = subalgebra_lattice(h3(), span(half.basis.entries, 3, "Q"))
    assert validate(sub).ok


@pytest.mark.parametrize("name", catalog.names())
def test_subalgebra_and_quotient_lattices_match_the_all_pairs_forms(name):
    """On every lower central term of the lattice and of a scrambled copy,
    over Z and over Q, the tables from the pairs p < q, mirrored, equal the
    tables of all ordered pairs solved on the tagged echelon."""
    L = catalog.get(name).lattice
    scrambled = change_basis(L, shears(L.rank, [(i, (i + 1) % L.rank, -1) for i in range(L.rank)]))
    for K in (L, scrambled, L.to_field(), scrambled.to_field()):
        for term in lower_central_series(K):
            assert subalgebra_lattice(K, term) == ref_subalgebra_lattice(K, term)
            assert quotient_lattice(K, term) == ref_quotient_lattice(K, term)


# -- the sparse integer table against the dense triple loop ----------------

TENSORS = settings(max_examples=120, deadline=None)
INTS = st.integers(-3, 3).map(Fraction)
FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def tensors(draw, antisymmetric=False, cells=None):
    """(c, r, domain): a random r x r x r tensor, mostly zero, over Z (integer
    cells) or Q (fractional cells); with `antisymmetric`, c[j][i] = -c[i][j]
    and c[i][i] = 0.  Jacobi is not imposed.  `cells` overrides the entries."""
    r = draw(st.integers(1, 5))
    domain = draw(st.sampled_from(["Z", "Q"]))
    if cells is None:
        cells = INTS if domain == "Z" else FRACS
    c = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
    spots = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.integers(0, r - 1), cells)
    for i, j, k, x in draw(st.lists(spots, max_size=2 * r * r)):
        if antisymmetric:
            if i == j:
                continue
            c[j][i][k] = -x
        c[i][j][k] = x
    return tuple(tuple(tuple(v) for v in row) for row in c), r, domain


def lattice_of(c, r, domain):
    return tensor_lattice(tuple(f"x{i}" for i in range(r)), c, domain)


def vectors(r):
    """Vectors with zeros, negative and fractional entries; the zero vector
    is one of them."""
    entry = st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction) | FRACS
    sparse = st.lists(entry, min_size=r, max_size=r)
    return (sparse | st.just([Fraction(0)] * r)).map(tuple)


@TENSORS
@given(tensors(), st.data())
def test_bracket_brackets_and_ad_match_dense_loop(tensor, data):
    c, r, domain = tensor
    L = lattice_of(c, r, domain)
    us = data.draw(st.lists(vectors(r), min_size=1, max_size=3))
    vs = data.draw(st.lists(vectors(r), min_size=1, max_size=3))
    batch = L.bracket_rows(ExactMatrix.from_rows(us, cols=r), ExactMatrix.from_rows(vs, cols=r))
    assert list(batch.entries) == [ref_bracket(c, u, v) for u in us for v in vs]
    assert (batch.num, batch.den, batch.cols) == checked_storage(batch)
    assert all(isinstance(x, Fraction) for w in batch.entries for x in w)
    assert L.bracket(us[0], vs[0]) == ref_bracket(c, us[0], vs[0])
    for u, ad_u in zip(us, L.ad_rows(ExactMatrix.from_rows(us, cols=r))):
        columns = [ref_bracket(c, u, unit(r, j)) for j in range(r)]
        assert [list(row) for row in ad_u.entries] == [[col[k] for col in columns] for k in range(r)]


def int_rows(r):
    """Up to four sparse int rows of length r: single-entry rows, unit rows
    among them, rows with several entries, and the empty row."""
    single = st.tuples(st.integers(0, r - 1), st.sampled_from([1, 1, -1, 2, -3]))
    several = st.dictionaries(st.integers(0, r - 1), st.integers(-3, 3).filter(bool), max_size=r)
    return st.lists(single.map(lambda t: {t[0]: t[1]}) | several, max_size=4)


@TENSORS
@given(tensors(), st.data())
def test_single_term_brackets_match_the_general_loop(tensor, data):
    """A pair of single-entry rows is read off one table row; every pair
    summed term by term gives the same matrix, on any tensor."""
    c, r, domain = tensor
    L = lattice_of(c, r, domain)
    A, B = (
        ExactMatrix.from_ints(data.draw(int_rows(r)), r, data.draw(st.integers(1, 3)))
        for _ in range(2)
    )
    got = L.bracket_rows(A, B)
    assert got == ref_brackets(L, [(a, b) for a in A.num for b in B.num], A.den * B.den)
    assert (got.num, got.den, got.cols) == checked_storage(got)
    pairs = [(a, b) for p, a in enumerate(A.num) for b in A.num[p + 1 :]]
    assert L._pair_brackets(A) == ref_brackets(L, pairs, A.den**2)


@pytest.mark.parametrize("name", catalog.names())
def test_strict_ado_leaves_the_input_table_unchanged(name):
    """The bracket of two unit rows is the table row itself, shared with
    the result; nothing the construction or the checkers do with such a
    result may write to it."""
    L = catalog.get(name).lattice
    before = copy.deepcopy(L.table.num)
    ado_representation(L, strict=True)
    assert L.table.num == before


def check_validate(c, r, domain):
    report = validate(lattice_of(c, r, domain))
    anti, jac, integ = ref_validate(c, domain == "Z")
    assert report.antisymmetry_violations == tuple(anti)
    assert report.jacobi_violations == tuple(jac)
    assert report.integrality_violations == tuple(integ)


@TENSORS
@given(tensors())
def test_validate_matches_reference_on_any_tensor(tensor):
    check_validate(*tensor)


@TENSORS
@given(tensors(antisymmetric=True))
def test_validate_matches_reference_on_antisymmetric_tensors(tensor):
    check_validate(*tensor)


@TENSORS
@given(tensors(antisymmetric=True, cells=FRACS))
def test_validate_matches_reference_on_fractional_constants(tensor):
    # over Z every fractional constant is an integrality violation
    check_validate(*tensor)


@pytest.mark.parametrize("name", catalog.names())
def test_validate_matches_reference_on_catalog(name):
    L = catalog.get(name).lattice
    check_validate(L.c, L.rank, L.domain)
    assert validate(L).ok
    check_validate(L.c, L.rank, "Q")


@st.composite
def derivation_cases(draw):
    """(c, r, D): a catalog lattice with ad_v (a derivation), ad_v with one
    entry moved, or a random matrix; or a random tensor with the zero matrix
    or a random matrix."""
    kind = draw(st.sampled_from(["inner", "moved", "random", "tensor"]))
    if kind == "tensor":
        c, r, _ = draw(tensors())
        zero = st.just([[Fraction(0)] * r for _ in range(r)])
        D = draw(zero | st.lists(vectors(r), min_size=r, max_size=r))
        return c, r, [list(row) for row in D]
    L = catalog.get(draw(st.sampled_from(catalog.names()))).lattice
    r = L.rank
    if kind == "random":
        return L.c, r, [list(row) for row in draw(st.lists(vectors(r), min_size=r, max_size=r))]
    D = [list(row) for row in ad(L, draw(vectors(r))).entries]
    if kind == "moved":
        D[draw(st.integers(0, r - 1))][draw(st.integers(0, r - 1))] += draw(FRACS)
    return L.c, r, D


@TENSORS
@given(derivation_cases())
def test_check_derivation_matches_dense_leibniz(case):
    c, r, D = case
    L = lattice_of(c, r, "Q")
    assert check_derivation(L, ExactMatrix.from_rows(D, cols=r)) == ref_is_derivation(c, D)


@pytest.mark.parametrize(
    "brackets, entry",
    [({(0, 1): [0, 0, 1, 0]}, (0, 3)), ({(1, 2): [0, 0, 0, 1]}, (1, 0))],
    ids=["column j only", "column i only"],
)
def test_check_derivation_reads_a_pair_with_one_nonzero_column(brackets, entry):
    """Heisenberg plus a central x3 (or a central x0 plus Heisenberg), and D
    whose one nonzero entry D[a][b] = 1 maps x_b to x_a: D x3 = x0 breaks
    Leibniz only at (1, 3), and D x0 = x1 only at (0, 2), pairs whose
    bracket and other column of D are 0."""
    L = lie_lattice([f"x{i}" for i in range(4)], brackets)
    D = [[int((a, b) == entry) for b in range(4)] for a in range(4)]
    assert check_derivation(L, ExactMatrix.from_rows(D)) is ref_is_derivation(L.c, D) is False


@pytest.mark.parametrize("name", catalog.names())
def test_inner_derivations_pass_check_derivation(name):
    L = catalog.get(name).lattice
    for i in range(L.rank):
        assert check_derivation(L, ad(L, unit(L.rank, i)))
        assert check_derivation(L, ad(L, vector([Fraction(1, i + 2)] * L.rank)))


def test_brackets_rejects_any_dimension_mismatch():
    L = h3()
    good, short, long = unit(3, 0), unit(2, 0), unit(4, 0)
    G = ExactMatrix.from_rows([good, good])
    for bad in (short, long):
        B = ExactMatrix.from_rows([bad])
        for A, C in ((B, G), (G, B), (B, B)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                L.bracket_rows(A, C)
        for u, v in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                L.bracket(u, v)
        with pytest.raises(ValueError, match="dimension mismatch"):
            L.ad_rows(ExactMatrix.from_rows([bad]))
    # a ragged list of vectors is no matrix
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([good, short])
    empty = ExactMatrix.zero(0, 3)
    assert L.bracket_rows(empty, G) == L.bracket_rows(G, empty) == empty


def test_c_view_is_outside_equality_hash_repr_and_pickles():
    # catalog lattices are shared between tests; replace gives new objects
    L = dataclasses.replace(catalog.get("churkin_sl2_t2").lattice)
    fresh = dataclasses.replace(L)
    before = (hash(L), repr(L))
    assert "c" not in L.__dict__
    dense = L.c
    assert L.__dict__["c"] is dense and L.c is dense and "c" not in fresh.__dict__
    assert L == fresh and (hash(L), repr(L)) == before == (hash(fresh), repr(fresh))
    assert "Fraction" not in repr(L)
    for copy in (pickle.loads(pickle.dumps(L)), pickle.loads(pickle.dumps(fresh))):
        assert copy == L and hash(copy) == hash(L) and copy.table == L.table
        assert copy.c == dense
    H = h3()
    thirds = tuple(tuple(tuple(x / 3 for x in v) for v in row) for row in H.c)
    third = tensor_lattice(H.names, thirds, "Q")
    assert H.table.den == 1 and third.table.den == 3 and third.table.num == H.table.num
    assert third.c == thirds


# -- one stored table, one value per lattice -------------------------------


@TENSORS
@given(tensors())
def test_the_table_is_the_one_store_and_c_its_view(tensor):
    c, r, domain = tensor
    L = lattice_of(c, r, domain)
    assert [f.name for f in dataclasses.fields(LieLattice)] == ["names", "table", "domain"]
    assert L.c == c
    assert all(isinstance(x, Fraction) for row in L.c for v in row for x in v)
    assert L.table == ref_table(c)
    assert L.to_field().table is L.table


def construction_paths(L):
    """L rebuilt by every constructor: `lie_lattice` from its pairs i < j,
    the constructor on its brackets, `change_basis` by the identity
    (renamed back), a pickle round trip and the dense-tensor helper."""
    r = L.rank
    I = ExactMatrix.identity(r)
    upper = {(i, j): L.c[i][j] for i in range(r) for j in range(i + 1, r) if any(L.c[i][j])}
    return [
        lie_lattice(L.names, upper, L.domain),
        LieLattice(L.names, L.bracket_rows(I, I), L.domain),
        dataclasses.replace(change_basis(L, I), names=L.names),
        pickle.loads(pickle.dumps(L)),
        tensor_lattice(L.names, L.c, L.domain),
    ]


HALF_H3 = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, Fraction(1, 2)], (0, 2): ["-3/4", 0, 0]}, "Q")


@pytest.mark.parametrize("name", [*catalog.names(), "half_h3"])
def test_every_construction_path_gives_one_value(name):
    L = HALF_H3 if name == "half_h3" else catalog.get(name).lattice
    for lattice in (L, L.to_field()):
        for built in construction_paths(lattice):
            assert built == lattice and hash(built) == hash(lattice)
            assert built.table == lattice.table and built.c == lattice.c


@pytest.mark.parametrize("name", catalog.names())
@pytest.mark.parametrize("domain", ["Z", "Q"])
def test_the_table_is_the_bracket_matrix_on_every_construction_path(name, domain):
    # every constructor stores c[i][j] in row i*r + j, the matrix that
    # `bracket_rows(I, I)` recomputes from the table
    L = catalog.get(name).lattice
    L = L if domain == "Z" else L.to_field()
    r = L.rank
    upper = {(i, j): L.c[i][j] for i in range(r) for j in range(i + 1, r) if any(L.c[i][j])}
    unimodular = ExactMatrix.from_rows([[int(j in (i, i + 1)) for j in range(r)] for i in range(r)])
    built = [
        lie_lattice(L.names, upper, L.domain),
        change_basis(L, unimodular),
        scale_lattice(L, 3),
        L.to_field(),
        pickle.loads(pickle.dumps(L)),
    ]
    for term in lower_central_series(L):
        built += [subalgebra_lattice(L, term)[0], quotient_lattice(L, term)[0]]
    # L extended by one vector y acting as the inner derivation ad x_0
    D = ad(L, unit(r, 0))
    ext = semidirect_assemble(L, lie_lattice(["y"], {}, L.domain), [D])
    N, S, action = split_semidirect(ext, r)
    assert N == L and S.rank == 1 and action == [D]
    for M in [*built, ext, N, S]:
        I = ExactMatrix.identity(M.rank)
        assert M.table == M.bracket_rows(I, I)


def test_constructor_rejects_a_table_of_the_wrong_shape():
    for rows, cols in ((4, 3), (3, 2), (2, 2), (8, 2), (0, 2)):
        with pytest.raises(ValueError, match=r"rank\^2 rows of length rank"):
            LieLattice(("x", "y"), ExactMatrix.zero(rows, cols))
    assert LieLattice(["x", "y"], ExactMatrix.zero(4, 2)).names == ("x", "y")


def test_validate_lists_integrality_triples_in_order_from_unsorted_rows():
    # [x_0, x_1] = (x_1 + x_2) / 2, its row's keys stored as 2 before 1
    rows = [{} for _ in range(9)]
    rows[0 * 3 + 1] = {2: 1, 1: 1}
    rows[1 * 3 + 0] = {2: -1, 1: -1}
    L = LieLattice(("x", "y", "z"), ExactMatrix.from_ints(rows, 3, 2))
    assert L.table.den == 2 and list(L.table.num[1]) == [2, 1]
    report = validate(L)
    assert report.integrality_violations == ((0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 0, 2))
    assert not report.antisymmetry_violations and not report.jacobi_violations
    anti, jac, integ = ref_validate(L.c, True)
    assert list(report.integrality_violations) == integ and not anti and not jac


def test_lie_lattice_rejects_bad_keys_and_lengths():
    for key in ((1, 0), (0, 0), (-1, 1), (0, 3)):
        with pytest.raises(ValueError, match="must satisfy"):
            lie_lattice(["x", "y", "z"], {key: [0, 0, 1]})
    for coeffs in ([0, 1], [0, 0, 0, 1]):
        with pytest.raises(ValueError, match="wrong length"):
            lie_lattice(["x", "y", "z"], {(0, 1): coeffs})


def test_lattice_rejects_a_domain_other_than_z_or_q():
    # rejected where the lattice is built, not deep inside a later span
    for domain in ("R", "z", ""):
        with pytest.raises(ValueError, match="domain must be 'Z' or 'Q'"):
            lie_lattice(["a", "b"], {(0, 1): [0, 1]}, domain)
        with pytest.raises(ValueError, match="domain must be 'Z' or 'Q'"):
            dataclasses.replace(catalog.sl2(), domain=domain)
    assert lie_lattice(["a", "b"], {(0, 1): [0, 1]}, "Q").domain == "Q"


# -- brackets of the pairs i < j against all ordered pairs -----------------


def all_pairs_span(c, S):
    """The span of the dense brackets of all ordered pairs of basis vectors."""
    rows = S.basis.entries
    brackets = [ref_bracket(c, u, v) for u in rows for v in rows]
    return span(brackets, S.ambient_rank, S.domain), brackets


@TENSORS
@given(tensors(antisymmetric=True), st.data())
def test_pair_brackets_match_all_ordered_pairs(tensor, data):
    c, r, domain = tensor
    L = lattice_of(c, r, domain)
    cells = INTS if domain == "Z" else FRACS
    drawn = data.draw(st.lists(st.lists(cells, min_size=r, max_size=r), min_size=1, max_size=r))
    full = Submodule.full(r, domain)
    derived, _ = all_pairs_span(c, full)
    # a line, the whole module and [L, L] are closed; drawn spans may not be
    candidates = [span(drawn, r, domain), span(drawn[:1], r, domain), full, derived]
    for S in candidates:
        spanned, brackets = all_pairs_span(c, S)
        assert is_subalgebra(L, S) == S.contains_rows(ExactMatrix.from_rows(brackets, cols=r))
        assert Submodule.of_rows(L._pair_brackets(S.basis), domain) == spanned
    assert is_subalgebra(L, candidates[1]) and is_subalgebra(L, full) and is_subalgebra(L, derived)
    assert derived_series(L) == ref_derived_series(L, full)


@pytest.mark.parametrize("domain", ["Z", "Q"])
def test_is_subalgebra_on_a_closed_and_an_open_plane(domain):
    # in h3, [x, z] = 0 closes span(x, z) and [x, y] = z leaves span(x, y)
    L = h3() if domain == "Z" else h3().to_field()
    closed = span([unit(3, 0), unit(3, 2)], 3, domain)
    open_plane = span([unit(3, 0), unit(3, 1)], 3, domain)
    assert is_subalgebra(L, closed) and not is_subalgebra(L, open_plane)
    assert all_pairs_span(L.c, open_plane)[0] == span([unit(3, 2)], 3, domain)


# -- the radicals against dense references ---------------------------------


def t2_power(k):
    L = catalog.t2_upper()
    for _ in range(k - 1):
        L = direct_sum(L, catalog.t2_upper())
    return L


def shears(n, triples):
    """The product of the integer shears I + x E_ij: determinant one."""
    M = ExactMatrix.identity(n)
    for i, j, x in triples:
        if i != j:
            rows = [list(row) for row in ExactMatrix.identity(n).entries]
            rows[i][j] = Fraction(x)
            M = M * ExactMatrix.from_rows(rows)
    return M


@st.composite
def unimodular(draw, n):
    """A product of integer shears: determinant one."""
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    return shears(n, draw(st.lists(triples, min_size=n, max_size=2 * n)))


def integer_points(S):
    """The Z-module of the integer points of the Q-span of S."""
    num = ExactMatrix.from_ints(S.basis.num, S.ambient_rank)
    return Submodule.of_rows(num, "Z").saturate()


def check_nilradical_matches_reference(L):
    """R_s against the Killing-form reference and R_n against the full
    adjoint envelope, over Z and over Q; the Z-radicals are the integer
    points of the Q-radicals of `to_field()`."""
    radicals = {}
    for K in (L, L.to_field()):
        rs = solvable_radical(K)
        assert rs == ref_solvable_radical(K)
        rn = nilradical(K, rs)
        assert rn == ref_nilradical(K)
        radicals[K.domain] = rs, rn
    if L.domain == "Z":
        assert radicals["Z"] == tuple(integer_points(S) for S in radicals["Q"])


def check_envelope_spans_the_two_sided_closure(L):
    """The envelope of ad(R_s), closed by right products, spans what the
    two-sided oracle closure spans."""
    r = L.rank
    gens = L.ad_rows(solvable_radical(L).basis)
    got = [[list(row) for row in M.entries] for M in _matrix_algebra_closure(gens)]
    want = ref_matrix_algebra_closure([[list(row) for row in M.entries] for M in gens], r)
    flat = [[x for row in M for x in row] for M in got + want]
    assert len(got) == len(want) == ref_rank(flat[: len(got)], r * r) == ref_rank(flat, r * r)


@pytest.mark.parametrize("name", catalog.names())
def test_nilradical_matches_reference_on_catalog(name):
    """On the lattice and on its strict extension, whose envelopes the
    strict path builds."""
    L = catalog.get(name).lattice
    for K in (L, ado_representation(L, strict=True)[2].extension):
        check_nilradical_matches_reference(K)
        check_envelope_spans_the_two_sided_closure(K)


def test_z_radicals_saturate_the_numerators_of_the_rational_radicals():
    # in this basis of churkin_sl2_t2 the numerators of both Q-radicals span
    # a sublattice of index > 1 in their integer points
    P = shears(6, [(1, 3, -2), (3, 2, 2), (4, 1, 2), (3, 2, -2)])
    L = change_basis(catalog.churkin_sl2_t2(), P)
    for radical, reference in ((solvable_radical, ref_solvable_radical), (rn_of, ref_nilradical)):
        Q = radical(L.to_field())
        numerators = Submodule.of_rows(ExactMatrix.from_ints(Q.basis.num, L.rank), "Z")
        assert numerators.saturate() != numerators
        assert radical(L) == integer_points(Q) == numerators.saturate() == reference(L)


SCRAMBLE_BASES = {
    "t2^2": lambda: t2_power(2),
    "t2^3": lambda: t2_power(3),
    "churkin_sl2_t2": catalog.churkin_sl2_t2,
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(SCRAMBLE_BASES)), st.data())
def test_nilradical_matches_reference_on_scrambled_bases(name, data):
    L = SCRAMBLE_BASES[name]()
    check_nilradical_matches_reference(change_basis(L, data.draw(unimodular(L.rank))))


def check_derived_chains_match_reference(L):
    """The derived series and the derived chains of the radicals and the
    center, over Z and over Q, against the chains of all ordered pairs."""
    for K in (L, L.to_field()):
        assert derived_series(K) == ref_derived_series(K, Submodule.full(K.rank, K.domain))
        for S in (solvable_radical(K), rn_of(K), center(K)):
            assert bracket_series(K, S) == ref_derived_series(K, S)


@pytest.mark.parametrize("name", catalog.names())
def test_derived_chains_match_the_all_pairs_reference_on_catalog(name):
    check_derived_chains_match_reference(catalog.get(name).lattice)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(catalog.names()), st.data())
def test_derived_chains_match_the_all_pairs_reference_on_scrambled_bases(name, data):
    L = catalog.get(name).lattice
    check_derived_chains_match_reference(change_basis(L, data.draw(unimodular(L.rank))))


def square_int_matrices(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(square_int_matrices), st.booleans())
def test_nilradical_matches_reference_on_random_solvable_lattices(action, with_sl2):
    # Z^n x| Z with a random action, as in test_nilradical_on_random_solvable_lattices;
    # beside sl2 it is the radical of a lattice that is not solvable
    n = len(action)
    y = lie_lattice(["y"], {})
    L = semidirect_assemble(catalog.abelian(n), y, [ExactMatrix.from_rows(action)])
    L = direct_sum(sl2(), L) if with_sl2 else L
    check_nilradical_matches_reference(L)
    check_envelope_spans_the_two_sided_closure(L)


def strictly_upper_int_matrices(n):
    """n x n integer matrices that vanish on and below the diagonal: the
    nilpotent derivations of Z^n used below."""
    return st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda xs: [[xs[i * n + j] if j > i else 0 for j in range(n)] for i in range(n)]
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(strictly_upper_int_matrices), st.booleans(), st.data())
def test_nilradical_of_a_nilpotent_lattice_skips_the_envelope(action, with_h3, data):
    """Z^n x| Z with a nilpotent action is nilpotent; its lower central
    series from [L, L] reaches 0, so `nilradical` returns L without building
    the envelope, and agrees with the reference in a scrambled basis too."""
    import adorep.lie_core

    def unreachable(gens):
        raise AssertionError("envelope built for a nilpotent lattice")

    y = lie_lattice(["y"], {})
    L = semidirect_assemble(catalog.abelian(len(action)), y, [ExactMatrix.from_rows(action)])
    if with_h3:
        L = direct_sum(h3(), L)
    L = change_basis(L, data.draw(unimodular(L.rank)))
    assert is_nilpotent(L)
    with mock.patch.object(adorep.lie_core, "_matrix_algebra_closure", unreachable):
        check_nilradical_matches_reference(L)
        assert rn_of(L) == Submodule.full(L.rank, "Z")


@pytest.mark.parametrize("name", catalog.names())
def test_nilradical_builds_the_envelope_only_off_the_nilpotent_path(name, monkeypatch):
    import adorep.lie_core

    L = catalog.get(name).lattice
    built = []
    real = adorep.lie_core._matrix_algebra_closure
    monkeypatch.setattr(adorep.lie_core, "_matrix_algebra_closure", lambda g: built.append(g) or real(g))
    assert rn_of(L) == ref_nilradical(L)
    if is_nilpotent(L):
        assert not built


@pytest.mark.parametrize("name", catalog.names())
def test_solvable_radical_builds_the_killing_form_only_off_the_solvable_path(name, monkeypatch):
    """A derived series that reaches 0 is the radical's whole computation;
    otherwise the Cartan conditions need the Killing form."""
    import adorep.lie_core

    L = catalog.get(name).lattice
    built = []
    monkeypatch.setattr(adorep.lie_core, "killing_form", lambda K: built.append(K) or killing_form(K))
    rs = solvable_radical(L)
    assert rs == ref_solvable_radical(L)
    solvable = derived_series(L)[-1].is_zero()
    assert (rs == Submodule.full(L.rank, "Z")) == solvable
    assert len(built) == (0 if solvable else 1)
