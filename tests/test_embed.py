import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog
from adorep.embed import (
    ExpansionError,
    _derivative,
    _exact_quotient,
    _integer_gcd,
    _primitive,
    _nilpotent_central_terms,
    elementary_expansion,
    embed_splittable,
    initial_state,
    integral_rescale,
    jordan_chevalley,
    levi_decomposition,
    minimal_polynomial,
)
from adorep.exact_linalg import (
    ExactMatrix,
    Submodule,
    rank,
    solve_left,
    stack_rows,
    vector,
)
from adorep.lie_core import (
    Known,
    LatticeValidationError,
    change_basis,
    check_derivation,
    direct_sum,
    is_nilpotent_submodule,
    is_subalgebra,
    lie_lattice,
    nilradical,
    semidirect_assemble,
    solvable_radical,
    split_semidirect,
    subalgebra_lattice,
    unit,
    validate,
)
from adorep.pbw import build_weighted_basis
from adorep.pipeline import ado_representation, verify_certificate

from oracles import (
    acceptance_entries,
    derivation_basis,
    is_nilpotent,
    is_squarefree,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    power,
    ref_avoid,
    ref_expansion_checks,
    ref_levi_facts,
    ref_mu_search,
    ref_rescale_facts,
    ref_rescale_nilpotency,
    ref_state_invariants,
    ref_step_facts,
    ref_unimodular,
    ref_zprimes,
    span,
    tensor_lattice,
    theorem_inputs,
)


def start(L):
    """The unexpanded state of the Z-lattice L, from its radicals."""
    return initial_state(L, *Known().radicals(L))


def levi(LQ):
    """The Levi complement of the Q-algebra LQ, from its solvable radical."""
    return levi_decomposition(LQ, solvable_radical(LQ))


def jordan_block(eig, size):
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(eig)
        if i + 1 < size:
            rows[i][i + 1] = Fraction(1)
    return ExactMatrix.from_rows(rows)


def random_unimodular(rng, n):
    """Product of elementary shears; determinant one, exact integer inverse."""
    M = ExactMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
        E[i][j] = Fraction(rng.randint(-2, 2))
        M = M * ExactMatrix.from_rows(E)
    return M


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(lambda p: p[-1]),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(-50, 50).filter(bool),
)
def test_integer_squarefree_part_matches_the_fraction_reference(factors, scale):
    """m / gcd(m, m') in integers, for m a constant times a product of
    powers of small factors, is a constant multiple of the squarefree part
    that `poly_gcd` and `poly_divmod` give over Q."""
    m = [scale]
    for factor, times in factors:
        for _ in range(times):
            prod = [0] * (len(m) + len(factor) - 1)
            for i, x in enumerate(m):
                for j, y in enumerate(factor):
                    prod[i + j] += x * y
            m = prod
    m = _primitive(m)
    f = _exact_quotient(m, _integer_gcd(m, _primitive(_derivative(m))))
    q = [Fraction(x) for x in m]
    want = poly_divmod(q, poly_gcd(q, poly_derivative(q)))[0]
    assert [Fraction(x, f[-1]) for x in f] == [x / want[-1] for x in want]


def test_jordan_chevalley_examples():
    A = ExactMatrix.from_rows([[1, 1], [0, 1]])
    S, N = jordan_chevalley(A)
    assert S == ExactMatrix.identity(2)
    assert N == ExactMatrix.from_rows([[0, 1], [0, 0]])

    D = ExactMatrix.from_rows([[2, 0], [0, -5]])
    S, N = jordan_chevalley(D)
    assert S == D and N.is_zero()

    Nil = ExactMatrix.from_rows([[0, 1], [0, 0]])
    S, N = jordan_chevalley(Nil)
    assert S.is_zero() and N == Nil


def test_jordan_chevalley_properties_random():
    rng = random.Random(314)
    for trial in range(40):
        n = rng.randint(1, 5)
        if trial % 2 == 0:
            A = ExactMatrix.from_rows(
                [
                    [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)]
                    for _ in range(n)
                ]
            )
        else:
            blocks = []
            left = n
            while left:
                size = rng.randint(1, left)
                blocks.append(jordan_block(rng.randint(-2, 2), size))
                left -= size
            from adorep.exact_linalg import block_diag

            J = blocks[0]
            for b in blocks[1:]:
                J = block_diag(J, b)
            P = random_unimodular(rng, n)
            from adorep.exact_linalg import invert

            A = P * J * invert(P)
        S, N = jordan_chevalley(A)
        assert S + N == A
        assert S * N == N * S
        assert power(N, n).is_zero()
        assert is_squarefree([Fraction(x) for x in minimal_polynomial(S)])
        # S is a polynomial in A: solve for the coefficients
        m = minimal_polynomial(A)
        powers = []
        acc = ExactMatrix.identity(n)
        for _ in range(len(m) - 1):
            powers.append(tuple(x for row in acc.entries for x in row))
            acc = acc * A
        target = tuple(x for row in S.entries for x in row)
        assert solve_left(ExactMatrix.from_rows(powers), target) is not None


def test_levi_examples():
    sl2 = catalog.sl2().to_field()
    assert levi(sl2).rank == 3

    solv = catalog.solv2().to_field()
    assert levi(solv).rank == 0

    both = direct_sum(catalog.sl2(), catalog.solv2()).to_field()
    rad, complement = solvable_radical(both), levi(both)
    assert rad.rank == 2 and complement.rank == 3
    assert is_subalgebra(both, complement)
    assert Submodule.of_rows(stack_rows([rad.basis, complement.basis]), rad.domain).rank == 5


def test_levi_with_nontrivial_correction():
    # sl2 acting on its standard 2-dim module, then an obfuscating basis change
    act = [
        ExactMatrix.from_rows(m)
        for m in ([[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]])
    ]
    from adorep.lie_core import semidirect_assemble

    aff = semidirect_assemble(catalog.abelian(2), catalog.sl2(), act).to_field()
    complement = levi(aff)
    assert complement.rank == 3
    assert is_subalgebra(aff, complement)
    sub, _ = subalgebra_lattice(aff, complement)
    from adorep.lie_core import killing_form

    assert rank(killing_form(sub)) == 3


def test_levi_complement_is_a_subalgebra_on_every_theorem_input():
    """`levi_decomposition` proves, rather than checks, that its complement
    is a subalgebra (the equation it checks on the lifted section implies
    it); `is_subalgebra` is the oracle here."""
    ranks = []
    for name, L in theorem_inputs():
        LQ = L.to_field()
        complement = levi(LQ)
        assert is_subalgebra(LQ, complement), name
        ranks.append(complement.rank)
    assert max(ranks) > 0


def test_elementary_expansion_solv2():
    state = start(catalog.solv2())
    assert state.N.rank == 2 and state.S.rank == 0 and state.Rn.rank == 1
    new = elementary_expansion(state)
    zprimes = ref_zprimes([state, new])
    assert new.K.rank == 3
    assert new.N.rank == 2  # dim N is unchanged
    assert new.Rn.rank == 2  # dim R_n grew by one
    assert new.S.rank == 1
    assert new.xprimes.rows == 1 and zprimes.rows == 1
    # the chosen y is a (the non-nilpotent direction), d_n = 0
    step = new.trace[0]
    assert step.y == vector([1, 0])
    assert step.nilpotent_part.is_zero()
    assert is_nilpotent_submodule(new.K, new.N)
    # the embedded copy of y = a is x' + z'
    assert new.embedding.take_rows([0]) == new.xprimes + zprimes


def test_elementary_expansion_requires_non_nilpotent():
    state = start(catalog.get("heisenberg3").lattice)
    with pytest.raises(ExpansionError):
        elementary_expansion(state)


@pytest.mark.parametrize("name", ["t2_upper", "solv3_weights", "churkin_sl2_t2"])
def test_elementary_expansion_rejects_a_state_missing_a_nilradical_row(name):
    """A state whose R_n lacks a row of the nilradical is outside the step's
    contract.  The new state's invariants reject it, or the step returns an
    expansion whose claimed R_n is not the nilradical of K2, which the full
    checks (`ref_expansion_checks`) find."""
    state = start(catalog.get(name).lattice)
    returned = []
    for drop in range(state.Rn.rank):
        rows = [row for i, row in enumerate(state.Rn.basis.entries) if i != drop]
        bad = dataclasses.replace(state, Rn=span(rows, state.K.rank, "Q"))
        try:
            after = elementary_expansion(bad)
        except ExpansionError as exc:
            assert str(exc) == "[N, K] escapes the nilpotent radical"
        else:
            assert ref_expansion_checks(bad, after) == (True, True, False)
            returned.append(drop)
    assert returned == {"t2_upper": [0], "churkin_sl2_t2": [0]}.get(name, [])


@pytest.mark.parametrize("name", ["t2_upper", "solv3_weights", "churkin_sl2_t2"])
def test_a_replaced_state_inside_the_loop_escapes_the_nilpotent_radical(monkeypatch, name):
    """A copy made with `dataclasses.replace` inside the loop, its R_n cut
    by a row, is outside the step's contract, but the loop still ends in an
    ExpansionError: the bracket rows read off the step leave the cut R_n."""
    import adorep.embed

    real = adorep.embed.elementary_expansion

    def dropping(state):
        rows = state.Rn.basis.entries[1:]
        return real(dataclasses.replace(state, Rn=span(rows, state.K.rank, "Q")))

    monkeypatch.setattr(adorep.embed, "elementary_expansion", dropping)
    with pytest.raises(ExpansionError, match=r"^\[N, K\] escapes the nilpotent radical$"):
        embed_splittable(catalog.get(name).lattice)


@pytest.mark.parametrize("name", ["t2_upper", "solv3_weights", "churkin_sl2_t2"])
def test_a_direct_step_computes_no_radical_and_no_validation(monkeypatch, name):
    """A step called outside `embed_splittable`, on a state `initial_state`
    returned, is certified from its parts like a step of the loop: it
    validates nothing and computes no nilradical."""
    import adorep.embed
    import adorep.lie_core

    state = start(catalog.get(name).lattice)
    seen = {"validate": 0, "nilradical": 0}
    for fname in seen:
        original = getattr(adorep.lie_core, fname)

        def counting(*args, _original=original, _name=fname, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        for module in (adorep.lie_core, adorep.embed):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, counting)
    after = elementary_expansion(state)
    assert seen == {"validate": 0, "nilradical": 0}
    monkeypatch.undo()
    assert ref_expansion_checks(state, after) == (True, True, True)


def test_embedding_computes_the_radicals_of_the_input_once(monkeypatch):
    """t2_upper takes one expansion: one R_s and one R_n of the input, and
    none of the expanded algebra, which the loop certifies from its parts."""
    import adorep.embed
    import adorep.lie_core

    seen = {"solvable_radical": [], "nilradical": []}
    for name, calls in seen.items():
        original = getattr(adorep.lie_core, name)

        def counting(L, *args, _original=original, _calls=calls):
            _calls.append(L.rank)
            return _original(L, *args)

        for module in (adorep.lie_core, adorep.embed):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    L = catalog.t2_upper()
    cert = embed_splittable(L)
    assert seen == {"solvable_radical": [3], "nilradical": [3]}
    monkeypatch.undo()
    # the stages run on their own from the radicals they are given
    rs, rn = Known().radicals(L)
    state = elementary_expansion(initial_state(L, rs, rn))
    assert integral_rescale(L, state, rn) == cert


def test_given_radicals_give_the_same_certificate():
    """The path `ado_representation` takes, `embed_splittable` handed a
    Known that already holds the validation and the radicals of L, returns
    the certificate that computing them in `embed_splittable` returns, on
    every theorem input, plain and in a random unimodular basis."""
    rng = random.Random(29)
    for name, L in theorem_inputs():
        for M in (L, change_basis(L, random_unimodular(rng, L.rank))):
            known = Known()
            known.require_valid(M)
            known.radicals(M)
            assert embed_splittable(M, known) == embed_splittable(M), name


def test_loop_steps_pass_the_full_checks(monkeypatch):
    """Every step that `embed_splittable` certifies from its parts passes
    the full checks a direct call runs (`ref_expansion_checks`), and a
    direct call on the same state returns an equal state."""
    import adorep.embed

    real = adorep.embed.elementary_expansion
    steps = []

    def recording(state):
        after = real(state)
        steps.append((state, after))
        return after

    monkeypatch.setattr(adorep.embed, "elementary_expansion", recording)
    for name, L in theorem_inputs():
        steps.clear()
        cert = embed_splittable(L)
        assert len(steps) == len(cert.trace), name
        for before, after in steps:
            assert ref_expansion_checks(before, after) == (True, True, True), name
            assert real(before) == after, name


def test_loop_reads_the_state_invariants_off_its_steps(monkeypatch):
    """`initial_state` hands `_check_state_invariants` every bracket of K
    with N, and each step of the loop hands it rows read off the step
    instead of bracketing K2 with new_N.  They span [K2, new_N], so the
    check agrees with the full one (`ref_state_invariants`); a state whose
    R_n is cut to x' fails both."""
    import adorep.embed

    real = adorep.embed._check_state_invariants
    calls = []

    def recording(state, brackets):
        calls.append((state, brackets))
        return real(state, brackets)

    monkeypatch.setattr(adorep.embed, "_check_state_invariants", recording)
    for name, L in theorem_inputs():
        calls.clear()
        cert = embed_splittable(L)
        assert len(calls) == len(cert.trace) + 1, name
        for state, B in calls:
            K, N = state.K, state.N
            full = K.bracket_rows(ExactMatrix.identity(K.rank), N.basis)
            assert Submodule.of_rows(B, "Q") == Submodule.of_rows(full, "Q"), name
            assert ref_state_invariants(state) == (True, True, True), name
    state, B = calls[1]  # the first step's
    xp = state.K.rank - 2
    cut = dataclasses.replace(state, Rn=span([unit(state.K.rank, xp)], state.K.rank, "Q"))
    assert ref_state_invariants(cut) == (True, True, False)
    with pytest.raises(ExpansionError, match="escapes the nilpotent radical"):
        real(cut, B)


def test_checks_proved_by_construction_hold_on_every_stage():
    """The checks the construction no longer runs, because the lines that
    build their rows make them hold (the proofs are in the docstrings of
    `levi_decomposition`, `initial_state`, `elementary_expansion`,
    `integral_rescale` and `build_weighted_basis`), kept as oracles: each
    holds on every stage of every theorem input, plain and in one random
    unimodular basis."""
    rng = random.Random(31)
    for name, L in theorem_inputs():
        for M in (L, change_basis(L, random_unimodular(rng, L.rank))):
            rs, rn = Known().radicals(M)
            states = [initial_state(M, rs, rn)]
            assert ref_levi_facts(states[0].N, states[0].S, M.rank) == (True, True), name
            while states[-1].Rn.rank < states[-1].N.rank:
                states.append(elementary_expansion(states[-1]))
            for state in states:
                assert ref_state_invariants(state) == (True, True, True), name
            for before, after in zip(states, states[1:]):
                assert ref_step_facts(before, after) == (True, True), name
            cert = integral_rescale(M, states[-1], rn)
            assert ref_rescale_facts(states[-1], rn, cert) == (True, True, True, True), name
            block = split_semidirect(cert.extension, cert.nilpotent_rank)[0]
            assert ref_unimodular(build_weighted_basis(block)), name


def test_a_step_avoids_exactly_the_nilpotent_radical():
    """An expansion takes y outside R_n, where it took y outside
    R_n + [N, N] (`ref_avoid`); the state invariant [N, K] inside R_n makes
    the two equal on the state of every step of every theorem input, plain
    and in one random unimodular basis."""
    rng = random.Random(37)
    steps = 0
    for name, L in theorem_inputs():
        for M in (L, change_basis(L, random_unimodular(rng, L.rank))):
            state = initial_state(M, *Known().radicals(M))
            while state.Rn.rank < state.N.rank:
                assert ref_avoid(state) == Submodule.of_rows(state.Rn.basis, "Q"), name
                state = elementary_expansion(state)
                steps += 1
    assert steps > 0


def _abelian_by_diag():
    """Z^2 x| Z with y acting by diag(1, 2): one expansion, on an abelian
    ideal, where every linear map is a derivation."""
    diag = ExactMatrix.from_rows([[1, 0], [0, 2]])
    return semidirect_assemble(catalog.abelian(2), lie_lattice(["y"], {}), [diag])


def test_expansion_rejects_parts_that_do_not_commute(monkeypatch):
    """Parts that sum to ad_y and are derivations of ideal + S, but do not
    commute: the commutator check refuses them, in the loop and in a direct
    call."""
    import adorep.embed

    def skewed(A):
        # x_0 -> x_1 does not commute with diag(1, 2) on the ideal
        X = ExactMatrix.from_rows(
            [[1 if (a, b) == (1, 0) else 0 for b in range(A.rows)] for a in range(A.rows)]
        )
        return A - X, X

    L = _abelian_by_diag()
    assert len(embed_splittable(L).trace) == 1
    monkeypatch.setattr(adorep.embed, "jordan_chevalley", skewed)
    for run in (embed_splittable, lambda L: elementary_expansion(start(L))):
        with pytest.raises(ExpansionError, match="parts of ad_y do not commute"):
            run(L)


def test_expansion_rejects_parts_that_do_not_sum_to_ad_y(monkeypatch):
    """Commuting derivations of ideal + S whose sum is not ad_y: the check
    on the pairs (e_i, y) finds that iota is not a homomorphism, in the loop
    and in a direct call."""
    import adorep.embed

    def shifted(A):
        # the identity on the ideal x_0, x_1, zero on y
        X = ExactMatrix.from_rows(
            [[1 if a == b < 2 else 0 for b in range(A.rows)] for a in range(A.rows)]
        )
        return A + X, ExactMatrix.zero(A.rows, A.rows)

    L = _abelian_by_diag()
    monkeypatch.setattr(adorep.embed, "jordan_chevalley", shifted)
    for run in (embed_splittable, lambda L: elementary_expansion(start(L))):
        with pytest.raises(ExpansionError, match="expansion embedding is not a homomorphism"):
            run(L)


def test_rescale_nilpotency_matches_the_old_checks():
    """The two saturated nilpotency checks that the one unsaturated chain
    of `integral_rescale` replaced hold on every certificate, and that
    chain accepts exactly the lattices `is_nilpotent` accepts."""
    causes = set()
    for name, L in theorem_inputs():
        rs, rn = Known().radicals(L)
        state = initial_state(L, rs, rn)
        while state.Rn.rank < state.N.rank:
            state = elementary_expansion(state)
        cert = integral_rescale(L, state, rn)
        assert ref_rescale_nilpotency(state, rn, cert) == (True, True), name
        try:
            _nilpotent_central_terms(L)
            accepted = True
        except (ExpansionError, LatticeValidationError) as exc:
            accepted = False
            causes.add(type(exc))
        assert accepted == is_nilpotent(L), name
    # both ways to fail are reached: a repeated nonzero term, and a chain
    # that keeps shrinking in index
    assert causes == {ExpansionError, LatticeValidationError}


def test_elementary_expansion_solv3():
    state = start(catalog.solv3_weights())
    new = elementary_expansion(state)
    assert new.K.rank == 4
    assert new.Rn.rank == 3
    step = new.trace[0]
    assert step.nilpotent_part.is_zero()  # ad_a is semisimple
    assert is_nilpotent_submodule(new.K, new.N)


def test_embed_nilpotent_identity_certificate():
    for name in ("heisenberg3", "heisenberg5", "n3_strictly_upper"):
        L = catalog.get(name).lattice
        cert = embed_splittable(L)
        assert cert.mu == 1 and cert.lam == 1
        assert len(cert.trace) == 0
        assert cert.extension.rank == L.rank
        assert cert.nilpotent_rank == L.rank
        assert cert.injection == ExactMatrix.identity(L.rank)
        assert cert.extension == _relabel(L, cert.extension.names)


def _relabel(L, names):
    return tensor_lattice(names, L.c, L.domain)


def test_embed_h3_plus_center():
    L = direct_sum(catalog.get("heisenberg3").lattice, catalog.abelian(1))
    cert = embed_splittable(L)
    assert cert.mu == 1 and cert.lam == 1 and not cert.trace
    assert cert.nilpotent_rank == 4


def test_embed_solv2_by_hand():
    L = catalog.solv2()
    cert = embed_splittable(L)
    assert cert.extension.rank == 3
    assert cert.nilpotent_rank == 2
    assert cert.mu == 1 and cert.lam == 1
    # injection: a maps to x' + z', b maps to b
    inj = cert.injection
    assert inj.entries[1] == vector([1, 0, 0])
    assert inj.entries[0] == vector([0, 1, 1])
    # the complement acts on the nilpotent block by b -> b, x' -> 0
    ext = cert.extension
    assert ext.bracket(unit(3, 2), unit(3, 0)) == vector([1, 0, 0])
    assert ext.bracket(unit(3, 2), unit(3, 1)) == vector([0, 0, 0])


def test_extension_is_the_semidirect_sum_of_its_split():
    """The extension is the one sublattice [nbar; sbar], and each expansion
    is a semidirect sum that keeps dim N."""
    from adorep.lie_core import semidirect_assemble, split_semidirect

    for name in catalog.names():
        cert = embed_splittable(catalog.get(name).lattice)
        parts = split_semidirect(cert.extension, cert.nilpotent_rank)
        assert semidirect_assemble(*parts) == cert.extension, name
        assert all(step.dim_n_before == step.dim_n_after for step in cert.trace), name


def test_parts_of_ad_y_are_derivations_of_the_whole_algebra():
    """The Leibniz check on all of K that each expansion used to run, kept
    as an oracle: replayed on every step, it never fails, so checking the
    parts on ideal + S alone accepts the same inputs."""
    for name, L in theorem_inputs():
        state = start(L)
        while state.Rn.rank < state.N.rank:
            K = state.K
            state = elementary_expansion(state)
            step = state.trace[-1]
            assert check_derivation(K, step.semisimple_part), (name, step.index)
            assert check_derivation(K, step.nilpotent_part), (name, step.index)


def test_expansion_rejects_a_part_that_is_not_a_derivation(monkeypatch):
    # ds + I is no derivation of the non-abelian ideal + S of t2 + t2
    import adorep.embed

    real = adorep.embed.jordan_chevalley

    def shifted(A):
        ds, dn = real(A)
        return ds + ExactMatrix.identity(A.rows), dn

    monkeypatch.setattr(adorep.embed, "jordan_chevalley", shifted)
    with pytest.raises(RuntimeError, match="construction failed: .* is not a derivation"):
        embed_splittable(direct_sum(catalog.t2_upper(), catalog.t2_upper()))


def test_embed_all_catalog_certificates():
    for entry in acceptance_entries():
        cert = embed_splittable(entry.lattice)
        report = verify_certificate(cert)
        assert report.ok, f"{entry.name}: {report.checks()}"
        assert cert.nilpotent_rank == entry.expected["rs_rank"]


def test_loop_variant_across_catalog():
    for entry in acceptance_entries():
        cert = embed_splittable(entry.lattice)
        expected_steps = entry.expected["rs_rank"] - entry.expected["rn_rank"]
        assert len(cert.trace) == expected_steps
        for step in cert.trace:
            assert step.dim_n_before == step.dim_n_after
            assert step.dim_rn_after == step.dim_rn_before + 1


def test_expansion_structural_invariants():
    for entry in acceptance_entries():
        L = entry.lattice
        states = [start(L)]
        while not is_nilpotent_submodule(states[-1].K, states[-1].N):
            states.append(elementary_expansion(states[-1]))
        state = states[-1]
        K = state.K
        # the z' vectors commute with the whole complement, which contains
        # both the other z' and the Levi part
        for z in ref_zprimes(states).entries:
            for s in state.S.basis.entries:
                assert all(x == 0 for x in K.bracket(z, s))
        # each [x'_j, image of L] lands inside the image of R_n(L)
        rn_img = Submodule.of_rows(nilradical(L, solvable_radical(L)).basis * state.embedding, "Q")
        assert rn_img.contains_rows(K.bracket_rows(state.xprimes, state.embedding))
        # dim R_n of the expanded algebra equals rk R_s(L)
        assert state.Rn.rank == solvable_radical(L).rank
        assert nilradical(K, solvable_radical(K)) == state.Rn


def test_jc_parts_of_derivations_are_derivations():
    rng = random.Random(8)
    for name in ("solv2", "t2_upper", "solv3_weights", "churkin_sl2_t2"):
        L = catalog.get(name).lattice.to_field()
        basis = derivation_basis(L)
        for _ in range(5):
            D = ExactMatrix.zero(L.rank, L.rank)
            for B in basis:
                D = D + B.scale(rng.randint(-2, 2))
            S, N = jordan_chevalley(D)
            assert check_derivation(L, S)
            assert check_derivation(L, N)


def test_scalar_search_mu_nontrivial():
    # [a,b] = 2b still rescales trivially
    L = lie_lattice(["a", "b"], {(0, 1): [0, 2]})
    cert = embed_splittable(L)
    report = verify_certificate(cert)
    assert report.ok
    assert cert.extension.rank == 3


def test_scalar_search_with_fractional_jc_parts():
    # y acting on an abelian rank-4 block by the companion matrix of
    # (T^2-2)^2: the semisimple part has denominators 4, forcing mu = 4
    C = ExactMatrix.from_rows(
        [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]
    )
    S, N = jordan_chevalley(C)
    assert not S.is_integral
    from adorep.lie_core import semidirect_assemble

    L = semidirect_assemble(catalog.abelian(4), lie_lattice(["y"], {}), [C])
    cert = embed_splittable(L)
    assert cert.mu == 4 and cert.lam == 4
    assert cert.nilpotent_rank == 5
    assert verify_certificate(cert).ok


def test_mu_matches_the_bounded_search():
    """The search for mu that the closed form replaced, kept as an oracle
    (`ref_mu_search`): it escalates at most once and ends at the same mu."""
    escalations = []
    for name, L in theorem_inputs():
        rs, rn = Known().radicals(L)
        state = initial_state(L, rs, rn)
        while state.Rn.rank < state.N.rank:
            state = elementary_expansion(state)
        mu, rounds = ref_mu_search(state, rn)
        assert rounds <= 1, name
        assert integral_rescale(L, state, rn).mu == mu, name
        escalations.append(rounds)
    # the inputs reach both branches of the closed form
    assert 0 in escalations and 1 in escalations


def test_leftover_denominator_is_an_expansion_error(monkeypatch):
    import adorep.embed

    monkeypatch.setattr(adorep.embed, "_denominators", lambda M: {2})
    with pytest.raises(ExpansionError, match=r"denominators \[2\] remain at mu = 2"):
        embed_splittable(catalog.solv2())


def test_every_sublattice_the_construction_builds_is_valid(monkeypatch):
    """`subalgebra_lattice` and `integral_rescale` no longer validate the
    sublattices they read off a Lie lattice: the Levi complement, the
    scaled nilpotent span, N_lat, the extension and the PBW-adapted lattice
    pass `validate` on every theorem input all the same."""
    import adorep.embed
    import adorep.zassenhaus

    built = {"levi": [], "scaled": [], "N_lat": [], "extension": [], "adapted": []}
    read = []  # the sublattices embed reads, since the last rescaling

    def embed_sublattice(L, S):
        lat, basis = subalgebra_lattice(L, S)
        read.append(lat)
        return lat, basis

    def rescale(L, state, rn):
        # every sublattice read before the rescaling is a Levi complement;
        # inside it, the scaled spans come first and the extension last
        levi = len(read)
        cert = integral_rescale(L, state, rn)
        built["levi"] += read[:levi]
        built["scaled"] += read[levi:-1]
        built["extension"] += [read[-1], cert.extension]
        read.clear()
        return cert

    def adapted_basis(N, known=None):
        basis = build_weighted_basis(N, known)
        built["adapted"].append(basis.adapted)
        return basis

    def central_terms(N):
        built["N_lat"].append(N)
        return _nilpotent_central_terms(N)

    monkeypatch.setattr(adorep.embed, "subalgebra_lattice", embed_sublattice)
    monkeypatch.setattr(adorep.embed, "integral_rescale", rescale)
    monkeypatch.setattr(adorep.zassenhaus, "build_weighted_basis", adapted_basis)
    monkeypatch.setattr(adorep.embed, "_nilpotent_central_terms", central_terms)
    for name, L in theorem_inputs():
        ado_representation(L, strict=True)
    assert all(built.values())
    assert all(lat.domain == "Z" for lat in built["extension"][1::2])
    for kind, lattices in built.items():
        for lat in lattices:
            assert validate(lat).ok, kind


def test_embed_rejects_rational_domain():
    with pytest.raises(ValueError):
        embed_splittable(catalog.solv2().to_field())
