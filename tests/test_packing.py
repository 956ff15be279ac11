"""The packed zero tests against their references, on each side of the rule.

The homomorphism check, the Jacobi loop of `validate` and the injection
check of `verify_certificate` each decide a bilinear sum either on rows
packed into one integer (`exact_linalg._Packing`) or with the nonzero-row
loop, as `_Packing.rows` chooses from the density of their operand rows
alone.  Here the rule is tested where it lives, and is forced to each
answer in turn, on Lie tables in bases with entries up to 2^70 and
denominators other than 1, with one entry corrupted, mirrored or not (so
the table need not be antisymmetric), and every path must report exactly
what `ref_homomorphism_violations` and `ref_commutator_differs`,
`ref_validate` and `ref_verify_certificate` do.  The benchmark's
theorem-scrambled workload takes both sides of the rule in each check,
and nilpotent-regular only the nonzero-row loop.
"""

import dataclasses
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, _Packing
from adorep.lie_core import adjoint_rep, change_basis, unit, validate
from adorep.pipeline import ado_representation, verify_certificate, verify_representation
from adorep.rep import LinearRep

from oracles import (
    load_bench,
    ref_bracket,
    ref_commutator_differs,
    ref_homomorphism_violations,
    ref_validate,
    ref_verify_certificate,
    scrambled_sl_semidirect,
    tensor_lattice,
)

HUGE = 2**70
# nonzero values: small, up to 2^70, and fractions with either part that large
WIDE = st.one_of(
    st.sampled_from((1, -1, 2, -3)),
    st.integers(1, HUGE),
    st.integers(-HUGE, -1),
    st.builds(Fraction, st.integers(-HUGE, HUGE).filter(bool), st.integers(2, HUGE)),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 7)),
).map(Fraction)
CHECKS = settings(max_examples=60, deadline=None)


@contextmanager
def forced(packed):
    """Every check takes the packed path if `packed`, else the nonzero-row
    loop, whatever its operands; yields the (function, slot bound) of each
    packing made meanwhile."""
    rows = _Packing.__dict__["rows"]
    bounds = []

    def forcing(operands, bound):
        if not packed:
            return None
        bounds.append((sys._getframe(1).f_code.co_name, bound()))
        return list(map(_Packing(bounds[-1][1]), operands))

    _Packing.rows = staticmethod(forcing)
    try:
        yield bounds
    finally:
        _Packing.rows = rows


@contextmanager
def recorded():
    """The rule left as it is; yields the (function, whether it packed) of
    each decision made meanwhile."""
    rows = _Packing.__dict__["rows"]
    decisions = []

    def recording(operands, bound):
        packed = rows.__func__(operands, bound)
        decisions.append((sys._getframe(1).f_code.co_name, packed is not None))
        return packed

    _Packing.rows = staticmethod(recording)
    try:
        yield decisions
    finally:
        _Packing.rows = rows


def both_paths(check, owner=None, slots=0):
    """check() under the rule forced each way: the two results.  With an
    `owner`, the packed run must pack in that function, and each of its
    packings must bound every slot of the sums it tests, of which `slots`
    is the largest |slot| (0 if there are none)."""
    out = []
    for packed in (False, True):
        with forced(packed) as bounds:
            out.append(check())
        owned = [bound for name, bound in bounds if name == owner]
        assert not (packed and owner) or owned and min(owned) >= slots
    return out


def largest(values):
    return max((abs(x) for x in values), default=0)


def jacobi_slots(L):
    """The largest |entry| of a Jacobi sum of L over den^2, as the packed
    path sums it in numerators."""
    r, c, den = L.rank, L.c, L.table.den
    e = [unit(r, i) for i in range(r)]
    sums = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                terms = [ref_bracket(c, ref_bracket(c, e[p], e[q]), e[t]) for p, q, t in cyclic]
                sums += [den * den * sum(t[b] for t in terms) for b in range(r)]
    return largest(sums)


def commutator_slots(rep):
    """The largest |entry| of s ([M_i, M_j] - M([x_i, x_j])) over the pairs
    i < j, for the s of the pair that `homomorphism_violations` states."""
    L, mats = rep.lattice, rep.matrices
    r, T = L.rank, L.table
    out = 0
    for i in range(r):
        for j in range(i + 1, r):
            image = rep.matrices_of_rows(T.take_rows([i * r + j]))[0]
            diff = mats[i] * mats[j] - mats[j] * mats[i] - image
            s = T.den * mats[i].den * mats[j].den * lcm(*(mats[k].den for k in T.num[i * r + j]))
            out = max(out, largest(s * x for row in diff.entries for x in row))
    return out


def injection_slots(cert):
    """The largest |entry| of inj [x_p, x_q] - [inj x_p, inj x_q] over the
    pairs p < q, times dT dI^2 dE, as the packed injection check sums it."""
    L, ext, inj = cert.original, cert.extension, cert.injection
    r = L.rank
    s = L.table.den * inj.den**2 * ext.table.den
    out = 0
    for p in range(r):
        for q in range(p + 1, r):
            lhs = L.table.take_rows([p * r + q]) * inj
            rhs = ext.bracket_rows(inj.take_rows([p]), inj.take_rows([q]))
            out = max(out, largest(s * x for x in (lhs - rhs).entries[0]))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**80), st.data())
def test_a_packed_sum_is_zero_exactly_when_every_slot_is(bound, data):
    """Within its bound, packing is linear and sends only the zero row to 0,
    also for the rows (-2^t, 1) that a narrower width would send to 0."""
    pack = _Packing(bound)
    for t in range(bound.bit_length()):
        assert pack({0: -(2**t), 1: 1}) and pack({3: 2**t, 4: -1})
    entries = st.integers(-bound, bound)
    rows = [data.draw(st.dictionaries(st.integers(0, 5), entries, max_size=6)) for _ in range(3)]
    coefficients = [data.draw(st.integers(-1, 1)) for _ in rows]
    total = {}
    for c, row in zip(coefficients, rows):
        for k, x in row.items():
            total[k] = total.get(k, 0) + c * x
    if all(abs(x) <= bound for x in total.values()):
        assert sum(c * pack(row) for c, row in zip(coefficients, rows)) == pack(total)
        assert (pack(total) == 0) == (not any(total.values()))


def never():
    raise AssertionError("bound called on operands that stay unpacked")


def test_sparse_operands_are_not_packed_and_their_bound_is_not_computed():
    # none, all empty, and 3 nonzeros in 2 nonzero rows: 1.5 on average
    for operands in ([], [{}, {}], [{0: 1}, {}, {0: 5, 3: -2}]):
        assert _Packing.rows(operands, never) is None


def test_operands_are_packed_from_two_nonzeros_per_nonzero_row():
    """At exactly 2 nonzeros per nonzero row on average, one int per row,
    0 for an empty row, with slots of bound().bit_length() + 1 bits."""
    operands = [{0: 1}, {}, {0: -3, 2: 4, 5: 1}]
    packed = _Packing.rows(operands, lambda: 9)
    w = (9).bit_length() + 1
    assert packed == [1, 0, -3 + (4 << (2 * w)) + (1 << (5 * w))]


def dense(M):
    return [list(row) for row in M.entries]


@st.composite
def lattices(draw):
    """A catalog lattice over Q in the basis diag(d) * U, d of WIDE values
    and U a unit upper bidiagonal matrix of WIDE values, so its constants
    are large and fractional; maybe with one constant changed
    (`changed_constant`)."""
    L = catalog.get(draw(st.sampled_from(catalog.names()))).lattice.to_field()
    r = L.rank
    d = [draw(WIDE) for _ in range(r)]
    up = [draw(WIDE) for _ in range(r)]
    P = [[d[i] * {i: 1, i + 1: up[i]}.get(j, 0) for j in range(r)] for i in range(r)]
    L = change_basis(L, ExactMatrix.from_rows(P))
    if not draw(st.booleans()):
        return L
    return changed_constant(L, draw, draw(st.sampled_from("ZQ")))


def changed_constant(L, draw, domain):
    """L with one constant changed by a WIDE value, alone or with its mirror
    c[j][i][k], as a tensor lattice over `domain`."""
    r = L.rank
    c = [[list(v) for v in row] for row in L.c]
    i, j, k = (draw(st.integers(0, r - 1)) for _ in range(3))
    x = draw(WIDE)
    c[i][j][k] += x
    if draw(st.booleans()) and i != j:
        c[j][i][k] -= x
    return tensor_lattice(L.names, c, domain)


@CHECKS
@given(lattices())
def test_jacobi_paths_report_the_reference_lists(L):
    for report in both_paths(lambda: validate(L), "validate", jacobi_slots(L)):
        anti, jac, integ = ref_validate(L.c, L.domain == "Z")
        assert report.antisymmetry_violations == tuple(anti)
        assert report.jacobi_violations == tuple(jac)
        assert report.integrality_violations == tuple(integ)


def commutator_differs_reference(rep):
    """The pairs i < j for which `ref_commutator_differs` finds f (A_i A_j -
    A_j A_i) - sum_k g_k A_k nonzero, with the f and g_k of the table of the
    pair as `homomorphism_violations` states them."""
    L, mats = rep.lattice, rep.matrices
    r, T, den = L.rank, L.table.num, L.table.den
    rows = [[dict(row) for row in M.num] for M in mats]
    bad = []
    for i in range(r):
        for j in range(i + 1, r):
            terms = T[i * r + j]
            D = lcm(*(mats[k].den for k in terms))
            g = mats[i].den * mats[j].den
            combo = [(rows[k], g * t * (D // mats[k].den)) for k, t in terms.items()]
            if ref_commutator_differs(rows[i], rows[j], den * D, combo):
                bad.append((i, j))
    return bad


@CHECKS
@given(lattices(), st.data())
def test_homomorphism_paths_report_the_reference_pairs(L, data):
    """The adjoint representation, a homomorphism exactly when Jacobi holds,
    with maybe one matrix entry changed by a WIDE value and one matrix
    scaled by one."""
    mats = [dense(M) for M in adjoint_rep(L).matrices]
    r = L.rank
    if data.draw(st.booleans()):
        a, q, c = (data.draw(st.integers(0, r - 1)) for _ in range(3))
        mats[a][q][c] += data.draw(WIDE)
    if data.draw(st.booleans()):
        a, s = data.draw(st.integers(0, r - 1)), data.draw(WIDE)
        mats[a] = [[s * x for x in row] for row in mats[a]]
    rep = LinearRep(L, tuple(ExactMatrix.from_rows(M, cols=r) for M in mats), "test")
    want = ref_homomorphism_violations(rep)
    assert want == commutator_differs_reference(rep)
    slots = commutator_slots(rep)
    assert both_paths(rep.homomorphism_violations, "homomorphism_violations", slots) == [want] * 2


@lru_cache(maxsize=None)
def certificate(name):
    return ado_representation(catalog.get(name).lattice, strict=True)[2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["t2_upper", "solv2", "solv3_weights", "churkin_sl2_t2"]), st.data())
def test_certificate_paths_report_the_reference_report(name, data):
    """The strict certificate of a catalog lattice, maybe with one injection
    entry changed by a WIDE value (both lattices stay valid, so the pairs
    p < q decide), or one constant of the original or the extension
    changed, mirrored or not (the full scan decides)."""
    cert = certificate(name)
    kind = data.draw(st.sampled_from(["none", "injection", "original", "extension"]))
    if kind == "injection":
        rows = dense(cert.injection)
        rows[data.draw(st.integers(0, len(rows) - 1))][
            data.draw(st.integers(0, cert.extension.rank - 1))
        ] += data.draw(WIDE)
        injection = ExactMatrix.from_rows(rows, cols=cert.extension.rank)
        cert = dataclasses.replace(cert, injection=injection)
    elif kind == "original":
        cert = dataclasses.replace(cert, original=changed_constant(cert.original, data.draw, "Z"))
    elif kind == "extension":
        cert = dataclasses.replace(cert, extension=changed_constant(cert.extension, data.draw, "Z"))
    want = ref_verify_certificate(cert)
    # with both lattices valid, the pairs p < q are packed when forced
    valid = want.extension_valid and want.original_valid
    audit = ("_injection_homomorphism", injection_slots(cert)) if valid else ()
    assert both_paths(lambda: verify_certificate(cert), *audit) == [want] * 2


def test_strict_scrambled_sl4_verifies_with_the_dense_paths():
    """sl_4 x| Z^4 in a scrambled basis: strict degree n^2 + 2n = 24, its
    dense table and matrices packed by the rule itself, and a control with
    one diagonal entry of the image of a bracketed basis vector moved, which
    gives that image a trace the commutator it must equal lacks."""
    L = scrambled_sl_semidirect(4)
    with recorded() as decisions:
        rep, report, _ = ado_representation(L, strict=True)
    assert report.ok and report.degree == 24 == 4 * 4 + 2 * 4
    assert any(packed for _, packed in decisions)
    r = L.rank
    k = next(k for k, row in enumerate(L.table.num) if row and k // r < k % r)
    i = next(iter(L.table.num[k]))
    mats = list(rep.matrices)
    rows = dense(mats[i])
    rows[0][0] += 1
    mats[i] = ExactMatrix.from_rows(rows)
    control = verify_representation(L, LinearRep(L, tuple(mats), "control"))
    assert not control.homomorphism_ok and (k // r, k % r) in control.homomorphism_violations


CHECKS_BUILT_ON_PACKING = ("validate", "homomorphism_violations", "_injection_homomorphism")


def test_the_benchmark_takes_each_side_of_the_rule():
    """At seed 23 every check packs on some theorem-scrambled call and
    keeps the nonzero-row loop on another, so the benchmark times both
    paths; on nilpotent-regular, whose operand rows hold 1 to 1.22 nonzeros
    on average, no check packs."""
    workloads = load_bench("workloads")
    seen = {}
    for workload in ("theorem-scrambled", "nilpotent-regular"):
        with recorded() as decisions:
            for case in workloads.build(workload, 23):
                report = ado_representation(case.lattice, strict=case.strict)[1]
                assert report.ok and report.degree == case.degree
        seen[workload] = set(decisions)
    both = {(check, packed) for check in CHECKS_BUILT_ON_PACKING for packed in (False, True)}
    assert seen["theorem-scrambled"] == both
    # no certificate off the strict path, so no injection check
    assert seen["nilpotent-regular"] == {("validate", False), ("homomorphism_violations", False)}
