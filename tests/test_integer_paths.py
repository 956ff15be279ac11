"""Integral input never builds a Fraction on the hot paths.

Every `Fraction` is built by `Fraction.__new__`; the test counts its calls
while the library multiplies adjoint matrices, takes a trace form, row
reduces an integral matrix, closes an envelope of integral generators,
validates an integral lattice, takes the radicals and the lower central
series of integral lattices (one solvable, one not) and saturates an
integral lattice; and while it builds the truncated regular
representations of a Heisenberg and a filiform lattice, the representation
of a certified extension (left multiplications and lifted derivations) and
checks an integral representation's homomorphism identity.
A change that brings Fractions back into these kernels fails here.
"""

from fractions import Fraction

from adorep import catalog
from adorep.embed import embed_splittable
from adorep.exact_linalg import ExactMatrix, Submodule, rref, trace_product
from adorep.lie_core import (
    _matrix_algebra_closure,
    lower_central_series,
    nilradical,
    solvable_radical,
    unit,
    validate,
)
from adorep.nilrep import nilpotent_faithful_rep
from adorep.zassenhaus import splittable_rep

from oracles import ad, load_bench


def test_integral_kernels_build_no_fraction(monkeypatch):
    L = catalog.get("churkin_sl2_t2").lattice
    t2 = catalog.t2_upper()
    r = L.rank
    units = [unit(r, i) for i in range(r)]
    A = ExactMatrix.from_rows([[2, 4, -1, 0], [1, 3, 0, 5], [3, 7, -1, 5]])
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    ads = [ad(L, u) for u in units]
    products = [X * Y for X in ads for Y in ads]
    forms = [trace_product(X, Y) for X in ads for Y in ads]
    R, pivots = rref(A)
    envelope = _matrix_algebra_closure(ads[:3])
    report = validate(L)
    radicals = [(rs := solvable_radical(K), nilradical(K, rs)) for K in (L, t2)]
    series = [lower_central_series(K) for K in (L, t2)]
    sat = Submodule.of_rows(A, "Z").saturate()
    assert built == []
    # the boundary still builds Fractions, so the counter does count
    R.entries
    assert built
    monkeypatch.undo()

    assert all(P.is_integral for P in products)
    assert all(isinstance(t, int) for t in forms)
    assert pivots == (0, 1) and R.den == 2
    assert envelope and all(B.is_integral for B in envelope)
    assert report.ok
    assert [(rs.rank, rn.rank) for rs, rn in radicals] == [(3, 2), (3, 2)]
    assert [len(chain) for chain in series] == [2, 2]
    assert sat.basis.is_integral and sat.rank == 2


def test_nilpotent_path_builds_no_fraction(monkeypatch):
    cert = embed_splittable(catalog.get("churkin_sl2_t2").lattice)
    H = catalog.heisenberg(2)
    F = load_bench("workloads").filiform(6)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    counts = {}  # the Fractions each call builds, by label

    def count(label, f, *args):
        before = len(built)
        out = f(*args)
        counts[label] = len(built) - before
        return out

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    reps = [
        count("nilpotent_faithful_rep(heisenberg5)", nilpotent_faithful_rep, H),
        count("nilpotent_faithful_rep(F6)", nilpotent_faithful_rep, F),
        count("splittable_rep(extension)", splittable_rep, cert.extension, cert.nilpotent_rank),
    ]
    violations = [
        count(f"homomorphism_violations(reps[{k}])", rep.homomorphism_violations)
        for k, rep in enumerate(reps)
    ]
    monkeypatch.undo()

    assert counts == dict.fromkeys(counts, 0)
    assert violations == [[], [], []]
    assert all(rep.is_integral for rep in reps)
    # the extension's S part acts, so derivation_star lifted nonzero matrices
    assert any(not M.is_zero() for M in reps[2].matrices[cert.nilpotent_rank :])
