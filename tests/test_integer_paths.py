"""Integral input never builds a Fraction on the hot paths.

Every `Fraction` is built by `Fraction.__new__`; the test counts its calls
while the library multiplies adjoint matrices, takes a trace form, row
reduces an integral matrix, closes an envelope of integral generators,
validates an integral lattice, takes the radicals and the lower central
series of integral lattices (one solvable, one not) and saturates an
integral lattice.
A change that brings Fractions back into these kernels fails here.
"""

from fractions import Fraction

from adorep import catalog
from adorep.exact_linalg import ExactMatrix, Submodule, rref, trace_product
from adorep.lie_core import (
    _matrix_algebra_closure,
    lower_central_series,
    nilradical,
    solvable_radical,
    unit,
    validate,
)


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
    ads = [L.ad(u) for u in units]
    products = [X * Y for X in ads for Y in ads]
    forms = [trace_product(X, Y) for X in ads for Y in ads]
    R, pivots = rref(A)
    envelope = _matrix_algebra_closure(ads[:3])
    report = validate(L)
    radicals = [(solvable_radical(K), nilradical(K)) for K in (L, t2)]
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
