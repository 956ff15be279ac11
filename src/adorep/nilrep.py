"""Faithful representations of nilpotent lattices and the monomial-count bound.

The degree bound eta * 2^r / sqrt(r) is handled entirely in rational
arithmetic: eta = sqrt(2/pi) * prod_{l>=1} 2^l/(2^l - 1) is enclosed in a
certified rational interval (pi via Machin's formula with alternating-series
remainders, the infinite product truncated with an explicit tail bound).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .lie_core import Known, LieLattice, unit, validate
from .pbw import TruncatedUEA, _graded_monomials, build_weighted_basis
from .rep import LinearRep

_SQRT_PRECISION = 10**30
_PRODUCT_TERMS = 40


def _arctan_interval(inv_x: int, terms: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of arctan(1/inv_x): consecutive alternating
    partial sums bracket the limit."""
    if terms < 2:
        raise ValueError("need at least two terms")
    s = Fraction(0)
    partial_sums = []
    for k in range(terms):
        s += Fraction((-1) ** k, (2 * k + 1) * inv_x ** (2 * k + 1))
        partial_sums.append(s)
    last, prev = partial_sums[-1], partial_sums[-2]
    return (min(last, prev), max(last, prev))


def _pi_interval() -> tuple[Fraction, Fraction]:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a5_lo, a5_hi = _arctan_interval(5, 30)
    a239_lo, a239_hi = _arctan_interval(239, 12)
    return (16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo)


def _sqrt_interval(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rational s_lo <= sqrt(q) <= s_hi with s_hi - s_lo <= 2/(den*M)."""
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    M = _SQRT_PRECISION
    t = isqrt(num * den * M * M)
    return (Fraction(t, den * M), Fraction(t + 1, den * M))


@lru_cache(maxsize=1)
def eta_interval() -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of eta = sqrt(2/pi) * prod 2^l/(2^l-1)."""
    pi_lo, pi_hi = _pi_interval()
    s_lo = _sqrt_interval(Fraction(2) / pi_hi)[0]
    s_hi = _sqrt_interval(Fraction(2) / pi_lo)[1]
    product = Fraction(1)
    for l in range(1, _PRODUCT_TERMS + 1):
        product *= Fraction(2**l, 2**l - 1)
    # tail: prod_{l>40} (1 + 1/(2^l-1)) <= exp(2^-39) <= 1 + 2^-38
    tail_hi = 1 + Fraction(1, 2**38)
    return (s_lo * product, s_hi * product * tail_hi)


@lru_cache(maxsize=128)
def burde_bound(r: int) -> Fraction:
    """Certified rational upper bound B(r) for eta * 2^r / sqrt(r); a pure
    function of r, cached because every verification recomputes it."""
    if r < 1:
        raise ValueError("r must be at least 1")
    _, eta_hi = eta_interval()
    sqrt_r_hi = _sqrt_interval(Fraction(r))[1]
    return eta_hi * 2**r * sqrt_r_hi / r


def birkhoff_bounds(d: int, c: int) -> dict[str, Fraction]:
    """Classical nilpotent degree bounds, reported for comparison only."""
    geometric = Fraction(d ** (c + 1) - 1, d - 1) if d > 1 else Fraction(c + 1)
    return {
        "geometric_series": geometric,
        "binomial": Fraction(comb(d + c, c)),
    }


def monomial_count(L: LieLattice) -> int:
    """Number of PBW monomials of weight at most the nilpotency class, the
    dimension of `TruncatedUEA` at the class, counted without building it."""
    validate(L).raise_if_invalid()
    basis = build_weighted_basis(L)
    return len(_graded_monomials(basis.weights, basis.nil_class)[0])


def nilpotent_faithful_rep(L: LieLattice, known: Known | None = None) -> LinearRep:
    """Left regular representation on the enveloping algebra truncated at the
    nilpotency class; faithful because the lattice meets the discarded ideal
    trivially.  L is validated, and its series read, by `known` (a fresh
    Known if none is given), so neither is computed again in a call that
    holds it, as `ado_representation` and `adorep nilrep` do.
    """
    known = known or Known()
    known.require_valid(L)
    basis = build_weighted_basis(L, known)  # raises NotNilpotentError if not nilpotent
    T = TruncatedUEA(basis, basis.nil_class)
    matrices = tuple(T.left_mult_matrix(unit(L.rank, i)) for i in range(L.rank))
    return LinearRep(lattice=L, matrices=matrices, provenance="regular-truncated")
