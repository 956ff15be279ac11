"""Normal forms in a truncated enveloping algebra, read off the production
letter matrices.

Adapted letter k is row k of the adapted change of basis, in original
coordinates, so it acts by `T.left_mult_matrix` of that row.  The normal
form of a word is the product of its letters' matrices applied to the
column of the unit monomial, and a product of two elements is a sum of such
words applied to the right factor.
"""

import math
from fractions import Fraction

from adorep.exact_linalg import ExactMatrix

ZERO = Fraction(0)


def mat_vec(M, v):
    """M applied to the column v, as a tuple."""
    return (ExactMatrix.from_rows([v]) * M.transpose()).row(0)


def letter_matrices(T):
    """Left multiplications by the adapted letters."""
    P = T.basis.change_of_basis
    return [T.left_mult_matrix(P.row(k)) for k in range(T.rank)]


def unit_monomial(T):
    out = [ZERO] * T.dimension
    out[T.index[(0,) * T.rank]] = Fraction(1)
    return tuple(out)


def apply_word(mats, word, v):
    """mats[word[0]] ... mats[word[-1]] applied to the column v."""
    for i in reversed(word):
        v = mat_vec(mats[i], v)
    return v


def monomial_word(alpha):
    """The letters of x^alpha in PBW order."""
    return [i for i, e in enumerate(alpha) for _ in range(e)]


def multiply(T, mats, u, v):
    """u * v for coordinate vectors on T's monomials."""
    out = [ZERO] * T.dimension
    for a, cu in enumerate(u):
        if cu:
            w = apply_word(mats, monomial_word(T.monomials[a]), v)
            out = [x + cu * y for x, y in zip(out, w)]
    return tuple(out)


def weight(T, v):
    """Minimum weight of the supported monomials; infinity for zero."""
    return min(
        (T.monomial_weight(T.monomials[i]) for i, c in enumerate(v) if c),
        default=math.inf,
    )
