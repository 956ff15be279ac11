"""Faithful integer matrix representations of Lie lattices with certified
degree bounds."""

from .exact_linalg import ExactMatrix, Submodule
from .lie_core import LieLattice, lie_lattice, validate
from .nilrep import burde_bound, monomial_count, nilpotent_faithful_rep
from .pbw import TruncatedUEA, build_weighted_basis
from .pipeline import ado_representation, degree_bound, verify_representation
from .rep import LinearRep
from .zassenhaus import splittable_rep

__all__ = [
    "ExactMatrix",
    "LieLattice",
    "LinearRep",
    "Submodule",
    "TruncatedUEA",
    "ado_representation",
    "build_weighted_basis",
    "burde_bound",
    "degree_bound",
    "lie_lattice",
    "monomial_count",
    "nilpotent_faithful_rep",
    "splittable_rep",
    "validate",
    "verify_representation",
]

__version__ = "0.1.0"
