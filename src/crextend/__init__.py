"""Holomorphic extension of boundary data at elliptic, holomorphically flat
CR singularities: quadric models, Bishop normal form, polynomial and
leafwise Cauchy extension, moment conditions and boundary-regularity probes.

The package namespace holds the names the command line, the acceptance
suite and the README use; everything else is imported from its submodule.
"""

from .errors import (
    InputError,
    LeafSolveError,
    NearBoundary,
    NotElliptic,
    NumericalError,
    NumericalFailure,
)
from .extend import extend_general, slice_oracle, verify_extension
from .leafcauchy import (
    BoundaryData,
    cauchy_extend,
    normal_derivative_probe,
    quadric_leaf_family,
    radial_leaf_family,
    zderiv_bound_check,
)
from .moments import check_moments, cr_check, moment_integral, solve_leaf
from .polyalg import Polynomial
from .quadform import (
    QuadricModel,
    classify,
    ellipticity_oracle,
    normal_form_model,
    normalize,
    q_polynomial,
    takagi,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "InputError",
    "LeafSolveError",
    "NearBoundary",
    "NotElliptic",
    "NumericalError",
    "NumericalFailure",
    "Polynomial",
    "QuadricModel",
    "cauchy_extend",
    "check_moments",
    "classify",
    "cr_check",
    "ellipticity_oracle",
    "extend_general",
    "moment_integral",
    "normal_derivative_probe",
    "normal_form_model",
    "normalize",
    "q_polynomial",
    "quadric_leaf_family",
    "radial_leaf_family",
    "slice_oracle",
    "solve_leaf",
    "takagi",
    "verify_extension",
    "zderiv_bound_check",
]
