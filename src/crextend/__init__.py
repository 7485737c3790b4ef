"""Holomorphic extension of boundary data at elliptic, holomorphically flat
CR singularities: quadric models, Bishop normal form, polynomial and
leafwise Cauchy extension, moment conditions and boundary-regularity probes.
"""

from .errors import (
    InputError,
    LeafSolveError,
    NearBoundary,
    NotElliptic,
    NumericalError,
    NumericalFailure,
)
from .extend import (
    Certificate,
    ExtensionResult,
    check_involution_invariance,
    extend_general,
    restrict_to_plane,
    slice_oracle,
    verify_extension,
)
from .leafcauchy import (
    BoundaryData,
    LeafExtension,
    cauchy_extend,
    continuity_probe,
    normal_derivative_probe,
    quadric_leaf_family,
    radial_leaf_family,
    zderiv_bound_check,
)
from .moments import (
    LeafParametrization,
    MomentReport,
    check_moments,
    cr_check,
    eval_on_grid,
    moment_integral,
    solve_leaf,
)
from .polyalg import Polynomial
from .quadform import (
    BishopNormalForm,
    QuadricModel,
    check_nondegenerate,
    classify,
    default_radii,
    ellipticity_oracle,
    is_normal_form,
    normal_form_model,
    normalize,
    q_polynomial,
    takagi,
)

__version__ = "0.1.0"

__all__ = [
    "BishopNormalForm",
    "BoundaryData",
    "Certificate",
    "ExtensionResult",
    "InputError",
    "LeafExtension",
    "LeafParametrization",
    "LeafSolveError",
    "MomentReport",
    "NearBoundary",
    "NotElliptic",
    "NumericalError",
    "NumericalFailure",
    "Polynomial",
    "QuadricModel",
    "cauchy_extend",
    "check_involution_invariance",
    "check_moments",
    "check_nondegenerate",
    "classify",
    "continuity_probe",
    "cr_check",
    "default_radii",
    "ellipticity_oracle",
    "eval_on_grid",
    "extend_general",
    "is_normal_form",
    "moment_integral",
    "normal_derivative_probe",
    "normal_form_model",
    "normalize",
    "q_polynomial",
    "quadric_leaf_family",
    "radial_leaf_family",
    "restrict_to_plane",
    "slice_oracle",
    "solve_leaf",
    "takagi",
    "verify_extension",
]
