"""Common information components analysis.

Relaxed Wyner common information for Gaussian pairs (closed form via CCA
and water-filling) and small finite alphabets (Lagrangian sweep solver),
plus the projection rules that turn the latent variable into per-source
features.
"""

from . import errors
from .cca import CcaBasis, canonical_matrix, cca_decompose, cca_project
from .discrete_ci import (
    Coupling,
    SolveReport,
    SolverOptions,
    build_coupling,
    ci_curve_discrete,
    dsbs_joint,
    entropy,
    latent_mutual_information,
    relaxation_given_w,
    solve_relaxed_wyner,
    total_correlation,
)
from .estimation import estimate_gaussian, estimate_pmf
from .gaussian_ci import (
    GammaAllocation,
    ci_curve,
    component_count,
    waterfill,
)
from .model import (
    DiscreteJoint,
    GaussianJoint,
    InfoValue,
    inv_sqrt_psd,
    validate_discrete,
    validate_gaussian,
)
from .projections import (
    ProjectionOutputs,
    binary_vector_covariance,
    feature_mutual_information,
    project_discrete,
    project_discrete_map,
    project_gaussian,
    toy_binary_example,
)

__version__ = "0.1.0"

__all__ = [
    "CcaBasis",
    "Coupling",
    "DiscreteJoint",
    "GammaAllocation",
    "GaussianJoint",
    "InfoValue",
    "ProjectionOutputs",
    "SolveReport",
    "SolverOptions",
    "binary_vector_covariance",
    "build_coupling",
    "canonical_matrix",
    "cca_decompose",
    "cca_project",
    "ci_curve",
    "ci_curve_discrete",
    "component_count",
    "dsbs_joint",
    "entropy",
    "errors",
    "estimate_gaussian",
    "estimate_pmf",
    "feature_mutual_information",
    "inv_sqrt_psd",
    "latent_mutual_information",
    "project_discrete",
    "project_discrete_map",
    "project_gaussian",
    "relaxation_given_w",
    "solve_relaxed_wyner",
    "toy_binary_example",
    "total_correlation",
    "validate_discrete",
    "validate_gaussian",
    "waterfill",
]
