"""weylgeom: numerical curvature engine and identity-verification suite.

Evaluates Christoffel symbols, Riemann/Ricci/Weyl tensors and the covariant
derivative and divergence of the Weyl tensor for explicit chart metrics
(flat, expanding, warped-product and genuinely twisted), using exact
third-order Taylor jets, and verifies a registry of tensor identities as
numerical residuals at deterministically sampled chart points.
"""

__version__ = "0.1.0"

from .jets import Jet3, variables
from .models import ChartPoint, MetricModel, builtin_model, sample_points
from .curvature import CurvatureBundle, build_bundle, covariant_derivative
from .tensors import generalized_curvature_check, kulkarni_nomizu, norm_squared
from .identities import IdentityReport, run_model_suite

__all__ = [
    "__version__",
    "Jet3",
    "variables",
    "ChartPoint",
    "MetricModel",
    "builtin_model",
    "sample_points",
    "CurvatureBundle",
    "build_bundle",
    "covariant_derivative",
    "kulkarni_nomizu",
    "generalized_curvature_check",
    "norm_squared",
    "IdentityReport",
    "run_model_suite",
]
