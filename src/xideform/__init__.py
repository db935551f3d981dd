"""Gaussian-deformed Riemann Xi family: evaluation, identity verification, decompositions."""

from .errors import (
    DegenerateParameterError,
    DomainError,
    NonConvergenceError,
    PrecisionWarning,
    SingularMatrixError,
    UnsupportedOrderError,
)
from .funceq import IdentityId, VerificationReport, candidate_zeros, rho12_special_roots, verify, zero_scan
from .gaussmat import RhoMatrix, closed_form_e, rescale_class
from .ode_solutions import (
    DecompositionResult,
    VopCoefficients,
    a_pm,
    canonical_decomposition,
    chi,
    tilde_decomposition,
    vop_coefficients,
)
from .quadrature import IntegralResult, QuadSpec
from .theta import ThetaOperator, apply_theta_op, psi
from .xi_core import XiValue, gaussian_mellin, mellin, xi, xi_sum_m, xi_tilde
from .xi_multi import MultiXiParams, d_rho_ij_xi_d, heat_residual_multi, xi_d

__version__ = "0.1.0"

__all__ = [
    "DegenerateParameterError", "DomainError", "NonConvergenceError", "PrecisionWarning",
    "SingularMatrixError", "UnsupportedOrderError",
    "IdentityId", "VerificationReport", "candidate_zeros", "rho12_special_roots", "verify", "zero_scan",
    "RhoMatrix", "closed_form_e", "rescale_class",
    "DecompositionResult", "VopCoefficients", "a_pm", "canonical_decomposition", "chi",
    "tilde_decomposition", "vop_coefficients",
    "IntegralResult", "QuadSpec",
    "ThetaOperator", "apply_theta_op", "psi",
    "XiValue", "gaussian_mellin", "mellin", "xi", "xi_sum_m", "xi_tilde",
    "MultiXiParams", "d_rho_ij_xi_d", "heat_residual_multi", "xi_d",
    "__version__",
]
