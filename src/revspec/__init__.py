"""Laplace spectra of rotationally symmetric metrics on the 2-sphere.

The package decomposes the Laplacian of a surface-of-revolution metric into
one-dimensional mode operators, solves them, assembles the global spectrum
with multiplicities, and evaluates sharp closed-form upper bounds for the
distinct eigenvalues together with their verification checks.
"""

from .bounds import (
    BoundsRow,
    bounds_table,
    negative_curvature_bound,
    ray_bound,
    rough_bound,
    sharp_bound,
)
from .errors import (
    AssemblyError,
    DomainError,
    InapplicabilityError,
    ProfileError,
    QuadratureAccuracyError,
    RevspecError,
)
from .profile import (
    BUILTIN_NAMES,
    ENDPOINT_TOL,
    PROFILE_KINDS,
    CurvatureSignIndicator,
    MetricProfile,
    ProfileSpec,
    ValidationReport,
    build_profile,
    builtin_profile,
    curvature_at,
    curvature_sign_indicator,
    integrate_curvature_moment,
    integrate_moment,
    liouville_length,
    load_profile,
    moment_table,
    resolve_profile,
    validate_profile,
)
from .quadrature import QuadratureConfig
from .slsolver import (
    SLSpectrumSlice,
    SolverConfig,
    TraceReport,
    eigenvalues,
    first_eigenvalue,
    trace_check,
)
from .spectrum import (
    Check,
    DistinctEigenvalue,
    GlobalSpectrum,
    VerificationReport,
    assemble_spectrum,
    canonical_comparison,
    verify_interlacing,
    verify_monotonicity,
    verify_multiplicity_bound,
    verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BUILTIN_NAMES",
    "BoundsRow",
    "Check",
    "CurvatureSignIndicator",
    "DistinctEigenvalue",
    "DomainError",
    "ENDPOINT_TOL",
    "GlobalSpectrum",
    "InapplicabilityError",
    "MetricProfile",
    "PROFILE_KINDS",
    "ProfileError",
    "ProfileSpec",
    "QuadratureAccuracyError",
    "QuadratureConfig",
    "RevspecError",
    "SLSpectrumSlice",
    "SolverConfig",
    "TraceReport",
    "ValidationReport",
    "VerificationReport",
    "assemble_spectrum",
    "bounds_table",
    "build_profile",
    "builtin_profile",
    "canonical_comparison",
    "curvature_at",
    "curvature_sign_indicator",
    "eigenvalues",
    "first_eigenvalue",
    "integrate_curvature_moment",
    "integrate_moment",
    "liouville_length",
    "load_profile",
    "moment_table",
    "negative_curvature_bound",
    "ray_bound",
    "resolve_profile",
    "rough_bound",
    "sharp_bound",
    "trace_check",
    "validate_profile",
    "verify_interlacing",
    "verify_monotonicity",
    "verify_multiplicity_bound",
    "verify_suite",
]
