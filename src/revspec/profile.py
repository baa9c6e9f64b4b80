"""Metric profiles for rotationally symmetric spheres.

A surface of revolution diffeomorphic to S^2 with area 4*pi is described in
the chart (x, theta) in (-1, 1) x [0, 2*pi) by the metric

    g = (1/f) dx (x) dx + f dtheta (x) dtheta,

where the profile f is positive on (-1, 1), vanishes at the endpoints, and
has endpoint slopes f'(-1) = 2, f'(1) = -2 (so the poles close up smoothly).
The volume element in this chart is dx dtheta, hence the area is always
4*pi, and the Gauss curvature is K(x) = -f''(x)/2.

This module builds profile evaluators from declarative specs, validates the
admissibility conditions, and computes the profile integrals the eigenvalue
bounds are made of.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DomainError, ProfileError, QuadratureAccuracyError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, adaptive_gauss, gauss_jacobi_sqrt_weight
from .report import Report

#: Absolute tolerance for the endpoint value/slope admissibility checks.
#: Built-in and polynomial profiles satisfy the conditions exactly; the
#: headroom is for sampled profiles reconstructed from tables.
ENDPOINT_TOL = 1e-9

VALIDATION_GRID = 2001  #: points of the uniform grid validate_profile checks positivity on

#: Names accepted as ProfileSpec.kind.
PROFILE_KINDS = ("canonical", "paper-example", "polynomial-factor", "rational", "sampled")

BUILTIN_NAMES = ("canonical", "paper-example")


@dataclass(frozen=True)
class ProfileSpec:
    """Declarative description of a profile function.

    kind: one of PROFILE_KINDS.
    params: kind-specific parameters;
        polynomial-factor: {"coefficients": [q0, q1, ...]} giving
            f(x) = (1 - x^2) * q(x) with q in ascending powers,
        rational: {"numerator": [...], "denominator": [...]} giving
            f = num/den, both in ascending powers,
        sampled: {"x": [...], "f": [...]} with strictly increasing x
            covering [-1, 1], endpoints included.
    The two built-in kinds take no parameters.
    """

    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MetricProfile:
    """Profile evaluators; immutable and safe to share between workers.

    f, df, d2f evaluate the profile and its first two derivatives anywhere
    in [-1, 1] and accept scalars or arrays. ``breaks`` are the end points
    of the pieces on which f is smooth: the spline knots of a sampled
    profile, (-1, 1) for every other kind.
    """

    spec: ProfileSpec
    f: Callable
    df: Callable
    d2f: Callable
    breaks: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class ValidationReport(Report):
    """Outcome of the admissibility checks for one profile."""

    passed: bool
    endpoint_values: tuple[float, ...]  # (f(-1), f(1))
    endpoint_derivatives: tuple[float, ...]  # (f'(-1), f'(1))
    min_f_interior: float
    area: float  # 4*pi identically: the chart volume element is dx dtheta
    curvature_integral: Optional[float]  # integral of K dx; 2 for admissible f, None if unsettled
    messages: list[str]


@dataclass(frozen=True)
class CurvatureSignIndicator(Report):
    """Integrals deciding whether the profile forces negative curvature.

    Integrating the profile by parts twice against the endpoint conditions
    gives the identity  int f dx = 2 - int x^2 K dx,  so int f >= 2 forces
    K < 0 somewhere. identity_gap records |int f - (2 - int x^2 K)| as a
    consistency diagnostic (small for admissible profiles).
    """

    f_integral: float
    x2K_integral: float
    implies_negative_curvature: bool
    identity_gap: float


def _as_float_array(values, name):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProfileError(f"params[{name!r}] must be a sequence of real numbers") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ProfileError(f"params[{name!r}] must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ProfileError(f"params[{name!r}] contains non-finite entries")
    return arr


def _wrap_scalar(fn):
    """Make a vectorized callable return a Python float for scalar input."""

    def call(x):
        out = fn(np.asarray(x, dtype=float))
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    return call


def _build_canonical():
    f = _wrap_scalar(lambda x: 1.0 - x * x)
    df = _wrap_scalar(lambda x: -2.0 * x)
    d2f = _wrap_scalar(lambda x: np.full_like(x, -2.0))
    return f, df, d2f


def _build_paper_example():
    # f = 2(1-x^2)/(1+x^2); curvature 4(1-3x^2)/(1+x^2)^3 is negative on the
    # polar regions |x| > 1/sqrt(3).
    f = _wrap_scalar(lambda x: 2.0 * (1.0 - x * x) / (1.0 + x * x))
    df = _wrap_scalar(lambda x: -8.0 * x / (1.0 + x * x) ** 2)
    d2f = _wrap_scalar(lambda x: -8.0 * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3)
    return f, df, d2f


def _build_polynomial_factor(params):
    coeffs = _as_float_array(params.get("coefficients"), "coefficients")
    q = Polynomial(coeffs)
    fpoly = Polynomial([1.0, 0.0, -1.0]) * q
    d1 = fpoly.deriv(1)
    d2 = fpoly.deriv(2)
    return _wrap_scalar(fpoly), _wrap_scalar(d1), _wrap_scalar(d2)


def _build_rational(params):
    num = Polynomial(_as_float_array(params.get("numerator"), "numerator"))
    den = Polynomial(_as_float_array(params.get("denominator"), "denominator"))
    grid = np.linspace(-1.0, 1.0, 4097)
    dvals = den(grid)
    if np.min(np.abs(dvals)) <= 1e-12 * max(1.0, float(np.max(np.abs(dvals)))):
        raise ProfileError("params['denominator'] vanishes on [-1, 1]")
    dn1, dd1 = num.deriv(1), den.deriv(1)
    dn2, dd2 = num.deriv(2), den.deriv(2)

    def f(x):
        return num(x) / den(x)

    def df(x):
        d = den(x)
        return (dn1(x) * d - num(x) * dd1(x)) / (d * d)

    def d2f(x):
        n, d = num(x), den(x)
        n1, d1 = dn1(x), dd1(x)
        return (dn2(x) * d * d - 2.0 * n1 * d1 * d - n * dd2(x) * d + 2.0 * n * d1 * d1) / (d * d * d)

    return _wrap_scalar(f), _wrap_scalar(df), _wrap_scalar(d2f)


def _build_sampled(params):
    x = _as_float_array(params.get("x"), "x")
    fv = _as_float_array(params.get("f"), "f")
    if x.size != fv.size:
        raise ProfileError("params['x'] and params['f'] must have equal length")
    if x.size < 2:
        raise ProfileError("params['x'] needs at least the two endpoint samples")
    if np.any(np.diff(x) <= 0.0):
        raise ProfileError("params['x'] must be strictly increasing")
    if abs(x[0] + 1.0) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
        raise ProfileError("params['x'] must cover [-1, 1] with endpoints included")
    x = x.copy()
    x[0], x[-1] = -1.0, 1.0
    # Clamped C^2 cubic with the admissible endpoint slopes baked in; the
    # slope condition is a hard constraint, so it is part of reconstruction
    # rather than left to the data.
    table = _clamped_spline(x, fv, 2.0, -2.0)
    d1 = table[:-1] * np.array([[3.0], [2.0], [1.0]])
    d2 = d1[:-1] * np.array([[2.0], [1.0]])
    return (
        _piecewise_polynomial(x, table),
        _piecewise_polynomial(x, d1),
        _piecewise_polynomial(x, d2),
        tuple(float(v) for v in x),
    )


def _clamped_spline(x, y, slope_lo, slope_hi):
    """Coefficients of the clamped C^2 cubic through (x, y): a (4, n - 1)
    table, highest power first, in powers of (t - x_i) on piece i.

    One tridiagonal solve gives the knot moments M_i = s''(x_i); the system
    is strictly diagonally dominant, so elimination needs no pivoting.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    diag = np.concatenate([[2.0 * h[0]], 2.0 * (h[:-1] + h[1:]), [2.0 * h[-1]]])
    rhs = 6.0 * np.diff(np.concatenate([[slope_lo], slope, [slope_hi]]))
    # Thomas algorithm: the sub- and superdiagonal are both h
    for i in range(1, x.size):
        ratio = h[i - 1] / diag[i - 1]
        diag[i] -= ratio * h[i - 1]
        rhs[i] -= ratio * rhs[i - 1]
    moments = rhs
    moments[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        moments[i] = (moments[i] - h[i] * moments[i + 1]) / diag[i]
    lo, hi = moments[:-1], moments[1:]
    return np.array([(hi - lo) / (6.0 * h), 0.5 * lo, slope - h * (2.0 * lo + hi) / 6.0, y[:-1]])


def _piecewise_polynomial(breaks, table):
    """Evaluator of the piecewise polynomial with coefficient rows ``table``
    (highest power first, in powers of t - breaks[i] on piece i); points
    outside [breaks[0], breaks[-1]] extend the end pieces."""
    interior = breaks[1:-1]

    def evaluate(t):
        piece = interior.searchsorted(t, "right")  # piece i holds [breaks[i], breaks[i + 1])
        s = t - breaks.take(piece)
        coef = table.take(piece, axis=1)
        out = coef[0]
        for row in coef[1:]:
            out *= s
            out += row
        return out

    return _wrap_scalar(evaluate)


def build_profile(spec: ProfileSpec) -> MetricProfile:
    """Construct evaluators for a profile spec.

    Built-in kinds use exact closed forms. Malformed parameters raise
    ProfileError naming the offending field; admissibility (positivity,
    endpoint values and slopes) is *not* enforced here -- it is reported by
    validate_profile so that inadmissible profiles can still be examined.
    """
    breaks = (-1.0, 1.0)
    if spec.kind == "canonical":
        f, df, d2f = _build_canonical()
    elif spec.kind == "paper-example":
        f, df, d2f = _build_paper_example()
    elif spec.kind == "polynomial-factor":
        f, df, d2f = _build_polynomial_factor(spec.params)
    elif spec.kind == "rational":
        f, df, d2f = _build_rational(spec.params)
    elif spec.kind == "sampled":
        f, df, d2f, breaks = _build_sampled(spec.params)
    else:
        raise ProfileError(f"unknown profile kind {spec.kind!r}; expected one of {PROFILE_KINDS}")
    return MetricProfile(spec=spec, f=f, df=df, d2f=d2f, breaks=breaks)


def builtin_profile(name: str) -> MetricProfile:
    """Return one of the built-in profiles by name.

    ``canonical`` is the round sphere, f = 1 - x^2. ``paper-example`` is the
    rational profile f = 2(1-x^2)/(1+x^2), whose curvature changes sign.
    """
    if name not in BUILTIN_NAMES:
        raise ProfileError(f"unknown builtin profile {name!r}; expected one of {BUILTIN_NAMES}")
    return build_profile(ProfileSpec(kind=name))


def load_profile(path) -> MetricProfile:
    """Read a profile definition file: JSON {"kind": ..., "params": {...}}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise ProfileError(f"profile file {path} must be a JSON object with a 'kind' field")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProfileError("profile 'params' must be a JSON object")
    return build_profile(ProfileSpec(kind=data["kind"], params=params))


def resolve_profile(name_or_path) -> MetricProfile:
    """Accept a builtin name or a JSON file path."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_profile(name_or_path)
    return load_profile(name_or_path)


def endpoint_conditions(p: MetricProfile):
    """(f(-1), f(1)), (f'(-1), f'(1)) and a message for each endpoint
    condition they break: the values must vanish and the slopes be +2 / -2,
    within ENDPOINT_TOL."""
    f_lo, f_hi = float(p.f(-1.0)), float(p.f(1.0))
    df_lo, df_hi = float(p.df(-1.0)), float(p.df(1.0))
    messages = []
    if abs(f_lo) > ENDPOINT_TOL or abs(f_hi) > ENDPOINT_TOL:
        messages.append(f"f does not vanish at the endpoints (f(-1)={f_lo:.3e}, f(1)={f_hi:.3e})")
    if abs(df_lo - 2.0) > ENDPOINT_TOL:
        messages.append(f"f'(-1) = {df_lo:.12g}, expected 2")
    if abs(df_hi + 2.0) > ENDPOINT_TOL:
        messages.append(f"f'(1) = {df_hi:.12g}, expected -2")
    return (f_lo, f_hi), (df_lo, df_hi), messages


def validate_profile(p: MetricProfile) -> ValidationReport:
    """Check the admissibility conditions and report; never raises on failure.

    Positivity is checked on a uniform grid of VALIDATION_GRID points and
    the endpoint values and slopes by ``endpoint_conditions``. The area
    field is the exact chart area 4*pi. A curvature integral that does not
    settle within the default quadrature tolerance is reported as None,
    with a message, and fails the profile.
    """
    interior = np.linspace(-1.0, 1.0, VALIDATION_GRID)[1:-1]
    fvals = np.asarray(p.f(interior), dtype=float)
    min_f = float(np.min(fvals))
    values, slopes, endpoint_messages = endpoint_conditions(p)

    messages = []
    if not np.all(np.isfinite(fvals)):
        messages.append("f is not finite everywhere on the validation grid")
    if min_f <= 0.0:
        messages.append(f"f is not positive on the open interval (min {min_f:.3e})")
    messages += endpoint_messages

    try:
        curv_integral = integrate_curvature_moment(p, 0, DEFAULT_QUADRATURE)
    except QuadratureAccuracyError as exc:
        curv_integral = None
        messages.append(f"the curvature integral did not settle: {exc}")
    return ValidationReport(
        passed=not messages,
        endpoint_values=values,
        endpoint_derivatives=slopes,
        min_f_interior=min_f,
        area=4.0 * math.pi,
        curvature_integral=curv_integral,
        messages=messages,
    )


def curvature_at(p: MetricProfile, x):
    """Gauss curvature K(x) = -f''(x)/2 at a point (or array) in [-1, 1]."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise DomainError(f"x must lie in [-1, 1], got {x!r}")
    out = -0.5 * np.asarray(p.d2f(arr), dtype=float)
    if np.ndim(x) == 0:
        return float(out)
    return out


def moment_table(p: MetricProfile, l_max: int, q: QuadratureConfig = DEFAULT_QUADRATURE):
    """All profile moments up to l_max from one quadrature: arrays (I, C).

    I[l] is the integral of f^l and C[l] that of f^l K over [-1, 1], each
    within q.abs_tol relative to max(|integral|, 1). The powers are a
    running product, so high ones underflow gracefully to 0 where f is
    small; the integrand is 0 where f <= 0 (roundoff right at the
    endpoints).
    """
    if l_max < 0:
        raise DomainError("moment exponent l must be >= 0")

    def rows(x):
        fx = np.asarray(p.f(x), dtype=float)
        powers = np.empty((l_max + 1, x.size))
        powers[0] = fx > 0.0
        fx = np.maximum(fx, 0.0)
        for l in range(1, l_max + 1):
            powers[l] = powers[l - 1] * fx
        curv = -0.5 * np.asarray(p.d2f(x), dtype=float)
        return np.concatenate([powers, powers * curv])

    table = adaptive_gauss(rows, p.breaks, q.abs_tol)
    return table[: l_max + 1], table[l_max + 1:]


def integrate_moment(p: MetricProfile, l: int, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Profile moment: integral of f^l over [-1, 1] (see moment_table)."""
    return float(moment_table(p, l, q)[0][l])


def integrate_curvature_moment(
    p: MetricProfile, l: int, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Curvature moment: integral of f^l K over [-1, 1] (see moment_table).

    For l = 0 this is the chart's total-curvature identity: it equals 2 for
    every admissible profile (the surface integral of K is then 4*pi).
    """
    return float(moment_table(p, l, q)[1][l])


def curvature_sign_indicator(
    p: MetricProfile, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> CurvatureSignIndicator:
    """Evaluate int f and int x^2 K and flag the negative-curvature regime.

    The flag is int f >= 2 (boundary case included). For admissible profiles
    the two integrals satisfy int f = 2 - int x^2 K within 2 * q.abs_tol;
    the realized gap is reported for auditing.
    """
    f_int = integrate_moment(p, 1, q)
    x2k = adaptive_gauss(lambda x: -0.5 * x * x * np.asarray(p.d2f(x), dtype=float),
                         p.breaks, q.abs_tol)
    return CurvatureSignIndicator(
        f_integral=f_int,
        x2K_integral=x2k,
        implies_negative_curvature=f_int >= 2.0,
        identity_gap=abs(f_int - (2.0 - x2k)),
    )


def liouville_length(p: MetricProfile, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Length of [-1, 1] in the Liouville normal form: integral of f^(-1/2).

    The integrand has inverse-square-root endpoint singularities (f vanishes
    linearly at +-1), so it always routes through the endpoint-weighted rule
    with smooth factor sqrt((1 - x^2)/f).
    """

    def g(x):
        fx = np.asarray(p.f(x), dtype=float)
        if np.any(fx <= 0.0):
            raise DomainError("profile must be positive on (-1, 1) to have a Liouville length")
        return np.sqrt((1.0 - x * x) / fx)

    return gauss_jacobi_sqrt_weight(g, q.abs_tol)
