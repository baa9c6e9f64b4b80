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
bounds are made of. Every kind is one representation: on each smooth piece,
tables of a numerator N and a denominator D in powers of x - origin. The
closed-form kinds are one piece in powers of x; a sampled profile is its
clamped cubic spline, piece i in powers of x - x_i with D = 1. One Horner
evaluator serves every kind: f = N/D, f' = N1/D^2 and f'' = N2/D^3, with
N1 = N'D - ND' and N2 = N1'D - 2D'N1 formed once, at build time. It takes
two shortcuts, read off the tables and neither moving a bit: a one-piece
table is evaluated from its one column, with no piece lookup, and a
denominator table that is identically 1 (canonical, the polynomial
factors, f, f' and f'' of every spline) is neither evaluated nor divided by,
and its N1 and N2 are built as N' and N1', with no products.

The poles close smoothly exactly when f = (1 - x^2) q with q(+-1) = 1, and
the mode solver integrates q and 1/q. So q gets its own table, built once
by one rule: on each piece N is divided by each pole factor the piece ends
on (x + 1 on the first piece, 1 - x on the last, both on a single piece)
by synthetic division in powers of x - origin, the remainder dropped (it
is the endpoint defect endpoint_conditions reports), and D is multiplied by
each factor of 1 - x^2 the piece does not end on. q is then exact to
rounding up to the poles, where f/(1 - x^2) at a node is not. A profile is
``even`` when it is one piece with no odd powers in N or D: then f and q
are even bit for bit, and the solver folds its rule onto the upper half.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

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

#: The built-in kinds, which take no params, as (numerator, denominator) in
#: ascending powers of x: the round sphere and the paper's example.
_BUILTIN_FORMS = {"canonical": ([1.0, 0.0, -1.0], [1.0]),
                  "paper-example": ([2.0, 0.0, -2.0], [1.0, 0.0, 1.0])}
BUILTIN_NAMES = tuple(_BUILTIN_FORMS)


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
    in [-1, 1] and accept scalars or arrays; q evaluates f/(1 - x^2) from
    its own table (module docstring), so it needs no division at the poles.
    ``even`` is True when f is an even function by construction: one piece
    with no odd powers in N or D. ``breaks`` are the end points of the
    pieces on which f is smooth: the spline knots of a sampled profile,
    (-1, 1) for every other kind.
    """

    spec: ProfileSpec
    f: Callable
    df: Callable
    d2f: Callable
    q: Callable
    even: bool
    breaks: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class ValidationReport(Report):
    """Outcome of the admissibility checks for one profile."""

    passed: bool
    endpoint_values: tuple[float, ...]  # (f(-1), f(1))
    endpoint_derivatives: tuple[float, ...]  # (f'(-1), f'(1))
    min_f_interior: float
    area: float  # 4*pi identically: the chart volume element is dx dtheta
    curvature_integral: float  # integral of K dx = (f'(-1) - f'(1))/2; 2 for admissible f
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
        return float(out) if np.ndim(x) == 0 else out

    return call


# A coefficient table holds one column per piece, highest power first.

def _column(coeffs):
    """The one-piece table of coefficients given in ascending powers."""
    return np.asarray(coeffs, dtype=float)[::-1, None]


def _deriv(table):
    """Derivative table (no rows for a constant)."""
    return table[:-1] * np.arange(len(table) - 1, 0, -1)[:, None]


def _mul(a, b):
    """Product table, column by column."""
    out = np.zeros((len(a) + len(b) - 1, max(a.shape[1], b.shape[1])))
    for i, row in enumerate(a):
        out[i:i + len(b)] += row * b
    return out


def _trim(table):
    """The table without its leading all-zero rows (one zero row for 0)."""
    nonzero = np.flatnonzero(np.any(table != 0.0, axis=1))
    return table[nonzero[0]:] if nonzero.size else np.zeros((1, table.shape[1]))


def _horner(coef, s):
    """Horner's rule on coefficient rows, each a number or one per point of s."""
    out = np.full_like(s, coef[0])
    for row in coef[1:]:
        out *= s
        out += row
    return out


def _divide(column, root):
    """Quotient of one column by s - root by synthetic division, shifted
    down one row so the column keeps its length; the remainder is dropped."""
    return [0.0, *accumulate(column[:-1], lambda acc, c: acc * root + c)]


def _pole_quotient(origins, num, den):
    """Tables of q = N/(D (1 - x^2)) (module docstring): N divided by each
    pole factor, x + 1 and 1 - x, that its piece ends on, D multiplied by
    each it does not."""
    num, pieces = num.copy(), num.shape[1]
    plus = np.array([np.ones(pieces), 1.0 + origins])  # x + 1 = s + (1 + origin), s = x - origin
    minus = np.array([-np.ones(pieces), 1.0 - origins])  # 1 - x = -s + (1 - origin)
    num[:, 0] = _divide(num[:, 0], -plus[1, 0])
    num[:, -1] = np.negative(_divide(num[:, -1], minus[1, -1]))
    plus[:, 0] = minus[:, -1] = (0.0, 1.0)
    return _trim(num), _trim(_mul(_mul(den, plus), minus))


def _is_unit(den):
    """Whether a denominator table is identically 1."""
    return den.shape[0] == 1 and bool(np.all(den == 1.0))


def _derivative_numerators(num, den):
    """The tables N1 = N'D - ND' and N2 = N1'D - 2D'N1. For D = 1 they are
    N' and N1', formed directly and bit for bit the same: the general
    rule's sums start from 0.0, which turns a -0.0 into 0.0, and so does
    adding 0.0."""
    if _is_unit(den):
        n1 = _trim(_deriv(num) + 0.0)
        return n1, _trim(_deriv(n1))
    n1 = _trim(_mul(_deriv(num), den) - _mul(num, _deriv(den)))
    return n1, _trim(_mul(_deriv(n1), den) - 2.0 * _mul(_deriv(den), n1))


def _piecewise_rational(breaks, origins, num, den):
    """Evaluators f, f', f'' and q of N/D (module docstring) from the tables
    ``num`` and ``den``, piece i in powers of x - origins[i]; points outside
    [breaks[0], breaks[-1]] extend the end pieces. Each evaluator locates
    the pieces, takes their coefficient columns and divides by D ** power,
    except where its tables make a step an identity: one piece needs no
    lookup and D = 1 no division."""
    interior, origins = np.asarray(breaks[1:-1], dtype=float), np.asarray(origins, dtype=float)
    n1, n2 = _derivative_numerators(num, den)
    one_piece, origin = origins.size == 1, float(origins[0])

    def evaluator(table, denominator, power):
        unit = _is_unit(denominator)
        column, den_column = table[:, 0].tolist(), denominator[:, 0].tolist()

        def evaluate(t):
            if one_piece:
                s, coef, den = t - origin if origin else t, column, den_column
            else:
                piece = interior.searchsorted(t, "right")  # piece i holds [breaks[i], breaks[i + 1])
                s, coef = t - origins.take(piece), table.take(piece, axis=1)
                den = None if unit else denominator.take(piece, axis=1)
            value = _horner(coef, s)
            return value if unit else value / _horner(den, s) ** power

        return _wrap_scalar(evaluate)

    return (evaluator(num, den, 1), evaluator(n1, den, 2), evaluator(n2, den, 3),
            evaluator(*_pole_quotient(origins, num, den), 1))


def _spline_table(params):
    """Knots and table of the clamped C^2 cubic through the samples, with
    the admissible endpoint slopes baked in: the slope condition is a hard
    constraint, so it is part of reconstruction rather than left to the data."""
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
    return x, _clamped_spline(x, fv, 2.0, -2.0)


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


def build_profile(spec: ProfileSpec) -> MetricProfile:
    """Construct evaluators for a profile spec.

    Every kind becomes one numerator and one denominator table on each
    smooth piece (_piecewise_rational). Malformed parameters raise
    ProfileError naming the offending field, as does a kind that is not a
    string; admissibility (positivity,
    endpoint values and slopes) is *not* enforced here -- it is reported by
    validate_profile so that inadmissible profiles can still be examined.
    """
    if not isinstance(spec.kind, str):
        raise ProfileError(f"profile 'kind' must be a string, got {spec.kind!r}")
    breaks, origins, den = (-1.0, 1.0), (0.0,), _column([1.0])
    if spec.kind in _BUILTIN_FORMS:
        num, den = (_column(c) for c in _BUILTIN_FORMS[spec.kind])
    elif spec.kind == "polynomial-factor":
        q = _as_float_array(spec.params.get("coefficients"), "coefficients")
        num = _mul(_column([1.0, 0.0, -1.0]), _column(q))
    elif spec.kind == "rational":
        num, den = (_column(_as_float_array(spec.params.get(key), key))
                    for key in ("numerator", "denominator"))
        dvals = np.abs(_horner(den[:, 0], np.linspace(-1.0, 1.0, 4097)))
        if np.min(dvals) <= 1e-12 * max(1.0, float(np.max(dvals))):
            raise ProfileError("params['denominator'] vanishes on [-1, 1]")
    elif spec.kind == "sampled":
        x, num = _spline_table(spec.params)
        breaks, origins, den = tuple(float(v) for v in x), x[:-1], np.ones((1, x.size - 1))
    else:
        raise ProfileError(f"unknown profile kind {spec.kind!r}; expected one of {PROFILE_KINDS}")
    f, df, d2f, q = _piecewise_rational(breaks, origins, num, den)
    even = num.shape[1] == 1 and not (num[-2::-2].any() or den[-2::-2].any())  # rows of odd powers
    return MetricProfile(spec=spec, f=f, df=df, d2f=d2f, q=q, even=even, breaks=breaks)


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
    if not isinstance(data, dict):
        raise ProfileError(f"profile file {path} must be a JSON object with a string 'kind' field")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProfileError("profile 'params' must be a JSON object")
    return build_profile(ProfileSpec(kind=data.get("kind"), params=params))


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
    field is the exact chart area 4*pi, and the curvature integral is the
    exact -1/2 int f'' dx = (f'(-1) - f'(1))/2 of the C^1 profile (Gauss-Bonnet
    in the chart), read off the endpoint slopes.
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
    return ValidationReport(
        passed=not messages,
        endpoint_values=values,
        endpoint_derivatives=slopes,
        min_f_interior=min_f,
        area=4.0 * math.pi,
        curvature_integral=(slopes[0] - slopes[1]) / 2,
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
    endpoints). The f^l rows and the f^l K rows are written into one
    buffer, the stack of rows the quadrature integrates. An I[l] that is
    not a positive normal float rests on powers f^l outside the float
    range, with too few significant bits, and a row that overflows has no
    integral: QuadratureAccuracyError names the first such l, an overflow
    at the evaluation that meets it (with no best estimate).
    """
    if l_max < 0:
        raise DomainError("moment exponent l must be >= 0")

    def rows(x):
        fx = np.asarray(p.f(x), dtype=float)
        out = np.empty((2 * (l_max + 1), x.size))
        powers = out[: l_max + 1]
        powers[0] = fx > 0.0
        powers[1:] = np.maximum(fx, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(powers, axis=0, out=powers)
            np.multiply(powers, -0.5 * np.asarray(p.d2f(x), dtype=float), out=out[l_max + 1:])
        # a row overflows only where f > 1, so one that does at l does at l_max
        if not np.isfinite(out[[l_max, -1]]).all():
            bad = ~np.isfinite(out).all(axis=1).reshape(2, l_max + 1)
            l = int(np.flatnonzero(bad.any(axis=0))[0])
            raise QuadratureAccuracyError(f"the powers f^l left the floating-point range at l={l}: the "
                                          f"integrand f^{l}{'' if bad[0, l] else ' K'} overflows", best_estimate=None)
        return out

    table = adaptive_gauss(rows, p.breaks, q.abs_tol)
    moments = table[: l_max + 1]
    outside = np.flatnonzero(~(np.isfinite(moments) & (moments >= np.finfo(float).tiny)))
    if outside.size:
        l = int(outside[0])
        raise QuadratureAccuracyError(
            f"the powers f^l left the floating-point range at l={l}: the integral of f^{l} is "
            f"{moments[l]:.3e}, not a positive normal float", best_estimate=table)
    return moments, table[l_max + 1:]


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
    """Evaluate int f and int x^2 K in one pass; flag the negative-curvature regime.

    The flag is int f >= 2 (boundary case included). For admissible profiles
    the two integrals satisfy int f = 2 - int x^2 K within 2 * q.abs_tol;
    the realized gap is reported for auditing.
    """
    def rows(x):
        return np.stack([np.maximum(np.asarray(p.f(x), dtype=float), 0.0),
                         -0.5 * x * x * np.asarray(p.d2f(x), dtype=float)])

    f_int, x2k = (float(v) for v in adaptive_gauss(rows, p.breaks, q.abs_tol))
    return CurvatureSignIndicator(
        f_integral=f_int,
        x2K_integral=x2k,
        implies_negative_curvature=f_int >= 2.0,
        identity_gap=abs(f_int - (2.0 - x2k)),
    )


def liouville_length(p: MetricProfile, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Length of [-1, 1] in the Liouville normal form: integral of f^(-1/2).

    The integrand has inverse-square-root endpoint singularities (f vanishes
    linearly at +-1), so it is integrated as (1 - x^2)^(-1/2) p.q^(-1/2),
    p.q = f/(1 - x^2), by gauss_jacobi_sqrt_weight over the profile's
    pieces, within q.abs_tol relative to max(T, 1).
    """

    def g(x):
        qx = np.asarray(p.q(x), dtype=float)
        if np.any(qx <= 0.0):
            raise DomainError("profile must be positive on (-1, 1) to have a Liouville length")
        return 1.0 / np.sqrt(qx)

    return gauss_jacobi_sqrt_weight(g, p.breaks, q.abs_tol)
