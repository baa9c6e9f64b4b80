"""Closed-form upper bounds for the distinct Laplace eigenvalues.

Plugging the trial function u = f^(l/2) into the Rayleigh quotient of the
mode-m operator and integrating by parts gives, for every l >= 1,

    lambda_m <= m^2 * I(l-1)/I(l) + l * C(l) / (2 * I(l)),

where I(l) = int f^l dx and C(l) = int f^l K dx. The choice l = m is the
sharp bound (equality for every m exactly on the round sphere, where the
moment ratio is 1 + 1/(2m) and the bound collapses to m^2 + m); l = 1 is a
cheap rough bound valid for all m. When int f dx >= 2 the rough bound's
leading coefficient drops below 1 and yields lambda_m <= m^2 + const with
const < 1, so the gap to the round-sphere value m^2 + m grows without
bound -- and the profile must carry negative curvature somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InapplicabilityError
# curvature_sign_indicator, integrate_curvature_moment and integrate_moment are
# not called here; bench/tracing.py rebinds them and fails on a missing one.
from .profile import (  # noqa: F401 (see above)
    MetricProfile,
    curvature_sign_indicator,
    integrate_curvature_moment,
    integrate_moment,
    moment_table,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .report import Report
from .slsolver import solver_grid


@dataclass(frozen=True)
class BoundsRow(Report):
    """All applicable upper bounds for one eigenvalue index m.

    ``ray`` maps each tested trial exponent l to its bound; ``sharp`` is
    ray[m] and ``rough`` is ray[1] by construction. ``neg_curv`` is present
    only when int f >= 2. ``computed_lambda`` is filled when an assembled
    spectrum is supplied, and must sit below every bound.
    """

    m: int
    sharp: Optional[float]
    ray: dict[int, float]
    rough: Optional[float]
    neg_curv: Optional[float]
    canonical: float
    computed_lambda: Optional[float]


@dataclass(frozen=True)
class ResidualDiagnostic:
    """How far the trial function f^(m/2) is from a genuine eigenfunction.

    residual_norm is the discrete L2 norm of L_m[f^(m/2)] - rho * f^(m/2)
    with rho the trial function's Rayleigh quotient. It vanishes (to
    discretization accuracy) for every m exactly when the profile is the
    round sphere, so a persistently positive residual certifies a
    non-canonical metric.
    """

    m: int
    residual_norm: float
    note: str


def ray_bound(p: MetricProfile, m: int, l: int, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Trial-function bound for lambda_m with exponent l >= 1."""
    if m < 1:
        raise DomainError("eigenvalue index m must be >= 1")
    if l < 1:
        raise DomainError("trial exponent l must be >= 1")
    I, C = moment_table(p, l, q)
    return float(_ray(m, l, I[l - 1], I[l], C[l]))


def _ray(m, l, moment_lo, moment_hi, curv):
    return m * m * moment_lo / moment_hi + l * curv / (2.0 * moment_hi)


def sharp_bound(p: MetricProfile, m: int, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """The l = m trial bound; equality for all m characterizes the round sphere."""
    return ray_bound(p, m, m, q)


def rough_bound(p: MetricProfile, m: int, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """The l = 1 trial bound: m^2 * 2/int(f) + int(fK) / (2 int(f))."""
    return ray_bound(p, m, 1, q)


def _neg_curv(m, I, C):
    return float(m * m + C[1] / (2.0 * I[1])) if I[1] >= 2.0 else None


def negative_curvature_bound(
    p: MetricProfile, m: int, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """The bound m^2 + int(fK)/(2 int(f)), valid only when int f >= 2.

    In that regime the additive constant is < 1, so the round-sphere values
    m^2 + m overtake this bound by m - const, a gap growing without bound.
    Raises InapplicabilityError when int f < 2.
    """
    if m < 1:
        raise DomainError("eigenvalue index m must be >= 1")
    I, C = moment_table(p, 1, q)
    bound = _neg_curv(m, I, C)
    if bound is None:
        raise InapplicabilityError(
            f"int f dx = {I[1]:.6g} < 2: the negative-curvature bound requires int f >= 2"
        )
    return bound


def bounds_table(
    p: MetricProfile,
    m_max: int,
    l_set=(1,),
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    spectrum=None,
) -> list:
    """One BoundsRow per m = 1..m_max, all from one moment table.

    The tested exponents are l_set plus {1, m} so that the sharp and rough
    columns always exist; every cell is filled, and a moment table that
    cannot meet q raises QuadratureAccuracyError. ``neg_curv`` is None
    exactly when int f < 2. ``spectrum`` may be an assembled GlobalSpectrum;
    its values fill the computed_lambda column where deep enough.
    """
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    extra = [int(l) for l in l_set]
    if any(l < 1 for l in extra):
        raise DomainError("trial exponents must be >= 1")
    I, C = moment_table(p, max([m_max, *extra]), q)
    rows = []
    for m in range(1, m_max + 1):
        ray = {l: float(_ray(m, l, I[l - 1], I[l], C[l])) for l in sorted({1, m, *extra})}
        computed = None
        if spectrum is not None and m < len(spectrum.entries):
            computed = spectrum.entries[m].value
        rows.append(
            BoundsRow(
                m=m,
                sharp=ray[m],
                ray=ray,
                rough=ray[1],
                neg_curv=_neg_curv(m, I, C),
                canonical=float(m * m + m),
                computed_lambda=computed,
            )
        )
    return rows


def trial_residual(p: MetricProfile, m: int, n: int = 256) -> ResidualDiagnostic:
    """Residual of the trial function u = f^(m/2) under the mode-m operator.

    The operator is applied in closed form via the product rule,

        L_m[f^(m/2)] = m^2 f^(m/2 - 1) (1 - f'^2/4) + m f^(m/2) K,

    sampled on the n-cell grid ``solver_grid(n)``; rho is the discrete
    Rayleigh quotient of the samples. Applying a difference operator instead
    would bury the diagnostic: the trial function of odd m has square-root
    endpoint behaviour a stencil cannot differentiate, leaving an O(1)
    boundary artifact in the norm at every grid size, whereas the closed
    form is exact where the evaluators are. The note reports the residual on
    a doubled grid: a residual that shrinks with the grid is sampling error
    (round sphere); one that persists certifies that u is genuinely not an
    eigenfunction.
    """
    if m < 1:
        raise DomainError("eigenvalue index m must be >= 1")
    if n < 3:
        raise DomainError("the sampling grid needs n >= 3 cells")

    def norm_at(cells):
        nodes, h = solver_grid(cells)
        f = np.asarray(p.f(nodes), dtype=float)
        if np.any(f <= 0.0):
            raise DomainError("profile must be positive on (-1, 1)")
        df = np.asarray(p.df(nodes), dtype=float)
        curv = -0.5 * np.asarray(p.d2f(nodes), dtype=float)
        u = f ** (0.5 * m)
        applied = m * m * f ** (0.5 * m - 1.0) * (1.0 - 0.25 * df * df) + m * u * curv
        rho = float(np.sum(u * applied) / np.sum(u * u))
        resid = applied - rho * u
        return float(np.sqrt(h * np.sum(resid * resid))), rho

    primary, rho = norm_at(n)
    refined, _ = norm_at(2 * n)
    if primary <= 10.0 * abs(primary - refined) or primary < 1e-10:
        interpretation = "residual tracks discretization error; u behaves like an eigenfunction"
    else:
        interpretation = "residual persists under refinement; u is not an eigenfunction"
    note = (
        f"rho={rho:.12g}; grid {n}: {primary:.6e}; "
        f"grid {2 * n}: {refined:.6e}; {interpretation}"
    )
    return ResidualDiagnostic(m=m, residual_norm=primary, note=note)
