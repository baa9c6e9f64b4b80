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

The l = m bound is the Rayleigh quotient of u = f^(m/2) in mode m itself,

    sharp(m) = m^2 int f^(m-1) (1 + f'^2/4) dx / int f^m dx,

so sharp_bound(p, m) - first_eigenvalue(p, m) >= 0, with equality exactly
when f^(m/2) is an eigenfunction of mode m; a positive gap at some m
certifies a non-canonical metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class BoundsRow(Report):
    """All applicable upper bounds for one eigenvalue index m.

    ``ray`` maps each tested trial exponent l to its bound; ``sharp`` is
    ray[m] and ``rough`` is ray[1] by construction. Only ``neg_curv`` and
    ``computed_lambda`` can be None: ``neg_curv`` is present only when
    int f >= 2, and ``computed_lambda`` is filled when an assembled spectrum
    deep enough is supplied, and must sit below every bound.
    """

    m: int
    sharp: float
    ray: dict[int, float]
    rough: float
    neg_curv: Optional[float]
    canonical: float
    computed_lambda: Optional[float]


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
    """The l = m trial bound, the Rayleigh quotient of f^(m/2) in mode m;
    equality for all m characterizes the round sphere."""
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

