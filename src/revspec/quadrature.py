"""Quadrature rules for profile integrals.

Two rules cover everything the package integrates:

* a composite Gauss-Legendre rule on the profile's smooth pieces for
  integrands that are smooth there and at worst continuous at the endpoints
  (the moments f^l and f^l K, all of them in one pass);
* a Gauss-Chebyshev rule, the Gauss-Jacobi rule with weight (1-x^2)^(-1/2),
  for integrands with inverse-square-root endpoint behaviour, which appear
  because admissible profiles vanish linearly at x = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureAccuracyError


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule.

    leggauss's weights are off by up to 1e-13 relative at n = 25; two
    Newton steps on the three-term recurrence and the closed-form weights
    2 / ((1 - x^2) P_n'(x)^2) bring them to about 1e-14.
    """
    x = leggauss(n)[0]
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL25 = _gauss_legendre(25)

#: Relative agreement below which two panel counts sit at roundoff, so a
#: smaller tolerance could never be met.
ROUNDOFF_FLOOR = 1e-14

#: Most nodes handed to the integrand at once, so a stack of rows on a fine
#: rule stays a few megabytes.
_BLOCK = 16384


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy contract for the integral operations.

    ``abs_tol`` is the tolerance each integral must meet, relative to
    max(|integral|, 1): absolute for integrals up to 1, relative above.
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def _composite(fn, breaks, panels):
    """Sum of 25-point Gauss rules on ``panels`` equal panels per piece."""
    edges = np.concatenate([np.linspace(a, b, panels, endpoint=False)
                            for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * _GL25[0]).ravel()
    w = (half[:, None] * _GL25[1]).ravel()
    # numpy's pairwise sum along each row: accurate, and the same per row
    # whatever else is stacked with it
    return sum((np.asarray(fn(x[i:i + _BLOCK]), dtype=float) * w[i:i + _BLOCK]).sum(axis=-1)
               for i in range(0, x.size, _BLOCK))


def adaptive_gauss(fn, breaks, abs_tol, max_doublings=10):
    """Integrate a vectorized callable over [breaks[0], breaks[-1]].

    Each smooth piece between consecutive ``breaks`` gets one 25-point
    Gauss-Legendre panel, and the panel count doubles until two counts agree
    within max(abs_tol, ROUNDOFF_FLOOR) * max(|value|, 1); the finer value
    is returned. ``fn`` may return a stack of rows, one integrand each;
    every row must settle. Raises QuadratureAccuracyError, carrying the best
    estimate and the error estimate, if ``max_doublings`` doublings do not
    suffice.
    """
    tol = max(abs_tol, ROUNDOFF_FLOOR)
    panels = 1
    value = _composite(fn, breaks, panels)
    for _ in range(max_doublings):
        panels *= 2
        prev, value = value, _composite(fn, breaks, panels)
        err = np.abs(value - prev)
        if np.all(err <= tol * np.maximum(np.abs(value), 1.0)):
            return float(value) if np.ndim(value) == 0 else value
    raise QuadratureAccuracyError(
        f"composite Gauss rule did not settle to {tol:.3e} relative within {panels} panels "
        f"per piece (error estimate {np.max(err):.3e})",
        best_estimate=value,
        error_estimate=err,
    )


def gauss_jacobi_sqrt_weight(g, abs_tol, max_doublings=8):
    """Integrate (1-x^2)^(-1/2) * g(x) over [-1, 1] for smooth g.

    Gauss-Chebyshev nodes cos((2i+1) pi / 2n) with weights pi / n absorb the
    endpoint singularity; the node count doubles from 16 until two
    successive estimates agree to ``abs_tol``.
    """
    n = 16
    prev = None
    for _ in range(max_doublings + 1):
        x = -np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
        val = float(np.sum(g(x))) * np.pi / n
        if prev is not None and abs(val - prev) <= abs_tol:
            return val
        prev = val
        n *= 2
    raise QuadratureAccuracyError(
        f"Gauss-Chebyshev rule did not settle to {abs_tol:.3e} within {n // 2} nodes",
        best_estimate=prev,
    )
