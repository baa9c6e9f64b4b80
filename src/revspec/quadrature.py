"""Quadrature rules for profile integrals and mode assembly.

One rule covers everything the package integrates: Gauss-Legendre rules
laid onto intervals, for integrands that are smooth on each of the
profile's pieces and at worst continuous at their ends. The moments f^l
and f^l K, all of them in one pass, and the Liouville length int f^(-1/2)
of the trace tail run on 25-point panels (``adaptive_gauss``) under one
convergence loop and one relative tolerance; the mode solver's Galerkin
forms run on one rule per piece whose size the solver chooses. The
Liouville integrand has inverse-square-root endpoint behaviour, because
admissible profiles vanish linearly at x = +-1: the substitution
x = -cos t removes it (``gauss_jacobi_sqrt_weight``).

The rule is computed here with numpy alone (``gauss_legendre``), by
Newton's method from closed-form starting nodes. This module is the only
one that builds a Gauss-Legendre rule or maps one onto intervals
(``piecewise_rule``, the same formula for the panels and the solver).
``gauss_legendre`` keeps every size it builds: the sizes asked for are 25
and the solver's node counts, at most n_max + k + 24 for a basis cap n_max
and the largest mode k solved, so the cache is bounded by the modes a
process solves (12 sizes, 23 kB, for depth-50 spectra of canonical,
paper-example and the benchmark's seed-1 bump, rational and sampled
profiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import QuadratureAccuracyError


@cache
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    cached read-only for every n built.

    Four Newton steps on the three-term recurrence bring the closed-form
    guess -cos(pi (i + 3/4) / (n + 1/2)) to within an ulp or two of the
    roots (checked up to n = 2048). The weights are the closed form
    2 / ((1 - x^2) P_n'(x)^2): about 1e-14 relative away from the poles,
    where a node's rounding moves its weight by about 2e-16 / (1 - x^2).
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False  # the cache shares them
    return x, w


def piecewise_rule(edges, n):
    """The n-point Gauss-Legendre rule on every interval between consecutive
    ``edges``: nodes 0.5 (a + b) + 0.5 (b - a) t and weights 0.5 (b - a) c,
    interval by interval in one flat pair of arrays."""
    t, c = gauss_legendre(n)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * t).ravel(), (0.5 * (b - a) * c).ravel()


#: Relative agreement below which two panel counts sit at roundoff, so a
#: smaller tolerance could never be met.
ROUNDOFF_FLOOR = 1e-14

#: Most nodes handed to the integrand at once, so a stack of rows on a fine
#: rule stays a few megabytes.
_BLOCK = 16384

ADAPTIVE_DOUBLINGS = 10  #: adaptive_gauss gives up beyond 1024 panels per piece


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy contract for the integral operations.

    ``abs_tol`` is the tolerance every integral (the moments, the curvature
    sign indicator and the Liouville length) must meet, relative to
    max(|integral|, 1): absolute for integrals up to 1, relative above.
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def _composite(fn, breaks, panels):
    """Sum of the 25-point ``piecewise_rule`` on ``panels`` equal panels per
    piece; the panel edges of piece [a, b) are a + i (b - a) / panels, as
    ``np.linspace(a, b, panels, endpoint=False)`` computes them."""
    ends = np.asarray(breaks, dtype=float)
    a, b = ends[:-1, None], ends[1:, None]
    x, w = piecewise_rule(np.append(a + np.arange(panels) * ((b - a) / panels), ends[-1]), 25)
    # numpy's pairwise sum along each row: accurate, and the same per row
    # whatever else is stacked with it
    return sum((np.asarray(fn(x[i:i + _BLOCK]), dtype=float) * w[i:i + _BLOCK]).sum(axis=-1)
               for i in range(0, x.size, _BLOCK))


def adaptive_gauss(fn, breaks, abs_tol):
    """Integrate a vectorized callable over [breaks[0], breaks[-1]].

    Each smooth piece between consecutive ``breaks`` gets one 25-point
    Gauss-Legendre panel, and the panel count doubles until two counts agree
    within max(abs_tol, ROUNDOFF_FLOOR) * max(|value|, 1); the finer value
    is returned. ``fn`` may return a stack of rows, one integrand each;
    every row must settle. Raises QuadratureAccuracyError, carrying the best
    estimate and the error estimate, if ADAPTIVE_DOUBLINGS doublings do not
    suffice.
    """
    tol = max(abs_tol, ROUNDOFF_FLOOR)
    panels = 1
    value = _composite(fn, breaks, panels)
    for _ in range(ADAPTIVE_DOUBLINGS):
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


def gauss_jacobi_sqrt_weight(g, breaks, abs_tol):
    """Integrate (1-x^2)^(-1/2) * g(x) over [-1, 1] for g smooth on each
    piece between consecutive ``breaks``.

    x = -cos t turns the integral into that of g(-cos t) over [0, pi], which
    has no endpoint singularity and is smooth on each piece's angles
    arccos(-breaks), so ``adaptive_gauss`` integrates it there, under its
    relative tolerance and error path.
    """
    return adaptive_gauss(lambda t: g(-np.cos(t)), np.arccos(np.negative(breaks)), abs_tol)
