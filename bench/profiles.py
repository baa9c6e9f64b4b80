"""Seeded generator of admissible profiles for the benchmark workloads.

Each seed yields one profile of each generated kind:

* ``bump``: polynomial-factor, q = 1 + (1 - x^2)(a + b x + c x^2);
* ``rational``: f = (1 - x^2)(d + s (1 - x^2)) / d with d = 1 + r x + p x^2,
  the family of the paper example (p = 1, r = 0, s = 1), with smaller p, s;
* ``sampled``: a bump of the first family sampled on a jittered
  Chebyshev-like grid, with interior noise at the 1e-3 scale, reaching the
  program as a spline table.

The ranges keep max f below about 1.5, so the moments the bounds need stay
small enough for the program's absolute quadrature tolerance at the depths
the workloads use on generated profiles; the fault that larger moments
trigger is exercised on the fixtures instead, where its count does not
depend on the seed.

Every profile passes an admissibility check that shares no code with the
program before it is used: f(+-1) = 0, f'(-1) = 2, f'(1) = -2, and f > 0 on
the open interval, with q = f / (1 - x^2) at least Q_MIN.
"""

from __future__ import annotations

import random

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

GENERATED = ("bump", "rational", "sampled")
FIXTURES = ("canonical", "paper-example")

_W = Polynomial([1.0, 0.0, -1.0])
#: Smallest q admitted on [-1, 1].
Q_MIN = 0.25
_SLOPE_TOL = 1e-9
_VALUE_TOL = 1e-12


class InadmissibleProfile(ValueError):
    """A generated profile failed the independent admissibility check."""


def _bump_q(a, b, c):
    return Polynomial([1.0]) + _W * Polynomial([a, b, c])


def _draw_bump(rng):
    q = _bump_q(rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    return {"kind": "polynomial-factor", "params": {"coefficients": [float(c) for c in q.coef]}}


def _draw_rational(rng):
    d = Polynomial([1.0, rng.uniform(-0.2, 0.2), rng.uniform(0.2, 0.8)])
    a = d + rng.uniform(0.1, 0.5) * _W
    num = _W * a
    return {
        "kind": "rational",
        "params": {"numerator": [float(c) for c in num.coef], "denominator": [float(c) for c in d.coef]},
    }


def _draw_sampled(rng):
    q = _bump_q(rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    n = 25
    t = np.cos(np.pi * (n - 1 - np.arange(n)) / (n - 1))
    jitter = np.array([rng.uniform(-0.2, 0.2) for _ in range(n)])
    spacing = np.gradient(t)
    x = t + jitter * spacing
    x[0], x[-1] = -1.0, 1.0
    f = (_W * q)(x)
    f[1:-1] *= 1.0 + np.array([rng.uniform(-1e-3, 1e-3) for _ in range(n - 2)])
    f[0] = f[-1] = 0.0
    return {"kind": "sampled", "params": {"x": [float(v) for v in x], "f": [float(v) for v in f]}}


_DRAW = {"bump": _draw_bump, "rational": _draw_rational, "sampled": _draw_sampled}


def admissibility(spec):
    """Independent check of the profile conditions; returns a list of problems."""
    kind = spec["kind"]
    params = spec["params"]
    if kind == "polynomial-factor":
        f_of = _W * Polynomial(params["coefficients"])
        df_of = f_of.deriv()
    elif kind == "rational":
        num, den = Polynomial(params["numerator"]), Polynomial(params["denominator"])
        if np.min(np.abs(den(np.linspace(-1.0, 1.0, 4001)))) <= 0.1:
            return ["denominator comes near zero on [-1, 1]"]

        def f_of(x):
            return num(x) / den(x)

        def df_of(x):
            return (num.deriv()(x) * den(x) - num(x) * den.deriv()(x)) / den(x) ** 2
    elif kind == "sampled":
        xs = np.asarray(params["x"])
        if np.any(np.diff(xs) <= 0.0) or xs[0] != -1.0 or xs[-1] != 1.0:
            return ["sample grid must increase strictly from -1 to 1"]
        f_of = CubicSpline(xs, params["f"], bc_type=((1, 2.0), (1, -2.0)))
        df_of = f_of.derivative()
    else:
        return [f"unknown kind {kind}"]
    problems = []
    if abs(f_of(-1.0)) > _VALUE_TOL or abs(f_of(1.0)) > _VALUE_TOL:
        problems.append("f does not vanish at the endpoints")
    if abs(df_of(-1.0) - 2.0) > _SLOPE_TOL or abs(df_of(1.0) + 2.0) > _SLOPE_TOL:
        problems.append("endpoint slopes are not +2 / -2")
    inner = np.linspace(-1.0, 1.0, 4001)[1:-1]
    if np.min(f_of(inner) / (1.0 - inner * inner)) < Q_MIN:
        problems.append(f"f/(1-x^2) drops below {Q_MIN}: f is not safely positive")
    return problems


def generate(seed):
    """The generated profiles for one seed, as name -> JSON spec.

    A draw that fails the admissibility check is redrawn from the same
    stream, so a seed always maps to the same admissible profiles.
    """
    rng = random.Random(seed)
    out = {}
    for name in GENERATED:
        for _ in range(100):
            spec = _DRAW[name](rng)
            if not admissibility(spec):
                break
        else:
            raise InadmissibleProfile(f"no admissible {name} profile for seed {seed}")
        out[name] = spec
    return out
