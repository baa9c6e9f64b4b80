import math

import numpy as np
import pytest

from revspec import QuadratureAccuracyError, QuadratureConfig
from revspec.quadrature import adaptive_gauss, gauss_jacobi_sqrt_weight


def test_config_validation():
    QuadratureConfig()  # defaults are legal
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


def test_polynomial_exact():
    val = adaptive_gauss(lambda x: x**4 - x**2 + 0.25, (-1.0, 1.0), 1e-12)
    assert val == pytest.approx(2.0 / 5.0 - 2.0 / 3.0 + 0.5, abs=1e-14)


def test_needs_subdivision():
    # sharp interior peak forces several panel doublings
    val = adaptive_gauss(lambda x: 1.0 / (1e-4 + x * x), (-1.0, 1.0), 1e-10)
    exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert val == pytest.approx(exact, abs=1e-9)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureAccuracyError) as info:
        adaptive_gauss(lambda x: 1.0 / (1e-8 + x * x), (-1.0, 1.0), 1e-12, max_doublings=2)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate > 1e-12


def test_adaptive_gauss_deterministic():
    fn = lambda x: np.exp(-x) / (1e-3 + x * x)
    a = adaptive_gauss(fn, (-1.0, 1.0), 1e-11)
    b = adaptive_gauss(fn, (-1.0, 1.0), 1e-11)
    assert a == b


def test_stacked_rows_equal_row_by_row():
    # a stack of integrands gives each row's own integral, bit for bit: the
    # rows are summed alike, and the smooth rows settle at the same panel count
    breaks = (-1.0, -0.3, 1.0)
    fns = (lambda x: np.cos(3.0 * x), lambda x: np.exp(x) * x**2, lambda x: 1.0 / (2.0 + x))
    stacked = adaptive_gauss(lambda x: np.stack([fn(x) for fn in fns]), breaks, 1e-12)
    assert stacked.shape == (3,)
    for fn, val in zip(fns, stacked):
        assert val == adaptive_gauss(fn, breaks, 1e-12)


def test_jacobi_arcsine_weight():
    # integral of (1-x^2)^(-1/2) dx = pi
    val = gauss_jacobi_sqrt_weight(lambda x: np.ones_like(x), 1e-13)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_jacobi_polynomial_factor():
    # integral of x^2 / sqrt(1-x^2) = pi/2
    val = gauss_jacobi_sqrt_weight(lambda x: x * x, 1e-13)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-12)
