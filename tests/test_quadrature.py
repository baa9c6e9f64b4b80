import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_legendre

from revspec import QuadratureAccuracyError, QuadratureConfig
from revspec.quadrature import adaptive_gauss, gauss_jacobi_sqrt_weight, gauss_legendre, piecewise_rule


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
    # a peak of width 1e-4 is not resolved by 1024 panels
    with pytest.raises(QuadratureAccuracyError) as info:
        adaptive_gauss(lambda x: 1.0 / (1e-8 + x * x), (-1.0, 1.0), 1e-12)
    assert "1024 panels" in str(info.value)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate > 1e-12


def test_jacobi_budget_exhaustion_carries_best_estimate():
    # |x - 0.3| has a kink inside a piece, so the estimates settle only like 1/n^2
    with pytest.raises(QuadratureAccuracyError) as info:
        gauss_jacobi_sqrt_weight(lambda x: np.abs(x - 0.3), (-1.0, 1.0), 1e-13)
    assert "1024 panels" in str(info.value)
    # int |x - c| / sqrt(1 - x^2) = 2 sqrt(1 - c^2) + 2 c asin(c)
    exact = 2.0 * math.sqrt(0.91) + 0.6 * math.asin(0.3)
    assert info.value.best_estimate == pytest.approx(exact, abs=1e-6)


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
    val = gauss_jacobi_sqrt_weight(lambda x: np.ones_like(x), (-1.0, 1.0), 1e-13)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_jacobi_polynomial_factor():
    # integral of x^2 / sqrt(1-x^2) = pi/2
    val = gauss_jacobi_sqrt_weight(lambda x: x * x, (-1.0, 1.0), 1e-13)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-12)


def _legendre_node_and_weight(n, x0):
    """The Gauss-Legendre node nearest x0 and its weight, to 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(3):  # Newton from a double-precision node; the last step only rounds
            p0, p1 = mp.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [1, 2, 3, 25, 40, 133, 283, 1072, 2048])
def test_gauss_legendre_matches_references(n):
    x, w = gauss_legendre(n)
    assert_allclose(x, roots_legendre(n)[0], rtol=0, atol=1e-15)
    # roots_legendre's weights are off by up to 1e-7 relative near n = 2048,
    # so the weights are checked against 40 digits. At a Gauss node
    # d(log w)/dx = 2x / (1 - x^2): a node right to a few ulps moves the
    # weight by about 2e-15 / (1 - x^2) relative, which is most near the poles.
    idx = range(n) if n <= 40 else sorted({0, 1, 2, 3, 5, 10, 20, n // 4, n // 2})
    for i in idx:
        node, weight = _legendre_node_and_weight(n, x[i])
        assert abs(x[i] - node) <= 1e-15
        assert abs(w[i] / weight - 1) <= 1e-13 + 2e-15 / (1.0 - x[i] ** 2)


def test_gauss_legendre_keeps_every_size():
    # a process solving deep spectra asks for many sizes again and again:
    # none may be evicted and rebuilt
    first = gauss_legendre(3)
    for n in range(4, 4 + 80):
        gauss_legendre(n)
    again = gauss_legendre(3)
    assert again[0] is first[0] and again[1] is first[1]


def test_piecewise_rule_is_exact_on_each_interval():
    # a 5-point rule integrates degree 9 exactly, interval by interval, so a
    # function that is a different polynomial on each one comes out exact
    # to roundoff
    edges = np.array([-1.0, -0.2, 0.5, 1.0])
    x, w = piecewise_rule(edges, 5)
    assert x.size == w.size == 15
    assert np.all((x[:5] > -1.0) & (x[:5] < -0.2)) and np.all((x[10:] > 0.5) & (x[10:] < 1.0))
    fx = np.where(x < -0.2, x**9, np.where(x < 0.5, 3.0 * x**2, 1.0))
    exact = (0.2**10 - 1.0) / 10.0 + (0.5**3 + 0.2**3) + 0.5
    assert abs(np.dot(fx, w) - exact) <= 1e-14
