import numpy as np
import pytest

from revspec import ProfileSpec, assemble_spectrum, build_profile, builtin_profile


@pytest.fixture(scope="session")
def canonical():
    return builtin_profile("canonical")


@pytest.fixture(scope="session")
def paper():
    return builtin_profile("paper-example")


@pytest.fixture(scope="session")
def bump():
    """Factory for the family f = (1 - x^2) * (1 + c * (1 - x^2))."""

    def make(c):
        return build_profile(
            ProfileSpec("polynomial-factor", {"coefficients": [1.0 + c, 0.0, -c]})
        )

    return make


@pytest.fixture(scope="session")
def sampled_bump():
    """The bump f = (1 - x^2)(1 + 2(1 - x^2)) as a 25-knot spline: jittered
    Chebyshev knots, alternating +-1e-3 relative noise on interior samples."""
    i = np.arange(25)
    t = -np.cos(np.pi * i / 24)
    x = t + 0.2 * np.sin(7.0 * i) * np.gradient(t)
    x[0], x[-1] = -1.0, 1.0
    f = (1.0 - x * x) * (1.0 + 2.0 * (1.0 - x * x)) * (1.0 + 1e-3 * (-1.0) ** i)
    f[0] = f[-1] = 0.0
    return build_profile(ProfileSpec("sampled", {"x": x.tolist(), "f": f.tolist()}))


@pytest.fixture(scope="session")
def canonical_spectrum6(canonical):
    return assemble_spectrum(canonical, 6)


@pytest.fixture(scope="session")
def paper_spectrum6(paper):
    return assemble_spectrum(paper, 6)
