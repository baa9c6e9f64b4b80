import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from revspec import ProfileSpec, assemble_spectrum, build_profile, builtin_profile


def bench_module(name):
    """A module of the benchmark harness (bench/<name>.py), loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
def dented():
    """f = (1 - x^2)(2 x^2 - 1): the endpoint conditions hold, but f < 0 for
    |x| < 1/sqrt(2)."""
    return build_profile(ProfileSpec("polynomial-factor", {"coefficients": [-1.0, 0.0, 2.0]}))


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


@st.composite
def generated_profiles(draw):
    """A polynomial-factor, rational or 9- to 33-knot spline profile with
    q = f / (1 - x^2) near 1, drawn from the benchmark's ranges; the spline
    carries alternating relative noise of up to 1e-3. Also an exactly even
    polynomial factor (no odd coefficient: stacks take the parity fold) and
    a near-even one (an odd coefficient of 1e-9: stacks keep the whole
    matrix). The rough 49- and 97-knot Chebyshev splines are left out: their
    two-size estimates are known to understate the error (ROADMAP item 2)."""
    poly, w = np.polynomial.polynomial, [1.0, 0.0, -1.0]
    small = st.floats(-0.2, 0.2)
    kind = draw(st.sampled_from(("polynomial-factor", "rational", "sampled", "even", "near-even")))
    if kind == "rational":
        den = [1.0, draw(small), draw(st.floats(0.2, 0.8))]
        num = poly.polymul(w, poly.polyadd(den, draw(st.floats(0.1, 0.5)) * np.array(w)))
        return build_profile(ProfileSpec(kind=kind, params={"numerator": num.tolist(), "denominator": den}))
    odd = {"even": 0.0, "near-even": 1e-9}.get(kind)
    q = poly.polyadd([1.0], poly.polymul(w, [draw(st.floats(0.1, 0.5)), draw(small) if odd is None else odd,
                                            draw(small)]))
    if kind != "sampled":
        return build_profile(ProfileSpec(kind="polynomial-factor", params={"coefficients": q.tolist()}))
    i = np.arange(draw(st.integers(9, 33)))
    x = -np.cos(np.pi * i / i[-1])
    f = (1.0 - x * x) * poly.polyval(x, q) * (1.0 + draw(st.floats(0.0, 1e-3)) * (-1.0) ** i)
    f[0] = f[-1] = 0.0
    return build_profile(ProfileSpec(kind=kind, params={"x": x.tolist(), "f": f.tolist()}))


def dumbbell(c):
    """f = (1 - x^2)(c + (1 - c) x^2): two wells joined by a neck where
    f = c, whose tunnelling pairs draw closer as c shrinks."""
    return build_profile(ProfileSpec("polynomial-factor", {"coefficients": [c, 0.0, 1.0 - c]}))


#: The dumbbells with c in [0.05, 0.5].
dumbbells = st.floats(0.05, 0.5).map(dumbbell)
