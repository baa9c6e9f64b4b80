import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from revspec import (
    DomainError,
    ProfileError,
    ProfileSpec,
    QuadratureConfig,
    build_profile,
    builtin_profile,
    curvature_at,
    curvature_sign_indicator,
    integrate_curvature_moment,
    integrate_moment,
    liouville_length,
    load_profile,
    validate_profile,
)

QUAD = QuadratureConfig()


# ---------------------------------------------------------------- building

def test_canonical_closed_form(canonical):
    assert canonical.f(0.0) == pytest.approx(1.0, abs=0)
    assert canonical.df(-1.0) == pytest.approx(2.0, abs=0)
    assert canonical.df(1.0) == pytest.approx(-2.0, abs=0)


def test_paper_example_closed_form(paper):
    assert paper.f(0.0) == pytest.approx(2.0, abs=0)
    assert paper.df(1.0) == pytest.approx(-2.0, abs=1e-15)
    assert paper.df(-1.0) == pytest.approx(2.0, abs=1e-15)


def test_builtin_exactness_at_random_points(canonical, paper):
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 1.0, size=1000)
    assert_allclose(canonical.f(x), 1.0 - x * x, rtol=0, atol=0)
    assert_allclose(canonical.df(x), -2.0 * x, rtol=0, atol=0)
    assert_allclose(canonical.d2f(x), np.full_like(x, -2.0), rtol=0, atol=0)
    assert_allclose(paper.f(x), 2.0 * (1.0 - x * x) / (1.0 + x * x), rtol=1e-15)
    assert_allclose(paper.df(x), -8.0 * x / (1.0 + x * x) ** 2, rtol=1e-15)
    assert_allclose(paper.d2f(x), -8.0 * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3, rtol=1e-15)


def test_polynomial_factor_unit_q_matches_canonical(canonical):
    poly = build_profile(ProfileSpec("polynomial-factor", {"coefficients": [1.0]}))
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=1000)
    assert_allclose(poly.f(x), canonical.f(x), rtol=0, atol=1e-15)
    assert_allclose(poly.df(x), canonical.df(x), rtol=0, atol=1e-15)
    assert_allclose(poly.d2f(x), canonical.d2f(x), rtol=0, atol=1e-15)


def test_rational_matches_paper_example(paper):
    rational = build_profile(
        ProfileSpec("rational", {"numerator": [2.0, 0.0, -2.0], "denominator": [1.0, 0.0, 1.0]})
    )
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, size=1000)
    assert_allclose(rational.f(x), paper.f(x), rtol=1e-14, atol=1e-14)
    assert_allclose(rational.df(x), paper.df(x), rtol=1e-13, atol=1e-13)
    assert_allclose(rational.d2f(x), paper.d2f(x), rtol=1e-12, atol=1e-12)


def test_sampled_profile_reconstruction(canonical):
    xs = np.linspace(-1.0, 1.0, 41)
    spec = ProfileSpec("sampled", {"x": xs.tolist(), "f": (1.0 - xs * xs).tolist()})
    prof = build_profile(spec)
    grid = np.linspace(-1.0, 1.0, 301)
    assert_allclose(prof.f(grid), canonical.f(grid), atol=5e-5)
    # endpoint slopes are baked into the reconstruction
    assert prof.df(-1.0) == pytest.approx(2.0, abs=1e-12)
    assert prof.df(1.0) == pytest.approx(-2.0, abs=1e-12)
    assert validate_profile(prof).passed


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (ProfileSpec("nope"), "kind"),
        (ProfileSpec("polynomial-factor", {"coefficients": []}), "coefficients"),
        (ProfileSpec("polynomial-factor", {"coefficients": [1.0, math.nan]}), "coefficients"),
        (ProfileSpec("rational", {"numerator": [1.0], "denominator": [0.0, 1.0]}), "denominator"),
        (ProfileSpec("sampled", {"x": [-1.0, 0.5, 0.0, 1.0], "f": [0, 1, 1, 0]}), "increasing"),
        (ProfileSpec("sampled", {"x": [-0.9, 0.0, 1.0], "f": [0, 1, 0]}), "endpoints"),
        (ProfileSpec("sampled", {"x": [-1.0, 0.0, 1.0], "f": [0, 1]}), "length"),
    ],
)
def test_construction_errors_name_the_field(spec, fragment):
    with pytest.raises(ProfileError, match=fragment):
        build_profile(spec)


def test_builtin_rejects_unknown_name():
    with pytest.raises(ProfileError):
        builtin_profile("sphere")


def test_load_profile_roundtrip(tmp_path, paper):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"kind": "paper-example", "params": {}}))
    prof = load_profile(path)
    assert prof.f(0.5) == pytest.approx(paper.f(0.5), abs=0)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProfileError):
        load_profile(bad)


def test_load_sampled_profile_file(tmp_path):
    xs = np.linspace(-1.0, 1.0, 33)
    path = tmp_path / "sampled.json"
    path.write_text(json.dumps({
        "kind": "sampled",
        "params": {"x": xs.tolist(), "f": (1.0 - xs * xs).tolist()},
    }))
    prof = load_profile(path)
    assert validate_profile(prof).passed


# ---------------------------------------------------------------- validation

def test_validate_canonical(canonical):
    report = validate_profile(canonical)
    assert report.passed
    assert report.area == pytest.approx(4.0 * math.pi, abs=0)
    assert report.min_f_interior > 0.0
    assert report.messages == []


def test_validate_flags_squared_profile():
    # f = (1-x^2)^2 has vanishing endpoint slopes: not an admissible metric
    prof = build_profile(ProfileSpec("polynomial-factor", {"coefficients": [1.0, 0.0, -1.0]}))
    report = validate_profile(prof)
    assert not report.passed
    assert report.endpoint_derivatives[0] == pytest.approx(0.0, abs=1e-12)
    assert any("f'(-1)" in msg for msg in report.messages)


def test_validate_paper_curvature_integral(paper):
    report = validate_profile(paper)
    assert report.passed
    # total curvature in the chart: -(f'(1) - f'(-1))/2 = 2
    assert report.curvature_integral == pytest.approx(2.0, abs=1e-9)


def test_validate_grid_size_precondition(canonical):
    with pytest.raises(DomainError):
        validate_profile(canonical, grid_size=2)


def test_validation_report_serializes(canonical):
    payload = validate_profile(canonical).to_json_dict()
    assert set(payload) == {
        "passed", "endpoint_values", "endpoint_derivatives",
        "min_f_interior", "area", "curvature_integral", "messages",
    }
    json.dumps(payload)


# ---------------------------------------------------------------- curvature

def test_canonical_curvature_is_one(canonical):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=100)
    assert_allclose(curvature_at(canonical, x), np.ones_like(x), atol=1e-15)


def test_paper_curvature_values(paper):
    assert curvature_at(paper, 0.0) == pytest.approx(4.0, abs=1e-15)
    root = 1.0 / math.sqrt(3.0)
    assert curvature_at(paper, root) == pytest.approx(0.0, abs=1e-14)
    assert curvature_at(paper, -root) == pytest.approx(0.0, abs=1e-14)
    # negative on the polar regions beyond the roots
    assert curvature_at(paper, 0.9) < 0.0
    assert curvature_at(paper, -1.0) < 0.0


def test_curvature_domain_error(canonical):
    with pytest.raises(DomainError):
        curvature_at(canonical, 1.5)


# ---------------------------------------------------------------- integrals

def test_moment_l0_is_two(canonical, paper):
    assert integrate_moment(canonical, 0, QUAD) == pytest.approx(2.0, abs=1e-12)
    assert integrate_moment(paper, 0, QUAD) == pytest.approx(2.0, abs=1e-12)


def test_canonical_first_moment(canonical):
    assert integrate_moment(canonical, 1, QUAD) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_paper_first_moment(paper):
    assert integrate_moment(paper, 1, QUAD) == pytest.approx(2.0 * math.pi - 4.0, abs=1e-10)


def test_high_moment_log_space(canonical):
    # integral of (1-x^2)^m = 2^(2m+1) m!^2 / (2m+1)!
    m = 50
    exact = 2.0 ** (2 * m + 1) * math.factorial(m) ** 2 / math.factorial(2 * m + 1)
    val = integrate_moment(canonical, m, QuadratureConfig(abs_tol=1e-16))
    assert val == pytest.approx(exact, rel=1e-12)


def test_moment_rejects_negative_exponent(canonical):
    with pytest.raises(DomainError):
        integrate_moment(canonical, -1, QUAD)


def test_moments_strictly_positive(canonical, paper, bump):
    for prof in (canonical, paper, bump(-0.5), bump(4.0)):
        for l in range(0, 7):
            assert integrate_moment(prof, l, QUAD) > 0.0


def test_curvature_moment_values(canonical, paper):
    assert integrate_curvature_moment(paper, 1, QUAD) == pytest.approx(
        math.pi + 4.0 / 3.0, abs=1e-10
    )
    # K == 1 for the round sphere, so the l = 1 curvature moment is int f
    assert integrate_curvature_moment(canonical, 1, QUAD) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_total_curvature_across_family(canonical, paper, bump):
    # -(f'(1) - f'(-1))/2 = 2 for every admissible profile
    for prof in (canonical, paper, bump(-0.5), bump(1.0), bump(4.0)):
        assert integrate_curvature_moment(prof, 0, QUAD) == pytest.approx(2.0, abs=1e-9)


# ------------------------------------------------------- sign indicator

def test_sign_indicator_canonical(canonical):
    ind = curvature_sign_indicator(canonical, QUAD)
    assert ind.f_integral == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert ind.x2K_integral == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert not ind.implies_negative_curvature
    assert ind.identity_gap <= 2.0 * QUAD.abs_tol


def test_sign_indicator_paper(paper):
    ind = curvature_sign_indicator(paper, QUAD)
    assert ind.f_integral == pytest.approx(2.0 * math.pi - 4.0, abs=1e-10)
    assert ind.x2K_integral == pytest.approx(6.0 - 2.0 * math.pi, abs=1e-10)
    assert ind.implies_negative_curvature
    assert ind.identity_gap <= 2.0 * QUAD.abs_tol


def test_sign_indicator_boundary(bump):
    # c = 0.625 puts int f exactly at the boundary value 2
    ind = curvature_sign_indicator(bump(0.625), QUAD)
    assert ind.f_integral == pytest.approx(2.0, abs=1e-12)
    assert ind.implies_negative_curvature == (ind.f_integral >= 2.0)
    assert curvature_sign_indicator(bump(0.7), QUAD).implies_negative_curvature
    assert not curvature_sign_indicator(bump(0.5), QUAD).implies_negative_curvature


def test_sign_indicator_sampled_integrates_across_knots(sampled_bump):
    # K' jumps at the knots; piecewise integration makes int x^2 K exact for
    # the spline, which by parts (f(+-1) = 0, f'(+-1) = -+2) is 2 - int f
    spline = CubicSpline(sampled_bump.spec.params["x"], sampled_bump.spec.params["f"],
                         bc_type=((1, 2.0), (1, -2.0)))
    ind = curvature_sign_indicator(sampled_bump, QUAD)
    assert ind.x2K_integral == pytest.approx(2.0 - spline.integrate(-1.0, 1.0), abs=1e-13)


def test_parts_identity_across_family(bump, paper):
    for prof in (paper, bump(-0.5), bump(0.5), bump(2.0), bump(4.0)):
        ind = curvature_sign_indicator(prof, QUAD)
        assert ind.f_integral + ind.x2K_integral == pytest.approx(2.0, abs=2.0 * QUAD.abs_tol)


# ---------------------------------------------------------------- length

def test_liouville_length_canonical(canonical):
    assert liouville_length(canonical, QUAD) == pytest.approx(math.pi, abs=1e-10)


def test_liouville_length_paper(paper):
    # fixed by an independent high-order computation of int f^(-1/2)
    assert liouville_length(paper, QUAD) == pytest.approx(2.701287762095351, abs=1e-9)
