import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from revspec import (
    BUILTIN_NAMES,
    DomainError,
    ProfileError,
    ProfileSpec,
    QuadratureAccuracyError,
    QuadratureConfig,
    build_profile,
    builtin_profile,
    curvature_at,
    curvature_sign_indicator,
    integrate_curvature_moment,
    integrate_moment,
    liouville_length,
    load_profile,
    moment_table,
    validate_profile,
)
from revspec import profile as profile_module, slsolver

from conftest import bench_module, generated_profiles

QUAD = QuadratureConfig()
_GENERATED = bench_module("profiles").generate  # the benchmark's profiles for a seed


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


def _nonuniform_97():
    """97 knots clustered toward the poles and jittered, with noisy samples."""
    i = np.arange(97)
    t = np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 97))
    x = t + 0.3 * np.sin(5.0 * i) * np.gradient(t)
    x[0], x[-1] = -1.0, 1.0
    return x, (1.0 - x * x) * (1.0 + 0.5 * np.sin(3.0 * x) + 1e-3 * (-1.0) ** i)


@pytest.mark.parametrize("case", ["sampled_bump", "nonuniform_97", "two_samples"]
                         + [f"generated-{seed}" for seed in range(1, 21)])
def test_sampled_spline_matches_scipy(case, sampled_bump):
    if case == "sampled_bump":
        x, fv = (np.asarray(sampled_bump.spec.params[key]) for key in ("x", "f"))
    elif case.startswith("generated"):
        params = _GENERATED(int(case.split("-")[1]))["sampled"]["params"]
        x, fv = (np.asarray(params[key], dtype=float) for key in ("x", "f"))
    elif case == "nonuniform_97":
        x, fv = _nonuniform_97()
    else:
        x, fv = np.array([-1.0, 1.0]), np.zeros(2)
    prof = build_profile(ProfileSpec("sampled", {"x": x.tolist(), "f": fv.tolist()}))
    oracle = CubicSpline(x, fv, bc_type=((1, 2.0), (1, -2.0)))
    pts = np.concatenate([x, np.linspace(-1.0, 1.0, 2001), [-1.0, 1.0, 0.3]])  # the knots exactly
    # callers pass unsorted points too (the solver's folded rule descends)
    order = np.random.default_rng(7).permutation(pts.size)
    for nu, (fn, rtol) in enumerate(((prof.f, 1e-14), (prof.df, 1e-13), (prof.d2f, 1e-13))):
        values, expected = fn(pts), oracle(pts, nu)
        assert_allclose(values, expected, rtol=0, atol=rtol * float(np.max(np.abs(expected))))
        assert type(fn(0.3)) is float and fn(0.3) == values[-1]
        sorted_pts = np.sort(pts)
        on_sorted = fn(sorted_pts)
        assert np.array_equal(fn(sorted_pts[::-1]), on_sorted[::-1])
        assert np.array_equal(fn(sorted_pts[order]), on_sorted[order])
    if case == "two_samples":  # the clamped cubic through two samples is 1 - x^2
        assert_allclose(prof.f(pts), 1.0 - pts * pts, rtol=0, atol=1e-15)


# ----------------------------------------------- one piecewise-rational form

_EXTENDED = np.finfo(np.longdouble).eps < 1e-18  # else the rational reference rounds like double


def _independent(p):
    """(f, f', f'') of the profile p by formulas that share no code with the
    evaluator: closed forms, numpy Polynomial objects (the rational quotient
    rule in long double) and numpy polyval on each spline piece."""
    kind, params = p.spec.kind, p.spec.params
    if kind == "canonical":
        return lambda x: 1.0 - x * x, lambda x: -2.0 * x, lambda x: np.full_like(x, -2.0)
    if kind == "paper-example":
        return (lambda x: 2.0 * (1.0 - x * x) / (1.0 + x * x),
                lambda x: -8.0 * x / (1.0 + x * x) ** 2,
                lambda x: -8.0 * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3)
    if kind == "polynomial-factor":
        poly = Polynomial([1.0, 0.0, -1.0]) * Polynomial(params["coefficients"])
        return poly, poly.deriv(1), poly.deriv(2)
    if kind == "rational":
        num, den = Polynomial(params["numerator"]), Polynomial(params["denominator"])

        def quotient(order):
            def value(x):
                x = x.astype(np.longdouble)
                n, n1, n2 = (num.deriv(i)(x) if i else num(x) for i in range(3))
                d, d1, d2 = (den.deriv(i)(x) if i else den(x) for i in range(3))
                return ((n1 * d - n * d1) / d**2 if order == 1 else
                        (n2 * d * d - 2 * n1 * d1 * d - n * d2 * d + 2 * n * d1 * d1) / d**3).astype(float)
            return value

        return lambda x: num(x) / den(x), quotient(1), quotient(2)
    knots = np.asarray(p.breaks)
    table = profile_module._clamped_spline(knots, np.asarray(params["f"], dtype=float), 2.0, -2.0)
    pieces = [Polynomial(table[::-1, i]) for i in range(knots.size - 1)]

    def spline(order):
        def value(x):
            piece = np.clip(np.searchsorted(knots, x, "right") - 1, 0, len(pieces) - 1)
            out = np.empty_like(x)
            for i, poly in enumerate(pieces):
                mine = piece == i
                out[mine] = poly.deriv(order)(x[mine] - knots[i])
            return out
        return value

    return spline(0), spline(1), spline(2)


def _independent_q(p):
    """q = f/(1 - x^2) of the profile p by numpy.polynomial division: the
    numerator of a one-piece kind divided by 1 - x^2; on a spline, each end
    piece divided by the pole factor it ends on, and the rest of 1 - x^2
    divided out pointwise, where it stays away from 0."""
    kind, params = p.spec.kind, p.spec.params
    w = Polynomial([1.0, 0.0, -1.0])
    if kind != "sampled":
        num, den = w, Polynomial([1.0])
        if kind == "paper-example":
            num, den = 2.0 * w, Polynomial([1.0, 0.0, 1.0])
        elif kind == "polynomial-factor":
            num = w * Polynomial(params["coefficients"])
        elif kind == "rational":
            num, den = Polynomial(params["numerator"]), Polynomial(params["denominator"])
        quotient = num // w
        return lambda x: quotient(x) / den(x)
    knots = np.asarray(p.breaks)
    table = profile_module._clamped_spline(knots, np.asarray(params["f"], dtype=float), 2.0, -2.0)
    last = knots.size - 2
    pieces = []
    for i in range(last + 1):
        poly = Polynomial(table[::-1, i])
        if i == 0:
            poly = poly // Polynomial([1.0 + knots[i], 1.0])  # x + 1 in powers of x - knots[i]
        if i == last:
            poly = poly // Polynomial([1.0 - knots[i], -1.0])  # 1 - x
        pieces.append(poly)

    def value(x):
        piece = np.clip(np.searchsorted(knots, x, "right") - 1, 0, last)
        out = np.empty_like(x)
        for i, poly in enumerate(pieces):
            mine = piece == i
            xi = x[mine]
            out[mine] = poly(xi - knots[i]) / ((1.0 if i == 0 else 1.0 + xi) * (1.0 if i == last else 1.0 - xi))
        return out

    return value


def _representation_cases():
    yield pytest.param("canonical", None, id="canonical")
    yield pytest.param("paper-example", None, id="paper-example")
    for seed in range(1, 21):
        for name, spec in _GENERATED(seed).items():
            yield pytest.param(name, spec, id=f"{name}-{seed}")


@pytest.mark.parametrize("name, spec", _representation_cases())
def test_representation_matches_independent_formulas(name, spec):
    p = builtin_profile(name) if spec is None else build_profile(ProfileSpec(spec["kind"], spec["params"]))
    grids = [np.linspace(-1.0, 1.0, 2001)] + [slsolver._rule(p.breaks, n, k)[0] for n, k in ((32, 0), (258, 1))]
    # the endpoint conditions f(+-1) = 0, f'(+-1) = -+2 read q(+-1) = 1
    assert np.max(np.abs(p.q(np.array([-1.0, 1.0])) - 1.0)) <= 1e-12
    if p.spec.kind == "rational" and not _EXTENDED:
        pytest.skip("the rational reference needs a long double wider than double")
    for x in grids:
        f, df, d2f = _independent(p)
        assert np.array_equal(p.f(x), f(x))
        for mine, theirs in ((p.df(x), df(x)), (p.d2f(x), d2f(x)), (p.q(x), _independent_q(p)(x))):
            scale = float(np.max(np.abs(theirs)))
            assert np.max(np.abs(mine - theirs)) <= 4 * np.finfo(float).eps * scale


def test_q_is_one_at_the_poles_of_the_fixtures(bump, dented, sampled_bump):
    for p in (bump(0.3), bump(-0.4), dented, sampled_bump):
        assert np.max(np.abs(p.q(np.array([-1.0, 1.0])) - 1.0)) <= 1e-12


def test_pole_term_of_the_paper_example_is_exact(paper):
    """(1/q - q)/(1 - x^2), the term a residual bound needs, at the N = 1024
    solver nodes: q = 2/(1 + x^2) gives -(x^2 + 3)/(2 (1 + x^2)). q formed
    as f/(1 - x^2) at the nodes misses it by 3.1e-6; q's own table leaves
    only the cancellation in 1/q - q, 2.1e-11."""
    x = slsolver._rule(paper.breaks, 1024, 0)[0]
    q = paper.q(x)
    term = (1.0 / q - q) / ((1.0 - x) * (1.0 + x))
    assert np.max(np.abs(term + (x * x + 3.0) / (2.0 * (1.0 + x * x)))) <= 1e-10


def test_even_profiles_still_split(canonical, paper):
    # even means one piece with no odd powers in N or D, so f(-x) == f(x) bit
    # for bit; a near-even factor and a mirror-symmetric spline are not
    generated = build_profile(ProfileSpec(**_GENERATED(1)["bump"]))
    near_even = build_profile(ProfileSpec("polynomial-factor", {"coefficients": [1.3, 1e-9, -0.3, -1e-9]}))
    half = -np.cos(np.pi * np.arange(12) / 24)
    x = np.concatenate([half, [0.0], -half[::-1]])
    spline = build_profile(ProfileSpec("sampled", {"x": x.tolist(), "f": ((1.0 - x * x) * (1.3 - 0.3 * x * x)).tolist()}))
    odd_den = build_profile(ProfileSpec("rational", {"numerator": [1.0, 0.0, -1.0], "denominator": [1.0, 0.1]}))
    for p, even in ((canonical, True), (paper, True), (generated, False), (near_even, False), (spline, False),
                    (odd_den, False)):
        assert p.even == even


def test_constant_rational_has_zero_derivatives():
    # its numerator has degree below 2: the whole of it is endpoint defect, and q is 0
    p = build_profile(ProfileSpec("rational", {"numerator": [3.0], "denominator": [2.0]}))
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(p.f(x), np.full(5, 1.5))
    assert not np.any(p.df(x)) and not np.any(p.d2f(x))
    assert not np.any(p.q(x))


def _general_derivatives(num, den):
    """N1 = N'D - ND' and N2 = N1'D - 2D'N1 by the products, whatever D is."""
    trim, mul, deriv = profile_module._trim, profile_module._mul, profile_module._deriv
    n1 = trim(mul(deriv(num), den) - mul(num, deriv(den)))
    return n1, trim(mul(deriv(n1), den) - 2.0 * mul(deriv(den), n1))


def _general_rule(breaks, origins, num, den):
    """f, f', f'' and q of the tables by the general rule, whatever the
    tables hold: locate each point's piece, take its coefficient columns,
    run Horner's rule on N and on D, and divide by D ** power."""
    interior, origins = np.asarray(breaks[1:-1], dtype=float), np.asarray(origins, dtype=float)
    n1, n2 = _general_derivatives(num, den)

    def horner(coef, s):
        out = np.full_like(s, coef[0])
        for row in coef[1:]:
            out *= s
            out += row
        return out

    def rule(table, denominator, power):
        def evaluate(x):
            t = np.asarray(x, dtype=float)
            piece = interior.searchsorted(t, "right")
            s = t - origins.take(piece)
            out = horner(table.take(piece, axis=1), s) / horner(denominator.take(piece, axis=1), s) ** power
            return float(out) if np.ndim(x) == 0 else out

        return evaluate

    return (rule(num, den, 1), rule(n1, den, 2), rule(n2, den, 3),
            rule(*profile_module._pole_quotient(origins, num, den), 1))


def _built_with_tables(spec):
    """The profile of spec, and the (breaks, origins, num, den) it was built from."""
    tables, evaluators = [], profile_module._piecewise_rational

    def record(*args):
        tables.append(args)
        return evaluators(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profile_module, "_piecewise_rational", record)
        p = build_profile(spec)
    return p, tables[0]


def _assert_general_rule_bit_for_bit(spec):
    p, tables = _built_with_tables(spec)
    # the derivative tables too, signs of zeros included: with D = 1 the
    # build forms N1 = N' and N2 = N1' with no products
    for mine, general in zip(profile_module._derivative_numerators(*tables[2:]), _general_derivatives(*tables[2:])):
        assert mine.shape == general.shape and mine.tobytes() == general.tobytes(), spec
    reference = _general_rule(*tables)
    grid = np.sort(np.concatenate([np.linspace(-1.0, 1.0, 601), p.breaks, [-1.0 - 1e-3, 0.3, 1.0 + 1e-3, -0.0]]))
    points = [0.3, -1.0, 1.0, p.breaks[len(p.breaks) // 2], np.array(0.3), np.array(-1.0),
              grid, grid[::-1], grid[np.random.default_rng(3).permutation(grid.size)]]
    for mine, theirs in zip((p.f, p.df, p.d2f, p.q), reference):
        for x in points:
            got, want = mine(x), theirs(x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (spec, x)


def _bit_identity_specs():
    for name in BUILTIN_NAMES:
        yield pytest.param(ProfileSpec(name), id=name)
    for seed in (1, 2, 3):
        for name, spec in _GENERATED(seed).items():
            yield pytest.param(ProfileSpec(spec["kind"], spec["params"]), id=f"{name}-{seed}")
    yield pytest.param(ProfileSpec("sampled", {"x": [-1.0, 1.0], "f": [0.0, 0.0]}), id="two-samples")
    yield pytest.param(ProfileSpec("rational", {"numerator": [1.0, 0.0, -1.0], "denominator": [1.0]}),
                       id="rational-over-1")
    # N' holds a -0.0, which the general rule's sums turn into 0.0
    yield pytest.param(ProfileSpec("rational", {"numerator": [1.0, -0.0, -1.0], "denominator": [1.0]}),
                       id="signed-zero-over-1")
    yield pytest.param(ProfileSpec("rational", {"numerator": [1.0, 0.0, -1.0], "denominator": [1.0, 0.0]}),
                       id="rational-over-untrimmed-1")
    yield pytest.param(ProfileSpec("rational", {"numerator": [3.0], "denominator": [2.0]}), id="constant")


@pytest.mark.parametrize("spec", _bit_identity_specs())
def test_evaluators_equal_the_general_rule_bit_for_bit(spec):
    # one-piece and unit-denominator tables skip the piece lookup, the
    # division and the derivative products; no shortcut may move a bit
    _assert_general_rule_bit_for_bit(spec)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(generated_profiles())
def test_generated_evaluators_equal_the_general_rule_bit_for_bit(p):
    _assert_general_rule_bit_for_bit(p.spec)


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


@pytest.mark.parametrize("kind", [["canonical"], {"a": 1}, None], ids=["list", "dict", "none"])
@pytest.mark.parametrize("entry", ["build_profile", "load_profile"])
def test_kind_that_is_not_a_string_is_a_profile_error(kind, entry, tmp_path):
    with pytest.raises(ProfileError, match="kind"):
        if entry == "build_profile":
            build_profile(ProfileSpec(kind))
        else:
            path = tmp_path / "prof.json"
            path.write_text(json.dumps({"kind": kind} if kind is not None else {}))
            load_profile(path)


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


def test_validate_and_length_reject_a_profile_negative_inside(dented):
    assert any(m.startswith("f is not positive") for m in validate_profile(dented).messages)
    with pytest.raises(DomainError, match="positive"):
        liouville_length(dented, QUAD)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the input itself overflows
def test_validate_flags_a_profile_that_overflows():
    prof = build_profile(ProfileSpec("polynomial-factor", {"coefficients": [1e308, 1e308]}))
    report = validate_profile(prof)
    assert not report.passed
    assert "f is not finite everywhere on the validation grid" in report.messages


def test_validate_paper_curvature_integral(paper):
    report = validate_profile(paper)
    assert report.passed
    # total curvature in the chart: -(f'(1) - f'(-1))/2 = 2
    assert report.curvature_integral == pytest.approx(2.0, abs=1e-9)


def test_validate_reports_unsettled_curvature_integral(monkeypatch):
    # f = (1 - x^2)(1 + (1 - x^2) / d), d = 1e-6 + (x - 0.3)^2: admissible
    # endpoints, but a peak of height 1e6 that quadrature of the curvature
    # does not settle on. validate runs no quadrature: it reads the integral
    # off the endpoint slopes, so the profile passes
    prof = build_profile(ProfileSpec("rational", {
        "numerator": [1.090001, -0.6, -1.090001, 0.6], "denominator": [0.090001, -0.6, 1.0]}))
    with pytest.raises(QuadratureAccuracyError):
        integrate_curvature_moment(prof, 0)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("validate_profile ran a quadrature")

    monkeypatch.setattr(profile_module, "adaptive_gauss", no_quadrature)
    report = validate_profile(prof)
    assert report.passed and report.messages == []
    d = report.endpoint_derivatives
    assert d == pytest.approx((2.0, -2.0), abs=1e-9)
    assert report.curvature_integral == (d[0] - d[1]) / 2


@settings(derandomize=True, deadline=None, max_examples=40)
@given(generated_profiles())
def test_curvature_integral_is_read_off_the_endpoint_slopes(p):
    # Gauss-Bonnet in the chart: -1/2 int f'' dx = (f'(-1) - f'(1))/2 for a
    # C^1 profile, bit for bit from the slopes, and within the quadrature
    # contract of the integrated curvature row
    report = validate_profile(p)
    slope_lo, slope_hi = float(p.df(-1.0)), float(p.df(1.0))
    assert report.curvature_integral == (slope_lo - slope_hi) / 2
    assert abs(report.curvature_integral - integrate_curvature_moment(p, 0)) <= 2 * QUAD.abs_tol


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


def _concatenated_moments(p, l_max):
    """moment_table with its rows stacked by np.concatenate, as it once was."""

    def rows(x):
        fx = np.asarray(p.f(x), dtype=float)
        powers = np.empty((l_max + 1, x.size))
        powers[0] = fx > 0.0
        powers[1:] = np.maximum(fx, 0.0)
        np.cumprod(powers, axis=0, out=powers)
        curv = -0.5 * np.asarray(p.d2f(x), dtype=float)
        return np.concatenate([powers, powers * curv])

    table = profile_module.adaptive_gauss(rows, p.breaks, QUAD.abs_tol)
    return table[: l_max + 1], table[l_max + 1:]


def _moment_cases():
    for name in BUILTIN_NAMES:
        yield pytest.param(ProfileSpec(name), id=name)
    yield pytest.param(ProfileSpec("polynomial-factor", {"coefficients": [3.0, 0.0, -2.0]}), id="bump-2")
    yield pytest.param(ProfileSpec("polynomial-factor", {"coefficients": [-1.0, 0.0, 2.0]}), id="dented")
    yield pytest.param(None, id="sampled_bump")
    for seed in (1, 2, 3):
        for name, spec in _GENERATED(seed).items():
            yield pytest.param(ProfileSpec(spec["kind"], spec["params"]), id=f"{name}-{seed}")


def _stacked_moments(moments, p, l_max):
    """The rows (I, C) of moments(p, l_max) stacked, or the best estimate of
    the QuadratureAccuracyError it raises (dented does not settle at depth 50)."""
    try:
        return np.concatenate(moments(p, l_max))
    except QuadratureAccuracyError as exc:
        return exc.best_estimate


@pytest.mark.parametrize("spec", _moment_cases())
def test_moment_table_equals_concatenated_rows_bit_for_bit(spec, sampled_bump):
    p = sampled_bump if spec is None else build_profile(spec)
    for l_max in (0, 1, 50):
        mine = _stacked_moments(lambda p, l: moment_table(p, l, QUAD), p, l_max)
        assert mine.tobytes() == _stacked_moments(_concatenated_moments, p, l_max).tobytes(), l_max


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


def _liouville_reference(p):
    """int f^(-1/2) in mpmath, piece by piece over the angles t = acos(-x),
    where it is int q(-cos t)^(-1/2) dt, with q evaluated in double."""
    with mp.workdps(25):
        return float(mp.fsum(
            mp.quad(lambda t: 1 / mp.sqrt(p.q(float(-mp.cos(t)))), [mp.acos(-a), mp.acos(-b)])
            for a, b in zip(p.breaks[:-1], p.breaks[1:])))


@pytest.mark.parametrize("name", ["canonical", "paper-example", "sampled_bump"]
                         + [f"sampled-{seed}" for seed in (1, 2, 3)])
def test_liouville_length_matches_piecewise_reference(name, sampled_bump):
    # the length is integrated over the profile's pieces, so a spline's knots
    # cost it no digits: within 1e-14 of the reference on every profile
    if name == "sampled_bump":
        p = sampled_bump
    elif name.startswith("sampled-"):
        spec = _GENERATED(int(name.split("-")[1]))["sampled"]
        p = build_profile(ProfileSpec(spec["kind"], spec["params"]))
    else:
        p = builtin_profile(name)
    reference = _liouville_reference(p)
    assert abs(liouville_length(p, QUAD) - reference) <= 1e-14 * reference
