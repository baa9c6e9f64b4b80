import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revspec import (
    DomainError,
    InapplicabilityError,
    QuadratureConfig,
    assemble_spectrum,
    bounds_table,
    first_eigenvalue,
    negative_curvature_bound,
    ray_bound,
    rough_bound,
    sharp_bound,
)
from revspec.cli import run

from conftest import dumbbell, dumbbells, generated_profiles

QUAD = QuadratureConfig()

# exact arithmetic from the closed-form integrals of f = 2(1-x^2)/(1+x^2):
# int f = 2*pi - 4 and int f K = pi + 4/3
PAPER_ROUGH_SLOPE = 1.0 / (math.pi - 2.0)
PAPER_ROUGH_CONST = (3.0 * math.pi + 4.0) / (12.0 * math.pi - 24.0)


def test_sharp_canonical_values(canonical):
    assert sharp_bound(canonical, 1, QUAD) == pytest.approx(2.0, abs=1e-9)
    assert sharp_bound(canonical, 4, QUAD) == pytest.approx(20.0, abs=1e-9)


def test_sharp_canonical_sweep(canonical):
    # moment ratio identity: int f^(m-1) / int f^m = 1 + 1/(2m) for f = 1-x^2
    for m in range(1, 11):
        assert sharp_bound(canonical, m, QUAD) == pytest.approx(m * m + m, abs=1e-8)


def test_rough_canonical(canonical):
    # 1 * 2/(4/3) + (4/3)/(2*4/3) = 1.5 + 0.5
    assert rough_bound(canonical, 1, QUAD) == pytest.approx(2.0, abs=1e-10)


def test_ray_paper_m1_l1(paper):
    expected = PAPER_ROUGH_SLOPE + PAPER_ROUGH_CONST  # = 1.8559435277...
    assert ray_bound(paper, 1, 1, QUAD) == pytest.approx(expected, abs=1e-9)


def test_rough_paper_m3(paper):
    expected = 9.0 * PAPER_ROUGH_SLOPE + PAPER_ROUGH_CONST  # ~ 8.8637 < 10
    got = rough_bound(paper, 3, QUAD)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got < 10.0


def test_rough_equals_ray_l1_same_path(paper, canonical):
    for prof, m in ((paper, 1), (paper, 7), (canonical, 3)):
        assert rough_bound(prof, m, QUAD) == ray_bound(prof, m, 1, QUAD)


def test_sharp_equals_ray_lm_same_path(paper):
    for m in (1, 2, 5):
        assert sharp_bound(paper, m, QUAD) == ray_bound(paper, m, m, QUAD)


def test_ray_bound_reads_one_moment_table(paper, monkeypatch):
    from revspec import profile as profile_mod

    tables = []
    adaptive_gauss = profile_mod.adaptive_gauss

    def counting(*args, **kwargs):
        tables.append(1)
        return adaptive_gauss(*args, **kwargs)

    monkeypatch.setattr(profile_mod, "adaptive_gauss", counting)
    for m, l in ((1, 1), (4, 3), (6, 6)):
        tables.clear()
        value = ray_bound(paper, m, l, QUAD)
        assert len(tables) == 1
        assert value == pytest.approx(bounds_table(paper, m, (l,), QUAD)[m - 1].ray[l], rel=1e-13)


def test_domain_errors():
    from revspec import builtin_profile

    can = builtin_profile("canonical")
    with pytest.raises(DomainError):
        ray_bound(can, 0, 1, QUAD)
    with pytest.raises(DomainError):
        ray_bound(can, 1, 0, QUAD)
    with pytest.raises(DomainError):
        negative_curvature_bound(can, 0, QUAD)
    with pytest.raises(DomainError):
        bounds_table(can, 0)
    with pytest.raises(DomainError, match="trial exponents"):
        bounds_table(can, 1, l_set=(0,))


def test_negative_curvature_bound_paper(paper):
    assert negative_curvature_bound(paper, 1, QUAD) == pytest.approx(
        1.0 + PAPER_ROUGH_CONST, abs=1e-9
    )
    got10 = negative_curvature_bound(paper, 10, QUAD)
    assert got10 == pytest.approx(100.0 + PAPER_ROUGH_CONST, abs=1e-9)
    # the round-sphere value 110 clears this bound by ~9.02
    assert 110.0 - got10 == pytest.approx(9.02, abs=1e-2)


def test_negative_curvature_bound_inapplicable_on_canonical(canonical):
    with pytest.raises(InapplicabilityError, match="int f"):
        negative_curvature_bound(canonical, 1, QUAD)


def test_negative_curvature_gap_grows(paper):
    gaps = [
        (m * m + m) - negative_curvature_bound(paper, m, QUAD) for m in range(1, 13)
    ]
    assert np.all(np.diff(gaps) > 0.0)
    assert gaps[0] > 0.0


def test_negative_curvature_chain_on_bump_family(bump):
    # whenever int f >= 2 the bound exists, curvature dips negative, and the
    # gap to the round-sphere values grows
    from revspec import curvature_at, curvature_sign_indicator

    for c in (1.0, 2.0, 4.0):
        prof = bump(c)
        assert curvature_sign_indicator(prof, QUAD).implies_negative_curvature
        grid = np.linspace(-1.0, 1.0, 1001)
        assert np.min(curvature_at(prof, grid)) < 0.0
        gaps = [(m * m + m) - negative_curvature_bound(prof, m, QUAD) for m in (1, 2, 3, 4)]
        assert np.all(np.diff(gaps) > 0.0)


def test_bounds_table_canonical_sharp_column(canonical):
    rows = bounds_table(canonical, 3, (1,), QUAD)
    assert [row.sharp for row in rows] == pytest.approx([2.0, 6.0, 12.0], abs=1e-8)
    assert [row.canonical for row in rows] == [2.0, 6.0, 12.0]
    # canonical profile: int f < 2, so the negative-curvature cell is absent
    assert all(row.neg_curv is None for row in rows)


def test_bounds_table_paper_rough_headline(paper):
    rows = bounds_table(paper, 10, (1,), QUAD)
    for row in rows:
        assert row.rough < row.m * row.m + 1.0
        assert row.neg_curv is not None


def test_bounds_table_ray_family_minimum(canonical):
    rows = bounds_table(canonical, 1, (1, 2, 3), QUAD)
    ray = rows[0].ray
    assert set(ray) == {1, 2, 3}
    assert ray[1] == pytest.approx(2.0, abs=1e-9)
    # lambda_1 = 2 minimizes the trial-function family over l
    assert all(val >= 2.0 - 1e-9 for val in ray.values())


def test_bounds_table_includes_computed(canonical):
    spec = assemble_spectrum(canonical, 3)
    rows = bounds_table(canonical, 3, (1,), QUAD, spectrum=spec)
    for row in rows:
        assert row.computed_lambda == pytest.approx(row.m * (row.m + 1.0), rel=1e-5)
        assert row.computed_lambda <= row.sharp + 1e-3 * row.computed_lambda
        assert row.computed_lambda <= row.rough + 1e-3 * row.computed_lambda


def test_bounds_table_csv_shape(capsys):
    # --grid-max 16 leaves the spectrum unassembled, so computed_lambda is absent
    status = run(["bounds", "--profile", "paper-example", "--m-max", "2", "--l-set", "1",
                  "--grid-max", "16", "--format", "csv"])
    captured = capsys.readouterr()
    assert status == 0
    assert "computed eigenvalues unavailable" in captured.err
    text = captured.out
    lines = text.strip().split("\n")
    assert lines[0] == "m,sharp,rough,neg_curv,canonical,computed_lambda"
    assert len(lines) == 3
    # absent computed_lambda serializes as an empty cell
    assert lines[1].endswith(",")
    assert text.endswith("\n")


def _paper_moments_mpmath(l_max):
    """I(l) and C(l) of f = 2(1-x^2)/(1+x^2) in closed form, at 30 digits.

    With x = tan(phi/2), f = 2 cos(phi), K = (2 cos(phi) - 1)(1 + cos(phi))^2
    and dx = dphi / (1 + cos(phi)) on |phi| <= pi/2, so both moments reduce
    to the Wallis integrals W(n) = int cos^n: C(l) = 2^l (2 W(l+2) + W(l+1)
    - W(l)) and I(l) = 2^l J(l) with J(l) = W(l-1) - J(l-1), J(0) = 2.
    """
    with mp.workdps(30):
        W = [mp.pi, mp.mpf(2)]
        for n in range(2, l_max + 3):
            W.append(W[n - 2] * (n - 1) / n)
        J = [mp.mpf(2)]
        for l in range(1, l_max + 1):
            J.append(W[l - 1] - J[l - 1])
        moments = [2**l * J[l] for l in range(l_max + 1)]
        curvature = [2**l * (2 * W[l + 2] + W[l + 1] - W[l]) for l in range(l_max + 1)]
        # the reduction itself, checked against mpmath quadrature at the top
        f = lambda x: 2 * (1 - x * x) / (1 + x * x)
        K = lambda x: 4 * (1 - 3 * x * x) / (1 + x * x) ** 3
        assert mp.almosteq(moments[l_max], mp.quad(lambda x: f(x) ** l_max, [-1, 0, 1]), 1e-25)
        assert mp.almosteq(curvature[l_max], mp.quad(lambda x: f(x) ** l_max * K(x), [-1, 0, 1]), 1e-25)
    return moments, curvature


def test_bounds_table_paper_deep_cells_match_mpmath(paper):
    # every cell to depth 50 comes back, including l >= 20 where the moments
    # reach 1e14, and sits within 1e-12 of the 30-digit reference
    I, C = _paper_moments_mpmath(50)
    rows = bounds_table(paper, 50, (2, 3, 5), QUAD)
    for row in rows[19:]:
        m = row.m
        assert set(row.ray) == {1, 2, 3, 5, m}
        for l, value in row.ray.items():
            ref = float(m * m * I[l - 1] / I[l] + l * C[l] / (2 * I[l]))
            assert value == pytest.approx(ref, rel=1e-12, abs=0), (m, l)
        assert row.sharp == row.ray[m] and row.rough == row.ray[1]
        assert row.neg_curv == pytest.approx(float(m * m + C[1] / (2 * I[1])), rel=1e-12, abs=0)


def test_bounds_table_canonical_sharp_to_depth_50(canonical):
    for row in bounds_table(canonical, 50, (1,), QUAD):
        assert row.sharp == pytest.approx(row.m * (row.m + 1.0), rel=1e-13, abs=0)


def test_bounds_table_raises_when_moments_cannot_converge():
    # f drops from about 2 to 0 within 1e-6 of x = 1, far below the finest panel
    from revspec import ProfileSpec, QuadratureAccuracyError, build_profile

    prof = build_profile(ProfileSpec("rational", {"numerator": [1, 0, -1],
                                                  "denominator": [1.000001, -1]}))
    with pytest.raises(QuadratureAccuracyError):
        bounds_table(prof, 5, (1,), QUAD)


def test_bounds_table_raises_when_a_moment_leaves_the_normal_floats():
    # f stays below 0.28 on this dumbbell, so the integral of f^l shrinks
    # geometrically: it is subnormal from l = 551, and every cell from there
    # would rest on moments with fewer than 53 significant bits
    from revspec import QuadratureAccuracyError

    prof = dumbbell(0.1)
    with pytest.raises(QuadratureAccuracyError, match="at l=551") as caught:
        bounds_table(prof, 600)
    assert len(caught.value.best_estimate) == 2 * 601
    rows = bounds_table(prof, 500)
    assert all(math.isfinite(row.sharp) and math.isfinite(row.rough) for row in rows)


def test_moment_table_names_the_power_that_overflows(paper, canonical):
    # paper-example's f peaks at 2 and its K at 4, so f^l K overflows first,
    # at l = 1022: the table stops at that evaluation, with no RuntimeWarning
    # (the suite makes one an error), instead of integrating NaN
    from revspec import QuadratureAccuracyError, moment_table

    start = time.perf_counter()
    with pytest.raises(QuadratureAccuracyError, match=r"at l=1022: the integrand f\^1022 K overflows"):
        bounds_table(paper, 1100)
    assert time.perf_counter() - start < 0.5
    I, C = moment_table(canonical, 2000)
    assert np.isfinite(I).all() and np.isfinite(C).all()
    # the dumbbells' powers underflow instead, and keep their own error
    for c, l in ((0.1, 551), (0.3, 686)):
        with pytest.raises(QuadratureAccuracyError, match=f"at l={l}: the integral of f\\^{l} is"):
            moment_table(dumbbell(c), 2000)


# ------------------------------------------------------------- rigidity

_GAUSS = mp.calculus.quadrature.GaussLegendre(mp.mp)


def _curvature_free_sharp(p, ms):
    """m^2 int f^(m-1) (1 + f'^2/4) / int f^m, the Rayleigh quotient of
    f^(m/2) in mode m, for each m of ``ms``, summed at 30 digits on a
    96-node Gauss-Legendre rule per piece of the profile. f and f' are the
    profile's own evaluators, so only the integration route is independent
    of bounds_table: it reads no curvature and no moment table."""
    with mp.workdps(30):
        weights, stiffness, values = [], [], []
        for a, b in zip(p.breaks, p.breaks[1:]):
            nodes = _GAUSS.get_nodes(mp.mpf(a), mp.mpf(b), 6, mp.mp.prec)
            x = np.array([float(t) for t, _ in nodes])
            for (_, weight), fx, dfx in zip(nodes, p.f(x), p.df(x)):
                weights.append(weight)
                stiffness.append(weight * (1 + mp.mpf(float(dfx)) ** 2 / 4))
                values.append(mp.mpf(float(fx)))
        quotient = {}
        for m in ms:
            powers = [fx ** (m - 1) for fx in values]
            quotient[m] = float(m * m * mp.fdot(stiffness, powers)
                                / mp.fdot(weights, [fx * pw for fx, pw in zip(values, powers)]))
        return quotient


def _assert_sharp_is_the_quotient(p, ms):
    quotient = _curvature_free_sharp(p, ms)
    for m in ms:
        assert sharp_bound(p, m, QUAD) == pytest.approx(quotient[m], rel=1e-13, abs=0), m


@pytest.mark.parametrize("name", ["canonical", "paper", "sampled_bump"])
def test_sharp_bound_is_the_curvature_free_quotient(name, request):
    _assert_sharp_is_the_quotient(request.getfixturevalue(name), range(1, 11))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.one_of(generated_profiles(), dumbbells))
def test_sharp_bound_is_the_curvature_free_quotient_on_families(prof):
    _assert_sharp_is_the_quotient(prof, range(1, 11))


@pytest.mark.xfail(strict=True, reason="moment_table settles each moment within abs_tol of "
                   "max(|I|, 1), an absolute tolerance where max f < 1: I(30) is 1.7e-14 here, "
                   "and the sharp bound at m = 30 is 1.3e-12 relative off (ROADMAP item 13)")
def test_sharp_bound_is_the_quotient_deep_on_a_dumbbell():
    _assert_sharp_is_the_quotient(dumbbell(0.3), [30])


def test_sharp_gap_vanishes_only_on_the_round_sphere(canonical, paper):
    # sharp(m) is a Rayleigh quotient in mode m, so it bounds the first
    # eigenvalue of mode m, with equality exactly when f^(m/2) is that
    # eigenfunction: on the round sphere for every m, on paper-example never
    for m in (1, 2, 3, 4):
        gap = sharp_bound(canonical, m, QUAD) - first_eigenvalue(canonical, m)
        assert abs(gap) <= 1e-13 * m * (m + 1), m
    for m in (1, 2, 5):
        assert sharp_bound(paper, m, QUAD) - first_eigenvalue(paper, m) > 0.1, m
