import math

import mpmath as mp
import numpy as np
import pytest

from revspec import (
    DomainError,
    InapplicabilityError,
    QuadratureConfig,
    assemble_spectrum,
    bounds_table,
    bounds_table_csv,
    negative_curvature_bound,
    ray_bound,
    rough_bound,
    sharp_bound,
    trial_residual,
)

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


def test_bounds_table_csv_shape(paper):
    rows = bounds_table(paper, 2, (1,), QUAD)
    text = bounds_table_csv(rows)
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


# ------------------------------------------------------------- residuals

def test_trial_residual_canonical_tiny(canonical):
    for m in (1, 2, 3, 4):
        diag = trial_residual(canonical, m)
        assert diag.residual_norm < 1e-9, m


def test_trial_residual_paper_persists(paper):
    values = []
    for n in (1024, 2048, 4096):
        diag = trial_residual(paper, 1, n)
        values.append(diag.residual_norm)
        assert "not an eigenfunction" in diag.note
    # converges to the continuum residual norm rather than to zero
    assert values[-1] > 3.0
    assert abs(values[-1] - values[-2]) < 1e-4


def test_trial_residual_notes_distinguish(canonical, paper):
    assert "eigenfunction" in trial_residual(canonical, 2).note
    assert "not an eigenfunction" in trial_residual(paper, 2).note


def test_trial_residual_domain(canonical):
    with pytest.raises(DomainError):
        trial_residual(canonical, 0)
