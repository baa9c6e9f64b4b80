import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from revspec import (
    DomainError,
    SolverConfig,
    assemble_spectrum,
    builtin_profile,
    eigenfunction,
    eigenvalues,
    first_eigenvalue,
    trace_check,
)
from revspec.cli import run

from oracles import oracle_mode_eigenvalues, sphere_mode_eigenvalue

# Frozen via the independent vertex-centered oracle (see oracles.py); the
# entries are (k, j, value). Regenerate with oracle_mode_eigenvalues(f, k, j).
PAPER_FROZEN = [
    (0, 2, 3.3114976),
    (0, 3, 8.3049624),
    (1, 1, 1.6112860),
    (1, 2, 7.7433497),
    (2, 1, 4.3406265),
    (3, 1, 8.1252355),
]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_max=2)
    with pytest.raises(ValueError):
        SolverConfig(n_max=15)  # below the smallest basis size, 16
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)


def test_canonical_k1_first_three(canonical):
    slc = eigenvalues(canonical, 1, 3)
    assert_allclose(slc.eigenvalues, [2.0, 6.0, 12.0], rtol=1e-5)
    assert slc.k == 1
    assert all(err >= 0 for err in slc.error_estimates)


def test_canonical_k0_first_three(canonical):
    slc = eigenvalues(canonical, 0, 3)
    assert abs(slc.eigenvalues[0]) <= max(slc.error_estimates[0], 1e-9)
    assert_allclose(slc.eigenvalues[1:], [2.0, 6.0], rtol=1e-8)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_canonical_slices_match_closed_form(canonical, k):
    slc = eigenvalues(canonical, k, 6)
    exact = [sphere_mode_eigenvalue(k, j) for j in range(1, 7)]
    start = 1 if k == 0 else 0  # skip the zero eigenvalue in relative errors
    got = np.array(slc.eigenvalues[start:])
    ref = np.array(exact[start:])
    assert_allclose(got, ref, rtol=2e-5)


def test_paper_example_against_independent_oracle(paper):
    for k, j, frozen in PAPER_FROZEN:
        slc = eigenvalues(paper, k, j)
        assert slc.eigenvalues[j - 1] == pytest.approx(frozen, rel=1e-4), (k, j)


def test_paper_first_equivariant_below_rough_bound(paper):
    # the m = 1 rough bound evaluates to 1/(pi-2) + (3pi+4)/(12pi-24) ~ 1.85594
    lam = first_eigenvalue(paper, 1)
    assert lam == pytest.approx(1.6112860, rel=1e-4)
    assert lam <= 1.85590


def test_mode_symmetry_exact(paper):
    plus = eigenvalues(paper, 2, 4)
    minus = eigenvalues(paper, -2, 4)
    assert plus.eigenvalues == minus.eigenvalues
    assert minus.k == 2


def test_within_mode_strict_increase(canonical, paper, bump):
    for prof in (canonical, paper, bump(2.0)):
        for k in (0, 1, 4):
            slc = eigenvalues(prof, k, 8)
            assert np.all(np.diff(slc.eigenvalues) > 0.0)


def test_first_eigenvalue_values(canonical):
    assert first_eigenvalue(canonical, 1) == pytest.approx(2.0, rel=1e-5)
    assert first_eigenvalue(canonical, 3) == pytest.approx(12.0, rel=1e-5)
    assert abs(first_eigenvalue(canonical, 0)) < 1e-8


def test_first_eigenvalue_monotone_in_k(paper, bump):
    for prof in (paper, bump(-0.5), bump(4.0)):
        firsts = [first_eigenvalue(prof, k) for k in range(1, 6)]
        assert np.all(np.diff(firsts) > 0.0)


def test_unconverged_slice_is_flagged(paper):
    cfg = SolverConfig(n_max=32, rel_tol=1e-12)
    slc = eigenvalues(paper, 1, 3, cfg)
    assert not slc.converged
    assert slc.grid_used == 32
    assert max(slc.error_estimates) > 1e-12


def test_single_solve_has_no_error_estimate(paper):
    # n_max == the starting basis size leaves no second size to estimate against
    slc = eigenvalues(paper, 1, 3, SolverConfig(n_max=16))
    assert not slc.converged
    assert all(math.isinf(err) for err in slc.error_estimates)


def test_count_too_large_for_grid_cap(canonical):
    with pytest.raises(DomainError):
        eigenvalues(canonical, 0, 100, SolverConfig(n_max=64))
    with pytest.raises(DomainError):
        eigenvalues(canonical, 0, 0)


def test_raw_estimates_converge_and_richardson_accelerates(paper):
    """Ritz values converge in the basis size N down to the error floor.

    The name is older than the Galerkin solver: the estimates it guards are
    now the raw Ritz values, which converge spectrally, with no extrapolation
    on top. The N = 16 -> 32 step gains at least 2x, and from N = 32 on the
    values sit within the 1e-10 relative floor of an N = 128 solve.
    """
    ref = np.array(eigenvalues(paper, 0, 8, SolverConfig(n_max=128, rel_tol=1e-30)).eigenvalues)
    errors = []
    for n in (16, 32, 64):
        slc = eigenvalues(paper, 0, 8, SolverConfig(n_max=n, rel_tol=1e-30))
        assert slc.grid_used == n
        errors.append(np.max(np.abs(np.array(slc.eigenvalues) - ref) / np.maximum(ref, 1.0)))
    assert errors[0] / errors[1] >= 2.0
    assert max(errors[1:]) <= 1e-10


def test_canonical_k0_richardson_floor(canonical):
    """Every basis size reproduces the round-sphere k = 0 values (j-1)j.

    The basis holds the exact eigenfunctions, so the only error left is
    roundoff, below 1e-10 at every size.
    """
    exact = np.array([sphere_mode_eigenvalue(0, j) for j in range(1, 5)])
    for n in (16, 32, 64):
        slc = eigenvalues(canonical, 0, 4, SolverConfig(n_max=n, rel_tol=1e-30))
        assert np.max(np.abs(np.array(slc.eigenvalues) - exact)) < 1e-10


@pytest.mark.parametrize("name", ["canonical", "paper-example"])
def test_default_tolerance_converges_up_to_k12(name):
    prof = builtin_profile(name)
    for k in range(13):
        slc = eigenvalues(prof, k, 8)
        assert slc.converged, k
        if name == "canonical":
            exact = np.array([sphere_mode_eigenvalue(k, j) for j in range(1, 9)])
            assert np.all(np.abs(np.array(slc.eigenvalues) - exact) <= slc.error_estimates), k


def test_paper_lambda1_agrees_across_entry_points(paper, capsys):
    """sl --k 1, assemble_spectrum(3) and assemble_spectrum(10) agree on lambda_1."""
    assert run(["sl", "--profile", "paper-example", "--k", "1", "--count", "3"]) == 0
    slc = json.loads(capsys.readouterr().out)
    stated = [(slc["eigenvalues"][0], slc["error_estimates"][0])]
    for m_target in (3, 10):
        entry = assemble_spectrum(paper, m_target).entries[1]
        assert entry.modes == frozenset({1})
        (_, _, value, err), = entry.members
        assert entry.value == value
        stated.append((value, err))
    for a, err_a in stated:
        for b, err_b in stated:
            assert abs(a - b) <= err_a + err_b


def test_sampled_estimates_bound_distance_to_tight_solve(sampled_bump):
    prof = sampled_bump
    assert len(prof.breaks) == 25
    tight_cfg = SolverConfig(n_max=128, rel_tol=1e-12)
    for k in range(4):
        loose = eigenvalues(prof, k, 8)
        tight = eigenvalues(prof, k, 8, tight_cfg)
        assert loose.converged, k
        distance = np.abs(np.array(loose.eigenvalues) - np.array(tight.eigenvalues))
        assert np.all(distance <= loose.error_estimates), k


def test_oracle_cross_check_on_paper_example(paper):
    # package (cell-centered) vs independent vertex-centered discretization
    for k in (1, 2):
        ours = eigenvalues(paper, k, 3)
        ref = oracle_mode_eigenvalues(paper.f, k, 3, n=2048)
        assert_allclose(ours.eigenvalues, ref, rtol=5e-5)


# ------------------------------------------------------------------ trace

def test_trace_canonical_k1_telescopes(canonical):
    report = trace_check(canonical, 1, 100)
    assert report.partial_sum == pytest.approx(100.0 / 101.0, abs=5e-4)
    assert report.target == 1.0
    assert report.partial_sum < 1.0
    assert report.deviation <= 1e-3


def test_trace_canonical_k2_telescopes(canonical):
    report = trace_check(canonical, 2, 50)
    assert report.partial_sum == pytest.approx(0.5 - 1.0 / 52.0, abs=5e-4)
    assert report.target == 0.5
    assert report.partial_sum < 0.5


def test_trace_paper_k1(paper):
    report = trace_check(paper, 1, 50)
    assert report.partial_sum < 1.0
    assert report.deviation <= 2.0 * report.tail_estimate


def test_trace_partial_sums_increase_with_terms(canonical, paper):
    for prof in (canonical, paper):
        for k in (1, 3):
            lo = trace_check(prof, k, 40)
            hi = trace_check(prof, k, 80)
            assert lo.partial_sum < hi.partial_sum < 1.0 / k


def test_trace_rejects_invariant_mode(canonical):
    with pytest.raises(DomainError):
        trace_check(canonical, 0, 50)
    with pytest.raises(DomainError):
        trace_check(canonical, 1, 0)


# ---------------------------------------------------------- eigenfunctions

def test_eigenfunction_constant_mode(canonical):
    ef = eigenfunction(canonical, 0, 1)
    values = np.array(ef.values)
    assert np.max(values) - np.min(values) <= 1e-8 * np.max(np.abs(values))
    assert values[0] > 0  # sign convention


def test_eigenfunction_k0_j2_proportional_to_x(canonical):
    ef = eigenfunction(canonical, 0, 2)
    x = np.array(ef.x)
    u = np.array(ef.values)
    ref = x / np.linalg.norm(x)
    cos = abs(float(np.dot(u, ref))) / np.linalg.norm(u)
    assert cos == pytest.approx(1.0, abs=1e-6)


def test_eigenfunction_k1_j1_proportional_to_sqrt_f(canonical):
    ef = eigenfunction(canonical, 1, 1)
    x = np.array(ef.x)
    u = np.array(ef.values)
    ref = np.sqrt(1.0 - x * x)
    cos = float(np.dot(u, ref)) / (np.linalg.norm(u) * np.linalg.norm(ref))
    assert cos == pytest.approx(1.0, abs=1e-6)
    assert u[len(u) // 2] > 0


def test_eigenfunction_unit_discrete_norm(paper):
    ef = eigenfunction(paper, 2, 1)
    h = 2.0 / ef.grid_used
    assert h * float(np.sum(np.square(ef.values))) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------ serialization

def test_slice_json_shape(canonical):
    payload = eigenvalues(canonical, 1, 2).to_json_dict()
    assert set(payload) == {"k", "eigenvalues", "error_estimates", "grid_used", "converged"}
    json.dumps(payload)


def test_trace_json_shape(canonical):
    payload = trace_check(canonical, 1, 10).to_json_dict()
    assert set(payload) == {"k", "terms_used", "partial_sum", "tail_estimate", "target", "deviation"}
    assert payload["target"] == 1.0
    json.dumps(payload)
