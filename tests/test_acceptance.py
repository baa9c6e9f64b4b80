"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the criterion lines print through capture so a -v run
shows one verdict per criterion:

    pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from revspec import (
    QuadratureConfig,
    assemble_spectrum,
    curvature_at,
    curvature_sign_indicator,
    eigenvalues,
    integrate_curvature_moment,
    integrate_moment,
    negative_curvature_bound,
    ray_bound,
    rough_bound,
    sharp_bound,
    trace_check,
    verify_interlacing,
    verify_monotonicity,
    verify_multiplicity_bound,
)

QUAD = QuadratureConfig()
FAMILY = (-0.5, 0.5, 1.0, 2.0, 4.0)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def family_spectra(bump):
    return {c: assemble_spectrum(bump(c), 10) for c in FAMILY}


@pytest.fixture(scope="module")
def paper_spectrum10(paper):
    return assemble_spectrum(paper, 10)


def test_criterion_01_canonical_mode_spectra(canonical, capsys):
    """k = 0..8, j = 1..8 vs (k+j-1)(k+j): rel err <= 1e-4 (1e-6 for k = 0)."""
    start = time.monotonic()
    worst = {0: 0.0, 1: 0.0}
    for k in range(0, 9):
        slc = eigenvalues(canonical, k, 8)
        for j, value in enumerate(slc.eigenvalues, start=1):
            exact = (k + j - 1.0) * (k + j)
            err = abs(value - exact) / exact if exact else abs(value)
            key = 0 if k == 0 else 1
            worst[key] = max(worst[key], err)
    elapsed = time.monotonic() - start
    ok = worst[0] <= 1e-6 and worst[1] <= 1e-4 and elapsed <= 60.0
    report(capsys, 1, ok,
           f"worst rel err k=0: {worst[0]:.2e} (<=1e-6), k>=1: {worst[1]:.2e} (<=1e-4), "
           f"runtime {elapsed:.1f}s (<=60s)")


def test_criterion_02_canonical_global_spectrum(canonical_spectrum6, capsys):
    """Values m(m+1), multiplicities 2m+1 for m = 0..6, within merge tolerance."""
    spec = canonical_spectrum6
    ok = len(spec.entries) >= 7
    worst = 0.0
    for m in range(0, 7):
        entry = spec.entries[m]
        worst = max(worst, abs(entry.value - m * (m + 1.0)))
        ok = ok and abs(entry.value - m * (m + 1.0)) <= spec.merge_tolerance
        ok = ok and entry.multiplicity == 2 * m + 1
    report(capsys, 2, ok,
           f"multiplicities {[e.multiplicity for e in spec.entries[:7]]}, "
           f"worst |value - m(m+1)| = {worst:.2e} (merge tol {spec.merge_tolerance:.2e})")


def test_criterion_03_trace_identity(canonical, paper, capsys):
    """k = 1..5, 200 terms: |partial + tail - 1/k| <= the report's remainder
    estimate; partials increase, < 1/k."""
    ok = True
    worst = 0.0
    for prof, name in ((canonical, "canonical"), (paper, "paper-example")):
        for k in range(1, 6):
            half = trace_check(prof, k, 100)
            full = trace_check(prof, k, 200)
            worst = max(worst, full.deviation / full.remainder_estimate)
            ok = ok and full.deviation <= full.remainder_estimate
            ok = ok and half.partial_sum < full.partial_sum < 1.0 / k
    report(capsys, 3, ok, f"worst deviation {worst:.2f} of its remainder estimate (<=1); "
                          "partial sums increasing, < 1/k")


def test_criterion_04_paper_example_constants(paper, capsys):
    """int f = 2*pi - 4, int fK = pi + 4/3, curvature roots at +-1/sqrt(3), all to 1e-9."""
    moment = integrate_moment(paper, 1, QUAD)
    curv_moment = integrate_curvature_moment(paper, 1, QUAD)
    err_f = abs(moment - (2.0 * math.pi - 4.0))
    err_fk = abs(curv_moment - (math.pi + 4.0 / 3.0))
    root_pos = brentq(lambda x: curvature_at(paper, x), 0.4, 0.8, xtol=1e-14)
    root_neg = brentq(lambda x: curvature_at(paper, x), -0.8, -0.4, xtol=1e-14)
    err_root = max(abs(root_pos - 1.0 / math.sqrt(3.0)), abs(root_neg + 1.0 / math.sqrt(3.0)))
    ok = err_f <= 1e-9 and err_fk <= 1e-9 and err_root <= 1e-9
    report(capsys, 4, ok,
           f"|int f - (2pi-4)| = {err_f:.1e}, |int fK - (pi+4/3)| = {err_fk:.1e}, "
           f"curvature roots off by {err_root:.1e} (all <=1e-9)")


def test_criterion_05_paper_example_headline(paper, paper_spectrum10, capsys):
    """lambda_m < m^2 + 1 for m <= 10; rough bound < m^2 + 1 for m <= 50."""
    ok = len(paper_spectrum10.entries) >= 11
    margin_lam = math.inf
    for m in range(1, 11):
        lam = paper_spectrum10.entries[m].value
        margin_lam = min(margin_lam, m * m + 1.0 - lam)
        ok = ok and lam < m * m + 1.0
    margin_bound = math.inf
    for m in range(1, 51):
        bound = rough_bound(paper, m, QUAD)
        margin_bound = min(margin_bound, m * m + 1.0 - bound)
        ok = ok and bound < m * m + 1.0
    report(capsys, 5, ok,
           f"min margin of m^2+1 over lambda_m (m<=10): {margin_lam:.3f}, "
           f"over rough bound (m<=50): {margin_bound:.3f}")


def test_criterion_06_bound_validity_sweep(bump, family_spectra, capsys):
    """Family c in {-0.5, 0.5, 1, 2, 4}: lambda_m <= ray(m, l) + 1e-3*lambda_m, l in {1, m}."""
    ok = True
    worst = -math.inf
    for c in FAMILY:
        prof = bump(c)
        spec = family_spectra[c]
        for m in range(1, 7):
            lam = spec.entries[m].value
            for l in {1, m}:
                bound = ray_bound(prof, m, l, QUAD)
                excess = lam - bound
                worst = max(worst, excess)
                ok = ok and lam <= bound + 1e-3 * lam
    report(capsys, 6, ok, f"max (lambda_m - ray bound) over family = {worst:.2e} "
                          f"(tolerance 1e-3*lambda)")


def test_criterion_07_multiplicity_bound(family_spectra, paper_spectrum10, capsys):
    """multiplicity <= 2m+1 for every entry, family profiles plus paper-example, m <= 6."""
    ok = True
    for spec in (*family_spectra.values(), paper_spectrum10):
        for entry in spec.entries[:7]:
            ok = ok and entry.multiplicity <= 2 * entry.m + 1
        ok = ok and verify_multiplicity_bound(spec).all_passed
    report(capsys, 7, ok, "dim E <= 2m+1 on all family profiles and paper-example")


def test_criterion_08_interlacing_and_monotonicity(family_spectra, capsys):
    """Interlacing and first-eigenvalue monotonicity, budget 1e-3*lambda, k,j <= 5."""
    ok = True
    for c in FAMILY:
        inter = verify_interlacing(family_spectra[c], 5, 5)
        mono = verify_monotonicity(family_spectra[c], 5)
        ok = ok and inter.all_passed and mono.all_passed
    report(capsys, 8, ok, "lambda_(k+j) <= lambda_k^(j+1) and increasing first "
                          "eigenvalues across the family")


def test_criterion_09_negative_curvature_chain(paper, capsys):
    """int f >= 2 detected, min K < 0, bound present, canonical gap increasing m = 1..20."""
    indicator = curvature_sign_indicator(paper, QUAD)
    min_k = float(np.min(curvature_at(paper, np.linspace(-1.0, 1.0, 2001))))
    gaps = [(m * m + m) - negative_curvature_bound(paper, m, QUAD) for m in range(1, 21)]
    ok = (indicator.implies_negative_curvature and min_k < 0.0
          and all(g > 0 for g in gaps[1:]) and bool(np.all(np.diff(gaps) > 0.0)))
    report(capsys, 9, ok,
           f"int f = {indicator.f_integral:.4f} >= 2, min K = {min_k:.3f} < 0, "
           f"canonical-minus-bound gap grows from {gaps[0]:.3f} to {gaps[-1]:.3f}")


def test_criterion_10_rigidity_diagnostics(canonical, paper, capsys):
    """The gap sharp(m) - lambda_1^(m) between the Rayleigh quotient of f^(m/2)
    in mode m and that mode's first eigenvalue: within the slice's error
    estimate on the canonical sphere for m = 1..4, and more than 1e6 times
    it on paper-example at m = 1."""
    ok = True
    worst_can = 0.0
    for m in range(1, 5):
        slc = eigenvalues(canonical, m, 1)
        gap = abs(sharp_bound(canonical, m, QUAD) - slc.eigenvalues[0])
        worst_can = max(worst_can, gap)
        ok = ok and gap <= slc.error_estimates[0]
    slc = eigenvalues(paper, 1, 1)
    gap = sharp_bound(paper, 1, QUAD) - slc.eigenvalues[0]
    ratio = gap / slc.error_estimates[0]
    ok = ok and ratio > 1e6
    report(capsys, 10, ok,
           f"canonical gaps <= {worst_can:.1e} (within the slice estimates); paper-example "
           f"gap {gap:.4f} is {ratio:.1e}x its estimate")
