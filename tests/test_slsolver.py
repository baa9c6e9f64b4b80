import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.special import eval_jacobi, gammaln

from revspec import (
    AssemblyError,
    DomainError,
    ProfileSpec,
    SolverConfig,
    assemble_spectrum,
    build_profile,
    builtin_profile,
    eigenvalues,
    first_eigenvalue,
    trace_check,
)
from revspec import slsolver
from revspec.cli import run

from conftest import bench_module, generated_profiles
from oracles import mode_counts_below, oracle_mode_eigenvalues, sphere_mode_eigenvalue

_GENERATED = bench_module("profiles").generate  # the benchmark's profiles for a seed

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
    # below the estimates' floor no slice could tell it converged
    with pytest.raises(ValueError, match="1e-10"):
        SolverConfig(rel_tol=1e-11)
    assert SolverConfig(rel_tol=1e-10).rel_tol == slsolver._ERROR_FLOOR


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
    # the 8th value at N = 32 moves by 2e-7 from its leading half's, far
    # above the floor
    cfg = SolverConfig(n_max=32, rel_tol=1e-10)
    slc = eigenvalues(paper, 1, 8, cfg)
    assert not slc.converged
    assert slc.grid_used == 32
    assert max(slc.error_estimates) > 1e-12


def test_single_size_is_judged_against_its_leading_half(paper):
    # n_max below twice the starting basis size leaves one size, judged like
    # every other against its own leading half: at N = 16 the first three
    # values of mode 1 lie within 1e-6 of those of the leading 8
    slc = eigenvalues(paper, 1, 3, SolverConfig(n_max=16))
    assert slc.converged and slc.grid_used == 16
    half = _ritz(paper, 1, 8)[:3]
    assert_allclose(slc.error_estimates, np.maximum(np.abs(np.subtract(slc.eigenvalues, half)),
                                                    1e-10 * np.maximum(slc.eigenvalues, 1.0)), rtol=1e-6)
    # a value past the leading half has nothing to compare with
    slc = eigenvalues(paper, 1, 9, SolverConfig(n_max=17))
    assert not slc.converged and slc.grid_used == 17
    assert math.isinf(slc.error_estimates[8]) and not any(map(math.isinf, slc.error_estimates[:8]))


def test_count_too_large_for_grid_cap(canonical):
    with pytest.raises(DomainError):
        eigenvalues(canonical, 0, 100, SolverConfig(n_max=64))
    with pytest.raises(DomainError):
        eigenvalues(canonical, 0, 0)


def test_profile_negative_inside_is_rejected(dented):
    with pytest.raises(DomainError, match="positive on"):
        eigenvalues(dented, 1, 3)


def test_raw_estimates_converge_and_richardson_accelerates(paper):
    """Ritz values converge in the basis size N down to the error floor.

    The name is older than the Galerkin solver: the estimates it guards are
    now the raw Ritz values, which converge spectrally, with no extrapolation
    on top. The N = 16 -> 32 step gains at least 2x, and from N = 32 on the
    values sit within the 1e-10 relative floor of an N = 128 solve.
    """
    ref = _ritz(paper, 0, 128)[:8]
    errors = []
    for n in (16, 32, 64):
        errors.append(np.max(np.abs(_ritz(paper, 0, n)[:8] - ref) / np.maximum(ref, 1.0)))
    assert errors[0] / errors[1] >= 2.0
    assert max(errors[1:]) <= 1e-10


def test_canonical_k0_richardson_floor(canonical):
    """Every basis size reproduces the round-sphere k = 0 values (j-1)j.

    The basis holds the exact eigenfunctions, so the only error left is
    roundoff, below 1e-10 at every size.
    """
    exact = np.array([sphere_mode_eigenvalue(0, j) for j in range(1, 5)])
    for n in (16, 32, 64):
        assert np.max(np.abs(_ritz(canonical, 0, n)[:4] - exact)) < 1e-10


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
    for k in range(4):
        loose = eigenvalues(prof, k, 8)
        tight = _ritz(prof, k, 128)[:8]
        assert loose.converged, k
        distance = np.abs(np.array(loose.eigenvalues) - tight)
        assert np.all(distance <= loose.error_estimates), k


def test_oracle_cross_check_on_paper_example(paper):
    # package (cell-centered) vs independent vertex-centered discretization
    for k in (1, 2):
        ours = eigenvalues(paper, k, 3)
        ref = oracle_mode_eigenvalues(paper.f, k, 3, n=2048)
        assert_allclose(ours.eigenvalues, ref, rtol=5e-5)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(generated_profiles())
def test_generated_profiles_agree_with_the_fd_oracle(prof):
    # the Galerkin values against the extrapolated finite-difference oracle,
    # which shares no code with the solver; mode 1's Dirichlet difference
    # scheme converges slowest
    for k, rtol in ((0, 1e-6), (1, 1e-5), (2, 1e-6)):
        ours = eigenvalues(prof, k, 4).eigenvalues
        ref = oracle_mode_eigenvalues(prof.f, k, 4)
        if k == 0:  # the constant's 0, which the oracle misses by its truncation error
            assert ours[0] == 0.0 and abs(ref[0]) < 1e-6
            ours, ref = ours[1:], ref[1:]
        assert_allclose(ours, ref, rtol=rtol, err_msg=f"k={k}")


# ---------------------------------------------------------------- assembly

def _sampled(x, f):
    return build_profile(ProfileSpec("sampled", {"x": list(x), "f": list(f)}))


@functools.lru_cache(maxsize=None)
def _rough_chebyshev(knots):
    """The bump (1 - x^2)(1 + 0.3 (1 - x^2)) sampled on Chebyshev knots with
    alternating +-3e-3 relative noise: many pieces, each narrow in angle."""
    i = np.arange(knots)
    x = -np.cos(np.pi * i / (knots - 1))
    f = (1.0 - x * x) * (1.0 + 0.3 * (1.0 - x * x)) * (1.0 + 3e-3 * (-1.0) ** i)
    f[0] = f[-1] = 0.0
    return _sampled(x, f)


@functools.lru_cache(maxsize=None)
def _uniform_25():
    """The bump (1 - x^2)(1 + 2 (1 - x^2)) on 25 equally spaced knots: its end
    pieces are the widest in angle."""
    x = np.linspace(-1.0, 1.0, 25)
    return _sampled(x, (1.0 - x * x) * (1.0 + 2.0 * (1.0 - x * x)))


#: The even bump (1 - x^2)(1 + 0.3 (1 - x^2)) and an admissible profile
#: that differs from it by an odd term of size 1e-9.
_POLYNOMIALS = {
    "even_polynomial": [1.3, 0.0, -0.3],
    "near_even_polynomial": [1.3, 1e-9, -0.3, -1e-9],
}


def _profile(name, request):
    if name == "sampled_bump":
        return request.getfixturevalue(name)
    if name.startswith("rough_chebyshev_"):
        return _rough_chebyshev(int(name.rsplit("_", 1)[1]))
    if name == "uniform_25":
        return _uniform_25()
    if name in _POLYNOMIALS:
        return build_profile(ProfileSpec("polynomial-factor", {"coefficients": _POLYNOMIALS[name]}))
    return builtin_profile(name)


def test_sturm_count_matches_the_round_sphere():
    # mode k of the round sphere holds l(l+1) for l >= k; mu = (l+1)^2 lies
    # halfway between l(l+1) and (l+1)(l+2)
    ks, mus = np.arange(12)[:, None], (np.arange(12)[None, :] + 1.0) ** 2
    closed = sum((l * (l + 1) < mus) & (l >= ks) for l in range(13))
    assert (mode_counts_below(lambda x: 1.0 - x * x, ks, mus) == closed).all()


def test_sturm_count_brackets_the_rough_spline_s_lambda_2():
    # lambda_2 is mode 0's second value (modes 0 and 1 hold lambda_0 and
    # lambda_1): the count, independent of the Galerkin method, puts it in
    # (2.4713190, 2.4713200), as does a solve at N = 256, whose value agrees
    # with the N = 1024 one to 3e-12
    prof = _rough_chebyshev(49)
    counts = mode_counts_below(prof.f, np.arange(3)[:, None], [[2.4713190, 2.4713200]], rel=5e-8)
    assert counts.tolist() == [[1, 2], [1, 1], [0, 0]]
    assert 2.4713190 < slsolver._eig(slsolver._stiffness(prof, (0,), 256))[0, 1] < 2.4713200


@functools.lru_cache(maxsize=None)
def _quadrature_mass_deviation(breaks, k, n, stride):
    """max |M - I| of the solver's rule for the basis w^(k/2) P_j^(k,k), j < n.

    Checks the whole diagonal and every ``stride``-th row of M. The rule
    depends on the profile only through its breaks, so profiles that share
    them share the result.
    """
    x, wts = slsolver._rule(breaks, n, k)
    picked = np.arange(0, n, stride)
    rows = -np.eye(n)[picked]
    diag = -np.ones(n)
    for lo in range(0, x.size, 2048):  # node chunks bound the rows' memory
        xb = x[lo:lo + 2048]
        h = slsolver._jacobi_rows(n, (k,), xb, (((1.0 - xb) * (1.0 + xb)) ** (0.5 * k))[None])[:, 0]
        hc = h * wts[lo:lo + 2048]
        rows += h[picked] @ hc.T
        diag += np.einsum("ij,ij->i", h, hc)
    return max(np.max(np.abs(rows)), np.max(np.abs(diag)))


@pytest.mark.parametrize("name", ["canonical", "paper-example", "sampled_bump",
                                  "rough_chebyshev_49", "rough_chebyshev_97", "uniform_25"])
def test_quadrature_mass_matrix_is_identity(name, request):
    """The rule integrates w^k P_i P_j to roundoff, so the solver takes M = I.

    Exactly on a single piece; on a spline's pieces, narrow in angle, the
    rule has fewer nodes than exactness needs (see ``slsolver._rule``).
    Every entry is checked up to N = 256; at N = 1024 the diagonal and every
    64th row.
    """
    prof = _profile(name, request)
    for n, stride in ((16, 1), (64, 1), (256, 1), (1024, 64)):
        for k in (0, 1, 2, 5, 12, 40):
            assert _quadrature_mass_deviation(prof.breaks, k, n, stride) <= 1e-12, (n, k)


def test_rule_node_counts(sampled_bump):
    """A single piece keeps N + k + 24 nodes; a 25-knot spline, whose pieces
    are narrow in angle, gets far fewer than 24 (N + k + 24)."""
    for n, k in ((16, 0), (32, 5), (258, 3), (1024, 40)):
        x, wts = slsolver._rule((-1.0, 1.0), n, k)
        assert x.size == wts.size == n + k + 24, (n, k)
    x, wts = slsolver._rule(sampled_bump.breaks, 258, 3)
    assert x.size == wts.size < 24 * (258 + 3 + 24) / 4


def _stiffness(p, k, n):
    """The stiffness blocks of mode k alone: the one-mode stack's."""
    return tuple(s[0] for s in slsolver._stiffness(p, (k,), n))


def _ritz(p, k, n):
    """Ritz values of mode k alone in the n-term basis, ascending."""
    return slsolver._eig(slsolver._stiffness(p, (k,), n))[0]


#: The modes of the multi-mode stack the assembly tests check mode by mode.
_STACK = (0, 1, 2, 5)


def _mode_blocks(p, k, n):
    """Mode k's stiffness blocks twice: from its lone assembly, and from the
    stack _STACK's (on the rule of k = 5)."""
    stack = slsolver._stiffness(p, _STACK, n)
    return _stiffness(p, k, n), tuple(s[_STACK.index(k)] for s in stack)


def _reference_stiffness(p, k, n):
    """The mode-k stiffness matrix from scipy's Jacobi polynomials.

    P_j' comes from d/dx P_j^(a,b) = (j+a+b+1)/2 P_(j-1)^(a+1,b+1), the
    orthonormal scaling from the closed-form norms, and the integrals from
    numpy's Gauss-Legendre rule with 2N + k + 60 nodes per piece.
    """
    t, c = leggauss(2 * n + k + 60)
    j = np.arange(n)
    log_norm = ((2 * k + 1) * np.log(2.0) - np.log(2 * j + 2 * k + 1)
                + 2 * gammaln(j + k + 1) - gammaln(j + 2 * k + 1) - gammaln(j + 1))
    inv_norm = np.exp(-0.5 * log_norm)[:, None]
    stiff = np.zeros((n, n))
    for a, b in zip(p.breaks[:-1], p.breaks[1:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * t
        wts = 0.5 * (b - a) * c
        w = (1.0 - x) * (1.0 + x)
        q = p.f(x) / w
        val = eval_jacobi(j[:, None], k, k, x) * inv_norm
        der = np.zeros_like(val)
        der[1:] = 0.5 * (j[1:, None] + 2 * k + 1) * eval_jacobi(j[1:, None] - 1, k + 1, k + 1, x) * inv_norm[1:]
        g = w * der - k * x * val
        weight = wts * w ** (k - 1.0)
        stiff += (g * (weight * q)) @ g.T + (k * k) * ((val * (weight / q)) @ val.T)
    return stiff


@pytest.mark.parametrize("name", ["canonical", "paper-example", "sampled_bump", "rough_chebyshev_49"])
def test_stiffness_matches_independent_assembly(name, request):
    # block b of B holds the rows and columns b, b + B, ... of the matrix,
    # in a lone assembly and in each mode of a stack alike; at n = 17 an
    # even profile's blocks have unequal sizes
    prof = _profile(name, request)
    for n in (16, 17, 32):
        for k in _STACK:
            ref = _reference_stiffness(prof, k, n)
            for blocks in _mode_blocks(prof, k, n):
                parts = len(blocks)
                for b, got in enumerate(blocks):
                    sub = ref[b::parts, b::parts]
                    assert np.max(np.abs(got - sub)) <= 1e-12 * np.max(np.abs(ref)), (n, k, b)


@pytest.mark.parametrize("name", ["canonical", "paper-example", "even_polynomial"])
def test_even_profiles_split_into_parity_blocks(name, request):
    """On an even profile P_j^(k,k) has parity (-1)^j, so entries with i + j
    odd vanish: the independent assembly shows them at roundoff, and the
    solver assembles the even-j and odd-j blocks alone, for a lone mode and
    for each mode of a stack."""
    prof = _profile(name, request)
    for n in (16, 17, 32):
        for k in _STACK:
            ref = _reference_stiffness(prof, k, n)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(ref[0::2, 1::2])) <= 1e-13 * scale, (n, k)
            for even, odd in _mode_blocks(prof, k, n):
                assert np.max(np.abs(even - ref[0::2, 0::2])) <= 1e-12 * scale, (n, k)
                assert np.max(np.abs(odd - ref[1::2, 1::2])) <= 1e-12 * scale, (n, k)


def test_parity_blocks_hold_ritz_values_at_roundoff(paper):
    # lambda_1^2 of paper-example has converged by N = 24; with the
    # cross-parity entries left out it stays within a few ulps up to
    # N = 768 (the whole matrix scattered it by 1.6e-12 relative)
    values = np.array([_ritz(paper, 1, n)[1] for n in (24, 48, 96, 192, 384, 768)])
    assert np.ptp(values) <= 1e-14 * values[0]


def test_near_even_profile_keeps_one_block(request):
    # odd terms of 1e-9 make the profile uneven, so it keeps the whole
    # matrix, and its N = 32 Ritz values are those of the whole reference
    # matrix, up to the roundoff of two rules
    prof = _profile("near_even_polynomial", request)
    assert not prof.even
    for k in (0, 1, 2):
        assert len(_stiffness(prof, k, 32)) == 1
        slc = eigenvalues(prof, k, 4)
        assert slc.grid_used == 32
        ref = np.linalg.eigvalsh(_reference_stiffness(prof, k, 32))[:4]
        assert np.all(np.abs(np.subtract(slc.eigenvalues, ref)) <= 1e-13 * np.maximum(np.abs(ref), 1.0)), k


def test_block_size_does_not_change_eigenvalues(paper, sampled_bump, monkeypatch):
    cfg = SolverConfig(n_max=32)
    cases = [(prof, k) for prof in (paper, sampled_bump) for k in (0, 1, 3)]
    default = [eigenvalues(prof, k, 8, cfg) for prof, k in cases]
    # N = 258 on 25 pieces: 1152 nodes, two full blocks and a partial one
    assert slsolver._rule(sampled_bump.breaks, 258, 3)[0].size > slsolver._BLOCK_NODES
    blocked = slsolver._stiffness(sampled_bump, (3,), 258)
    monkeypatch.setattr(slsolver, "_BLOCK_NODES", 1)  # one node per block
    for (prof, k), ref in zip(cases, default):
        slc = eigenvalues(prof, k, 8, cfg)
        assert slc.grid_used == ref.grid_used
        assert_allclose(slc.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=1e-12)
    monkeypatch.setattr(slsolver, "_BLOCK_NODES", 10**6)  # every node in one block
    whole = slsolver._stiffness(sampled_bump, (3,), 258)
    # The block size only reorders the sums of the rank updates, so the two
    # matrices agree to a few roundoffs of their largest entry, and by Weyl's
    # bound their eigenvalues move by at most the 2-norm of the difference,
    # plus the eigensolver's backward error.
    eps = np.finfo(float).eps
    size = max(np.abs(a).max() for a in blocked)
    assert max(np.abs(b - a).max() for a, b in zip(blocked, whole)) <= 16 * eps * size
    shift = max(np.linalg.norm(b[0] - a[0], 2) for a, b in zip(blocked, whole))
    norm = max(np.linalg.norm(a[0], 2) for a in blocked)
    moved = np.abs(slsolver._eig(whole)[0] - slsolver._eig(blocked)[0])
    assert moved.max() <= shift + 64 * eps * norm


@pytest.mark.parametrize("name", ["canonical", "paper-example", "sampled_bump"])
def test_leading_block_is_the_smaller_ritz_matrix(name, request):
    # the bases are nested, so the ladder reads its size-n Ritz values from
    # the leading n basis functions of the 2n stiffness (a finer rule)
    # instead of assembling size n; n = 17 (count 9) splits an even
    # profile's leading block into 9 even and 8 odd rows
    prof = _profile(name, request)
    sizes = (16, 17, 32) if name == "paper-example" else (16, 32)
    for n in sizes:
        for k in (0, 1, 3):
            block = slsolver._eig(slsolver._leading(slsolver._stiffness(prof, (k,), 2 * n), n))[0]
            ref = _ritz(prof, k, n)
            assert block.size == n
            assert np.all(np.abs(block - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)), (n, k)


def test_ladder_assembles_its_first_pair_once(paper, monkeypatch):
    assembled = []
    stiffness = slsolver._stiffness

    def counting(p, ks, n):
        assembled.append((ks, n))
        return stiffness(p, ks, n)

    monkeypatch.setattr(slsolver, "_stiffness", counting)
    slc = eigenvalues(paper, 0, 8)
    assert assembled == [((0,), 32)]
    assert slc.converged and slc.grid_used == 32
    monkeypatch.undo()
    # the final size is the same solve as before
    assert slc.eigenvalues == tuple(_ritz(paper, 0, 32)[:8])


# ------------------------------------------------------------------ stacks

_STACK_PROFILES = ["canonical", "paper-example"] + [
    f"{kind}-{seed}" for kind in ("bump", "rational", "sampled") for seed in range(1, 6)]


def _assert_slices_match_lone_solves(prof, m_target):
    """Every slice the spectrum's ladder keeps is converged and lies within
    the sum of its own and the lone solve's estimates of the slice
    ``eigenvalues`` gives for the same count."""
    for k, got in assemble_spectrum(prof, m_target).per_mode_slices.items():
        alone = eigenvalues(prof, k, len(got.eigenvalues))
        assert got.k == k and got.converged and alone.converged
        gap = np.abs(np.subtract(got.eigenvalues, alone.eigenvalues))
        assert np.all(gap <= np.add(got.error_estimates, alone.error_estimates)), (k, m_target)


@pytest.mark.parametrize("name", _STACK_PROFILES)
def test_stacked_modes_match_lone_solves(name):
    """Modes 0..21 of a depth-20 spectrum, most asked for more than 8 values,
    share one ladder and each keeps a slice that matches its lone solve."""
    if name in ("canonical", "paper-example"):
        prof = builtin_profile(name)
    else:
        kind, seed = name.split("-")
        prof = build_profile(ProfileSpec(**_GENERATED(int(seed))[kind]))
    _assert_slices_match_lone_solves(prof, 20)


def test_stack_flags_an_unconvergeable_mode_alone(paper, monkeypatch):
    # at rel_tol = 1e-8 the first 8 values of paper-example's modes 0..2
    # settle by N = 32, mode 5's do not
    ks = (0, 1, 2, 5)

    def eight(latest):
        return dict.fromkeys(ks, 8)

    cfg = SolverConfig(n_max=32, rel_tol=1e-8)
    capped = slsolver._converge(paper, ks, 16, cfg, eight)
    for k in ks:
        got, alone = capped[k], eigenvalues(paper, k, 8, cfg)
        assert (got.grid_used, got.converged) == (alone.grid_used, alone.converged) == (32, k != 5)
        assert_allclose(got.eigenvalues, alone.eigenvalues, rtol=1e-13)
        tol = 1e-13 * np.maximum(np.abs(alone.eigenvalues), 1.0)
        assert np.all(np.abs(np.subtract(got.error_estimates, alone.error_estimates)) <= tol)

    # one size more: only the open mode 5 is assembled again, and the other
    # modes keep the slices the capped ladder gave them
    assembled = []
    stiffness = slsolver._stiffness

    def counting(p, ks, n):
        assembled.append((tuple(ks), n))
        return stiffness(p, ks, n)

    monkeypatch.setattr(slsolver, "_stiffness", counting)
    wider = slsolver._converge(paper, ks, 16, SolverConfig(n_max=64, rel_tol=1e-8), eight)
    monkeypatch.undo()
    assert assembled == [(ks, 32), ((5,), 64)]
    for k in (0, 1, 2):
        assert wider[k] == capped[k]
    assert wider[5].grid_used == 64 and wider[5].converged

    # a spectrum refuses a mode still open at the basis cap, naming k, N and
    # its estimate
    with pytest.raises(AssemblyError, match=r"mode k=3 did not converge .* N=32 \(worst error estimate 1\.6\d*e-06\)"):
        assemble_spectrum(paper, 3, SolverConfig(n_max=32, rel_tol=1e-8))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(generated_profiles(), st.integers(0, 12))
def test_a_stacked_mode_equals_its_lone_solve(prof, m_target):
    _assert_slices_match_lone_solves(prof, m_target)


def test_trace_checks_read_one_stack_and_one_length(sampled_bump, monkeypatch):
    lengths = []
    liouville_length = slsolver.liouville_length

    def counting(p, q):
        lengths.append(q)
        return liouville_length(p, q)

    monkeypatch.setattr(slsolver, "liouville_length", counting)
    stacked = slsolver.trace_checks(sampled_bump, (1, 2, 3), 100)
    assert len(lengths) == 1
    for report in stacked:
        alone = trace_check(sampled_bump, report.k, 100)
        assert report.k == alone.k and report.tail_estimate == alone.tail_estimate
        assert report.partial_sum == pytest.approx(alone.partial_sum, rel=1e-13)


# ------------------------------------------------------------------ trace

def test_trace_canonical_k1_telescopes(canonical):
    report = trace_check(canonical, 1, 100)
    assert report.partial_sum == pytest.approx(100.0 / 101.0, abs=5e-4)
    assert report.target == 1.0
    assert report.partial_sum < 1.0
    assert report.deviation <= 1e-3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_canonical_matches_closed_form(canonical, k):
    # lambda_k^j = (k + j - 1)(k + j) telescopes: the first 200 reciprocals
    # sum to 1/k - 1/(200 + k)
    report = trace_check(canonical, k, 200)
    assert abs(report.partial_sum - (1.0 / k - 1.0 / (200 + k))) <= 2e-13


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
    with pytest.raises(DomainError, match="terms=100 needs a basis larger than n_max=64"):
        trace_check(canonical, 1, 100, SolverConfig(n_max=64))


@pytest.mark.parametrize("z", [0.5, 1.5, 19.5, 20.5, 53.5, 203.5, 1e4])
def test_trigamma_matches_mpmath(z):
    # 19.5 takes one recurrence step to the series, 20.5 none
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.psi(1, z)
        assert float(abs((slsolver.trigamma(z) - ref) / ref)) <= 1e-14


@pytest.mark.parametrize("terms", [50, 200])
def test_trace_remainder_estimate_bounds_the_deviation(canonical, paper, bump, sampled_bump, terms):
    # the fixtures, a bump, a rational profile, a 25-knot spline (the
    # benchmark's, seed 1) and a dumbbell: the deviation sits at about half
    # its estimate (0.44 at most on the dumbbell)
    rational = build_profile(ProfileSpec("rational", {
        "numerator": [1.3, 0.1, -1.1, -0.1, -0.2], "denominator": [1.0, 0.1, 0.5]}))
    spline = build_profile(ProfileSpec(**_GENERATED(1)["sampled"]))
    dumbbell = build_profile(ProfileSpec("polynomial-factor", {"coefficients": [0.1, 0.0, 0.9]}))
    for prof in (canonical, paper, bump(0.5), rational, spline, dumbbell):
        for report in slsolver.trace_checks(prof, (1, 2, 3), terms):
            assert 0.0 < report.deviation <= 0.6 * report.remainder_estimate, report
    # q = 3 - 2x^2, as a polynomial and as the 25-knot spline: the O(1) term
    # of its asymptotics has not settled over j = 26..50, and the deviation
    # reaches 0.62 of its estimate at 50 terms (0.05 at 200)
    for prof in (bump(2.0), sampled_bump):
        for report in slsolver.trace_checks(prof, (1, 2, 3), terms):
            assert 0.0 < report.deviation <= report.remainder_estimate, report


# ------------------------------------------------------------ serialization

def test_slice_json_shape(canonical):
    payload = eigenvalues(canonical, 1, 2).to_json_dict()
    assert set(payload) == {"k", "eigenvalues", "error_estimates", "grid_used", "converged"}
    json.dumps(payload)


def test_trace_json_shape(canonical):
    payload = trace_check(canonical, 1, 10).to_json_dict()
    assert set(payload) == {"k", "terms_used", "partial_sum", "tail_estimate", "target", "deviation",
                            "remainder_estimate"}
    assert payload["target"] == 1.0
    json.dumps(payload)
