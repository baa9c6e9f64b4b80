import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from revspec import (
    AssemblyError,
    DomainError,
    ProfileSpec,
    SolverConfig,
    assemble_spectrum,
    build_profile,
    builtin_profile,
    canonical_comparison,
    eigenvalues,
    first_eigenvalue,
    verify_interlacing,
    verify_monotonicity,
    verify_multiplicity_bound,
    verify_suite,
)
from revspec import slsolver, spectrum as spectrum_mod
from revspec.cli import run

from conftest import bench_module, dumbbell, dumbbells, generated_profiles
from oracles import mode_counts_below


def test_canonical_assembly_values_and_multiplicities(canonical):
    spec = assemble_spectrum(canonical, 3)
    got = [(e.m, round(e.value, 6), e.multiplicity) for e in spec.entries[:4]]
    assert got == [(0, 0.0, 1), (1, 2.0, 3), (2, 6.0, 5), (3, 12.0, 7)]


def test_canonical_modes_of_second_eigenvalue(canonical):
    spec = assemble_spectrum(canonical, 2)
    assert spec.entries[2].value == pytest.approx(6.0, abs=1e-4)
    assert spec.entries[2].modes == frozenset({0, 1, 2})


def test_entries_ordered_and_contiguous(canonical_spectrum6, paper_spectrum6):
    for spec in (canonical_spectrum6, paper_spectrum6):
        values = [e.value for e in spec.entries]
        assert np.all(np.diff(values) > 0.0)
        assert [e.m for e in spec.entries] == list(range(len(spec.entries)))
        assert spec.entries[0].value == 0.0
        assert spec.entries[0].multiplicity == 1


def test_counting_identity(canonical, paper, canonical_spectrum6, paper_spectrum6):
    for p, spec in ((canonical, canonical_spectrum6), (paper, paper_spectrum6)):
        # the ceiling is the first eigenvalue of mode m_target = 6, read off
        # the slice the spectrum's ladder kept for it; a lone solve of that
        # mode agrees to roundoff
        assert spec.truncation == spec.per_mode_slices[6].eigenvalues[0]
        assert spec.truncation == pytest.approx(first_eigenvalue(p, 6), rel=1e-13)
        for entry in spec.entries:
            expected = 2 * sum(1 for k in entry.modes if k >= 1) + (1 if 0 in entry.modes else 0)
            assert entry.multiplicity == expected
            # only modes k <= m can carry lambda_m, since lambda_m <= lambda_1^(m)
            assert max(entry.modes) <= entry.m


def test_union_completeness(canonical_spectrum6, paper_spectrum6):
    # every retained mode eigenvalue below the ceiling sits in exactly one entry
    for spec in (canonical_spectrum6, paper_spectrum6):
        claimed = {}
        for entry in spec.entries:
            for k, j, value, _ in entry.members:
                assert (k, j) not in claimed
                claimed[(k, j)] = entry.m
        for k, slc in spec.per_mode_slices.items():
            for j, value in enumerate(slc.eigenvalues, start=1):
                if value <= spec.truncation:
                    assert (k, j) in claimed, (k, j, value)


def test_merge_tolerance_dominates_errors(canonical_spectrum6):
    spec = canonical_spectrum6
    worst = max(err for e in spec.entries for (_, _, _, err) in e.members)
    assert spec.merge_tolerance > worst


def _gaps_beyond_own_estimates(spec):
    """The neighbouring members of an entry that lie farther apart than 10
    times the larger of their own error estimates."""
    gaps = []
    for entry in spec.entries:
        members = sorted(entry.members, key=lambda mem: mem[2])
        gaps.extend((entry.m, a, b) for a, b in zip(members, members[1:])
                    if b[2] - a[2] > 10.0 * max(a[3], b[3]))
    return gaps


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-2])
def test_loose_solver_keeps_the_multiplicities(paper, rel_tol):
    # a looser rel_tol leaves some high mode value with a large estimate
    # (merge_tolerance 1.0 here); the merge reads each pair's own estimates,
    # so the low entries keep the modes and multiplicities of the default
    default = assemble_spectrum(paper, 20)
    loose = assemble_spectrum(paper, 20, SolverConfig(rel_tol=rel_tol))
    assert loose.merge_tolerance > 0.1
    assert ([(e.modes, e.multiplicity) for e in loose.entries[:21]]
            == [(e.modes, e.multiplicity) for e in default.entries[:21]])
    assert _gaps_beyond_own_estimates(loose) == []


def test_close_values_of_two_modes_stay_apart():
    # the seed-2 sampled bench profile at depth 50: mode 9's third value and
    # mode 5's sixth lie 1.8e-3 apart, with estimates of about 1e-8 each,
    # far closer than the depth-50 merge tolerance
    profile = build_profile(ProfileSpec(**bench_module("profiles").generate(2)["sampled"]))
    spec = assemble_spectrum(profile, 50)
    near = [e for e in spec.entries if abs(e.value - 117.094) < 2e-3]
    assert [(e.modes, e.multiplicity) for e in near] == [({9}, 2), ({5}, 2)]
    assert near[0].value == pytest.approx(117.093139, abs=1e-6)
    assert near[1].value == pytest.approx(117.094946, abs=1e-6)
    assert _gaps_beyond_own_estimates(spec) == []


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_near_round_multiplicities_split(eps, bump):
    # q = 1 + eps (1 - x^2) splits every round-sphere eigenvalue into its
    # mode copies far beyond the solver error
    spec = assemble_spectrum(bump(eps), 4)
    assert [e.multiplicity for e in spec.entries][:8] == [1, 2, 1, 2, 2, 1, 2, 2]


def test_near_degenerate_pair_of_one_mode_is_never_merged(tmp_path, capsys):
    # f = (1 - x^2)(0.1 + 0.9 x^2) is a dumbbell: tunnelling splits mode 4's
    # lowest pair, 66.912396646769 and 66.912396923197, by 2.76e-7, each
    # with an error estimate of 6.7e-9. Mode spectra are simple, and the
    # pair lies 41 estimates apart, so it stays two values. At --m-max 4 the
    # first is the truncation and the last entry, the second lies above it.
    path = tmp_path / "dumbbell.json"
    path.write_text(json.dumps({"kind": "polynomial-factor",
                                "params": {"coefficients": [0.1, 0.0, 0.9]}}))
    status = run(["spectrum", "--profile", str(path), "--m-max", "4"])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    report = json.loads(captured.out)
    last = report["entries"][-1]
    assert (last["modes"], last["multiplicity"]) == ([4], 2)
    assert last["value"] == report["truncation"] == pytest.approx(66.912396646769, abs=1e-8)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(generated_profiles(), dumbbells), st.integers(0, 8))
@example(dumbbell(0.1), 6)
@example(dumbbell(0.3), 8)
def test_merge_keeps_each_mode_simple_and_lambda0_exact(prof, m_target):
    # no entry holds one mode twice (mode spectra are simple), and entry 0
    # is exactly 0 from mode 0 alone (the constant eigenfunction)
    spec = assemble_spectrum(prof, m_target)
    assert (spec.entries[0].value, spec.entries[0].modes) == (0.0, {0})
    for entry in spec.entries:
        modes = [k for k, _, _, _ in entry.members]
        assert len(set(modes)) == len(modes), entry


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.one_of(generated_profiles(), dumbbells), st.integers(0, 8))
@example(dumbbell(0.05), 8)
@example(dumbbell(0.1), 6)
def test_merged_members_lie_within_their_estimates(prof, m_target):
    # each member of an entry lies within its own error estimate of the
    # Ritz value of its mode at basis size 1024; every entry has a member,
    # and merge_tolerance bounds every entry's reach
    spec = assemble_spectrum(prof, m_target)
    assert all(entry.members for entry in spec.entries)
    assert max(spec.reach(m) for m in range(len(spec.entries))) <= spec.merge_tolerance
    ks = sorted({k for entry in spec.entries for k, _, _, _ in entry.members})
    reference = dict(zip(ks, slsolver._eig(slsolver._stiffness(prof, tuple(ks), 1024))))
    for entry in spec.entries:
        for k, j, value, err in entry.members:
            assert abs(value - reference[k][j - 1]) <= err, (entry.m, k, j)


def test_check_cluster_refuses_what_cannot_coincide():
    # members are (value, k, j, error estimate); mode spectra are simple, and
    # first values strictly increase in k
    check = spectrum_mod._check_cluster
    check([(6.0, 0, 3, 1e-9), (6.0, 1, 2, 1e-9), (6.0, 2, 1, 1e-9)])
    for cluster, named in [
        ([(5.0, 3, 1, 1e-8), (5.0, 3, 2, 1e-8)], r"\(k=3, j=1\) = 5\.0 \(estimate 1\.0e-08\), \(k=3, j=2\)"),
        ([(7.0, 1, 1, 2e-9), (7.0, 2, 1, 3e-9)], r"\(k=1, j=1\) = 7\.0 \(estimate 2\.0e-09\), \(k=2, j=1\)"),
    ]:
        with pytest.raises(AssemblyError, match=named):
            check(cluster)


def _recording_stiffness(monkeypatch):
    """The (modes, basis size) of every slsolver._stiffness call, in order."""
    assembled = []
    stiffness = slsolver._stiffness

    def recording(p, ks, n):
        assembled.append((tuple(ks), n))
        return stiffness(p, ks, n)

    monkeypatch.setattr(slsolver, "_stiffness", recording)
    return assembled


def test_assembly_solves_each_mode_once(paper, monkeypatch):
    # modes 0..m_target + 1 share one ladder: one assembly per basis size,
    # and each mode is assembled at consecutive sizes until the one its
    # slice stops at
    for m_target in (10, 50):
        assembled = _recording_stiffness(monkeypatch)
        spec = assemble_spectrum(paper, m_target)
        monkeypatch.undo()
        sizes = [n for _, n in assembled]
        assert sizes == [32 * 2 ** i for i in range(len(sizes))]
        assert assembled[0][0] == tuple(range(m_target + 2))
        assert sorted(spec.per_mode_slices) == list(range(m_target + 2))
        for k, slc in spec.per_mode_slices.items():
            assert [n for ks, n in assembled if k in ks] == sizes[:sizes.index(slc.grid_used) + 1]


def test_each_stack_makes_one_eigensolve_per_parity_block(paper, monkeypatch):
    # a stack's Ritz values come from one eigvalsh call per parity block on
    # all its modes at once, and every assembly is evaluated twice: its
    # leading half, then whole
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(a):
        solved.append(a.shape[0])
        return eigvalsh(a)

    assembled = _recording_stiffness(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assemble_spectrum(paper, 50)
    monkeypatch.undo()
    assert len(solved) == 2 * 2 * len(assembled) == 12
    assert solved == [len(ks) for ks, _ in assembled for _ in range(4)]


def _meets_rel_tol(slc, count, rel_tol):
    """Whether the slice holds ``count`` values, each estimate within
    rel_tol * max(|lambda|, 1)."""
    scale = np.maximum(np.abs(slc.eigenvalues), 1.0)
    return len(slc.eigenvalues) == count and bool(np.all(np.array(slc.error_estimates) <= rel_tol * scale))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(generated_profiles(), st.integers(0, 4), st.integers(1, 8), st.sampled_from((16, 32, 128)),
       st.sampled_from((1e-10, 1e-6, 1e-3)))
def test_converged_is_exactly_the_estimates_meeting_rel_tol(prof, k, count, n_max, rel_tol):
    # one verdict: a slice is converged exactly when its estimates say so,
    # whether the cap cut its ladder short or not; a spectrum keeps only
    # converged slices, so each of them meets rel_tol
    cfg = SolverConfig(n_max=n_max, rel_tol=rel_tol)
    slc = eigenvalues(prof, k, count, cfg)
    assert slc.converged == _meets_rel_tol(slc, count, rel_tol)
    try:
        spec = assemble_spectrum(prof, k, cfg)
    except AssemblyError:
        return
    for got in spec.per_mode_slices.values():
        assert got.converged and _meets_rel_tol(got, len(got.eigenvalues), rel_tol), got.k


def test_deep_stacked_modes_keep_the_stacks_slices(paper, monkeypatch):
    # at depth 50 every mode keeps the ladder's slice at the size it left:
    # every value up to the guard above the ceiling and one more, and at
    # least 8 up to mode 50, each within the estimate of its lone solve
    assembled = _recording_stiffness(monkeypatch)
    spec = assemble_spectrum(paper, 50)
    monkeypatch.undo()
    assert len(assembled) == 3
    guard = spec.truncation + max(1.0, 1e-3 * spec.truncation)
    for k, slc in spec.per_mode_slices.items():
        below = sum(1 for value in slc.eigenvalues if value <= guard)
        assert len(slc.eigenvalues) == max(8 if k <= 50 else 1, below + 1)
        assert slc.eigenvalues[-1] > guard
    for k in (0, 25, 50):
        slc = spec.per_mode_slices[k]
        alone = eigenvalues(paper, k, len(slc.eigenvalues))
        gap = np.abs(np.subtract(slc.eigenvalues, alone.eigenvalues))
        assert np.all(gap <= np.add(slc.error_estimates, alone.error_estimates))
    assert spec.merge_tolerance < 1e-5 * spec.truncation


def test_no_mode_past_the_ladder_is_solved(canonical, monkeypatch):
    # a guard of 2 * ceiling + 1 puts mode 4's first value (20) below it at
    # depth 3 (ceiling 12); mode 5 (first value 30) is not solved all the
    # same, since first values increase in k, and the entries at or below
    # the ceiling are those of the usual guard
    plain = assemble_spectrum(canonical, 3)
    ladders, converge = [], spectrum_mod._converge

    def recording(p, ks, *args):
        ladders.append(tuple(ks))
        return converge(p, ks, *args)

    monkeypatch.setattr(spectrum_mod, "_converge", recording)
    monkeypatch.setattr(spectrum_mod, "_guard", lambda ceiling: 2.0 * ceiling + 1.0)
    wide = assemble_spectrum(canonical, 3)
    assert ladders == [tuple(range(5))]
    assert sorted(wide.per_mode_slices) == list(range(5))
    assert wide.per_mode_slices[4].eigenvalues[0] == pytest.approx(20.0, rel=1e-12)
    assert [(e.modes, e.multiplicity) for e in wide.entries] == [(e.modes, e.multiplicity) for e in plain.entries]
    assert_allclose([e.value for e in wide.entries], [e.value for e in plain.entries], rtol=1e-12, atol=1e-12)


def test_degenerate_target_zero(canonical):
    spec = assemble_spectrum(canonical, 0)
    assert len(spec.entries) == 1
    assert spec.entries[0].value == 0.0
    assert spec.entries[0].multiplicity == 1
    assert spec.entries[0].modes == frozenset({0})


def test_m_target_negative_rejected(canonical):
    with pytest.raises(DomainError):
        assemble_spectrum(canonical, -1)


def test_verify_depths_rejected(canonical, canonical_spectrum6):
    with pytest.raises(DomainError, match="k_max and j_max"):
        verify_interlacing(canonical_spectrum6, 0, 1)
    with pytest.raises(DomainError, match="k_max must be >= 2"):
        verify_monotonicity(canonical_spectrum6, 1)


def test_verify_rejects_a_spectrum_too_shallow_for_its_depth(paper, monkeypatch):
    # the checks read the spectrum they are handed: one that does not reach
    # the requested depth raises, and nothing is assembled or solved instead
    shallow = assemble_spectrum(paper, 2)

    def no_solve(*args, **kwargs):
        raise AssertionError("a verify check solved or assembled what its spectrum lacks")

    for name in ("eigenvalues", "first_eigenvalue", "assemble_spectrum"):
        monkeypatch.setattr(spectrum_mod, name, no_solve)
    assert len(shallow.entries) == 4 and max(shallow.per_mode_slices) == 3
    assert verify_monotonicity(shallow, 3).all_passed
    with pytest.raises(DomainError, match="modes 0..3"):
        verify_monotonicity(shallow, 4)
    assert verify_interlacing(shallow, 2, 1).all_passed
    with pytest.raises(DomainError, match="ends at m=3"):
        verify_interlacing(shallow, 2, 2)
    with pytest.raises(DomainError, match="ends at m=3"):
        verify_interlacing(shallow, 1, 3)
    # a dumbbell's spectrum reaches far past its slices: interlacing refuses
    # a mode beyond them as monotonicity does
    wells = assemble_spectrum(dumbbell(0.1), 2)
    assert len(wells.entries) > 6 and max(wells.per_mode_slices) == 3
    assert verify_interlacing(wells, 3, 1).all_passed
    with pytest.raises(DomainError, match="interlacing to k_max=4 needs mode slices .* modes 0..3"):
        verify_interlacing(wells, 4, 1)


def test_paper_multiplicity_bound(paper):
    spec = assemble_spectrum(paper, 5)
    report = verify_multiplicity_bound(spec)
    assert report.all_passed
    for entry in spec.entries:
        assert entry.multiplicity <= 2 * entry.m + 1


def test_canonical_multiplicity_saturates(canonical_spectrum6):
    # equality at every index characterizes the round sphere
    report = verify_multiplicity_bound(canonical_spectrum6)
    assert report.all_passed
    for entry in canonical_spectrum6.entries:
        assert entry.multiplicity == 2 * entry.m + 1


def test_bump_multiplicity_bound(bump):
    spec = assemble_spectrum(bump(0.5), 4)
    assert verify_multiplicity_bound(spec).all_passed


def test_interlacing_canonical_equalities(canonical_spectrum6):
    report = verify_interlacing(canonical_spectrum6, 3, 3)
    assert report.all_passed
    # for the round sphere interlacing is equality: lambda_(k+j) = lambda_k^(j+1)
    for check in report.checks:
        assert check.lhs == pytest.approx(check.rhs, rel=1e-5)


def test_interlacing_paper_first_case(paper_spectrum6):
    report = verify_interlacing(paper_spectrum6, 1, 1)
    assert report.all_passed
    first = next(c for c in report.checks if c.location == "k=1,j=0")
    assert first.lhs <= first.rhs + 1e-6  # lambda_1 <= lambda_1^1


def test_interlacing_bump(bump):
    assert verify_interlacing(assemble_spectrum(bump(2.0), 4), 2, 2).all_passed


def test_monotonicity_reports(canonical, paper, bump):
    rep = verify_monotonicity(assemble_spectrum(canonical, 4), 5)
    assert rep.all_passed
    firsts = [c.lhs for c in rep.checks] + [rep.checks[-1].rhs]
    assert firsts == pytest.approx([2.0, 6.0, 12.0, 20.0, 30.0], rel=1e-5)
    assert verify_monotonicity(assemble_spectrum(paper, 4), 5).all_passed
    assert verify_monotonicity(assemble_spectrum(bump(-0.5), 4), 2).all_passed


def test_verify_reads_mode_slices_from_the_spectrum(paper, paper_spectrum6, monkeypatch):
    slices = paper_spectrum6.per_mode_slices
    # the slice that stopped the enumeration is kept as well
    top = max(slices)
    assert slices[top].eigenvalues[0] > paper_spectrum6.truncation
    lone = [first_eigenvalue(paper, k) for k in range(1, 6)]
    plain_inter = verify_interlacing(paper_spectrum6, 3, 3)

    def no_solve(*args, **kwargs):
        raise AssertionError("a mode the spectrum covers was solved again")

    monkeypatch.setattr(spectrum_mod, "eigenvalues", no_solve)
    monkeypatch.setattr(spectrum_mod, "first_eigenvalue", no_solve)
    mono = verify_monotonicity(paper_spectrum6, 5)
    inter = verify_interlacing(paper_spectrum6, 3, 3)
    assert mono.all_passed and inter.all_passed
    # the slices' first values agree with lone solves of each mode
    assert [c.location for c in mono.checks] == [f"k={k}->{k + 1}" for k in range(1, 5)]
    assert [c.lhs for c in mono.checks] == pytest.approx(lone[:-1], rel=1e-12)
    assert [c.rhs for c in mono.checks] == pytest.approx(lone[1:], rel=1e-12)
    assert [c.location for c in inter.checks] == [c.location for c in plain_inter.checks]
    for a, b in zip(inter.checks, plain_inter.checks):
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)
    # every mode the slices hold is read; one beyond them is refused, not solved
    deep = verify_monotonicity(paper_spectrum6, top)
    assert deep.all_passed and len(deep.checks) == top - 1
    with pytest.raises(DomainError, match=f"modes 0..{top}"):
        verify_monotonicity(paper_spectrum6, top + 1)


def test_interlacing_reads_a_short_slice_by_its_last_value(paper, monkeypatch):
    # at depth 16 the checks read 9 values of modes 1..8, and modes 4-8 hold
    # 8: each check past a slice's end reads its last value, which lies above
    # the guard, and nothing is solved again
    spec = assemble_spectrum(paper, 16)

    def no_solve(*args, **kwargs):
        raise AssertionError("interlacing solved a mode its spectrum holds")

    for name in ("eigenvalues", "first_eigenvalue", "assemble_spectrum"):
        monkeypatch.setattr(spectrum_mod, name, no_solve)
    report = verify_interlacing(spec, 8, 8)
    assert report.all_passed and len(report.checks) == 72
    slices = spec.per_mode_slices
    assert [k for k in range(1, 9) if len(slices[k].eigenvalues) <= 8] == [4, 5, 6, 7, 8]
    for check in report.checks:
        k, j = (int(part.split("=")[1]) for part in check.location.split(","))
        values = slices[k].eigenvalues
        assert check.lhs == spec.entries[k + j].value
        assert check.rhs == values[min(j, len(values) - 1)]
    assert all(slices[k].eigenvalues[-1] > spectrum_mod._guard(spec.truncation) for k in range(4, 9))


@settings(derandomize=True, deadline=None, max_examples=16)
@given(st.one_of(generated_profiles(), dumbbells))
def test_a_short_slice_s_last_value_bounds_the_values_it_lacks(prof):
    # interlacing at depth 20 reads 11 values of modes 1..10; where a slice
    # holds fewer, its last value lies above the truncation, and a lone solve
    # of each value it lacks lies no lower than it less its estimate
    spec = assemble_spectrum(prof, 20)
    assert verify_interlacing(spec, 10, 10).all_passed
    for k in range(1, 11):
        slc = spec.per_mode_slices[k]
        held = len(slc.eigenvalues)
        if held > 10:
            continue
        assert slc.eigenvalues[-1] > spec.truncation
        lone = eigenvalues(prof, k, 11).eigenvalues
        assert min(lone[held:]) >= slc.eigenvalues[-1] - slc.error_estimates[-1]


@settings(derandomize=True, deadline=None, max_examples=12)
@given(generated_profiles())
def test_multiplicities_agree_with_the_sturm_count(prof):
    # an independent count confirms each entry's modes: they are the modes
    # with one value between the midpoints to its neighbouring entries, and
    # every other mode has none. The count resolves half the smallest gap,
    # and it does not decrease in mu, so for each mode the midpoints around
    # its own entries and the last midpoint decide every window. The top
    # window reaches past the ceiling and is left out. (A dumbbell's
    # tunnelling pairs lie closer than a second-order count can separate.)
    spec = assemble_spectrum(prof, 20)
    values = np.array([entry.value for entry in spec.entries])
    mids = np.concatenate([[-1.0], 0.5 * (values[:-1] + values[1:])])  # window m is (mids[m], mids[m + 1])
    last = len(values) - 1
    want = {}  # (k, window edge) -> count of mode k's values below it
    for k in range(len(spec.per_mode_slices)):
        held = [entry.m for entry in spec.entries[:last] if k in entry.modes]
        for i, m in enumerate(held):
            want[k, m], want[k, m + 1] = i, i + 1
        want[k, last] = len(held)
    pairs = np.array(list(want))
    counts = mode_counts_below(prof.f, pairs[:, 0], mids[pairs[:, 1]],
                               rel=0.5 * np.min(np.diff(values) / values[1:]))
    assert dict(zip(want, counts.tolist())) == want


def test_canonical_comparison_equality_counts_as_below(canonical_spectrum6):
    # lambda_m = m(m+1) within the reach: every m is its own witness
    witnesses = canonical_comparison(canonical_spectrum6)
    assert witnesses == {m: m for m in range(1, len(canonical_spectrum6.entries))}


def test_paper_comparison_below_with_witnesses(paper_spectrum6):
    witnesses = canonical_comparison(paper_spectrum6)
    assert witnesses == {m: m for m in range(1, len(paper_spectrum6.entries))}


def test_bump_witness_exists(bump):
    spec = assemble_spectrum(bump(-0.5), 4)
    assert canonical_comparison(spec)[1] is not None


@pytest.mark.parametrize("name", ["canonical", "paper-example"])
def test_verify_suite_is_the_cli_suite(name, capsys):
    # the library suite passes, in the order verify renders it after its
    # admissibility check, and its checks read the spectrum it returns
    spec, checks = verify_suite(builtin_profile(name), 4)
    assert all(check.passed for check in checks)
    names = [check.name for check in checks]
    assert [n for i, n in enumerate(names) if names[i - 1 : i] != [n]] == [
        "multiplicity_bound", "first_eigenvalue_monotonicity", "interlacing",
        *["sharp_bound", "rough_bound"] * 4, "trace_identity", "canonical_witness"]
    assert run(["verify", "--profile", name, "--m-max", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][1:] == [check.to_json_dict() for check in checks]
    assert payload["values"] == [entry.value for entry in spec.entries]
    interlacing = next(c for c in checks if (c.name, c.location) == ("interlacing", "k=1,j=0"))
    assert interlacing.lhs == spec.entries[1].value


def test_verify_suite_refuses_depth_0_before_solving(canonical, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("verify_suite assembled a spectrum at depth 0")

    monkeypatch.setattr(spectrum_mod, "assemble_spectrum", no_solve)
    with pytest.raises(DomainError, match="m_max"):
        verify_suite(canonical, 0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.one_of(generated_profiles(), dumbbells))
def test_verify_passes_and_hersch_holds(prof):
    # every check of verify holds within the estimates of the numbers it
    # compares, and lambda_1 <= 2 within its entry's reach: Hersch,
    # lambda_1 * area <= 8 pi with area 4 pi
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(json.dumps({"kind": prof.spec.kind, "params": prof.spec.params}))
        assert run(["verify", "--profile", str(path), "--m-max", "4", "--out", str(Path(tmp) / "r.json")]) == 0
    spec = assemble_spectrum(prof, 4)
    assert spec.entries[1].value <= 2.0 + spec.reach(1)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.floats(-9.0, -2.0), st.sampled_from((-1.0, 1.0)))
def test_verify_passes_near_the_round_sphere(exponent, sign):
    # q = 1 + eps (1 - x^2): on the round sphere interlacing and the sharp
    # bound hold with equality, so here they hold within about eps of it
    eps = sign * 10.0 ** exponent
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(json.dumps({"kind": "polynomial-factor", "params": {"coefficients": [1.0 + eps, 0.0, -eps]}}))
        assert run(["verify", "--profile", str(path), "--m-max", "6", "--out", str(Path(tmp) / "r.json")]) == 0


def test_truncation_covers_requested_depth(paper_spectrum6):
    assert len(paper_spectrum6.entries) >= 7
    assert paper_spectrum6.entries[6].value <= paper_spectrum6.truncation


def test_spectrum_serialization(canonical_spectrum6, capsys):
    payload = canonical_spectrum6.to_json_dict()
    assert set(payload) == {"truncation", "merge_tolerance", "entries"}
    assert set(payload["entries"][1]) == {"m", "value", "multiplicity", "modes"}
    json.dumps(payload)
    assert run(["spectrum", "--profile", "canonical", "--m-max", "6", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    lines = csv.strip().split("\n")
    assert lines[0] == "m,value,multiplicity,modes"
    assert lines[1].startswith("0,")
    assert csv.endswith("\n")


def test_assembly_consistent_with_slices(paper, paper_spectrum6):
    # spot-check provenance: the m = 1 entry is the first k = 1 eigenvalue
    entry = paper_spectrum6.entries[1]
    assert entry.modes == frozenset({1})
    direct = eigenvalues(paper, 1, 1)
    # different counts settle at different basis sizes; agreement within solver error
    assert entry.value == pytest.approx(direct.eigenvalues[0], rel=2e-6)


def test_assembly_deterministic(paper):
    cfg = SolverConfig()
    a = assemble_spectrum(paper, 3, cfg)
    b = assemble_spectrum(paper, 3, cfg)
    assert [e.value for e in a.entries] == [e.value for e in b.entries]
    assert a.merge_tolerance == b.merge_tolerance
