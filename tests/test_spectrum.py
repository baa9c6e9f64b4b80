import json

import numpy as np
import pytest

from revspec import (
    AssemblyError,
    DomainError,
    SolverConfig,
    assemble_spectrum,
    canonical_comparison,
    eigenvalues,
    verify_interlacing,
    verify_monotonicity,
    verify_multiplicity_bound,
)

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


def test_counting_identity(canonical_spectrum6, paper_spectrum6):
    for spec in (canonical_spectrum6, paper_spectrum6):
        for entry in spec.entries:
            expected = 2 * sum(1 for k in entry.modes if k >= 1) + (1 if 0 in entry.modes else 0)
            assert entry.multiplicity == expected


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


def test_explicit_merge_tol_below_errors_raises(canonical):
    with pytest.raises(AssemblyError, match="merge_tol"):
        assemble_spectrum(canonical, 2, merge_tol=1e-30)


def test_degenerate_target_zero(canonical):
    spec = assemble_spectrum(canonical, 0)
    assert len(spec.entries) == 1
    assert spec.entries[0].value == 0.0
    assert spec.entries[0].multiplicity == 1
    assert spec.entries[0].modes == frozenset({0})


def test_m_target_negative_rejected(canonical):
    with pytest.raises(DomainError):
        assemble_spectrum(canonical, -1)


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


def test_interlacing_canonical_equalities(canonical, canonical_spectrum6):
    report = verify_interlacing(canonical, 3, 3, spectrum=canonical_spectrum6)
    assert report.all_passed
    # for the round sphere interlacing is equality: lambda_(k+j) = lambda_k^(j+1)
    for check in report.checks:
        assert check.lhs == pytest.approx(check.rhs, rel=1e-5)


def test_interlacing_paper_first_case(paper, paper_spectrum6):
    report = verify_interlacing(paper, 1, 1, spectrum=paper_spectrum6)
    assert report.all_passed
    first = next(c for c in report.checks if c.location == "k=1,j=0")
    assert first.lhs <= first.rhs + 1e-6  # lambda_1 <= lambda_1^1


def test_interlacing_bump(bump):
    assert verify_interlacing(bump(2.0), 2, 2).all_passed


def test_monotonicity_reports(canonical, paper, bump):
    rep = verify_monotonicity(canonical, 5)
    assert rep.all_passed
    firsts = [c.lhs for c in rep.checks] + [rep.checks[-1].rhs]
    assert firsts == pytest.approx([2.0, 6.0, 12.0, 20.0, 30.0], rel=1e-5)
    assert verify_monotonicity(paper, 5).all_passed
    assert verify_monotonicity(bump(-0.5), 2).all_passed


def test_canonical_comparison_equality_counts_as_below(canonical_spectrum6):
    comp = canonical_comparison(canonical_spectrum6)
    assert all(row.below_canonical for row in comp.rows)
    for row in comp.rows:
        assert row.canonical_value == row.m * (row.m + 1)


def test_paper_comparison_below_with_witnesses(paper_spectrum6):
    comp = canonical_comparison(paper_spectrum6)
    assert all(row.below_canonical for row in comp.rows if row.m >= 1)
    for k, witness in comp.witnesses.items():
        assert witness is not None and witness >= k


def test_bump_witness_exists(bump):
    spec = assemble_spectrum(bump(-0.5), 4)
    comp = canonical_comparison(spec)
    assert comp.witnesses[1] is not None


def test_truncation_covers_requested_depth(paper_spectrum6):
    assert len(paper_spectrum6.entries) >= 7
    assert paper_spectrum6.entries[6].value <= paper_spectrum6.truncation


def test_spectrum_serialization(canonical_spectrum6):
    payload = canonical_spectrum6.to_json_dict()
    assert set(payload) == {"truncation", "merge_tolerance", "entries"}
    assert set(payload["entries"][1]) == {"m", "value", "multiplicity", "modes"}
    json.dumps(payload)
    csv = canonical_spectrum6.to_csv()
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
