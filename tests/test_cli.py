import json
import math
import subprocess
import sys

import pytest

from revspec.cli import run


def run_capture(argv, capsys):
    status = run(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_verify_canonical_all_pass(capsys):
    status, out, _ = run_capture(["verify", "--profile", "canonical", "--m-max", "5"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["multiplicities"] == [1, 3, 5, 7, 9, 11]


def test_bounds_paper_headline(capsys):
    status, out, _ = run_capture(
        ["bounds", "--profile", "paper-example", "--m-max", "10"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 10
    for row in payload["rows"]:
        assert row["rough"] < row["m"] ** 2 + 1
        assert row["computed_lambda"] < row["m"] ** 2 + 1


def test_bounds_l_set_flag(capsys):
    status, out, _ = run_capture(
        ["bounds", "--profile", "canonical", "--m-max", "1", "--l-set", "2,3"], capsys
    )
    assert status == 0
    ray = json.loads(out)["rows"][0]["ray"]
    assert set(ray) == {"1", "2", "3"}
    assert ray["1"] == pytest.approx(2.0, abs=1e-9)


def test_bounds_bad_l_set_exits_2(capsys):
    status, _, err = run_capture(
        ["bounds", "--profile", "canonical", "--m-max", "1", "--l-set", "a,b"], capsys
    )
    assert status == 2
    assert "l-set" in err


def test_bounds_deep_csv_has_no_blank_bound(capsys):
    status, out, _ = run_capture(
        ["bounds", "--profile", "paper-example", "--m-max", "50", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 51
    for line in lines[1:]:
        m, sharp, rough = line.split(",")[:3]
        assert sharp and rough, m


def test_bounds_unconvergeable_moments_exit_3(tmp_path, capsys):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"kind": "rational", "params": {
        "numerator": [1, 0, -1], "denominator": [1.000001, -1]}}))
    status, out, err = run_capture(["bounds", "--profile", str(path), "--m-max", "5"], capsys)
    assert status == 3
    assert out == ""
    assert "error:" in err


def test_trace_rejects_invariant_mode(capsys):
    status, _, err = run_capture(["trace", "--profile", "canonical", "--k", "0"], capsys)
    assert status == 2
    assert "k != 0" in err


def test_trace_canonical(capsys):
    status, out, _ = run_capture(
        ["trace", "--profile", "canonical", "--k", "2", "--terms", "50"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["target"] == 0.5
    assert payload["partial_sum"] < 0.5
    assert payload["deviation"] < 1e-2


def test_unknown_flag_exits_2(capsys):
    assert run_capture(["validate", "--profile", "canonical", "--bogus"], capsys)[0] == 2


def test_flag_the_subcommand_does_not_read_exits_2(capsys):
    # each tuning flag is offered only where it is read
    assert run_capture(["validate", "--profile", "canonical", "--quad-tol", "1e-8"], capsys)[0] == 2
    assert run_capture(["sl", "--profile", "canonical", "--merge-tol", "1e-3"], capsys)[0] == 2
    assert run_capture(["trace", "--profile", "canonical", "--rel-tol", "1e-8"], capsys)[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run_capture(["frobnicate", "--profile", "canonical"], capsys)[0] == 2


def test_missing_profile_file_exits_2(capsys):
    status, _, err = run_capture(["validate", "--profile", "/nonexistent/prof.json"], capsys)
    assert status == 2
    assert "cannot read" in err


def test_malformed_profile_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    status, _, err = run_capture(["validate", "--profile", str(bad)], capsys)
    assert status == 2
    assert "JSON" in err


def test_out_of_range_option_exits_2(capsys):
    assert run_capture(["sl", "--profile", "canonical", "--count", "0"], capsys)[0] == 2
    assert run_capture(["spectrum", "--profile", "canonical", "--m-max", "-1"], capsys)[0] == 2


def test_tiny_merge_tol_exits_3(capsys):
    status, _, err = run_capture(
        ["spectrum", "--profile", "canonical", "--m-max", "2", "--merge-tol", "1e-30"], capsys
    )
    assert status == 3
    assert "merge_tol" in err


def test_validate_file_profile_and_determinism(tmp_path, capsys):
    path = tmp_path / "bump.json"
    path.write_text(json.dumps({
        "kind": "polynomial-factor", "params": {"coefficients": [1.5, 0.0, -0.5]},
    }))
    args = ["validate", "--profile", str(path)]
    status1, out1, _ = run_capture(args, capsys)
    status2, out2, _ = run_capture(args, capsys)
    assert status1 == status2 == 0
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


def test_spectrum_csv_format(capsys):
    status, out, _ = run_capture(
        ["spectrum", "--profile", "canonical", "--m-max", "2", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,value,multiplicity,modes"
    assert lines[1].split(",")[0] == "0"
    assert lines[3].split(",")[2] == "5"
    assert lines[3].split(",")[3] == "0;1;2"


def test_sl_csv_and_json_roundtrip(capsys):
    status, out, _ = run_capture(
        ["sl", "--profile", "canonical", "--k", "1", "--count", "3"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert payload["eigenvalues"] == pytest.approx([2.0, 6.0, 12.0], rel=1e-5)
    assert len(payload["error_estimates"]) == 3

    status, out, _ = run_capture(
        ["sl", "--profile", "canonical", "--k", "1", "--count", "3", "--format", "csv"], capsys
    )
    lines = out.strip().split("\n")
    assert lines[0] == "j,eigenvalue,error_estimate"
    assert len(lines) == 4


def test_curvature_samples(capsys):
    status, out, _ = run_capture(
        ["curvature", "--profile", "paper-example", "--count", "5", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,K"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[2]) == pytest.approx(4.0, abs=1e-12)


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status, out, _ = run_capture(
        ["validate", "--profile", "canonical", "--out", str(out_path)], capsys
    )
    assert status == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["area"] == pytest.approx(4.0 * math.pi)


def test_verify_csv(capsys):
    status, out, _ = run_capture(
        ["verify", "--profile", "paper-example", "--m-max", "3", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,location,lhs,rhs,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_json_reports_reparse_into_types(capsys):
    from revspec import GlobalSpectrum, SLSpectrumSlice, TraceReport

    status, out, _ = run_capture(["sl", "--profile", "canonical", "--k", "2", "--count", "2"], capsys)
    assert status == 0
    slc = SLSpectrumSlice.from_json_dict(json.loads(out))
    assert slc.to_json_dict() == json.loads(out)

    status, out, _ = run_capture(["trace", "--profile", "canonical", "--k", "1", "--terms", "20"], capsys)
    assert status == 0
    trace = TraceReport.from_json_dict(json.loads(out))
    assert trace.to_json_dict() == json.loads(out)

    status, out, _ = run_capture(["spectrum", "--profile", "canonical", "--m-max", "2"], capsys)
    assert status == 0
    spec = GlobalSpectrum.from_json_dict(json.loads(out))
    assert spec.to_json_dict() == json.loads(out)
    assert spec.entries[2].multiplicity == 5


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "revspec", "validate", "--profile", "canonical"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
