import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revspec
from revspec.cli import run
from revspec.report import _wire_fields, csv_text

from conftest import bench_module


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


@pytest.fixture
def steep(tmp_path):
    """f = (1 - x^2)(1 + (1 - x^2) / d), d = 1e-6 + (x - 0.3)^2: admissible,
    with a peak of height 1e6 and width 1e-3 that 1024 panels do not settle."""
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"kind": "rational", "params": {
        "numerator": [1.090001, -0.6, -1.090001, 0.6], "denominator": [0.090001, -0.6, 1.0]}}))
    return str(path)


def test_bounds_unconvergeable_moments_exit_3(steep, capsys):
    status, out, err = run_capture(["bounds", "--profile", steep, "--m-max", "5"], capsys)
    assert status == 3
    assert out == ""
    assert "error:" in err


def test_validate_reports_unsettled_curvature_integral(steep, capsys):
    # the curvature integral that quadrature does not settle on this profile
    # is read off its endpoint slopes, so validate passes it; verify's bound
    # table integrates the same curvature row, and that failure exits 3
    status, out, _ = run_capture(["validate", "--profile", steep], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["passed"] is True and report["messages"] == []
    d = report["endpoint_derivatives"]
    assert report["curvature_integral"] == (d[0] - d[1]) / 2
    status, out, err = run_capture(["verify", "--profile", steep, "--m-max", "4"], capsys)
    assert (status, out) == (3, "")
    assert err.startswith("error: ")


@pytest.fixture
def tilted(tmp_path):
    """f = (1 - x^2) q with q(-1) = 0.85, q(1) = 1.15: f'(-1) = 1.7, f'(1) = -2.3."""
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({"kind": "polynomial-factor",
                                "params": {"coefficients": [1.2, 0.1, -0.2, 0.05]}}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["sl", "--k", "1"],
    ["spectrum", "--m-max", "4"],
    ["bounds", "--m-max", "4"],
    ["trace", "--k", "1"],
])
def test_inadmissible_endpoints_exit_2(argv, tilted, capsys):
    status, out, err = run_capture([argv[0], "--profile", tilted, *argv[1:]], capsys)
    assert status == 2
    assert out == ""
    assert "f'(-1) = 1.7, expected 2" in err and "f'(1) = -2.3, expected -2" in err


def test_inadmissible_endpoints_still_reported(tilted, capsys):
    status, out, _ = run_capture(["validate", "--profile", tilted], capsys)
    assert status == 0 and json.loads(out)["passed"] is False
    assert run_capture(["curvature", "--profile", tilted], capsys)[0] == 0
    status, out, _ = run_capture(["verify", "--profile", tilted], capsys)
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"] if c["location"] == "-"}
    assert status == 1 and checks == {"profile_admissible": False}


def test_sampled_profile_off_zero_at_an_endpoint(tmp_path, capsys):
    # the spline takes the admissible slopes, so f(-1) = 0.1 is its one defect
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps({"kind": "sampled", "params": {"x": [-1.0, 0.0, 1.0], "f": [0.1, 1.0, 0.0]}}))
    status, out, _ = run_capture(["validate", "--profile", str(path)], capsys)
    report = json.loads(out)
    assert status == 0 and report["passed"] is False
    assert [m.split(" (")[0] for m in report["messages"]] == ["f does not vanish at the endpoints"]
    status, out, err = run_capture(["spectrum", "--profile", str(path), "--m-max", "2"], capsys)
    assert (status, out) == (2, "")
    assert "f does not vanish at the endpoints" in err
    status, out, _ = run_capture(["verify", "--profile", str(path), "--m-max", "2"], capsys)
    assert status == 1
    assert [(c["name"], c["passed"]) for c in json.loads(out)["checks"]] == [("profile_admissible", False)]


@pytest.mark.parametrize("m_max", ["1", "3"])
def test_verify_fails_admissibility_without_solving(m_max, tmp_path, capsys, monkeypatch):
    # q = 2 gives f'(+-1) = +-4; a solve of this profile does not converge
    # by N = 1024, so the suite must stop at its failed admissibility check
    path = tmp_path / "steep_slopes.json"
    path.write_text(json.dumps({"kind": "polynomial-factor", "params": {"coefficients": [2.0]}}))

    def no_solve(*args, **kwargs):
        raise AssertionError("verify assembled a spectrum of an inadmissible profile")

    monkeypatch.setattr(revspec.spectrum, "assemble_spectrum", no_solve)
    status, out, err = run_capture(["verify", "--profile", str(path), "--m-max", m_max], capsys)
    assert status == 1
    payload = json.loads(out)
    assert set(payload) == {"all_passed", "checks", "multiplicities", "profile", "values"}
    assert payload["all_passed"] is False
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [("profile_admissible", False)]
    assert payload["values"] == [] and payload["multiplicities"] == []
    assert err.splitlines() == ["note: f'(-1) = 4, expected 2", "note: f'(1) = -4, expected -2"]


@st.composite
def endpoint_breaking_profiles(draw):
    """A profile spec that breaks f(+-1) = 0 or f'(+-1) = +-2 at one end or
    both, and the fragment of the message that names the broken condition:
    a polynomial factor with q(+-1) != 1, a spline with a nonzero end
    sample, or a rational f whose numerator keeps a nonzero end value or
    leaves q(+-1) != 1."""
    poly, w = np.polynomial.polynomial, np.array([1.0, 0.0, -1.0])
    shift = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 0.5))
    lo, hi = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
    end = shift * np.array([(lo + hi) / 2.0, (hi - lo) / 2.0])  # shift at each broken end, 0 at the other
    kind = draw(st.sampled_from(("polynomial-factor", "sampled", "rational")))
    if kind == "polynomial-factor":
        q = poly.polyadd(poly.polyadd([1.0], draw(st.floats(-0.2, 0.5)) * w), end)
        return {"kind": kind, "params": {"coefficients": q.tolist()}}, "expected"
    if kind == "sampled":
        i = np.arange(draw(st.integers(5, 17)))
        x = -np.cos(np.pi * i / i[-1])
        f = (1.0 - x * x) * (1.0 + draw(st.floats(0.0, 0.5)) * (1.0 - x * x))
        f[0], f[-1] = shift * lo, shift * hi
        return {"kind": kind, "params": {"x": x.tolist(), "f": f.tolist()}}, "does not vanish"
    den = [1.0, draw(st.floats(-0.2, 0.2)), draw(st.floats(0.2, 0.8))]
    if draw(st.booleans()):
        num, broken = poly.polyadd(poly.polymul(w, den), end), "does not vanish"
    else:
        num, broken = poly.polymul(w, poly.polyadd(den, end)), "expected"
    return {"kind": kind, "params": {"numerator": num.tolist(), "denominator": den}}, broken


@settings(derandomize=True, deadline=None, max_examples=30)
@given(endpoint_breaking_profiles())
def test_endpoint_breaking_profiles_reach_no_number(case):
    # the commands whose numbers assume the endpoint conditions refuse the
    # profile naming each broken one, and verify reports it as its only
    # check; nothing is solved or integrated
    from revspec import profile as profile_mod, slsolver, spectrum as spectrum_mod

    spec, broken = case

    def no_solve(*args, **kwargs):
        raise AssertionError("a profile that breaks an endpoint condition reached a solve")

    def capture(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = run(argv)
        return status, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "profile.json"
        path.write_text(json.dumps(spec))
        for module, name in ((slsolver, "_stiffness"), (spectrum_mod, "assemble_spectrum"),
                             (profile_mod, "adaptive_gauss")):
            patch.setattr(module, name, no_solve)
        prof = revspec.load_profile(path)
        conditions = revspec.profile.endpoint_conditions(prof)[2]
        assert conditions and any(broken in message for message in conditions)
        for cmd in ("sl", "spectrum", "bounds", "trace"):
            assert capture([cmd, "--profile", str(path)]) == (
                2, "", "error: profile is not admissible: " + "; ".join(conditions) + "\n"), cmd
        status, out, err = capture(["verify", "--profile", str(path)])
    assert status == 1
    assert [(c["name"], c["passed"]) for c in json.loads(out)["checks"]] == [("profile_admissible", False)]
    assert err.splitlines() == [f"note: {message}" for message in revspec.validate_profile(prof).messages]


@pytest.mark.parametrize("cmd", ["spectrum", "verify"])
def test_unconverged_mode_slice_exits_3(cmd, capsys):
    # a basis capped at its smallest size gets one solve, and no slice's 8
    # values agree with those of its leading half
    argv = [cmd, "--profile", "paper-example", "--m-max", "2", "--grid-max", "16"]
    status, out, err = run_capture(argv, capsys)
    assert status == 3
    assert out == ""
    # the first slice checked is that of k = m-max, whose first eigenvalue is the ceiling
    assert "k=2" in err and "N=16" in err
    assert float(re.search(r"worst error estimate (\S+)\)", err).group(1)) > 1e-6


@pytest.mark.parametrize("cmd", ["sl", "spectrum", "bounds", "verify"])
def test_rel_tol_below_the_estimate_floor_exits_2(cmd, capsys):
    # below 1e-10 the estimates cannot tell a converged slice, so the flag
    # is refused before any solve, with no report and no bounds note; the
    # floor itself is accepted
    argv = [cmd, "--profile", "paper-example"] + (["--m-max", "1"] if cmd != "sl" else [])
    status, out, err = run_capture(argv + ["--rel-tol", "1e-11"], capsys)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and "1e-10" in err and "note:" not in err
    assert run_capture(argv + ["--rel-tol", "1e-10"], capsys)[::2] == (0, "")


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
    assert payload["deviation"] <= payload["remainder_estimate"]


@pytest.mark.parametrize("name", ["canonical", "paper-example"])
def test_verify_trace_catches_a_1e3_error_in_the_first_eigenvalue(name, capsys, monkeypatch):
    # lambda_1^1 of the trace stack scaled by 1 + 1e-3 moves the deviation by
    # about 5e-4, far above a remainder estimate of order 1e-6
    from revspec import slsolver

    stiffness, eig, traced = slsolver._stiffness, slsolver._eig, []

    def tagging_stiffness(p, ks, n):
        stack = stiffness(p, ks, n)
        if tuple(ks) == (1, 2, 3) and n == 70:
            traced.append(stack)
        return stack

    def shifted_eig(stack):
        out = eig(stack)
        if any(stack is seen for seen in traced):
            out[0, 0] *= 1.0 + 1e-3
        return out

    monkeypatch.setattr(slsolver, "_stiffness", tagging_stiffness)
    monkeypatch.setattr(slsolver, "_eig", shifted_eig)
    status, out, _ = run_capture(["verify", "--profile", name, "--m-max", "4"], capsys)
    assert len(traced) == 1
    assert status == 1
    failed = [(c["name"], c["location"]) for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == [("trace_identity", "k=1")]


def test_verify_catches_a_1e6_error_in_lambda_2(capsys, monkeypatch):
    # on the round sphere lambda_2 = 6 meets interlacing and the sharp bound
    # with equality; 6 (1 + 1e-6) lies far outside the solver's own
    # estimates, so exactly the checks that compare lambda_2 with 6 fail
    from revspec import spectrum as spectrum_mod

    assemble = spectrum_mod.assemble_spectrum

    def perturbed(p, m_target, cfg=spectrum_mod.DEFAULT_SOLVER):
        spec = assemble(p, m_target, cfg)
        entries = list(spec.entries)
        entries[2] = dataclasses.replace(entries[2], value=entries[2].value * (1.0 + 1e-6))
        return dataclasses.replace(spec, entries=tuple(entries))

    monkeypatch.setattr(spectrum_mod, "assemble_spectrum", perturbed)
    status, out, _ = run_capture(["verify", "--profile", "canonical", "--m-max", "4"], capsys)
    assert status == 1
    failed = [(c["name"], c["location"]) for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == [("interlacing", "k=1,j=1"), ("interlacing", "k=2,j=0"), ("sharp_bound", "m=2")]


def test_unknown_flag_exits_2(capsys):
    assert run_capture(["validate", "--profile", "canonical", "--bogus"], capsys)[0] == 2


def test_flag_the_subcommand_does_not_read_exits_2(capsys):
    # each tuning flag is offered only where it is read
    assert run_capture(["validate", "--profile", "canonical", "--quad-tol", "1e-8"], capsys)[0] == 2
    assert run_capture(["sl", "--profile", "canonical", "--quad-tol", "1e-3"], capsys)[0] == 2
    assert run_capture(["trace", "--profile", "canonical", "--rel-tol", "1e-8"], capsys)[0] == 2
    assert run_capture(["spectrum", "--profile", "canonical", "--quad-tol", "1e-8"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus", "--profile", "canonical"], ["sl"], ["sl", "--help"],
    ["sl", "--profile", "canonical", "--k", "x"],
    ["sl", "--profile", "canonical", "--format", "xml"],
    ["trace", "--profile", "canonical", "--rel-tol", "1e-8"],
    ["trace", "--profile", "canonical", "extra"],
    ["sl", "--profile", "canonical", "--k", "x", "--quad-tol", "1e-3"],
    ["bounds", "--profile", "canonical", "--m-max", "4", "--l-set", "2,3"],
    ["verify", "--prof", "paper-example"],
])
def test_subcommand_parser_reads_like_the_full_parser(argv, capsys):
    # run parses through the parser it builds once per process; the
    # arguments, help, errors and exit status must be those of a fresh parser
    from revspec.cli import build_parser

    def attempt(parse):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    # the cached parser reads argv twice alike
    expected = attempt(build_parser.__wrapped__().parse_args)
    assert attempt(build_parser().parse_args) == expected
    assert attempt(build_parser().parse_args) == expected


@pytest.mark.parametrize("argv", [["bounds", "--m-max", "4"], ["verify", "--m-max", "3"]])
def test_default_quad_tol_leaves_reports_unchanged(argv, capsys):
    argv = argv + ["--profile", "paper-example"]
    default = run_capture(argv, capsys)
    explicit = run_capture(argv + ["--quad-tol", "1e-10"], capsys)
    assert default[0] == 0
    assert explicit == default


def test_verify_assembles_one_spectrum(capsys, monkeypatch):
    # at --m-max 1 the interlacing check needs depth 2, so verify assembles
    # its one spectrum that deep, with the solver settings of its flags, and
    # every check and the report read lambda_1 off it as the same float
    from revspec import spectrum as spectrum_mod

    assembled = []
    assemble = spectrum_mod.assemble_spectrum

    def recording(p, m_target, cfg=spectrum_mod.DEFAULT_SOLVER):
        assembled.append((m_target, cfg))
        return assemble(p, m_target, cfg)

    monkeypatch.setattr(spectrum_mod, "assemble_spectrum", recording)
    status, out, _ = run_capture(["verify", "--profile", "canonical", "--m-max", "1"], capsys)
    assert status == 0
    assert assembled == [(2, spectrum_mod.DEFAULT_SOLVER)]
    payload = json.loads(out)
    lhs = {(c["name"], c["location"]): c["lhs"] for c in payload["checks"]}
    assert lhs["interlacing", "k=1,j=0"] == lhs["sharp_bound", "m=1"] == payload["values"][1]
    assert payload["multiplicities"] == [1, 3, 5]


def test_verify_assembles_each_mode_once(capsys, monkeypatch):
    from revspec import profile as profile_mod, slsolver

    assembled, tables = [], []
    stiffness, adaptive_gauss = slsolver._stiffness, profile_mod.adaptive_gauss

    def counting_stiffness(p, ks, n):
        assembled.append([(k, n) for k in ks])
        return stiffness(p, ks, n)

    def counting_gauss(*args, **kwargs):
        tables.append(1)
        return adaptive_gauss(*args, **kwargs)

    monkeypatch.setattr(slsolver, "_stiffness", counting_stiffness)
    monkeypatch.setattr(profile_mod, "adaptive_gauss", counting_gauss)
    status, out, _ = run_capture(["verify", "--profile", "paper-example", "--m-max", "4"], capsys)
    monkeypatch.undo()
    assert status == 0
    # six mode slices (k = 0..5) from one stack, the spectrum's ladder, which
    # settles at its first assembly; three trace solves in another stack; each
    # mode assembled once. One moment table, the bounds': validate reads the
    # curvature integral off the endpoint slopes, and the spectrum ceiling is
    # a mode eigenvalue
    pairs = [pair for stack in assembled for pair in stack]
    assert assembled[0] == [(k, 32) for k in range(6)] and len(assembled) == 2
    assert sorted(pairs) == sorted(set(pairs)) == sorted(
        [(k, 32) for k in range(6)] + [(k, 70) for k in (1, 2, 3)])
    assert len(tables) == 1

    paper = revspec.builtin_profile("paper-example")
    checks = json.loads(out)["checks"]
    mono = [c for c in checks if c["name"] == "first_eigenvalue_monotonicity"]
    assert [c["location"] for c in mono] == [f"k={k}->{k + 1}" for k in range(1, 5)]
    for k, check in enumerate(mono, start=1):
        assert check["lhs"] == pytest.approx(revspec.first_eigenvalue(paper, k), rel=1e-12)
        assert check["rhs"] == pytest.approx(revspec.first_eigenvalue(paper, k + 1), rel=1e-12)
    spec = revspec.assemble_spectrum(paper, 4)
    inter = [c for c in checks if c["name"] == "interlacing"]
    assert len(inter) == 6
    for check in inter:
        k, j = (int(part.split("=")[1]) for part in check["location"].split(","))
        assert check["lhs"] == pytest.approx(spec.entries[k + j].value, rel=1e-12)
        assert check["rhs"] == pytest.approx(revspec.eigenvalues(paper, k, 3).eigenvalues[j], rel=1e-12)


def test_deep_verify_solves_no_mode_outside_its_spectrum(capsys, monkeypatch):
    # at --m-max 40 interlacing reads 21 values of modes 1..20, and modes
    # 7-20 hold 11-20: those checks read each slice's last value, so no mode
    # is solved outside the spectrum's ladder
    from revspec import spectrum as spectrum_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved a mode outside its spectrum")

    monkeypatch.setattr(spectrum_mod, "eigenvalues", no_solve)
    monkeypatch.setattr(spectrum_mod, "first_eigenvalue", no_solve)
    status, out, _ = run_capture(["verify", "--profile", "paper-example", "--m-max", "40"], capsys)
    assert status == 0 and json.loads(out)["all_passed"] is True


def test_unknown_subcommand_exits_2(capsys):
    assert run_capture(["frobnicate", "--profile", "canonical"], capsys)[0] == 2


def test_missing_profile_file_exits_2(capsys):
    status, _, err = run_capture(["validate", "--profile", "/nonexistent/prof.json"], capsys)
    assert status == 2
    assert "cannot read" in err


def test_malformed_profile_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, fragment in [
        ("{]", "JSON"),
        ("[1, 2]", "must be a JSON object"),
        (json.dumps({"kind": "canonical", "params": [1]}), "'params' must be a JSON object"),
        (json.dumps({"kind": "polynomial-factor", "params": {"coefficients": ["a", 1]}}),
         "must be a sequence of real numbers"),
        (json.dumps({"kind": "sampled", "params": {"x": [-1.0], "f": [0.0]}}),
         "needs at least the two endpoint samples"),
    ]:
        bad.write_text(text)
        status, out, err = run_capture(["validate", "--profile", str(bad)], capsys)
        assert (status, out) == (2, ""), text
        assert fragment in err, text


@pytest.mark.parametrize("kind", [["canonical"], {"a": 1}])
def test_profile_file_with_non_string_kind_exits_2(kind, tmp_path, capsys):
    # exit 1 means a failed check; an unusable profile file is an input error
    bad = tmp_path / "kind.json"
    bad.write_text(json.dumps({"kind": kind}))
    status, out, err = run_capture(["validate", "--profile", str(bad)], capsys)
    assert status == 2 and not out
    assert err.startswith("error: ") and "'kind'" in err


def test_out_of_range_option_exits_2(capsys):
    for argv, flag in [
        (["sl", "--count", "0"], "--count"),
        (["spectrum", "--m-max", "-1"], "--m-max"),
        (["curvature", "--count", "1"], "--count"),
        (["bounds", "--m-max", "0"], "--m-max"),
        (["trace", "--terms", "0"], "--terms"),
        (["verify", "--m-max", "0"], "--m-max"),
    ]:
        status, out, err = run_capture([argv[0], "--profile", "canonical", *argv[1:]], capsys)
        assert (status, out) == (2, ""), argv
        assert flag in err, argv


def test_bounds_notes_only_numerical_assembly_failures(tmp_path, capsys):
    # an unconverged mode slice leaves the bound table with a note ...
    status, out, err = run_capture(["bounds", "--profile", "paper-example", "--m-max", "2",
                                    "--grid-max", "16"], capsys)
    assert status == 0 and err.startswith("note: computed eigenvalues unavailable")
    assert [row["computed_lambda"] for row in json.loads(out)["rows"]] == [None, None]
    # ... while an input the assembly rejects exits 2, as in spectrum
    dented = tmp_path / "dented.json"
    dented.write_text(json.dumps({"kind": "polynomial-factor",
                                  "params": {"coefficients": [-1.0, 0.0, 2.0]}}))
    for argv in (["--profile", str(dented)],
                 ["--profile", "canonical", "--m-max", "60", "--grid-max", "64"]):
        status, out, err = run_capture(["bounds", *argv], capsys)
        assert (status, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_tuning_flag_defaults_match_the_library():
    # the parser reads each default from the library's default configs
    from revspec.cli import build_parser
    from revspec.quadrature import DEFAULT_QUADRATURE
    from revspec.slsolver import DEFAULT_SOLVER

    args = build_parser().parse_args(["verify", "--profile", "canonical"])
    assert args.rel_tol == DEFAULT_SOLVER.rel_tol
    assert args.grid_max == DEFAULT_SOLVER.n_max
    assert args.quad_tol == DEFAULT_QUADRATURE.abs_tol


def test_one_modes_close_pair_stays_two_entries(tmp_path, capsys):
    # the dumbbell f = (1 - x^2)(0.1 + 0.9 x^2) splits mode 5's lowest pair
    # by less than its own error estimates; mode spectra are simple, so the
    # two values are two eigenvalues, each of multiplicity 2. At --m-max 5
    # the first is the truncation and the last entry, the second lies above
    path = tmp_path / "dumbbell.json"
    path.write_text(json.dumps({"kind": "polynomial-factor",
                                "params": {"coefficients": [0.1, 0.0, 0.9]}}))
    for m_max, count in ((5, 1), (6, 2), (8, 2)):
        status, out, err = run_capture(["spectrum", "--profile", str(path), "--m-max", str(m_max)], capsys)
        assert (status, err) == (0, ""), m_max
        pair = [e for e in json.loads(out)["entries"] if 5 in e["modes"]][:2]
        assert [(e["modes"], e["multiplicity"]) for e in pair] == [([5], 2)] * count, m_max
    assert 0.0 < pair[1]["value"] - pair[0]["value"] < 1e-8


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


@pytest.mark.parametrize("argv, columns", [
    (["validate", "--profile", "paper-example"], [
        ("passed", "passed"), ("f_at_-1", "endpoint_values", 0), ("f_at_1", "endpoint_values", 1),
        ("df_at_-1", "endpoint_derivatives", 0), ("df_at_1", "endpoint_derivatives", 1),
        ("min_f_interior", "min_f_interior"), ("area", "area"),
        ("curvature_integral", "curvature_integral"), ("messages", "messages"),
    ]),
    (["trace", "--profile", "paper-example", "--k", "2", "--terms", "20"], [
        (name, name) for name in ("k", "terms_used", "partial_sum", "tail_estimate", "target", "deviation",
                                  "remainder_estimate")
    ]),
])
def test_single_record_csv_matches_json(argv, columns, capsys):
    def cell(value):  # the CSV rendering of a JSON value
        if isinstance(value, bool):
            return "true" if value else "false"
        return ";".join(value) if isinstance(value, list) else repr(value)

    status, out, _ = run_capture(argv, capsys)
    assert status == 0
    payload = json.loads(out)
    status, out, _ = run_capture(argv + ["--format", "csv"], capsys)
    assert status == 0
    header, record = out.split("\n")[:2]
    assert header.split(",") == [column[0] for column in columns]
    expected = [cell(payload[key][index[0]] if index else payload[key])
                for _, key, *index in columns]
    assert record.split(",") == expected
    assert out == header + "\n" + record + "\n"


def test_csv_quotes_cells_holding_commas(tmp_path, capsys):
    path = tmp_path / "slopes.json"  # breaks both endpoint slopes
    path.write_text(json.dumps({"kind": "polynomial-factor",
                                "params": {"coefficients": [1.2, 0.1, -0.2, 0.05]}}))
    argv = ["validate", "--profile", str(path)]
    messages = json.loads(run_capture(argv, capsys)[1])["messages"]
    assert any("," in message for message in messages)
    header, record = csv.reader(io.StringIO(run_capture(argv + ["--format", "csv"], capsys)[1]))
    assert len(header) == len(record) == 9
    assert record[-1] == ";".join(messages)


def test_csv_text_quotes_as_rfc4180():
    text = csv_text(["a", "b"], [['say "hi"', "two\r\nlines"], [1.5, None]])
    assert text.startswith('a,b\n"say ""hi""","two')
    assert list(csv.reader(io.StringIO(text))) == [["a", "b"], ['say "hi"', "two\r\nlines"], ["1.5", ""]]


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


def test_unwritable_out_exits_2(tmp_path, capsys):
    # exit 1 means a failed verification check; a report that cannot be
    # written is a usage error
    out_path = tmp_path / "missing" / "report.json"
    status, out, err = run_capture(["sl", "--profile", "canonical", "--out", str(out_path)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")
    assert not out_path.parent.exists()


def test_verify_csv(capsys):
    status, out, _ = run_capture(
        ["verify", "--profile", "paper-example", "--m-max", "3", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,location,lhs,rhs,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_json_reports_carry_their_wire_fields(capsys):
    from revspec import (
        BoundsRow,
        CurvatureSignIndicator,
        DistinctEigenvalue,
        GlobalSpectrum,
        SLSpectrumSlice,
        TraceReport,
        ValidationReport,
        VerificationReport,
    )

    def wire_fields(report_type):
        return {f.name for f in _wire_fields(report_type)}

    def report(argv):
        status, out, _ = run_capture(argv, capsys)
        assert status == 0
        return json.loads(out)

    payload = report(["sl", "--profile", "canonical", "--k", "2", "--count", "2"])
    assert payload.keys() == wire_fields(SLSpectrumSlice)

    # one basis size fits under --grid-max 64, so the values past its
    # leading half have Infinity as their estimates
    payload = report(["sl", "--profile", "paper-example", "--count", "40", "--grid-max", "64"])
    assert payload.keys() == wire_fields(SLSpectrumSlice)
    assert payload["converged"] is False and math.inf in payload["error_estimates"]

    payload = report(["trace", "--profile", "canonical", "--k", "1", "--terms", "20"])
    assert payload.keys() == wire_fields(TraceReport)

    # the audit fields, members and per_mode_slices, stay off the wire
    payload = report(["spectrum", "--profile", "canonical", "--m-max", "2"])
    assert payload.keys() == wire_fields(GlobalSpectrum)
    assert all(entry.keys() == wire_fields(DistinctEigenvalue) for entry in payload["entries"])
    assert payload["entries"][2]["multiplicity"] == 5

    payload = report(["validate", "--profile", "paper-example"])
    assert payload.keys() == wire_fields(ValidationReport)
    assert payload["passed"] is True

    indicator = report(["curvature", "--profile", "paper-example", "--count", "5"])["sign_indicator"]
    assert indicator.keys() == wire_fields(CurvatureSignIndicator)
    assert indicator["implies_negative_curvature"] is True

    rows = report(["bounds", "--profile", "paper-example", "--m-max", "4", "--l-set", "2,3"])["rows"]
    assert all(row.keys() == wire_fields(BoundsRow) for row in rows)
    assert [sorted(row["ray"]) for row in rows] == [["1", "2", "3"]] * 3 + [["1", "2", "3", "4"]]

    payload = report(["verify", "--profile", "paper-example", "--m-max", "3"])
    assert payload.keys() == wire_fields(VerificationReport) | {"profile", "multiplicities", "values"}
    assert payload["profile"] == "paper-example"
    assert payload["all_passed"] is True


@pytest.mark.parametrize("profile", ["canonical", "paper-example"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["curvature"], ["sl", "--k", "1"], ["sl", "--count", "40", "--grid-max", "64"],
    ["spectrum", "--m-max", "4"], ["bounds", "--m-max", "4", "--l-set", "2,3"],
    ["trace", "--k", "2", "--terms", "20"], ["verify", "--m-max", "3"],
], ids=lambda argv: " ".join(argv))
def test_json_report_is_the_stdlib_rendering_of_its_payload(argv, profile, capsys, monkeypatch):
    from revspec import cli

    handler, *rest = cli._SUBCOMMANDS[argv[0]]
    payloads = []

    def recording(args, p):
        result = handler(args, p)
        payloads.append(result[0])
        return result

    monkeypatch.setitem(cli._SUBCOMMANDS, argv[0], (recording, *rest))
    status, out, _ = run_capture([*argv, "--profile", profile], capsys)
    assert status == 0
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


def test_verify_quad_tol_reaches_the_trace_length(capsys, monkeypatch):
    from revspec import QuadratureConfig, slsolver

    seen = []
    original = slsolver.liouville_length

    def recording(p, q):
        seen.append(q)
        return original(p, q)

    monkeypatch.setattr(slsolver, "liouville_length", recording)
    status, _, _ = run_capture(
        ["verify", "--profile", "paper-example", "--m-max", "3", "--quad-tol", "1e-8"], capsys
    )
    assert status == 0
    assert seen == [QuadratureConfig(abs_tol=1e-8)]  # one length for the trace checks of k = 1..3


def _child_env():
    """Environment in which a child imports the revspec under test, however
    pytest found it."""
    src = os.path.dirname(os.path.dirname(revspec.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "revspec", "validate", "--profile", "canonical"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_runtime_imports_no_scipy():
    # scipy is a test-only oracle: importing revspec and running a mode
    # solve from the command line must not load it
    child = (
        "import runpy, sys\n"
        "import revspec\n"
        "sys.argv = ['revspec', 'sl', '--profile', 'canonical', '--k', '1']\n"
        "try:\n"
        "    runpy.run_module('revspec', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    *report, loaded = proc.stdout.splitlines()
    assert json.loads("\n".join(report))["converged"] is True
    assert loaded == "[]"


def test_bench_tracer_names_exist():
    # the benchmark's tracer rebinds these names on revspec's modules and
    # fails on a missing one, so a rename must fail here first
    import importlib

    tracing = bench_module("tracing")
    assert tracing._WRAPPED
    for module_name, attr, _ in tracing._WRAPPED:
        module = importlib.import_module(f"revspec.{module_name}")
        assert hasattr(module, attr), f"revspec.{module_name}.{attr}"


def test_bench_tracer_sees_verify_s_bound_table(capsys):
    # verify's suite lives in the spectrum module; it calls the bound table
    # and the assembly where the tracer rebinds them
    import importlib

    modules = {name: importlib.import_module(f"revspec.{name}")
               for name in ("profile", "slsolver", "spectrum", "bounds", "cli")}
    tracer = bench_module("tracing").Tracer(modules)
    tracer.install()
    try:
        assert modules["cli"].run(["verify", "--profile", "canonical", "--m-max", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["bounds.cells"] > 0 and metrics["spectrum.assemble_calls"] == 1
    assert metrics["spectrum.verify_s"] > 0


def test_bench_tracer_runs_commands(tmp_path, capsys):
    # a traced benchmark round: the tracer binds the arguments of the calls
    # it wraps by name (p, k, count, cfg, l, q, l_set), so a renamed
    # parameter fails here as it would fail ``bench/run.py --trace 1``
    import importlib

    modules = {name: importlib.import_module(f"revspec.{name}")
               for name in ("profile", "slsolver", "spectrum", "bounds", "cli")}
    tracing = bench_module("tracing")
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in tracing._WRAPPED}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert modules["cli"].run(["verify", "--profile", "canonical", "--m-max", "2"]) == 0
        assert modules["cli"].run(["sl", "--profile", "canonical", "--k", "1"]) == 0
        assert modules["cli"].run(["curvature", "--profile", "paper-example", "--count", "11"]) == 0
        paper = tracer.wrap_profile(modules["profile"].builtin_profile("paper-example"), "paper-example")
        rows = modules["bounds"].bounds_table(paper, 5, (2, 3))
        # no command calls the moment functions: this call keeps their l/q
        # binding traced
        modules["profile"].integrate_curvature_moment(paper, 0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert len(rows) == 5
    assert all(getattr(modules[m], a) is fn for (m, a), fn in originals.items())
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    for name in ("slsolver.solves", "spectrum.assemble_calls", "profile.moment_calls",
                 "profile.eval_calls", "quadrature.adaptive_calls", "bounds.cells"):
        assert metrics[name] > 0, name
    assert metrics["bounds.cells_blank"] == 0 and metrics["quadrature.failed"] == 0
    tracer.dump(tmp_path / "spans.json")
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]
