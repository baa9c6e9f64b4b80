"""Run a fixed matrix of revspec CLI calls in-process and record every report.

    python tools/report_matrix.py OUT.json        # run the matrix on this tree's src/
    python tools/report_matrix.py --compare A B   # list the cases whose records differ

OUT.json maps each case to [exit status, stdout, stderr]. A call that raises
instead of returning a status records the exception's type as its status,
and writing the matrix then exits 1. To check that a change leaves every
report byte-identical, run the tool in both trees (copy it into the other
one) and compare the two files. For each JSON report that differs, the
comparison prints the largest relative difference among its numbers and
that number's field path, or a path where something other than a number
differs.

The matrix, 582 cases: canonical, paper-example and the profiles
bench/profiles.py generates for seeds 1-3, each through validate,
curvature, sl, spectrum, bounds, trace and verify at several depths, in
both formats (550 cases; sl --count 32 shows the estimates of sizes past
the first); then paper-example's spectrum under a loose --rel-tol, its
sl --count 40 under --grid-max 64, whose values past the one basis size's
leading half print Infinity as their estimates, and its verify at depths
16 and 40, whose interlacing reads the last value of the slices that hold
fewer than it checks (modes 4-8 hold 8 of 9; modes 7-20 hold 11-20 of 21);
two dumbbells, whose
tunnelling pairs lie apart at depth 4 but within their own error estimates
at depth 6 (and at depth 30 on the wider neck), each pair still two
eigenvalues of one mode; a near-round profile's verify, whose checks hold
within about 1e-5 of equality, so that a change to the checks' slack that
flips an outcome shows here; a rational profile on which quadrature of
the curvature does not settle, whose validate reads the curvature integral
off the endpoint slopes and passes, and whose verify exits 3 at its bound
table; and the failure paths: an inadmissible profile, an --out path that
cannot be written, a --rel-tol below the estimates' floor, and two profile
files whose kind is not a string. The profiles are written to one fixed directory, so the
paths the reports name are the same in every tree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROFILE_DIR = Path(tempfile.gettempdir()) / "revspec-report-matrix"

#: f = (1 - x^2)(0.1 + 0.9 x^2): two wells whose tunnelling pairs draw
#: closer as k grows. Mode 4's pair (the --m-max 4 ceiling) lies 41 of its
#: error estimates apart; mode 5's, reached from --m-max 5 on, within them,
#: and is reported as two entries all the same: mode spectra are simple.
DUMBBELL = {"kind": "polynomial-factor", "params": {"coefficients": [0.1, 0.0, 0.9]}}
#: f = (1 - x^2)(0.3 + 0.7 x^2), a wider neck: its pairs come within their
#: estimates from --m-max 30 on.
DUMBBELL_WIDE = {"kind": "polynomial-factor", "params": {"coefficients": [0.3, 0.0, 0.7]}}
#: q = 0.99999 + 1e-5 x^2, within 1e-5 of the round sphere: at --m-max 6
#: its tightest checks, interlacing at k=1, j=0 and both bounds at m=1,
#: hold with a relative margin of 1.2e-5.
NEAR_ROUND = {"kind": "polynomial-factor", "params": {"coefficients": [0.99999, 0.0, 1e-5]}}
#: f = (1 - x^2)(1 + (1 - x^2) / d), d = 1e-6 + (x - 0.3)^2: admissible
#: endpoints, but a peak of height 1e6 on which no moment integral settles.
#: validate reads the curvature integral off the endpoint slopes and passes;
#: verify exits 3 at its bound table.
UNSETTLED = {"kind": "rational", "params": {"numerator": [1.090001, -0.6, -1.090001, 0.6],
                                            "denominator": [0.090001, -0.6, 1.0]}}
#: q = 2 everywhere: the endpoint slopes are +-4, not +-2.
INADMISSIBLE = {"kind": "polynomial-factor", "params": {"coefficients": [2.0]}}
#: Profile files whose kind is a list and an object: load_profile rejects both.
MALFORMED = {"kind-list": {"kind": ["canonical"]}, "kind-object": {"kind": {"a": 1}}}

#: (subcommand, its own arguments) run on every profile.
COMMANDS = (
    [("validate", [])]
    + [("curvature", ["--count", "21"])]
    + [("sl", ["--k", str(k), "--count", "8"]) for k in range(4)]
    + [("sl", ["--k", "0", "--count", "32"])]
    + [("spectrum", ["--m-max", str(m)]) for m in (0, 1, 3, 6, 8, 20)]
    + [("bounds", ["--m-max", str(m)]) for m in (1, 5, 10, 50)]
    + [("bounds", ["--m-max", "4", "--l-set", "2,3"])]
    + [("trace", ["--k", str(k), "--terms", "50"]) for k in range(1, 4)]
    + [("verify", ["--m-max", str(m)]) for m in (1, 2, 4, 6)]
)


def _generated_profiles():
    """name -> JSON spec of the benchmark's generated profiles, seeds 1-3."""
    spec = importlib.util.spec_from_file_location("bench_profiles", ROOT / "bench" / "profiles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{kind}-{seed}": profile
            for seed in (1, 2, 3) for kind, profile in module.generate(seed).items()}


def _write_profiles(specs):
    """name -> --profile argument: the builtins by name, each of ``specs``
    written to PROFILE_DIR."""
    PROFILE_DIR.mkdir(parents=True, exist_ok=True)
    paths = {"canonical": "canonical", "paper-example": "paper-example"}
    for name, profile in specs.items():
        path = PROFILE_DIR / f"{name}.json"
        path.write_text(json.dumps(profile, sort_keys=True), encoding="utf-8")
        paths[name] = str(path)
    return paths


def cases():
    """case name -> argv, in run order."""
    generated = _generated_profiles()
    paths = _write_profiles({**generated, **MALFORMED, "dumbbell": DUMBBELL, "dumbbell-wide": DUMBBELL_WIDE,
                             "near-round": NEAR_ROUND, "unsettled": UNSETTLED, "inadmissible": INADMISSIBLE})
    out = {}

    def add(name, sub, own, formats=("json", "csv")):
        for fmt in formats:
            out[" ".join([name, sub, *own, "--format", fmt])] = [
                sub, "--profile", paths[name], *own, "--format", fmt]

    for name in ("canonical", "paper-example", *sorted(generated)):
        for sub, own in COMMANDS:
            add(name, sub, own)
    for sub, own in (("validate", []), ("sl", ["--k", "0"]), ("verify", ["--m-max", "1"])):
        add("inadmissible", sub, own)
    add("paper-example", "spectrum", ["--m-max", "20", "--rel-tol", "1e-3"])
    add("paper-example", "sl", ["--count", "40", "--grid-max", "64"])
    for depth in ("16", "40"):
        add("paper-example", "verify", ["--m-max", depth])
    for sub in ("spectrum", "verify"):
        add("dumbbell", sub, ["--m-max", "4"])
    add("dumbbell", "spectrum", ["--m-max", "6"])
    add("dumbbell-wide", "spectrum", ["--m-max", "30"])
    add("near-round", "verify", ["--m-max", "6"])
    add("unsettled", "validate", [])
    add("unsettled", "verify", ["--m-max", "4"])
    add("canonical", "sl", ["--out", str(PROFILE_DIR / "missing" / "report.json")], formats=("json",))
    add("canonical", "sl", ["--rel-tol", "1e-11"], formats=("json",))
    for name in MALFORMED:
        add(name, "validate", [], formats=("json",))
    return out


def run_matrix():
    """case name -> [status, stdout, stderr] from revspec.cli.run in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from revspec.cli import run

    records = {}
    for name, argv in cases().items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = run(argv)
            except Exception as exc:  # noqa: BLE001 (a raise is the record)
                status = type(exc).__name__
        records[name] = [status, stdout.getvalue(), stderr.getvalue()]
    return records


def _numbers(a, b, path=""):
    """(relative difference, path) of each pair of numbers where the JSON
    values a and b differ; (inf, path) where anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _numbers(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _numbers(x, y, f"{path}[{i}]")
    elif a != b:
        real = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        yield (abs(a - b) / max(abs(a), abs(b)) if real else math.inf), path or "(top)"


def _largest_difference(left, right):
    """A note on the largest relative difference between two JSON reports,
    or "" when either is not JSON."""
    try:
        a, b = json.loads(left), json.loads(right)
    except json.JSONDecodeError:
        return ""
    rel, path = max(_numbers(a, b), default=(0.0, ""))
    if rel == math.inf:
        return f"; not only numbers differ, e.g. at {path}"
    return f"; largest relative difference {rel:.2g} at {path}"


def compare(path_a, path_b):
    """Print each case whose record differs between two matrix files; the
    number of such cases."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    differ = 0
    for name in sorted(set(a) | set(b)):
        left, right = a.get(name), b.get(name)
        if left == right:
            continue
        differ += 1
        if left is None or right is None:
            print(f"{name}: only in {path_a if right is None else path_b}")
            continue
        parts = [label for label, x, y in zip(("status", "stdout", "stderr"), left, right) if x != y]
        note = _largest_difference(left[1], right[1]) if "stdout" in parts else ""
        print(f"{name}: {', '.join(parts)} differ (status {left[0]} vs {right[0]}){note}")
    print(f"{len(set(a) | set(b)) - differ} identical, {differ} differ")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the matrix records to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two matrix files")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    records = run_matrix()
    Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {args.out}")
    raised = {name: status for name, (status, _, _) in records.items() if isinstance(status, str)}
    for name, status in raised.items():
        print(f"{name}: raised {status}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
