"""revspec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload spectrum-verify --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; revspec is imported from its
``src`` directory, nothing is installed. A run

1. generates the seed's profiles (profiles.py) and writes them as JSON
   profile files, which the CLI reads through ``--profile PATH``;
2. computes the independent reference in a child process (reference.py),
   before anything is timed;
3. measures setup_s: the median over SETUP_REPEATS fresh processes of
   importing revspec and building every profile (setup_probe.py);
4. repeats whole rounds of the workload's operations (workloads.py) in this
   process until ``--seconds`` have passed, calling the CLI in process;
5. checks the first round's outputs against the reference and the method's
   properties (checks.py), and that every later round reproduced them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones: setup_s, run_s (median round time), accuracy_digits
(fewest correct digits on the fixtures) and peak_rss_mb. With ``--trace 1``
rounds alternate untraced and traced (tracing.py), and the metrics are the
per-layer ones from the traced rounds, the per-command times from the
untraced rounds and the tracing overhead; the spans of the last traced
round are written to .bench_traces/<workload>-seed<seed>.json.

The exit code is 0 when every check passed, 1 when one failed, 2 on bad
arguments or a missing source tree, 3 when the reference could not be
computed.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the CPUs this process may use, before numpy loads;
# the child processes inherit the setting.
_CPUS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _CPUS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACES = ROOT / ".bench_traces"

import checks  # noqa: E402
import profiles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="revspec benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _write_profiles(workdir, seed):
    """Profile arguments for the CLI (name -> builtin name or JSON path) and specs."""
    specs = {name: {"kind": name} for name in profiles.FIXTURES}
    args = {name: name for name in profiles.FIXTURES}
    for name, spec in profiles.generate(seed).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        specs[name] = spec
        args[name] = str(path)
    return specs, args


def _reference(workdir, workload, specs):
    request = {name: {"spec": spec, "needs": workloads.reference_needs(workload, name)}
               for name, spec in specs.items()}
    request_path = workdir / "reference-request.json"
    out_path = workdir / "reference.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--request", str(request_path), "--out", str(out_path)],
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(out_path.read_text(encoding="utf-8"))


def _setup_seconds(profile_args):
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *profile_args.values()],
            check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Session:
    """The imported package and the profiles one run works on."""

    def __init__(self, profile_args, workdir):
        sys.path.insert(0, str(SRC))
        self.modules = {name: importlib.import_module(f"revspec.{name}")
                        for name in ("profile", "slsolver", "spectrum", "bounds", "cli")}
        self.errors = importlib.import_module("revspec.errors")
        self.profile_args = profile_args
        self.profiles = {name: self.modules["profile"].resolve_profile(arg)
                         for name, arg in profile_args.items()}
        self.out_dir = workdir / "reports"
        self.out_dir.mkdir()

    def execute(self, op, profile):
        """Run one op; CLI ops return (exit status, report text)."""
        bounds = self.modules["bounds"]
        if op.kind == "bounds_table":
            return bounds.bounds_table(profile, op.params["depth"], op.params["l_set"])
        if op.kind == "negative_curvature_bound":
            try:
                return bounds.negative_curvature_bound(profile, op.params["m"])
            except self.errors.InapplicabilityError:
                return "inapplicable"
        out_path = self.out_dir / "report.txt"
        argv = [op.kind, "--profile", self.profile_args[op.profile], *op.argv, "--out", str(out_path)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            status = self.modules["cli"].run(argv)
        try:
            text = out_path.read_text(encoding="utf-8")
            out_path.unlink()
        except FileNotFoundError:
            text = stderr.getvalue()
        return status, text

    def run_round(self, ops, tracer=None):
        """One pass over ops: (outputs by op id, round seconds, seconds per command)."""
        profiles_used = self.profiles
        if tracer is not None:
            tracer.install()
            profiles_used = {name: tracer.wrap_profile(p, name) for name, p in self.profiles.items()}
        outputs = {}
        per_command = Counter()
        try:
            start = perf_counter()
            for op in ops:
                t0 = perf_counter()
                if tracer is not None and op.is_cli:
                    out = tracer.run_span(f"cli.{op.kind}", self.execute, op, profiles_used[op.profile])
                else:
                    out = self.execute(op, profiles_used[op.profile])
                if op.bucket:
                    per_command[op.bucket] += perf_counter() - t0
                outputs[op.id] = out
            total = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return outputs, total, per_command


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args, workdir):
    ops = workloads.operations(args.workload)
    specs, profile_args = _write_profiles(workdir, args.seed)
    t0 = perf_counter()
    try:
        refs = _reference(workdir, args.workload, specs)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: reference computation failed: {exc}", file=sys.stderr)
        return 3
    t1 = perf_counter()
    setup_s = _setup_seconds(profile_args)
    session = Session(profile_args, workdir)
    print(f"reference {t1 - t0:.1f} s, setup probes {perf_counter() - t1:.1f} s", file=sys.stderr)

    first = None
    mismatches = []
    untraced, traced = [], []
    last_tracer = None
    deadline = perf_counter() + args.seconds
    while True:
        tracer = None
        if args.trace and len(untraced) > len(traced):
            tracer = tracing.Tracer(session.modules)
        outputs, total, per_command = session.run_round(ops, tracer)
        if tracer is None:
            untraced.append((total, per_command))
        else:
            traced.append((total, tracer.metrics()))
            last_tracer = tracer
        if first is None:
            first = outputs
        else:
            mismatches.extend(op.id for op in ops if repr(outputs[op.id]) != repr(first[op.id]))
        if perf_counter() >= deadline and (not args.trace or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if last_tracer is not None:
        spans_path = TRACES / f"{args.workload}-seed{args.seed}.json"
        last_tracer.dump(spans_path)
        print(f"spans of the last traced round: {spans_path}", file=sys.stderr)

    judge = checks.judge_round(ops, first, refs)
    rounds = len(untraced) + len(traced)
    for failure in judge.failures:
        print(f"failed op: {failure}", file=sys.stderr)
    for problem in judge.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for op_id in sorted(set(mismatches)):
        print(f"CHECK FAILED: {op_id}: output differs between rounds", file=sys.stderr)
    correct = not judge.problems and not mismatches

    run_s = _median([t for t, _ in untraced])
    if args.trace:
        metrics = {}
        for name, unit in tracing.METRICS.items():
            metrics[name] = {"value": _median([m[name] for _, m in traced]), "unit": unit}
        for name in workloads.COMMAND_METRICS:
            metrics[name] = {"value": _median([c[name] for _, c in untraced]), "unit": "s"}
        overhead = _median([t for t, _ in traced]) - run_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "accuracy_digits": {"value": judge.accuracy[True][0], "unit": "digits"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("round seconds: untraced " + " ".join(f"{t:.3f}" for t, _ in untraced)
          + ("; traced " + " ".join(f"{t:.3f}" for t, _ in traced) if traced else ""), file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {judge.attempted} ops and "
          f"{judge.failed} failed per round, {judge.compared} numbers checked", file=sys.stderr)
    for label, fixture in (("fixtures", True), ("generated profiles", False)):
        digits, where = judge.accuracy[fixture]
        print(f"fewest correct digits on the {label}: {digits:.2f} at {where}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": judge.attempted * rounds,
        "failed": judge.failed * rounds,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv):
    args = _parse_args(argv)
    if not (SRC / "revspec" / "__init__.py").is_file():
        print(f"error: no revspec sources under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
