"""Command-line front end.

Subcommands mirror the library pipeline: profile validation, curvature
tables, per-mode eigenvalue slices, global spectrum assembly, bound tables,
reciprocal-sum trace checks, and a one-shot verification suite. Reports go
to stdout (or --out) as JSON or CSV and are byte-identical across runs for
identical inputs.

Exit codes: 0 success (and, for verify, all checks passed); 1 a verification
check failed; 2 usage error (bad flags, unreadable or malformed profile,
out-of-range options); 3 numerical non-convergence (a bound table whose
moments do not converge included).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import slsolver, spectrum as spectrum_mod
from .errors import AssemblyError, ProfileError, QuadratureAccuracyError, RevspecError
from .profile import (
    curvature_at,
    curvature_sign_indicator,
    resolve_profile,
    validate_profile,
)
from .quadrature import QuadratureConfig
from .slsolver import DEFAULT_SOLVER, SolverConfig


#: Tuning flags, each offered only by the subcommands that read it.
_TUNING_FLAGS = {
    "--rel-tol": dict(type=float, default=1e-6,
                      help="solver relative eigenvalue tolerance (default 1e-6)"),
    "--merge-tol": dict(type=float, default=None,
                        help="eigenvalue merge tolerance (default: adaptive, "
                             "max(1e-6*ceiling, 10*worst error estimate))"),
    "--quad-tol": dict(type=float, default=1e-10,
                       help="quadrature tolerance, relative to max(|integral|, 1) (default 1e-10)"),
    "--grid-max": dict(type=int, default=DEFAULT_SOLVER.n_max,
                       help=f"solver basis-size cap (default {DEFAULT_SOLVER.n_max})"),
}


def _add_flags(parser, *tuning):
    """The flags every subcommand reads, plus the named tuning flags."""
    parser.add_argument("--profile", required=True,
                        help="builtin profile name (canonical, paper-example) or JSON file path")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="report format (default json)")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    for flag in tuning:
        parser.add_argument(flag, **_TUNING_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revspec",
        description="Laplace spectra and eigenvalue bounds for rotationally "
                    "symmetric metrics on the 2-sphere.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("validate", help="check profile admissibility")
    _add_flags(sp)

    sp = sub.add_parser("curvature", help="sample the Gauss curvature K = -f''/2")
    _add_flags(sp, "--quad-tol")
    sp.add_argument("--count", type=int, default=201, help="number of sample points (default 201)")

    sp = sub.add_parser("sl", help="lowest eigenvalues of one mode operator")
    _add_flags(sp, "--rel-tol", "--grid-max")
    sp.add_argument("--k", type=int, default=0, help="Fourier mode (default 0)")
    sp.add_argument("--count", type=int, default=8, help="how many eigenvalues (default 8)")

    sp = sub.add_parser("spectrum", help="assemble the distinct eigenvalues with multiplicities")
    _add_flags(sp, "--rel-tol", "--merge-tol", "--grid-max")
    sp.add_argument("--m-max", type=int, default=6, help="deepest distinct index (default 6)")

    sp = sub.add_parser("bounds", help="closed-form upper-bound table")
    _add_flags(sp, "--rel-tol", "--merge-tol", "--quad-tol", "--grid-max")
    sp.add_argument("--m-max", type=int, default=6, help="deepest index (default 6)")
    sp.add_argument("--l-set", default="", help="comma-separated extra trial exponents "
                                                "(1 and m are always included)")

    sp = sub.add_parser("trace", help="reciprocal-eigenvalue sum against 1/k")
    _add_flags(sp, "--grid-max")
    sp.add_argument("--k", type=int, default=1, help="Fourier mode, nonzero (default 1)")
    sp.add_argument("--terms", type=int, default=100, help="series terms (default 100)")

    sp = sub.add_parser("verify", help="run the verification suite")
    _add_flags(sp, "--rel-tol", "--merge-tol", "--quad-tol", "--grid-max")
    sp.add_argument("--m-max", type=int, default=5, help="spectrum depth (default 5)")

    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, records):
    lines = [",".join(header)]
    for record in records:
        cells = []
        for value in record:
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _solver_config(args):
    return SolverConfig(n_max=args.grid_max, rel_tol=args.rel_tol)


def _quad_config(args):
    return QuadratureConfig(abs_tol=args.quad_tol)


def _cmd_validate(args, profile):
    report = validate_profile(profile)
    if args.format == "json":
        return _json_text(report.to_json_dict()), 0
    record = [
        report.passed,
        report.endpoint_values[0], report.endpoint_values[1],
        report.endpoint_derivatives[0], report.endpoint_derivatives[1],
        report.min_f_interior, report.area, report.curvature_integral,
        ";".join(report.messages),
    ]
    header = ["passed", "f_at_-1", "f_at_1", "df_at_-1", "df_at_1",
              "min_f_interior", "area", "curvature_integral", "messages"]
    return _csv_text(header, [record]), 0


def _cmd_curvature(args, profile):
    if args.count < 2:
        raise ProfileError("--count must be >= 2")
    xs = np.linspace(-1.0, 1.0, args.count)
    ks = curvature_at(profile, xs)
    fs = np.asarray(profile.f(xs), dtype=float)
    indicator = curvature_sign_indicator(profile, _quad_config(args))
    if args.format == "json":
        payload = {
            "samples": [{"x": float(x), "f": float(f), "K": float(k)}
                        for x, f, k in zip(xs, fs, ks)],
            "sign_indicator": indicator.to_json_dict(),
        }
        return _json_text(payload), 0
    records = [[float(x), float(f), float(k)] for x, f, k in zip(xs, fs, ks)]
    return _csv_text(["x", "f", "K"], records), 0


def _cmd_sl(args, profile):
    if args.k < 0 or args.count < 1:
        raise ProfileError("--k must be >= 0 and --count >= 1")
    slc = slsolver.eigenvalues(profile, args.k, args.count, _solver_config(args))
    if args.format == "json":
        return _json_text(slc.to_json_dict()), 0
    records = [[j + 1, lam, err] for j, (lam, err)
               in enumerate(zip(slc.eigenvalues, slc.error_estimates))]
    return _csv_text(["j", "eigenvalue", "error_estimate"], records), 0


def _cmd_spectrum(args, profile):
    if args.m_max < 0:
        raise ProfileError("--m-max must be >= 0")
    spec = spectrum_mod.assemble_spectrum(profile, args.m_max, _solver_config(args),
                                          merge_tol=args.merge_tol)
    if args.format == "json":
        return _json_text(spec.to_json_dict()), 0
    return spec.to_csv(), 0


def _parse_l_set(text):
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ProfileError(f"--l-set must be comma-separated integers, got {text!r}") from exc


def _cmd_bounds(args, profile):
    if args.m_max < 1:
        raise ProfileError("--m-max must be >= 1")
    l_set = _parse_l_set(args.l_set)
    try:
        spec = spectrum_mod.assemble_spectrum(profile, args.m_max, _solver_config(args),
                                              merge_tol=args.merge_tol)
    except RevspecError as exc:
        print(f"note: computed eigenvalues unavailable ({exc})", file=sys.stderr)
        spec = None
    rows = bounds_mod.bounds_table(profile, args.m_max, l_set, _quad_config(args), spec)
    if args.format == "json":
        return _json_text({"rows": [row.to_json_dict() for row in rows]}), 0
    return bounds_mod.bounds_table_csv(rows), 0


def _cmd_trace(args, profile):
    if args.terms < 1:
        raise ProfileError("--terms must be >= 1")
    report = slsolver.trace_check(profile, args.k, args.terms, SolverConfig(n_max=args.grid_max))
    if args.format == "json":
        return _json_text(report.to_json_dict()), 0
    record = [report.k, report.terms_used, report.partial_sum,
              report.tail_estimate, report.target, report.deviation]
    header = ["k", "terms_used", "partial_sum", "tail_estimate", "target", "deviation"]
    return _csv_text(header, [record]), 0


def _cmd_verify(args, profile):
    if args.m_max < 1:
        raise ProfileError("--m-max must be >= 1")
    cfg = _solver_config(args)
    quad = _quad_config(args)
    checks = []

    report = validate_profile(profile)
    checks.append(spectrum_mod.Check(
        name="profile_admissible", location="-",
        lhs=float(report.passed), rhs=1.0, passed=report.passed,
    ))

    spec = spectrum_mod.assemble_spectrum(profile, args.m_max, cfg, merge_tol=args.merge_tol)
    checks.extend(spectrum_mod.verify_multiplicity_bound(spec).checks)
    checks.extend(spectrum_mod.verify_monotonicity(profile, max(2, min(5, args.m_max + 1)), cfg).checks)
    half = max(1, args.m_max // 2)
    checks.extend(spectrum_mod.verify_interlacing(profile, half, half, cfg, spectrum=spec).checks)

    for m in range(1, args.m_max + 1):
        lam = spec.entries[m].value
        for name, bound in (("sharp_bound", bounds_mod.sharp_bound(profile, m, quad)),
                            ("rough_bound", bounds_mod.rough_bound(profile, m, quad))):
            checks.append(spectrum_mod.Check(
                name=name, location=f"m={m}", lhs=lam, rhs=bound,
                passed=lam <= bound + 1e-3 * max(abs(bound), 1.0),
            ))

    terms = 100
    for k in range(1, min(3, args.m_max) + 1):
        trace = slsolver.trace_check(profile, k, terms, cfg)
        checks.append(spectrum_mod.Check(
            name="trace_identity", location=f"k={k}",
            lhs=trace.partial_sum + trace.tail_estimate, rhs=trace.target,
            passed=trace.deviation <= 2.0 / terms,
        ))

    comparison = spectrum_mod.canonical_comparison(spec)
    witness = comparison.witnesses.get(1)
    checks.append(spectrum_mod.Check(
        name="canonical_witness", location="k=1",
        lhs=float(-1 if witness is None else witness), rhs=1.0,
        passed=witness is not None,
    ))

    suite = spectrum_mod.VerificationReport(
        checks=tuple(checks), all_passed=all(c.passed for c in checks)
    )
    status = 0 if suite.all_passed else 1
    if args.format == "json":
        payload = suite.to_json_dict()
        payload["profile"] = args.profile
        payload["multiplicities"] = [entry.multiplicity for entry in spec.entries]
        payload["values"] = [entry.value for entry in spec.entries]
        return _json_text(payload), status
    records = [[c.name, c.location, c.lhs, c.rhs, c.passed] for c in checks]
    return _csv_text(["name", "location", "lhs", "rhs", "passed"], records), status


_COMMANDS = {
    "validate": _cmd_validate,
    "curvature": _cmd_curvature,
    "sl": _cmd_sl,
    "spectrum": _cmd_spectrum,
    "bounds": _cmd_bounds,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        profile = resolve_profile(args.profile)
        text, status = _COMMANDS[args.subcommand](args, profile)
    except (QuadratureAccuracyError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RevspecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return status


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
