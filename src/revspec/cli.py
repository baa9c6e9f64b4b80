"""Command-line front end.

Subcommands mirror the library pipeline: profile validation, curvature
tables, per-mode eigenvalue slices, global spectrum assembly, bound tables,
reciprocal-sum trace checks, and the verification suite, which verify
renders from ``spectrum.verify_suite`` after its admissibility gate. Reports go
to stdout (or --out) as JSON or CSV and are byte-identical across runs for
identical inputs. JSON text is ``report.json_text``, the text of
``json.dumps(payload, indent=2, sort_keys=True)`` from the C encoder.

Exit codes: 0 success (and, for verify, all checks passed); 1 a verification
check failed; 2 usage error (bad flags, unreadable or malformed profile,
out-of-range options, an --out path that cannot be written, or for sl,
spectrum, bounds and trace a profile that breaks an endpoint condition);
3 numerical non-convergence (a bound table whose moments do not converge
included).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bounds as bounds_mod
from . import slsolver, spectrum as spectrum_mod
from .errors import AssemblyError, ProfileError, QuadratureAccuracyError, RevspecError
from .profile import (
    curvature_at,
    curvature_sign_indicator,
    endpoint_conditions,
    resolve_profile,
    validate_profile,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .report import csv_text, json_text
from .slsolver import DEFAULT_SOLVER, SolverConfig


#: Tuning flags, each offered only by the subcommands that read it.
_TUNING_FLAGS = {
    "--rel-tol": dict(type=float, default=DEFAULT_SOLVER.rel_tol,
                      help=f"solver relative eigenvalue tolerance (default {DEFAULT_SOLVER.rel_tol:g})"),
    "--quad-tol": dict(type=float, default=DEFAULT_QUADRATURE.abs_tol,
                       help="quadrature tolerance, relative to max(|integral|, 1) "
                            f"(default {DEFAULT_QUADRATURE.abs_tol:g})"),
    "--grid-max": dict(type=int, default=DEFAULT_SOLVER.n_max,
                       help=f"solver basis-size cap (default {DEFAULT_SOLVER.n_max})"),
}


#: Subcommands whose numbers assume the endpoint conditions: they exit 2 on
#: a profile that breaks one. validate and curvature report on any profile,
#: and verify reports the failure as its profile_admissible check.
_NEEDS_ENDPOINTS = ("sl", "spectrum", "bounds", "trace")


def _add_flags(parser, tuning, own):
    """The flags every subcommand reads, then the named tuning flags and the
    subcommand's own arguments."""
    parser.add_argument("--profile", required=True,
                        help="builtin profile name (canonical, paper-example) or JSON file path")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="report format (default json)")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    for flag in tuning:
        parser.add_argument(flag, **_TUNING_FLAGS[flag])
    for flag, options in own:
        parser.add_argument(flag, **options)


def _solver_config(args):
    return SolverConfig(n_max=args.grid_max, rel_tol=args.rel_tol)


def _quad_config(args):
    return QuadratureConfig(abs_tol=args.quad_tol)


# Each _cmd_* returns its report as (JSON payload, CSV header, CSV records)
# and its exit status; run renders the format --format names.


def _cmd_validate(args, profile):
    report = validate_profile(profile)
    record = [
        report.passed,
        report.endpoint_values[0], report.endpoint_values[1],
        report.endpoint_derivatives[0], report.endpoint_derivatives[1],
        report.min_f_interior, report.area, report.curvature_integral,
        ";".join(report.messages),
    ]
    header = ["passed", "f_at_-1", "f_at_1", "df_at_-1", "df_at_1",
              "min_f_interior", "area", "curvature_integral", "messages"]
    return report.to_json_dict(), header, [record], 0


def _cmd_curvature(args, profile):
    if args.count < 2:
        raise ProfileError("--count must be >= 2")
    xs = np.linspace(-1.0, 1.0, args.count)
    ks = curvature_at(profile, xs)
    fs = np.asarray(profile.f(xs), dtype=float)
    indicator = curvature_sign_indicator(profile, _quad_config(args))
    records = list(zip(xs.tolist(), fs.tolist(), ks.tolist()))
    payload = {
        "samples": [{"x": x, "f": f, "K": k} for x, f, k in records],
        "sign_indicator": indicator.to_json_dict(),
    }
    return payload, ["x", "f", "K"], records, 0


def _cmd_sl(args, profile):
    if args.k < 0 or args.count < 1:
        raise ProfileError("--k must be >= 0 and --count >= 1")
    slc = slsolver.eigenvalues(profile, args.k, args.count, _solver_config(args))
    records = [[j + 1, lam, err] for j, (lam, err)
               in enumerate(zip(slc.eigenvalues, slc.error_estimates))]
    return slc.to_json_dict(), ["j", "eigenvalue", "error_estimate"], records, 0


def _cmd_spectrum(args, profile):
    if args.m_max < 0:
        raise ProfileError("--m-max must be >= 0")
    spec = spectrum_mod.assemble_spectrum(profile, args.m_max, _solver_config(args))
    records = [[entry.m, entry.value, entry.multiplicity, ";".join(map(str, sorted(entry.modes)))]
               for entry in spec.entries]
    return spec.to_json_dict(), ["m", "value", "multiplicity", "modes"], records, 0


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
        spec = spectrum_mod.assemble_spectrum(profile, args.m_max, _solver_config(args))
    except AssemblyError as exc:
        print(f"note: computed eigenvalues unavailable ({exc})", file=sys.stderr)
        spec = None
    rows = bounds_mod.bounds_table(profile, args.m_max, l_set, _quad_config(args), spec)
    records = [[row.m, row.sharp, row.rough, row.neg_curv, row.canonical, row.computed_lambda]
               for row in rows]
    header = ["m", "sharp", "rough", "neg_curv", "canonical", "computed_lambda"]
    return {"rows": [row.to_json_dict() for row in rows]}, header, records, 0


def _cmd_trace(args, profile):
    if args.terms < 1:
        raise ProfileError("--terms must be >= 1")
    report = slsolver.trace_check(profile, args.k, args.terms, SolverConfig(n_max=args.grid_max))
    record = [report.k, report.terms_used, report.partial_sum,
              report.tail_estimate, report.target, report.deviation, report.remainder_estimate]
    header = ["k", "terms_used", "partial_sum", "tail_estimate", "target", "deviation", "remainder_estimate"]
    return report.to_json_dict(), header, [record], 0


def _cmd_verify(args, profile):
    if args.m_max < 1:
        raise ProfileError("--m-max must be >= 1")
    report = validate_profile(profile)
    checks = [spectrum_mod.Check(
        name="profile_admissible", location="-",
        lhs=float(report.passed), rhs=1.0, passed=report.passed,
    )]
    for message in report.messages:
        print(f"note: {message}", file=sys.stderr)
    # the solver's numbers assume an admissible profile: on any other the
    # suite is the failed admissibility check alone
    entries = ()
    if report.passed:
        spec, solved = spectrum_mod.verify_suite(profile, args.m_max, _solver_config(args), _quad_config(args))
        checks, entries = checks + solved, spec.entries

    suite = spectrum_mod.verification_report(checks)
    payload = suite.to_json_dict()
    payload["profile"] = args.profile
    payload["multiplicities"] = [entry.multiplicity for entry in entries]
    payload["values"] = [entry.value for entry in entries]
    records = [[c.name, c.location, c.lhs, c.rhs, c.passed] for c in checks]
    return payload, ["name", "location", "lhs", "rhs", "passed"], records, 0 if suite.all_passed else 1


#: Subcommand -> (handler, help line, tuning flags, own arguments): the table
#: the parser is built from and run dispatches through.
_SUBCOMMANDS = {
    "validate": (_cmd_validate, "check profile admissibility", (), ()),
    "curvature": (_cmd_curvature, "sample the Gauss curvature K = -f''/2", ("--quad-tol",), (
        ("--count", dict(type=int, default=201, help="number of sample points (default 201)")),
    )),
    "sl": (_cmd_sl, "lowest eigenvalues of one mode operator", ("--rel-tol", "--grid-max"), (
        ("--k", dict(type=int, default=0, help="Fourier mode (default 0)")),
        ("--count", dict(type=int, default=8, help="how many eigenvalues (default 8)")),
    )),
    "spectrum": (_cmd_spectrum, "assemble the distinct eigenvalues with multiplicities",
                 ("--rel-tol", "--grid-max"), (
        ("--m-max", dict(type=int, default=6, help="deepest distinct index (default 6)")),
    )),
    "bounds": (_cmd_bounds, "closed-form upper-bound table",
               ("--rel-tol", "--quad-tol", "--grid-max"), (
        ("--m-max", dict(type=int, default=6, help="deepest index (default 6)")),
        ("--l-set", dict(default="", help="comma-separated extra trial exponents "
                                          "(1 and m are always included)")),
    )),
    "trace": (_cmd_trace, "reciprocal-eigenvalue sum against 1/k", ("--grid-max",), (
        ("--k", dict(type=int, default=1, help="Fourier mode, nonzero (default 1)")),
        ("--terms", dict(type=int, default=100, help="series terms (default 100)")),
    )),
    "verify": (_cmd_verify, "run the verification suite",
               ("--rel-tol", "--quad-tol", "--grid-max"), (
        ("--m-max", dict(type=int, default=5, help="spectrum depth (default 5)")),
    )),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="revspec",
        description="Laplace spectra and eigenvalue bounds for rotationally "
                    "symmetric metrics on the 2-sphere.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, tuning, own) in _SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_line), tuning, own)
    return parser


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        profile = resolve_profile(args.profile)
        if args.subcommand in _NEEDS_ENDPOINTS:
            broken = endpoint_conditions(profile)[2]
            if broken:
                raise ProfileError("profile is not admissible: " + "; ".join(broken))
        payload, header, records, status = _SUBCOMMANDS[args.subcommand][0](args, profile)
    except (QuadratureAccuracyError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RevspecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json_text(payload) + "\n"
    else:
        text = csv_text(header, records)
    if args.out is None:
        sys.stdout.write(text)
        return status
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
