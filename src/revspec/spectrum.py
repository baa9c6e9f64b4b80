"""Global Laplace spectrum assembled from the mode spectra.

The spectrum of the Laplacian on a rotationally symmetric sphere is the
union over k >= 0 of the mode spectra SpecL_k, with conjugate modes +-k
identified. The m-th *distinct* eigenvalue lambda_m therefore carries the
multiplicity

    dim E = 2 * #{k >= 1 : lambda_m in SpecL_k} + (1 if lambda_m in SpecL_0),

which is bounded by 2m + 1, with equality for every m exactly on the round
sphere. The first mode eigenvalue strictly increases in k, so the first
eigenvalues of modes 0..m are m + 1 distinct values at or below
lambda_1^(m): that value caps lambda_m, and only modes k <= m can carry it.
So a spectrum needs each mode's values below that ceiling, and modes
0..m + 1 run through one basis-size ladder (slsolver._converge) that reads
the ceiling off mode m as it converges and asks each mode for the values
below it (assemble_spectrum). Neighbouring values of two different modes
that lie within ten times the larger of their own error estimates are
identified as one distinct eigenvalue; two values of one mode never are,
since each mode spectrum is simple. lambda_0 is 0 exactly: mode 0's first
eigenfunction is the constant. The verify checks read the spectrum they
are handed, refuse one too shallow for their depth and solve nothing: a
short slice gives interlacing its last value for each value it lacks.
verify_suite is the suite of ``revspec verify``: it assembles the one
spectrum deep enough for every check and builds the checks in order, so the
depth, slice and slack rules of the suite are written here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# bench/tracing.py rebinds names where they are looked up: verify_suite calls
# bounds_table through its module, and the suite's builders by their names
# here. rough_bound, liouville_length, eigenvalues and first_eigenvalue are
# not called here: the tracer rebinds them too, and fails on a missing one.
from . import bounds
from .bounds import rough_bound  # noqa: F401 (see above)
from .errors import AssemblyError, DomainError
from .profile import MetricProfile, liouville_length  # noqa: F401 (see above)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .report import Report, local
from .slsolver import (
    _BASIS_MARGIN,
    _MIN_BASIS,
    DEFAULT_SOLVER,
    SolverConfig,
    _converge,
    eigenvalues,  # noqa: F401 (see above)
    first_eigenvalue,  # noqa: F401 (see above)
    trace_checks,
)


@dataclass(frozen=True)
class DistinctEigenvalue(Report):
    """One distinct Laplace eigenvalue with its contributing modes.

    ``members`` records the provenance as (k, j, value, error_estimate)
    tuples, one per retained mode eigenvalue merged into this entry; it
    stays off the wire.
    """

    m: int
    value: float
    modes: frozenset[int]
    multiplicity: int
    members: tuple = local()


@dataclass(frozen=True)
class GlobalSpectrum(Report):
    """Distinct eigenvalues up to a truncation ceiling, with audit data.

    ``truncation`` is the ceiling, the first eigenvalue of mode m_target at
    the basis size where it left the spectrum's ladder.
    ``per_mode_slices`` maps each k = 0..m_target + 1 to its mode slice.
    Each slice holds every value of its mode up to the guard above the
    ceiling and one more (at least 8 up to mode m_target). It stays off the
    wire.
    ``merge_tolerance`` is 10 times the worst error estimate among the
    retained mode values. It bounds the gap of every join and every entry's
    reach.
    """

    entries: tuple[DistinctEigenvalue, ...]
    merge_tolerance: float
    truncation: float
    per_mode_slices: dict = local(repr=False)

    def reach(self, m):
        """How far entry m's value is taken to lie from the true eigenvalue:
        10 times the largest estimate among its members, the farthest a join
        spans."""
        return max(10.0 * mem[3] for mem in self.entries[m].members)


@dataclass(frozen=True)
class Check(Report):
    """One verified inequality or identity."""

    name: str
    location: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport(Report):
    checks: tuple[Check, ...]
    all_passed: bool


def verification_report(checks):
    """The report of ``checks`` (any iterable); all_passed when every one passed."""
    checks = tuple(checks)
    return VerificationReport(checks=checks, all_passed=all(c.passed for c in checks))


def at_most(name, location, lhs, rhs, slack):
    """The Check lhs <= rhs, passed when lhs <= rhs + slack. Each caller sums
    into the slack the error estimates of the two numbers it compares: an
    entry's reach (GlobalSpectrum.reach), a mode value's own estimate, a
    bound's quadrature tolerance."""
    return Check(name=name, location=location, lhs=lhs, rhs=rhs, passed=lhs <= rhs + slack)


def _converged(slc, cfg):
    """The slice; AssemblyError if it missed rel_tol, so that no unconverged
    eigenvalue enters a spectrum."""
    if not slc.converged:
        raise AssemblyError(
            f"mode k={slc.k} did not converge to rel_tol={cfg.rel_tol:.3e} by basis size "
            f"N={slc.grid_used} (worst error estimate {max(slc.error_estimates):.3e})"
        )
    return slc


def _guard(ceiling):
    """The ceiling plus the margin every mode's slice must reach past."""
    return ceiling + max(1.0, 1e-3 * ceiling)


def _check_cluster(cluster):
    """AssemblyError if a cluster of (value, k, j, error) members holds two
    values of one mode (mode spectra are simple) or the first values of two
    modes (they increase in k)."""
    ks = [mem[1] for mem in cluster]
    if len(set(ks)) < len(ks) or sum(1 for mem in cluster if mem[2] == 1) > 1:
        joined = ", ".join(f"(k={k}, j={j}) = {value!r} (estimate {err:.1e})"
                           for value, k, j, err in cluster)
        raise AssemblyError(f"the merge joins mode eigenvalues that cannot coincide "
                            f"into one eigenvalue: {joined}")


def assemble_spectrum(
    p: MetricProfile,
    m_target: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> GlobalSpectrum:
    """Enumerate the distinct eigenvalues up to at least index m_target.

    Modes 0..m_target + 1 run through one basis-size ladder
    (slsolver._converge) from N = 16. After each size the ceiling is mode
    m_target's current first Ritz value, the guard is
    ceiling + max(1, 1e-3 * ceiling), and each mode must settle one value
    more than it holds at or below the guard. Modes up to m_target settle at
    least the 8 a ladder from N = 16 compares anyway, so that interlacing
    compares with lambda_k^(j+1) itself for every j < 8; mode m_target + 1
    is there for its first value, above which every higher mode lies, and
    settles no more than it must. Ritz values are upper bounds
    (Courant-Fischer), so a guard read at a coarser size only covers more
    than the final one. The truncation is mode m_target's first value at
    the size it left the ladder. No mode past m_target + 1 is solved: first
    values increase in k, so each of its values lies above mode
    m_target + 1's first value, and a cluster reaching it from at or below
    the ceiling would hold both modes' first values, which the merge
    refuses. Mode 0's first value enters the merge as exactly 0.0: its
    stiffness row is exactly zero, the constant eigenfunction's. Two
    neighbouring sorted mode values join when they belong to different
    modes and lie within 10 times the larger of their own error estimates,
    so a loose value joins only its own neighbours, and one mode's values,
    which are distinct eigenvalues however close, never join each other;
    merge_tolerance, 10 times the worst estimate, bounds every join.
    AssemblyError is raised by a merge of values that cannot coincide, such
    as a chain k = 5, 3, 5 (naming them with their values and estimates),
    and by a mode slice that misses rel_tol by the basis cap (naming k, N
    and the estimate).
    """
    if m_target < 0:
        raise DomainError("m_target must be >= 0")
    floor = _MIN_BASIS - _BASIS_MARGIN  # the values a ladder from _MIN_BASIS compares anyway

    def counts(latest):
        guard = _guard(latest[m_target][0])
        return {k: max(1 + int((values <= guard).sum()), floor if k <= m_target else 1)
                for k, values in latest.items()}

    slices = _converge(p, range(m_target + 2), _MIN_BASIS, cfg, counts)
    ceiling = _converged(slices[m_target], cfg).eigenvalues[0]
    lam_hi = _guard(ceiling)
    members = sorted((0.0 if (slc.k, j) == (0, 1) else value, slc.k, j, err)  # (value, k, j, error)
                     for slc in (_converged(slices[k], cfg) for k in range(m_target + 2))
                     for j, (value, err) in enumerate(zip(slc.eigenvalues, slc.error_estimates), start=1)
                     if value <= lam_hi)
    clusters = [[members[0]]]
    for prev, mem in zip(members, members[1:]):
        if mem[1] != prev[1] and mem[0] - prev[0] <= 10.0 * max(prev[3], mem[3]):
            clusters[-1].append(mem)
        else:
            clusters.append([mem])
    for cluster in clusters:
        _check_cluster(cluster)
    kept = [cl for cl in clusters if cl[0][0] <= ceiling]

    entries = []
    for m, cluster in enumerate(kept):
        value = sum(mem[0] for mem in cluster) / len(cluster)
        modes = frozenset(mem[1] for mem in cluster)
        multiplicity = 2 * sum(1 for kk in modes if kk >= 1) + (1 if 0 in modes else 0)
        entries.append(
            DistinctEigenvalue(
                m=m,
                value=float(value),
                modes=modes,
                multiplicity=multiplicity,
                members=tuple((mem[1], mem[2], mem[0], mem[3]) for mem in cluster),
            )
        )

    return GlobalSpectrum(
        entries=tuple(entries),
        merge_tolerance=10.0 * max(mem[3] for mem in members),
        truncation=ceiling,
        per_mode_slices=slices,
    )


def verify_multiplicity_bound(s: GlobalSpectrum) -> VerificationReport:
    """Check multiplicity <= 2m + 1 for every assembled entry."""
    return verification_report(
        at_most("multiplicity_bound", f"m={entry.m}", float(entry.multiplicity), float(2 * entry.m + 1), 0.0)
        for entry in s.entries)


def _slices_to(spectrum, k_max, check):
    """The spectrum's mode slices; DomainError if they stop before mode k_max."""
    slices = spectrum.per_mode_slices
    if k_max > max(slices):
        raise DomainError(f"{check} to k_max={k_max} needs mode slices the spectrum does not hold: "
                          f"it holds modes 0..{max(slices)}")
    return slices


def verify_interlacing(spectrum: GlobalSpectrum, k_max: int, j_max: int) -> VerificationReport:
    """Check lambda_(k+j) <= lambda_k^(j+1) for 1 <= k <= k_max, 0 <= j <= j_max.

    Every value is read from ``spectrum``, which must reach index
    k_max + j_max and hold mode k_max's slice. A slice short of value j + 1
    gives its last: values increase, so it lies at or below lambda_k^(j+1)
    within its estimate, and above the guard, past every entry up to
    m_target. Each check allows the entry's reach plus that estimate.
    """
    if k_max < 1 or j_max < 1:
        raise DomainError("k_max and j_max must be >= 1")
    if len(spectrum.entries) <= k_max + j_max:
        raise DomainError(f"interlacing to k_max + j_max = {k_max + j_max} needs a spectrum that reaches "
                          f"that index; this one ends at m={len(spectrum.entries) - 1}")
    slices = _slices_to(spectrum, k_max, "interlacing")
    checks = []
    for k in range(1, k_max + 1):
        values, errors = slices[k].eigenvalues, slices[k].error_estimates
        for j in range(0, j_max + 1):
            i = min(j, len(values) - 1)
            checks.append(at_most("interlacing", f"k={k},j={j}", spectrum.entries[k + j].value,
                                  values[i], spectrum.reach(k + j) + errors[i]))
    return verification_report(checks)


def verify_monotonicity(spectrum: GlobalSpectrum, k_max: int) -> VerificationReport:
    """Check that the first mode eigenvalue does not decrease over k = 1..k_max.

    The first eigenvalue of mode k and its error estimate are read from the
    mode slices of ``spectrum``, which hold modes 0..m_target + 1, so k_max
    may not pass m_target + 1. Each check is ``at_most`` on the values of k
    and k + 1: non-strict, with the sum of their two estimates as slack.
    """
    if k_max < 2:
        raise DomainError("k_max must be >= 2")
    slices = _slices_to(spectrum, k_max, "monotonicity")
    firsts = [slices[k] for k in range(1, k_max + 1)]
    return verification_report(
        at_most("first_eigenvalue_monotonicity", f"k={k}->{k + 1}", a.eigenvalues[0], b.eigenvalues[0],
                a.error_estimates[0] + b.error_estimates[0])
        for k, (a, b) in enumerate(zip(firsts, firsts[1:]), start=1))


def canonical_comparison(s: GlobalSpectrum) -> dict[int, Optional[int]]:
    """Map each k >= 1 to the smallest index m >= k with lambda_m <= m(m+1)
    within the entry's reach (the round-sphere value is exact, so that is
    all the slack), or to None if no computed index works. Every k has a
    witness at some finite m; for the profiles treated here one shows up at
    small index, and lambda_m lies at or below m(m+1) exactly when m is its
    own witness."""
    below = [entry.value <= entry.m * (entry.m + 1) + s.reach(entry.m) for entry in s.entries]
    return {k: next((m for m in range(k, len(below)) if below[m]), None) for k in range(1, len(below))}


def verify_suite(
    p: MetricProfile,
    m_max: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[GlobalSpectrum, list]:
    """The checks of ``revspec verify`` to depth m_max >= 1, and the one
    spectrum they read: (spectrum, checks).

    ``p`` must pass validate_profile: the solver's numbers assume the
    endpoint conditions. The spectrum reaches index max(m_max, 2), deep
    enough for interlacing at k, j <= max(1, m_max // 2). In order, the
    checks are: multiplicity <= 2m + 1 for every entry; first mode values
    nondecreasing over k = 1..min(5, m_max + 1); interlacing; lambda_m
    below the sharp and the rough bound for m = 1..m_max, each allowing the
    entry's reach plus the bound table's quadrature contract; the
    reciprocal-sum identity at k = 1..min(3, m_max) with 50 terms, within
    its own remainder estimate; and a k = 1 canonical witness. DomainError
    for m_max < 1, before any solve.
    """
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    half = max(1, m_max // 2)
    spec = assemble_spectrum(p, max(m_max, 2), cfg)
    checks = list(verify_multiplicity_bound(spec).checks)
    checks.extend(verify_monotonicity(spec, min(5, m_max + 1)).checks)
    checks.extend(verify_interlacing(spec, half, half).checks)
    for row in bounds.bounds_table(p, m_max, (), quad, spec):
        for name, bound in (("sharp_bound", row.sharp), ("rough_bound", row.rough)):
            checks.append(at_most(name, f"m={row.m}", row.computed_lambda, bound,
                                  spec.reach(row.m) + quad.abs_tol * max(abs(bound), 1.0)))
    # 50 terms, one stack at N = 70: the trigamma tail leaves a remainder of
    # order terms^-3
    for trace in trace_checks(p, range(1, min(3, m_max) + 1), 50, cfg, quad):
        checks.append(Check(name="trace_identity", location=f"k={trace.k}",
                            lhs=trace.partial_sum + trace.tail_estimate, rhs=trace.target,
                            passed=trace.deviation <= trace.remainder_estimate))
    witness = canonical_comparison(spec).get(1)
    checks.append(Check(name="canonical_witness", location="k=1",
                        lhs=float(-1 if witness is None else witness), rhs=1.0, passed=witness is not None))
    return spec, checks
