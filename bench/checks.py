"""Checks of one round's outputs against the reference and the method's properties.

Three outcomes are kept apart:

* a failed operation: nonzero exit code, a result that misses its own
  convergence or error contract (an unconverged slice, a converged slice
  outside its error estimates, a spectrum entry farther from the reference
  than the merge tolerance it reports), or a bound cell left blank;
* a problem, which makes the whole run incorrect: any number farther than
  GROSS_REL from the reference, or a violated property (closed-form
  round-sphere values, multiplicity <= 2m + 1, interlacing, first-eigenvalue
  monotonicity, Hersch's lambda_1 <= 2, bounds at or above lambda_m, the
  1/|k| trace identity);
* accuracy: the fewest correct digits, -log10(|err| / max(|ref|, 1)), over
  the numbers compared with the reference, kept apart for the fixtures
  (the reported accuracy_digits, which depends on the program only) and
  the generated profiles (printed with the run's diagnostics: its worst
  number changes with the seed, by two digits on the sampled profile).
"""

from __future__ import annotations

import json
import math

from profiles import FIXTURES
from tracing import expected_ray_cells

#: Relative distance from the reference beyond which an output is wrong.
GROSS_REL = 1e-3
#: Relative slack for inequalities that hold with equality on the round
#: sphere (bounds against lambda_m), well above the quadrature error.
TIGHT_REL = 1e-6
#: Digits credited to a number equal to its reference.
MAX_DIGITS = 16.0
#: Series length of the trace checks inside ``revspec verify``.
VERIFY_TRACE_TERMS = 100


class Judge:
    """Collects failed operations, problems and accuracy for one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []
        self.compared = 0
        # [fewest digits, where] for the fixtures and for the generated profiles
        self.accuracy = {True: [MAX_DIGITS, None], False: [MAX_DIGITS, None]}
        self.on_fixture = True
        # (profile, k) -> (first eigenvalue, its error estimate) from sl slices
        self.firsts = {}

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, where, why, n=1):
        self.failed += n
        self.failures.append(f"{where}: {why}")

    def require(self, ok, where, what):
        if not ok:
            self.problems.append(f"{where}: {what}")
        return ok

    def compare(self, where, value, ref):
        """Count digits of value against ref; a gross miss is a problem."""
        self.compared += 1
        if value is None or not math.isfinite(value):
            self.problems.append(f"{where}: {value!r} where the reference is {ref!r}")
            return False
        rel = abs(value - ref) / max(abs(ref), 1.0)
        digits = MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))
        fewest = self.accuracy[self.on_fixture]
        if digits < fewest[0]:
            fewest[:] = [digits, where]
        return self.require(rel <= GROSS_REL, where, f"{value!r} misses the reference {ref!r} (rel {rel:.2e})")


def _parse(judge, op, output):
    """JSON report of a CLI op, or None after recording a failed op."""
    status, text = output
    if status != 0:
        judge.fail(op.id, f"exit code {status}")
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        judge.require(False, op.id, f"report is not JSON: {exc}")
        return None


def _check_sl(judge, op, data, ref):
    k, count = op.params["k"], op.params["count"]
    values, errors = data["eigenvalues"], data["error_estimates"]
    if not judge.require(data["k"] == k and len(values) == count, op.id, "wrong slice shape"):
        return
    judge.require(all(b > a for a, b in zip(values, values[1:])), op.id, "eigenvalues not increasing")
    truth = ref["modes"][str(k)]
    for j, (value, true) in enumerate(zip(values, truth)):
        judge.compare(f"{op.id} j={j + 1}", value, true)
        if op.profile == "canonical":
            l = k + j
            judge.require(abs(value - l * (l + 1)) <= GROSS_REL * max(l * (l + 1), 1),
                          op.id, f"j={j + 1}: {value!r} is not {l * (l + 1)}")
    judge.firsts[(op.profile, k)] = (values[0], errors[0])
    if not data["converged"]:
        judge.fail(op.id, f"unconverged at grid {data['grid_used']}")
    elif any(abs(v - t) > e for v, t, e in zip(values, truth, errors)):
        judge.fail(op.id, "converged slice outside its error estimates")


def _check_spectrum_values(judge, where, values, mults, modes, tol, ref, m_max, canonical):
    truth = ref["spectrum"]
    if not judge.require(len(values) >= m_max + 1, where, f"only {len(values)} entries"):
        return False
    outside = False
    for m in range(m_max + 1):
        value, mult = values[m], mults[m]
        judge.compare(f"{where} m={m}", value, truth["values"][m])
        judge.require(mult == truth["multiplicities"][m], where,
                      f"m={m}: multiplicity {mult}, reference {truth['multiplicities'][m]}")
        if modes is not None:
            judge.require(sorted(modes[m]) == truth["modes"][m], where,
                          f"m={m}: modes {sorted(modes[m])}, reference {truth['modes'][m]}")
        judge.require(mult <= 2 * m + 1, where, f"m={m}: multiplicity {mult} > 2m+1")
        if canonical:
            judge.require(mult == 2 * m + 1 and abs(value - m * (m + 1)) <= GROSS_REL * max(m * m + m, 1),
                          where, f"m={m}: ({value!r}, {mult}) is not ({m * (m + 1)}, {2 * m + 1})")
        if tol is not None and abs(value - truth["values"][m]) > tol:
            outside = True
    if tol is not None:
        # Hersch: lambda_1 * area <= 8 pi, i.e. lambda_1 <= 2, equality on the round sphere.
        judge.require(values[1] <= 2.0 + tol, where, f"lambda_1 = {values[1]!r} exceeds Hersch's 2")
    return outside


def _check_spectrum(judge, op, data, ref):
    entries = data["entries"]
    values = [e["value"] for e in entries]
    mults = [e["multiplicity"] for e in entries]
    modes = [e["modes"] for e in entries]
    tol = data["merge_tolerance"]
    canonical = op.profile == "canonical"
    if _check_spectrum_values(judge, op.id, values, mults, modes, tol, ref, op.params["m_max"], canonical):
        judge.fail(op.id, "an entry lies outside its reported merge tolerance")


def _check_verify(judge, op, data, ref):
    m_max = op.params["m_max"]
    _check_spectrum_values(judge, op.id, data["values"], data["multiplicities"], None, None, ref, m_max,
                           op.profile == "canonical")
    modes, truth = ref["modes"], ref["spectrum"]["values"]
    for check in data["checks"]:
        name, loc, lhs, rhs = check["name"], check["location"], check["lhs"], check["rhs"]
        where = f"{op.id} {name} {loc}"
        judge.require(check["passed"], where, "check failed")
        if name == "first_eigenvalue_monotonicity":
            a, b = (int(s) for s in loc[2:].split("->"))
            judge.compare(where, lhs, modes[str(a)][0])
            judge.compare(where, rhs, modes[str(b)][0])
            judge.require(rhs > lhs, where, "first eigenvalue does not increase with k")
        elif name == "interlacing":
            k, j = (int(part.split("=")[1]) for part in loc.split(","))
            judge.compare(where, lhs, truth[k + j])
            judge.compare(where, rhs, modes[str(k)][j])
            judge.require(lhs <= rhs + GROSS_REL * max(abs(rhs), 1.0), where, "interlacing violated")
        elif name in ("sharp_bound", "rough_bound"):
            m = int(loc.split("=")[1])
            l = m if name == "sharp_bound" else 1
            bound = ref_ray_bound(ref, m, l)
            judge.compare(where, lhs, truth[m])
            judge.compare(where, rhs, bound)
            judge.require(rhs >= truth[m] - TIGHT_REL * max(truth[m], 1.0), where, "bound below lambda_m")
        elif name == "trace_identity":
            judge.require(abs(lhs - rhs) <= 2.0 / VERIFY_TRACE_TERMS, where, "trace deviation above 2/terms")
        elif name == "multiplicity_bound":
            judge.require(lhs <= rhs, where, "multiplicity above 2m+1")


def _check_trace(judge, op, data, ref):
    k, terms = op.params["k"], op.params["terms"]
    judge.require(data["k"] == k and data["terms_used"] == terms, op.id, "wrong trace shape")
    judge.require(data["target"] == 1.0 / k, op.id, f"target {data['target']!r} is not 1/{k}")
    judge.compare(op.id + " partial_sum", data["partial_sum"], ref["trace_partial"][str(k)])
    judge.require(data["deviation"] <= 2.0 / terms, op.id,
                  f"deviation {data['deviation']:.3e} above 2/terms")


def _check_curvature(judge, op, data, ref):
    samples, truth = data["samples"], ref["samples"]
    judge.require(len(samples) == len(truth["x"]), op.id, "wrong sample count")
    for s, x, f, K in zip(samples, truth["x"], truth["f"], truth["K"]):
        judge.require(s["x"] == x, op.id, f"sample at {s['x']!r}, expected {x!r}")
        judge.compare(f"{op.id} f({x:.3f})", s["f"], f)
        judge.compare(f"{op.id} K({x:.3f})", s["K"], K)
    ind = data["sign_indicator"]
    judge.compare(op.id + " f_integral", ind["f_integral"], ref["I"][1])
    judge.compare(op.id + " x2K_integral", ind["x2K_integral"], ref["x2K"])
    judge.require(ind["implies_negative_curvature"] == (ref["I"][1] >= 2.0), op.id,
                  "negative-curvature flag disagrees with int f >= 2")


def _check_validate(judge, op, data, ref):
    judge.require(data["passed"], op.id, f"admissible profile rejected: {data['messages']}")
    judge.compare(op.id + " curvature_integral", data["curvature_integral"], ref["C"][0])
    for value, true in zip(data["endpoint_values"] + data["endpoint_derivatives"], (0.0, 0.0, 2.0, -2.0)):
        judge.compare(op.id + " endpoint", value, true)


def ref_ray_bound(ref, m, l):
    I, C = ref["I"], ref["C"]
    return m * m * I[l - 1] / I[l] + l * C[l] / (2.0 * I[l])


def _check_bound_value(judge, where, value, ref, m):
    lam = ref["spectrum"]["values"][m]
    judge.require(value >= lam - TIGHT_REL * max(lam, 1.0), where, f"bound {value!r} below lambda_m = {lam!r}")


def _check_bounds_table(judge, op, rows, ref):
    depth, l_set = op.params["depth"], op.params["l_set"]
    judge.require([r.m for r in rows] == list(range(1, depth + 1)), op.id, "wrong rows")
    applicable = ref["I"][1] >= 2.0
    for row in rows:
        m = row.m
        expected = expected_ray_cells(m, l_set)
        judge.attempt(len(expected))
        blank = expected - set(row.ray)
        if blank:
            judge.fail(f"{op.id} m={m}", f"blank cells l={sorted(blank)}", n=len(blank))
        judge.require(set(row.ray) <= expected, op.id, f"m={m}: unexpected exponents")
        judge.require(row.sharp == row.ray.get(m) and row.rough == row.ray.get(1), op.id,
                      f"m={m}: sharp/rough columns disagree with ray")
        judge.require(row.canonical == float(m * m + m) and row.computed_lambda is None, op.id,
                      f"m={m}: wrong canonical or computed column")
        for l, value in row.ray.items():
            where = f"{op.id} m={m} l={l}"
            judge.compare(where, value, ref_ray_bound(ref, m, l))
            _check_bound_value(judge, where, value, ref, m)
            if op.profile == "canonical":
                exact = m * m + m if l == m else (1.5 * m * m + 0.5 if l == 1 else None)
                if exact is not None:
                    judge.require(abs(value - exact) <= TIGHT_REL * exact, where,
                                  f"{value!r} is not the round-sphere value {exact}")
        if judge.require((row.neg_curv is not None) == applicable, op.id,
                         f"m={m}: negative-curvature cell present={row.neg_curv is not None}, "
                         f"int f >= 2 is {applicable}") and applicable:
            judge.compare(f"{op.id} m={m} neg_curv", row.neg_curv, m * m + ref["C"][1] / (2.0 * ref["I"][1]))
            _check_bound_value(judge, f"{op.id} m={m} neg_curv", row.neg_curv, ref, m)


def _check_negative_curvature(judge, op, value, ref):
    m = op.params["m"]
    if ref["I"][1] >= 2.0:
        if judge.require(value != "inapplicable", op.id, "reported inapplicable although int f >= 2"):
            judge.compare(op.id, value, m * m + ref["C"][1] / (2.0 * ref["I"][1]))
            _check_bound_value(judge, op.id, value, ref, m)
    else:
        judge.require(value == "inapplicable", op.id, "returned a bound although int f < 2")


_CLI_CHECKS = {
    "sl": _check_sl,
    "spectrum": _check_spectrum,
    "verify": _check_verify,
    "trace": _check_trace,
    "curvature": _check_curvature,
    "validate": _check_validate,
}


def judge_round(ops, outputs, refs):
    """Check one round's outputs; returns the Judge."""
    judge = Judge()
    for op in ops:
        ref = refs[op.profile]
        out = outputs[op.id]
        judge.on_fixture = op.profile in FIXTURES
        if op.kind == "bounds_table":
            _check_bounds_table(judge, op, out, ref)
            continue
        judge.attempt()
        if op.kind == "negative_curvature_bound":
            _check_negative_curvature(judge, op, out, ref)
            continue
        data = _parse(judge, op, out)
        if data is not None:
            _CLI_CHECKS[op.kind](judge, op, data, ref)
    # First-eigenvalue monotonicity in k across the sl slices of each profile,
    # with each side's stated error as slack.
    for (name, k), (value, err) in judge.firsts.items():
        if k >= 1 and (name, k + 1) in judge.firsts:
            nxt, nerr = judge.firsts[(name, k + 1)]
            judge.require(nxt > value - err - nerr, f"sl[{name}]",
                          f"first eigenvalue falls from k={k} to k={k + 1}")
    return judge
