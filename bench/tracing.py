"""Span tracing of revspec's layers from outside the package.

A traced round rebinds public names of the revspec modules, each where it
is looked up, to wrappers that record one span per call: name, start, end
and the index of the enclosing span. Profile evaluators are wrapped through
``dataclasses.replace`` on the frozen MetricProfile. Spans stay in memory,
are reduced to per-layer metrics when the round ends and written out when
the run ends; ``uninstall`` puts every original name back, so untraced
rounds run the package as is.

The layer of a span is the part of its name before the first dot; a
layer's self time is the summed duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). Each entry is a place where revspec looks
# a name up at call time, so rebinding it there routes every call through
# the wrapper; the same function imported into two modules needs two rows.
_WRAPPED = (
    ("slsolver", "eigenvalues", "slsolver.solve"),
    ("spectrum", "eigenvalues", "slsolver.solve"),
    ("slsolver", "trace_check", "slsolver.trace"),
    ("spectrum", "first_eigenvalue", "slsolver.first_eigenvalue"),
    ("spectrum", "assemble_spectrum", "spectrum.assemble"),
    ("spectrum", "verify_multiplicity_bound", "spectrum.verify"),
    ("spectrum", "verify_interlacing", "spectrum.verify"),
    ("spectrum", "verify_monotonicity", "spectrum.verify"),
    ("spectrum", "canonical_comparison", "spectrum.verify"),
    ("bounds", "integrate_moment", "profile.moment"),
    ("bounds", "integrate_curvature_moment", "profile.moment"),
    ("profile", "integrate_moment", "profile.moment"),
    ("profile", "integrate_curvature_moment", "profile.moment"),
    ("bounds", "curvature_sign_indicator", "profile.sign_indicator"),
    ("cli", "curvature_sign_indicator", "profile.sign_indicator"),
    ("cli", "validate_profile", "profile.validate"),
    ("cli", "curvature_at", "profile.curvature_at"),
    ("cli", "resolve_profile", "profile.resolve"),
    ("spectrum", "liouville_length", "profile.liouville_length"),
    ("slsolver", "liouville_length", "profile.liouville_length"),
    ("profile", "adaptive_gauss", "quadrature.adaptive"),
    ("profile", "gauss_jacobi_sqrt_weight", "quadrature.jacobi"),
    ("bounds", "bounds_table", "bounds.table"),
    ("bounds", "ray_bound", "bounds.ray_bound"),
    ("bounds", "negative_curvature_bound", "bounds.negative_curvature"),
    ("bounds", "sharp_bound", "bounds.sharp_bound"),
    ("bounds", "rough_bound", "bounds.rough_bound"),
    ("spectrum", "rough_bound", "bounds.rough_bound"),
)

#: Per-layer metrics, name -> unit, in report order.
METRICS = {
    "slsolver.solves": "count",
    "slsolver.solves_distinct": "count",
    "slsolver.solve_s": "s",
    "slsolver.grid_cells": "count",
    "slsolver.unconverged": "count",
    "slsolver.trace_s": "s",
    "slsolver.self_s": "s",
    "spectrum.assemble_calls": "count",
    "spectrum.assemble_s": "s",
    "spectrum.assemble_self_s": "s",
    "spectrum.verify_s": "s",
    "spectrum.merge_tol_max": "1",
    "spectrum.self_s": "s",
    "profile.moment_calls": "count",
    "profile.moment_distinct": "count",
    "profile.moment_s": "s",
    "profile.eval_calls": "count",
    "profile.eval_points": "count",
    "profile.eval_s": "s",
    "profile.self_s": "s",
    "quadrature.adaptive_calls": "count",
    "quadrature.adaptive_s": "s",
    "quadrature.jacobi_calls": "count",
    "quadrature.jacobi_s": "s",
    "quadrature.failed": "count",
    "quadrature.self_s": "s",
    "bounds.table_s": "s",
    "bounds.cells": "count",
    "bounds.cells_blank": "count",
    "bounds.ray_bound_calls": "count",
    "bounds.self_s": "s",
    "cli.self_s": "s",
}


def expected_ray_cells(m, l_set):
    """The trial exponents bounds_table promises for row m."""
    return {1, m, *l_set}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self, revspec_modules):
        self._modules = revspec_modules
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self.counts = Counter()
        self.distinct = {"solve": set(), "moment": set()}
        self.merge_tol_max = 0.0
        self._profile_keys = {}
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; ``after`` sees (arguments, result)."""
        signature = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self._close(idx)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def run_span(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _evaluator(self, fn):
        def evaluate(x):
            idx = self._open("profile.eval")
            try:
                return fn(x)
            finally:
                self._close(idx)
                self.counts["eval_points"] += np.size(x)

        return evaluate

    def wrap_profile(self, p, key):
        """A copy of MetricProfile p whose evaluators record spans."""
        wrapped = dataclasses.replace(
            p,
            f=self._evaluator(p.f),
            df=self._evaluator(p.df),
            d2f=None if p.d2f is None else self._evaluator(p.d2f),
        )
        # The entry keeps the copy alive, so its id cannot be reused this round.
        self._profile_keys[id(wrapped)] = (key, wrapped)
        return wrapped

    def _key(self, p):
        entry = self._profile_keys.get(id(p))
        return entry[0] if entry is not None else id(p)

    # -- what the wrappers note about results -----------------------------

    def _after_solve(self, a, slc):
        self.distinct["solve"].add((self._key(a["p"]), abs(int(a["k"])), int(a["count"]), a["cfg"]))
        self.counts["grid_cells"] += slc.grid_used
        if not slc.converged:
            self.counts["unconverged"] += 1

    def _after_moment(self, fn_name):
        def note(a, _):
            self.distinct["moment"].add((self._key(a["p"]), fn_name, int(a["l"]), a["q"]))

        return note

    def _after_assemble(self, _, spectrum):
        self.merge_tol_max = max(self.merge_tol_max, float(spectrum.merge_tolerance))

    def _after_table(self, a, rows):
        l_set = [int(l) for l in a["l_set"]]
        for row in rows:
            expected = expected_ray_cells(row.m, l_set)
            self.counts["cells"] += len(expected)
            self.counts["cells_blank"] += len(expected - set(row.ray))

    # -- install / uninstall ------------------------------------------------

    def install(self):
        after = {
            "slsolver.solve": self._after_solve,
            "spectrum.assemble": self._after_assemble,
            "bounds.table": self._after_table,
        }
        for module_name, attr, span_name in _WRAPPED:
            module = self._modules[module_name]
            original = getattr(module, attr)
            note = after.get(span_name)
            if span_name == "profile.moment":
                note = self._after_moment(attr)
            if span_name == "profile.resolve":
                wrapper = self._resolve_wrapper(original)
            else:
                wrapper = self.span(span_name, original, note)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def _resolve_wrapper(self, original):
        traced = self.span("profile.resolve", original)

        def resolve(name_or_path):
            return self.wrap_profile(traced(name_or_path), str(name_or_path))

        return resolve

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON, evaluator calls folded into their callers.

        Each row is [name, start, end, parent row or -1, evaluator calls,
        evaluator seconds]; times are perf_counter seconds. Evaluator spans
        are leaves, so dropping them keeps every parent link valid.
        """
        rows, row_of = [], {}
        for i, name in enumerate(self.names):
            if name == "profile.eval":
                row = rows[row_of[self.parents[i]]] if self.parents[i] >= 0 else None
                if row is not None:
                    row[4] += 1
                    row[5] += self.ends[i] - self.starts[i]
                continue
            parent = self.parents[i]
            row_of[i] = len(rows)
            rows.append([name, self.starts[i], self.ends[i], row_of[parent] if parent >= 0 else -1, 0, 0.0])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "evals", "eval_s"],
                                    "spans": rows}), encoding="utf-8")

    # -- reduction ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the recorded round, name -> value."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += duration[i]
        total = Counter()
        calls = Counter()
        self_time = Counter()
        for i in range(n):
            name = self.names[i]
            total[name] += duration[i]
            calls[name] += 1
            own = duration[i] - child[i]
            self_time[name] += own
            self_time[name.split(".", 1)[0]] += own
        raised_quadrature = sum(
            count for key, count in self.counts.items()
            if key.startswith("quadrature.") and ".raised." in key
        )
        return {
            "slsolver.solves": calls["slsolver.solve"],
            "slsolver.solves_distinct": len(self.distinct["solve"]),
            "slsolver.solve_s": total["slsolver.solve"],
            "slsolver.grid_cells": self.counts["grid_cells"],
            "slsolver.unconverged": self.counts["unconverged"],
            "slsolver.trace_s": total["slsolver.trace"],
            "slsolver.self_s": self_time["slsolver"],
            "spectrum.assemble_calls": calls["spectrum.assemble"],
            "spectrum.assemble_s": total["spectrum.assemble"],
            "spectrum.assemble_self_s": self_time["spectrum.assemble"],
            "spectrum.verify_s": total["spectrum.verify"],
            "spectrum.merge_tol_max": self.merge_tol_max,
            "spectrum.self_s": self_time["spectrum"],
            "profile.moment_calls": calls["profile.moment"],
            "profile.moment_distinct": len(self.distinct["moment"]),
            "profile.moment_s": total["profile.moment"],
            "profile.eval_calls": calls["profile.eval"],
            "profile.eval_points": self.counts["eval_points"],
            "profile.eval_s": total["profile.eval"],
            "profile.self_s": self_time["profile"],
            "quadrature.adaptive_calls": calls["quadrature.adaptive"],
            "quadrature.adaptive_s": total["quadrature.adaptive"],
            "quadrature.jacobi_calls": calls["quadrature.jacobi"],
            "quadrature.jacobi_s": total["quadrature.jacobi"],
            "quadrature.failed": raised_quadrature,
            "quadrature.self_s": self_time["quadrature"],
            "bounds.table_s": total["bounds.table"],
            "bounds.cells": self.counts["cells"],
            "bounds.cells_blank": self.counts["cells_blank"],
            "bounds.ray_bound_calls": calls["bounds.ray_bound"],
            "bounds.self_s": self_time["bounds"],
            "cli.self_s": self_time["cli"],
        }
