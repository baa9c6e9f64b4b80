"""The benchmark's workloads: which operations one round runs, on which profiles.

Every workload runs over the two fixtures and the three generated profiles
(see profiles.py); a round is the same list of operations whatever the seed.

spectrum-verify
    CLI ``sl`` (k = 0..3, 8 eigenvalues), ``spectrum --m-max 6`` and
    ``verify --m-max 4``: many small mode solves, repeated solves of the same
    mode and the odd-mode grid ladder. The k = 1 slices run on the fixtures
    only, where they fail every time (the uniform grid converges at order
    ~1 on odd modes and the ladder reaches n_max unconverged). ``sl`` skips
    the sampled profile: its k = 0 error estimates miss the true error on
    some seeds only, so its count of failed operations would depend on the
    seed.
bounds-deep
    library ``bounds_table`` with extra exponents (2, 3, 5) to depth 50 on
    the fixtures, 25 on the smooth generated profiles and 15 on the spline,
    plus ``negative_curvature_bound`` at that depth, CLI ``curvature`` and CLI
    ``validate``. No mode solve runs. On paper-example every cell with
    l >= 20 comes back blank: integrate_moment's absolute tolerance cannot
    be met when (max f)^l is large, and bounds_table swallows the error.
trace-series
    CLI ``trace --terms 200`` at k = 1..3 on the fixtures and at one k each
    (1, 2, 3) on the generated profiles: few solves, each returning many
    eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from profiles import FIXTURES, GENERATED

PROFILES = FIXTURES + GENERATED
WORKLOADS = ("spectrum-verify", "bounds-deep", "trace-series")

SL_COUNT = 8
SPECTRUM_M_MAX = 6
VERIFY_M_MAX = 4
TRACE_TERMS = 200
#: The one mode traced on each generated profile (the fixtures trace k = 1..3).
TRACE_K = {"bump": 1, "rational": 2, "sampled": 3}
L_SET = (2, 3, 5)
BOUNDS_DEPTH = {"canonical": 50, "paper-example": 50, "bump": 25, "rational": 25, "sampled": 15}
CURVATURE_COUNT = 201

#: Per-command time buckets reported from the untraced rounds of a traced run.
COMMAND_METRICS = ("sl_s", "spectrum_s", "verify_s", "bounds_s", "trace_s")


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``kind`` is a CLI subcommand or a library call (``bounds_table``,
    ``negative_curvature_bound``); ``argv`` is the CLI argument list without
    ``--profile`` and ``--out``; ``params`` carries what the checks need.
    """

    kind: str
    profile: str
    argv: tuple = ()
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def id(self):
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}[{self.profile}{',' if extra else ''}{extra}]"

    @property
    def is_cli(self):
        return self.kind not in ("bounds_table", "negative_curvature_bound")

    @property
    def bucket(self):
        """The per-command time this op adds to, or None."""
        return {
            "sl": "sl_s",
            "spectrum": "spectrum_s",
            "verify": "verify_s",
            "trace": "trace_s",
            "bounds_table": "bounds_s",
            "negative_curvature_bound": "bounds_s",
        }.get(self.kind)


def operations(workload):
    """The ordered op list of one round of ``workload``."""
    ops = []
    if workload == "spectrum-verify":
        for name in PROFILES:
            if name == "sampled":
                continue
            ks = (0, 1, 2, 3) if name in FIXTURES else (0, 2, 3)
            for k in ks:
                ops.append(Op("sl", name, ("--k", str(k), "--count", str(SL_COUNT)),
                              {"k": k, "count": SL_COUNT}))
        for name in PROFILES:
            ops.append(Op("spectrum", name, ("--m-max", str(SPECTRUM_M_MAX)), {"m_max": SPECTRUM_M_MAX}))
        for name in PROFILES:
            ops.append(Op("verify", name, ("--m-max", str(VERIFY_M_MAX)), {"m_max": VERIFY_M_MAX}))
    elif workload == "bounds-deep":
        for name in PROFILES:
            ops.append(Op("bounds_table", name, (), {"depth": BOUNDS_DEPTH[name], "l_set": L_SET}))
        for name in PROFILES:
            ops.append(Op("negative_curvature_bound", name, (), {"m": BOUNDS_DEPTH[name]}))
        for name in PROFILES:
            ops.append(Op("curvature", name, ("--count", str(CURVATURE_COUNT)), {"count": CURVATURE_COUNT}))
        for name in PROFILES:
            ops.append(Op("validate", name))
    elif workload == "trace-series":
        for name in PROFILES:
            ks = (1, 2, 3) if name in FIXTURES else (TRACE_K[name],)
            for k in ks:
                ops.append(Op("trace", name, ("--k", str(k), "--terms", str(TRACE_TERMS)),
                              {"k": k, "terms": TRACE_TERMS}))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops


def reference_needs(workload, name):
    """What the reference must supply for profile ``name`` under ``workload``."""
    if workload == "spectrum-verify":
        # verify checks first eigenvalues up to k = 5 and bounds up to m_max
        return {"modes": {k: SL_COUNT for k in range(6)}, "m_target": SPECTRUM_M_MAX,
                "l_max": VERIFY_M_MAX}
    if workload == "bounds-deep":
        depth = BOUNDS_DEPTH[name]
        return {"m_target": depth, "l_max": max(depth, *L_SET), "x2K": True,
                "samples": CURVATURE_COUNT}
    if workload == "trace-series":
        ks = [1, 2, 3] if name in FIXTURES else [TRACE_K[name]]
        return {"trace_terms": TRACE_TERMS, "trace_k": ks}
    raise ValueError(f"unknown workload {workload!r}")
