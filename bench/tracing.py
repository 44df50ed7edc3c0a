"""Spans around the calls into each rough-nls layer, and the per-layer metrics.

Run as a script, this is the traced launcher:

    PYTHONPATH=src python bench/tracing.py SPANS.json <rough-nls arguments>

It imports the package, replaces each traced function where it is bound (the
harness and solver import by name, so `roughnls.harness.build_partition` is
wrapped, not `roughnls.partition.build_partition`), calls
`roughnls.cli.main` with the remaining arguments and writes the spans to
SPANS.json when the run ends. Nothing under src/ is changed.

A span is (name, start, end, parent index, counts). Counts (cubes, steps,
snapshots, RSS before and after) are taken at the same boundary as the span.
The launcher cannot see inside a traced function: the inline FFTs of
`solve_w` and its per-substep split stay invisible from here.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 2.0**20


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _cutoffs(args, kwargs, result):
    return {"cubes": result.n_cutoffs}


def _drawn(args, kwargs, result):
    return {"cubes": result.n_cubes}


def _steps(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"steps": cfg.n_steps}


def _snapshots(args, kwargs, result):
    return {"snapshots": args[0].n_snapshots}


# (span name, module, attribute, counts at the boundary, record RSS growth)
TRACED = (
    ("harness.run", "roughnls.cli", "run", None, False),
    ("partition.build", "roughnls.harness", "build_partition", _cutoffs, True),
    ("randomize.draw", "roughnls.harness", "draw", _drawn, False),
    ("linear_flow.trajectory", "roughnls.harness", "linear_trajectory", None, False),
    ("linear_flow.composite_norm", "roughnls.harness", "composite_norm", None, False),
    ("solver.solve_w", "roughnls.harness", "solve_w", _steps, True),
    ("solver.residuals", "roughnls.harness", "increment_residuals", None, False),
    ("morawetz.audit", "roughnls.harness", "morawetz_audit", _snapshots, False),
    ("morawetz.gn_ratios", "roughnls.harness", "gn_ratios", None, False),
    ("morawetz.interaction", "roughnls.morawetz", "interaction_functional", None, False),
    ("norms.spacetime_norm", "roughnls.linear_flow", "spacetime_norm", None, False),
    ("norms.spacetime_norm", "roughnls.morawetz", "spacetime_norm", None, False),
    ("trajectory.save", "roughnls.harness", "save_trajectory", None, False),
    ("grids.transform", "roughnls.grids", "to_physical", None, False),
    ("grids.transform", "roughnls.grids", "to_frequency", None, False),
    ("grids.transform", "roughnls.solver", "to_physical", None, False),
    ("grids.transform", "roughnls.randomize", "to_physical", None, False),
    ("grids.transform", "roughnls.linear_flow", "to_physical", None, False),
    ("grids.transform", "roughnls.partition", "to_physical", None, False),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None, rss=False):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            attrs = {"rss_before": rss_bytes()} if rss else {}
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, attrs])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if rss:
                attrs["rss_after"] = rss_bytes()
            if counts is not None:
                attrs.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every binding in TRACED; returns the bindings that do not exist."""
        missing = []
        for name, module, attr, counts, rss in TRACED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(name, fn, counts, rss))
        # the harness looks each task up in its _TASKS table at run time
        harness = importlib.import_module("roughnls.harness")
        for kind, fn in list(harness._TASKS.items()):
            harness._TASKS[kind] = self.wrap("harness.task", fn)
        return missing


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

# (name, unit) in the order they are printed; BENCHMARK.json lists the same set.
LAYER_METRICS = (
    ("harness.import_s", "s"),
    ("harness.run_s", "s"),
    ("harness.records_ms", "ms"),
    ("harness.seed_self_ms", "ms"),
    ("partition.build_s", "s"),
    ("partition.us_per_cube", "us"),
    ("partition.rss_mb", "MB"),
    ("randomize.draw_ms", "ms"),
    ("randomize.us_per_cube", "us"),
    ("linear_flow.trajectory_ms", "ms"),
    ("linear_flow.composite_norm_ms", "ms"),
    ("solver.step_ms", "ms"),
    ("solver.transforms_per_step", "count"),
    ("solver.residuals_ms", "ms"),
    ("solver.rss_mb", "MB"),
    ("morawetz.audit_ms_per_snapshot", "ms"),
    ("morawetz.interaction_ms", "ms"),
    ("morawetz.gn_ratios_ms", "ms"),
    ("norms.spacetime_norm_ms", "ms"),
    ("grids.transforms_per_seed", "count"),
    ("grids.transform_us", "us"),
    ("trajectory.save_s", "s"),
    ("tracing.overhead_s", "s"),
)


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when b is 0 (a layer with no calls)."""
    return a / b if b else 0.0


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, val in attrs.items():
            row[key] += val
    return table


def inside(spans: list[list], ancestor: str) -> list[bool]:
    """Whether each span has a span named `ancestor` above it."""
    out = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            out[i] = out[parent] or spans[parent][0] == ancestor
    return out


def layer_metrics(doc: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; a layer with no calls reads 0."""
    spans = doc["spans"]
    t = span_table(spans)
    row = lambda name: t.get(name, defaultdict(float))
    seeds = row("harness.task")["calls"]
    per_call_ms = lambda name: 1e3 * ratio(row(name)["total_s"], row(name)["calls"])
    run = [s for s in spans if s[0] == "harness.run"]
    tasks_end = max((s[2] for s in spans if s[0] == "harness.task"), default=None)
    records_ms = 1e3 * (run[-1][2] - tasks_end) if run and tasks_end is not None else 0.0
    in_solver = inside(spans, "solver.solve_w")
    solver_transforms = sum(1 for s, flag in zip(spans, in_solver) if flag and s[0] == "grids.transform")
    part, drw, solve = row("partition.build"), row("randomize.draw"), row("solver.solve_w")
    audit, xform = row("morawetz.audit"), row("grids.transform")
    values = {
        "harness.import_s": doc["import_s"],
        "harness.run_s": row("harness.run")["total_s"],
        "harness.records_ms": records_ms,
        "harness.seed_self_ms": 1e3 * ratio(row("harness.task")["self_s"], seeds),
        "partition.build_s": part["total_s"],
        "partition.us_per_cube": 1e6 * ratio(part["total_s"], part["cubes"]),
        "partition.rss_mb": (part["rss_after"] - part["rss_before"]) / MB,
        "randomize.draw_ms": per_call_ms("randomize.draw"),
        "randomize.us_per_cube": 1e6 * ratio(drw["total_s"], drw["cubes"]),
        "linear_flow.trajectory_ms": per_call_ms("linear_flow.trajectory"),
        "linear_flow.composite_norm_ms": per_call_ms("linear_flow.composite_norm"),
        "solver.step_ms": 1e3 * ratio(solve["total_s"], solve["steps"]),
        "solver.transforms_per_step": ratio(solver_transforms, solve["steps"]),
        "solver.residuals_ms": per_call_ms("solver.residuals"),
        "solver.rss_mb": ratio(solve["rss_after"] - solve["rss_before"], solve["calls"]) / MB,
        "morawetz.audit_ms_per_snapshot": 1e3 * ratio(audit["total_s"], audit["snapshots"]),
        "morawetz.interaction_ms": per_call_ms("morawetz.interaction"),
        "morawetz.gn_ratios_ms": per_call_ms("morawetz.gn_ratios"),
        "norms.spacetime_norm_ms": per_call_ms("norms.spacetime_norm"),
        "grids.transforms_per_seed": ratio(xform["calls"], seeds),
        "grids.transform_us": 1e6 * ratio(xform["total_s"], xform["calls"]),
        "trajectory.save_s": row("trajectory.save")["total_s"],
        "tracing.overhead_s": overhead_s,
    }
    return {name: float(values[name]) for name, _ in LAYER_METRICS}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import roughnls.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = tracer.install()
    try:
        return roughnls.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
