"""rough-nls benchmark: fixed CLI workloads, checked outputs, optional tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs `python -m roughnls.cli <kind> --config ... --workers 1`
as fresh processes, one after another, each writing into a fresh, empty
output directory that is checked (bench/checks.py) and removed afterwards.
A run starts invocations until the next one would end after --seconds, but
always makes at least the workload's minimum, and reports the median over its
invocations (seeds per second: all its seeds over the sum of their times).
--seed fixes the inputs: invocation i passes the program
`--seed seed*1000 + i*n_samples`, and the program derives every draw from it.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and one
traced invocation (bench/tracing.py) on the same seed and prints the
per-layer metrics; their wall-time difference is the tracing overhead.
--workload all runs every workload in turn. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import EVOLVE_CHECKS, LINEAR_STATS_CHECKS, MORAWETZ_CHECKS, read_records, run_checks
from tracing import LAYER_METRICS, MB, inside, layer_metrics, ratio, span_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PI = math.pi
PARTITION_3D = {"a": 1, "n_max": 4, "s": -0.1}  # 29,129 cubes


@dataclass(frozen=True)
class Workload:
    kind: str
    config: dict  # everything but out_dir, seed and workers
    flags: tuple[str, ...]
    checks: tuple
    min_invocations: int

    @property
    def n_samples(self) -> int:
        return self.config["n_samples"]


# Why each workload: linear-stats-3d spends its set-up in the partition build and
# each seed in the per-cube draw, with no solver or audit work; evolve-3d is the
# quintic Strang loop on 4 MB fields that do not fit L2, plus ~90 MB of
# snapshots; morawetz-audit-4d is the only one dominated by the audit, the
# space-time norms and the grid transforms, with a cubic step loop in cache.
WORKLOADS = {
    "linear-stats-3d": Workload(
        kind="linear-stats",
        config={
            "kind": "linear-stats",
            "n_samples": 4,
            "grid": {"dim": 3, "points": 32, "half_width": PI},
            "partition": PARTITION_3D,
            "forcing": {"field_seed": 11, "decay": 2.0, "n0": 4.0, "amplitude": 0.3},
            "times": {"t_final": 0.3, "n_times": 4},
        },
        flags=(),
        checks=LINEAR_STATS_CHECKS,
        min_invocations=3,
    ),
    "evolve-3d": Workload(
        kind="evolve",
        config={
            "kind": "evolve",
            "n_samples": 1,
            "grid": {"dim": 3, "points": 64, "half_width": PI},
            "partition": PARTITION_3D,
            "forcing": {"field_seed": 11, "decay": 2.0, "n0": 4.0, "amplitude": 0.3},
            "solver": {"dt": 1e-3, "t_final": 0.1, "snapshot_stride": 10, "series_stride": 5},
            "initial": {"kind": "bump", "amplitude": 0.3, "width": 1.5},
        },
        flags=("--grid", "64", "--N0", "4"),
        checks=EVOLVE_CHECKS,
        min_invocations=2,
    ),
    "morawetz-audit-4d": Workload(
        kind="morawetz-audit",
        config={
            "kind": "morawetz-audit",
            "n_samples": 3,
            "grid": {"dim": 4, "points": 16, "half_width": PI},
            "partition": {"a": 1, "n_max": 2, "s": -0.1},  # 3,857 cubes
            "forcing": {"field_seed": 41, "decay": 1.2, "n0": 4.0, "amplitude": 0.3},
            "solver": {"dt": 2e-3, "t_final": 0.2, "snapshot_stride": 5, "series_stride": 10},
            "initial": {"kind": "bump", "amplitude": 0.25, "width": 1.5},
        },
        flags=(),
        checks=MORAWETZ_CHECKS,
        min_invocations=3,
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("seeds_per_s", "1/s"), ("peak_rss_mb", "MB"), ("output_mb", "MB"))
# reported as the median over a run's invocations of the Invocation attribute
MEDIAN_OF_INVOCATIONS = ("wall_s", "setup_s", "peak_rss_mb", "output_mb")


@dataclass
class Invocation:
    """One CLI process: its timings, its checked outputs and its spans if traced."""

    wall_s: float
    seed_s: float
    n_records: int
    peak_rss_mb: float
    output_mb: float
    attempted: int
    failed: int
    correct: bool
    spans: dict | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.seed_s


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def wait_child(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to its end; returns (exit code, wall seconds, peak RSS MiB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB


def invoke(wl: Workload, prog_seed: int, work: Path, traced: bool) -> Invocation:
    """One CLI process in the fresh directory `work`, checked, then removed."""
    work.mkdir(parents=True)
    try:
        return _invoke_in(wl, prog_seed, work, traced)
    finally:
        shutil.rmtree(work)


def _invoke_in(wl: Workload, prog_seed: int, work: Path, traced: bool) -> Invocation:
    out = work / "out"
    cfg = dict(wl.config, out_dir=str(out))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [wl.kind, "--config", str(cfg_path), "--workers", "1", "--seed", str(prog_seed), "--out", str(out), *wl.flags]
    spans_path = work / "spans.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans_path), *args]
    else:
        cmd = [sys.executable, "-m", "roughnls.cli", *args]
    code, wall, rss = wait_child(cmd, work / "cli.log")

    seeds = [prog_seed + i for i in range(wl.n_samples)]
    attempted = len(seeds) + len(wl.checks)
    inv = Invocation(wall, 0.0, 0, rss, 0.0, attempted, attempted, False)
    if code != 0:
        tail = (work / "cli.log").read_text(errors="replace").splitlines()[-5:]
        inv.notes.append(f"exit code {code}: " + " | ".join(tail))
        return inv
    try:
        records = read_records(out)
    except (OSError, ValueError):
        records = []  # counted below as failed seeds; the records check fails too
    done = {r["seed"] for r in records} & set(seeds)
    inv.n_records = len(done)
    inv.seed_s = math.fsum(r["wall_clock"] for r in records if r["seed"] in done)
    inv.output_mb = tree_bytes(out) / MB
    results = run_checks(wl.checks, out, cfg, seeds)
    inv.notes.extend(f"check {name} failed: {why}" for name, why in results.items() if why is not None)
    inv.failed = (len(seeds) - len(done)) + sum(why is not None for why in results.values())
    inv.correct = inv.failed == 0
    if traced:
        inv.spans = json.loads(spans_path.read_text())
    return inv


def warm_up() -> None:
    """Compile the package's bytecode and fill the page cache before timing."""
    subprocess.run([sys.executable, "-c", "import roughnls.cli"], cwd=ROOT, env=child_env(), check=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    base = (seed % 2**32) * 1000
    run_dir = RUNS / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    invs: list[Invocation] = []
    try:
        warm_up()
        if trace:
            # an untraced and a traced invocation on the same program seed,
            # so their difference is the tracing alone
            invs = [invoke(wl, base, run_dir / "untraced", False), invoke(wl, base, run_dir / "traced", True)]
        else:
            t0 = time.perf_counter()
            while len(invs) < wl.min_invocations or (
                time.perf_counter() - t0 + statistics.median(v.wall_s for v in invs) <= seconds
            ):
                i = len(invs)
                invs.append(invoke(wl, base + i * wl.n_samples, run_dir / f"inv{i}", False))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()

    for i, inv in enumerate(invs):
        print(
            f"{name} inv{i}: wall {inv.wall_s:.3f} s, setup {inv.setup_s:.3f} s, "
            f"{inv.n_records} seeds in {inv.seed_s:.3f} s, rss {inv.peak_rss_mb:.1f} MB, "
            f"out {inv.output_mb:.2f} MB, {inv.failed}/{inv.attempted} failed"
        )
        for note in inv.notes:
            print(f"  {note}", file=sys.stderr)
    result = {
        "correct": all(inv.correct for inv in invs),
        "attempted": sum(inv.attempted for inv in invs),
        "failed": sum(inv.failed for inv in invs),
    }
    if trace:
        untraced, traced = invs
        if traced.spans is None:
            raise SystemExit(f"{name}: the traced invocation failed, no spans to report")
        print_span_table(name, traced)
        values = layer_metrics(traced.spans, traced.wall_s - untraced.wall_s)
        result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS}
    else:
        values = {k: statistics.median(getattr(inv, k) for inv in invs) for k in MEDIAN_OF_INVOCATIONS}
        # pooled over the run: every seed's time counts, not the middle invocation's
        values["seeds_per_s"] = ratio(sum(v.n_records for v in invs), math.fsum(v.seed_s for v in invs))
        result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return result


def print_span_table(name: str, inv: Invocation) -> None:
    """Calls, total and self time per span name; shares of the wall time and of the seed phase."""
    spans = inv.spans["spans"]
    table = span_table(spans)
    in_seeds: dict[str, float] = {}
    for (span, start, end, _, _), in_task in zip(spans, inside(spans, "harness.task")):
        if in_task or span == "harness.task":
            in_seeds[span] = in_seeds.get(span, 0.0) + end - start
    seed_s = table["harness.task"]["total_s"] if "harness.task" in table else 0.0
    print(f"{name} traced: wall {inv.wall_s:.3f} s, seed phase {seed_s:.3f} s")
    if inv.spans["missing"]:
        print(f"  not traced, binding not found: {', '.join(inv.spans['missing'])}")
    print(f"  {'span':<28}{'calls':>8}{'total s':>10}{'self s':>10}{'% wall':>8}{'% seeds':>9}")
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
        print(
            f"  {span:<28}{int(row['calls']):>8}{row['total_s']:>10.3f}{row['self_s']:>10.3f}"
            f"{100 * row['total_s'] / inv.wall_s:>8.1f}{100 * ratio(in_seeds.get(span, 0.0), seed_s):>9.1f}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "roughnls" / "cli.py").is_file():
        print(f"bench: no rough-nls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} operations: {res['attempted']} attempted, {res['failed']} failed")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
