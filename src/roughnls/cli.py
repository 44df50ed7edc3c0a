"""Command line front end.

Every subcommand except `morawetz` consumes a JSON experiment config and
routes through the batch runner; `morawetz` audits an already-saved
trajectory directory. Common flags: --seed overrides the master seed, --out
the output directory, --workers the thread count. Each flag is written into
the config before it is validated; without --workers, the ROUGH_NLS_WORKERS
environment variable sets the count, and the config's `workers` key applies
when neither is given. A worker count below 1 from the flag or the variable
is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 numeric abort (blowup
guard), 4 resource refusal, 5 internal consistency failure (representation
error).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .errors import BlowupError, ConfigError, FitError, RepresentationError, ResourceLimitError
from .harness import ENV_WORKERS, ExperimentConfig, parse_config, read_config, run
from .morawetz import stored_audit
from .partition import build_partition
from .randomize import tail_fit
from .trajectory import TrajectoryReader, write_atomic


def _add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
    p.add_argument("--config", required=config_required, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--workers", type=int, default=None, help="override the worker count")
    p.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rough-nls",
        description="simulation and verification runs for randomized rough NLS data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="frequency partition report (cube counts, overlap, unity)")
    _add_common(p)

    p = sub.add_parser("linear-stats", help="ensemble norms of the free evolution of rough draws")
    _add_common(p)
    p.add_argument("--samples", type=int, default=None, help="override the number of draws")
    p.add_argument("--norm", choices=("Y", "Z", "L2"), default="Y", help="norm column for the CSV and tail fit")
    p.add_argument("--dim", type=int, choices=(3, 4), default=None, help="require this spatial dimension")

    p = sub.add_parser("evolve", help="nonlinear evolution: snapshots plus conservation series")
    _add_common(p)
    p.add_argument("--dim", type=int, default=None, help="override grid.dim")
    p.add_argument("--grid", type=int, default=None, help="override grid.points")
    p.add_argument("--box", type=float, default=None, help="override grid.half_width")
    p.add_argument("--dt", type=float, default=None, help="override solver.dt")
    p.add_argument("--T", type=float, default=None, help="override solver.t_final")
    p.add_argument("--N0", type=float, default=None, help="override forcing.n0")

    p = sub.add_parser("morawetz", help="interaction functional audit of a saved trajectory")
    p.add_argument("--traj", required=True, help="trajectory directory (manifest.json + snapshots)")
    p.add_argument("--out", default=None, help="output directory (default: the trajectory directory)")
    p.add_argument("--dim", type=int, default=None, help="require this spatial dimension")

    p = sub.add_parser("morawetz-audit", help="forced ensemble with per-run interaction audits")
    _add_common(p)

    p = sub.add_parser("twin-ladder", help="paired runs at scaled forcing amplitudes")
    _add_common(p)

    p = sub.add_parser("sweep", help="repeat a base experiment along one numeric config axis")
    _add_common(p)

    return parser


def _worker_override(flag: int | None) -> int | None:
    """The worker count from --workers, else from ROUGH_NLS_WORKERS; None when neither is set."""
    env = os.environ.get(ENV_WORKERS)
    if flag is not None:
        source, n = "workers", flag
    elif env is not None:
        try:
            source, n = ENV_WORKERS, int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_WORKERS}={env!r} is not an integer") from exc
    else:
        return None
    if n < 1:
        raise ConfigError(f"{source} must be at least 1, got {n}")
    return n


def _load_with_overrides(args) -> ExperimentConfig:
    raw = read_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    workers = _worker_override(args.workers)
    if workers is not None:
        raw["workers"] = workers
    if getattr(args, "samples", None) is not None:
        raw["n_samples"] = args.samples
    if args.command == "evolve":
        # On evolve, --dim/--grid/--box/--dt/--T/--N0 override config fields.
        for flag, section, key in (
            ("dim", "grid", "dim"),
            ("grid", "grid", "points"),
            ("box", "grid", "half_width"),
            ("dt", "solver", "dt"),
            ("T", "solver", "t_final"),
            ("N0", "forcing", "n0"),
        ):
            val = getattr(args, flag, None)
            if val is None:
                continue
            sec = raw.get(section)
            if not isinstance(sec, dict):
                raise ConfigError(f"--{flag} needs a {section} section in the config")
            sec[key] = val
    return parse_config(raw)


def _expect_kind(config, kind: str) -> None:
    if config.kind != kind:
        raise ConfigError(f"this subcommand needs a config of kind {kind!r}, got {config.kind!r}")


def _cmd_partition(args) -> int:
    config = _load_with_overrides(args)
    _expect_kind(config, "partition-report")
    out = Path(config.out_dir)
    if config.n_samples > 0:
        # run() builds the partition and writes its report into summary.json
        run(config)
        report = json.loads((out / "summary.json").read_text())["partition"]
    else:
        report = build_partition(config.partition, config.grid).report()
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "partition.json"
    with write_atomic(report_path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True))
    print(f"partition report: {report_path}")
    return 0


def _cmd_linear_stats(args) -> int:
    config = _load_with_overrides(args)
    _expect_kind(config, "linear-stats")
    if args.dim is not None and config.grid.dim != args.dim:
        raise ConfigError(f"config grid has dim {config.grid.dim}, --dim asked for {args.dim}")
    records = run(config)
    out = Path(config.out_dir)
    values = []
    with write_atomic(out / "norms.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", args.norm])
        for rec in records:
            val = rec.metrics[args.norm]
            values.append(val)
            writer.writerow([rec.seed, val])
    tail_path = out / "tail.json"
    try:
        rep = tail_fit(values)
        tail_doc = {
            "fitted": True,
            "n_samples": rep.n_samples,
            "rate": rep.rate,
            "intercept": rep.intercept,
            "r_squared": rep.r_squared,
            "lam": rep.lam.tolist(),
            "survival": rep.survival.tolist(),
            "wilson_lo": rep.wilson_lo.tolist(),
            "wilson_hi": rep.wilson_hi.tolist(),
        }
    except FitError as exc:
        tail_doc = {"fitted": False, "n_samples": len(values), "reason": str(exc)}
    with write_atomic(tail_path) as fh:
        fh.write(json.dumps(tail_doc, indent=2, sort_keys=True))
    print(f"norm column: {out / 'norms.csv'}")
    print(f"tail report: {tail_path}")
    return 0


def _cmd_evolve(args) -> int:
    config = _load_with_overrides(args)
    _expect_kind(config, "evolve")
    records = run(config)
    out = Path(config.out_dir)
    for rec in records:
        line = ", ".join(f"{k}={v:.3e}" for k, v in sorted(rec.metrics.items()))
        print(f"seed {rec.seed}: {line}")
    print(f"records: {out / 'records.jsonl'}")
    return 0


def _cmd_morawetz(args) -> int:
    reader = TrajectoryReader(args.traj)
    if args.dim is not None and reader.grid.dim != args.dim:
        raise ConfigError(f"trajectory grid has dim {reader.grid.dim}, --dim asked for {args.dim}")
    rep = stored_audit(reader)
    out = Path(args.out) if args.out is not None else Path(args.traj)
    report_path, csv_path = rep.write(out)
    print(f"c_star = {rep.c_star:.6g} (lhs {rep.lhs:.6g}, rhs {rep.rhs:.6g})")
    print(f"report: {report_path}")
    print(f"per-snapshot functional: {csv_path}")
    return 0


def _cmd_generic(kind: str):
    def _run(args) -> int:
        config = _load_with_overrides(args)
        _expect_kind(config, kind)
        records = run(config)
        print(f"{len(records)} record(s) under {config.out_dir}")
        return 0

    return _run


_DISPATCH = {
    "partition": _cmd_partition,
    "linear-stats": _cmd_linear_stats,
    "evolve": _cmd_evolve,
    "morawetz": _cmd_morawetz,
    "morawetz-audit": _cmd_generic("morawetz-audit"),
    "twin-ladder": _cmd_generic("twin-ladder"),
    "sweep": _cmd_generic("sweep"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 4
    except RepresentationError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
