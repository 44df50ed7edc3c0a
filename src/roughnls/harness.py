"""Batch experiment runner: validated configs, seeded parallel tasks, crash-safe records.

A config is one JSON file. Unknown keys are errors everywhere (silent typos are
the main reproducibility hazard), required sections depend on the experiment
kind, and every nested object re-validates its own invariants at load. The
semantic part of the config (everything that can change a number) is hashed;
records are keyed by (config_hash, seed) so an interrupted batch resumes by
skipping completed seeds and a re-run of a finished batch is a no-op.

Determinism contract: (config, master seed) fully determines every metric.
Tasks are pure functions of their seed, run on a bounded thread pool, and are
written in seed order by the main thread alone, each record flushed to disk
as soon as its seed and every earlier one are done, so a failing seed loses
none of the finished ones before it; aggregation uses compensated summation
over that fixed order, so the worker count never changes any reported value.

Layout under out_dir: records.jsonl (append-only, one record per line),
summary.json (recomputed from records on every run), metrics.csv (long format
seed/metric/value), per-seed artifact directories, and for sweeps one
subdirectory per axis value plus sweep.csv / sweep_summary.json.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .grids import GridSpec, SpectralField, _xi_sq
# composite_norm, linear_trajectory, gn_ratios, morawetz_audit and save_trajectory
# are not called in this module; the names stay bound because bench/tracing.py
# wraps them here.
from .linear_flow import composite_norm, composite_spec, high_pass, linear_seed, linear_trajectory
from .morawetz import MorawetzAccumulator, c_star_spread, gn_ratios, morawetz_audit
from .partition import FrequencyPartition, PartitionConfig, build_partition
from .randomize import draw
from .solver import (
    ConservationSeries,
    SnapshotSink,
    SolverConfig,
    increment_residuals,
    solve_w,
    twin_run,
)
from .trajectory import Trajectory, TrajectoryWriter, save_trajectory

__all__ = [
    "KINDS",
    "ENV_WORKERS",
    "ForcingSpec",
    "InitialSpec",
    "ExperimentConfig",
    "ResultRecord",
    "config_hash",
    "parse_config",
    "load_config",
    "run",
    "sweep",
    "shaped_profile",
    "forcing_field",
    "initial_field",
]

ENV_WORKERS = "ROUGH_NLS_WORKERS"

KINDS = ("partition-report", "linear-stats", "evolve", "morawetz-audit", "twin-ladder", "sweep")

# Sections each kind must / may carry beyond the operational top-level keys.
_KIND_SECTIONS = {
    "partition-report": (("grid", "partition"), ()),
    "linear-stats": (("grid", "partition", "forcing", "times"), ()),
    "evolve": (("grid", "solver", "initial"), ("forcing", "partition")),
    "morawetz-audit": (("grid", "partition", "solver", "forcing", "initial"), ()),
    "twin-ladder": (("grid", "partition", "solver", "forcing", "initial", "ladder"), ()),
}

_OPERATIONAL_KEYS = ("out_dir", "seed", "n_samples", "workers", "memory_limit_mb", "save_fields", "notes")
_SECTION_KEYS = ("grid", "partition", "solver", "forcing", "initial", "times", "ladder", "sweep")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(section: dict, allowed, where: str) -> None:
    _require(isinstance(section, dict), f"{where} must be an object")
    for k in section:
        if k not in allowed:
            raise ConfigError(f"unknown key {where}.{k}; allowed: {', '.join(sorted(allowed))}")


def _get_number(section: dict, key: str, where: str, default=None, required: bool = False):
    if key not in section:
        _require(not required, f"{where}.{key} is required")
        return default
    v = section[key]
    _require(_is_number(v), f"{where}.{key} must be a number, got {v!r}")
    return float(v)


def _get_int(section: dict, key: str, where: str, default=None, required: bool = False):
    if key not in section:
        _require(not required, f"{where}.{key} is required")
        return default
    v = section[key]
    _require(_is_int(v), f"{where}.{key} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class ForcingSpec:
    """How the rough linear component is generated for forced runs.

    A complex Gaussian spectrum shaped by (1 + |xi|^2)^(-decay) and seeded by
    field_seed fixes the base profile f; each task draws cube coefficients
    with its own seed, high-passes at n0, and rescales the result to the given
    sup amplitude.
    """

    field_seed: int
    decay: float
    n0: float
    amplitude: float


@dataclass(frozen=True)
class InitialSpec:
    """Closed-form initial data: a Gaussian bump with optional plane-wave factor."""

    kind: str
    amplitude: float = 0.0
    width: float = 1.0
    wave: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: operational settings plus parsed sections."""

    kind: str
    out_dir: str
    seed: int
    n_samples: int
    workers: int
    memory_limit_mb: float
    save_fields: bool
    payload: dict
    grid: GridSpec | None = None
    partition: PartitionConfig | None = None
    solver: SolverConfig | None = None
    forcing: ForcingSpec | None = None
    initial: InitialSpec | None = None
    times: np.ndarray | None = None
    ladder: tuple[float, ...] | None = None
    sweep_axis: str | None = None
    sweep_values: tuple | None = None
    sweep_kind: str | None = None

    @property
    def hash(self) -> str:
        return config_hash(self.payload)


def config_hash(payload: dict) -> str:
    """Hash of the semantic config content (canonical JSON, sorted keys).

    Operational keys (out_dir, workers, n_samples, seed, memory limit,
    save_fields, notes) are excluded so that resuming, growing, or relocating
    a batch reuses existing records.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def _parse_grid(sec: dict) -> GridSpec:
    _check_keys(sec, ("dim", "points", "half_width"), "grid")
    dim = _get_int(sec, "dim", "grid", required=True)
    points = _get_int(sec, "points", "grid", required=True)
    half_width = _get_number(sec, "half_width", "grid", required=True)
    try:
        return GridSpec(dim, points, half_width)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_partition(sec: dict, dim: int) -> PartitionConfig:
    _check_keys(sec, ("a", "n_max", "s"), "partition")
    a = _get_int(sec, "a", "partition", required=True)
    n_max = _get_int(sec, "n_max", "partition", required=True)
    s = _get_number(sec, "s", "partition", required=True)
    try:
        return PartitionConfig(dim=dim, a=a, n_max=n_max, s=s)
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from exc


def _parse_solver(sec: dict, dim: int, forcing_n0: float | None) -> SolverConfig:
    allowed = ("dt", "t_final", "snapshot_stride", "series_stride", "power", "mu", "blowup_factor", "dealias")
    _check_keys(sec, allowed, "solver")
    dt = _get_number(sec, "dt", "solver", required=True)
    t_final = _get_number(sec, "t_final", "solver", required=True)
    snapshot_stride = _get_int(sec, "snapshot_stride", "solver", default=1)
    series_stride = _get_int(sec, "series_stride", "solver", default=None)
    power = sec.get("power")
    if power is not None:
        _require(_is_number(power), f"solver.power must be a number or null, got {power!r}")
        power = float(power)
    mu = _get_number(sec, "mu", "solver", default=1.0)
    blowup_factor = _get_number(sec, "blowup_factor", "solver", default=1e6)
    dealias = sec.get("dealias", True)
    _require(isinstance(dealias, bool), "solver.dealias must be true or false")
    kwargs = dict(
        dim=dim,
        dt=dt,
        t_final=t_final,
        snapshot_stride=snapshot_stride,
        series_stride=series_stride,
        power=power,
        mu=mu,
        blowup_factor=blowup_factor,
        dealias=dealias,
    )
    if forcing_n0 is not None:
        kwargs["n0"] = forcing_n0
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_forcing(sec: dict) -> ForcingSpec:
    _check_keys(sec, ("field_seed", "decay", "n0", "amplitude"), "forcing")
    field_seed = _get_int(sec, "field_seed", "forcing", required=True)
    decay = _get_number(sec, "decay", "forcing", required=True)
    n0 = _get_number(sec, "n0", "forcing", required=True)
    amplitude = _get_number(sec, "amplitude", "forcing", required=True)
    _require(n0 > 0, f"forcing.n0 must be positive, got {n0}")
    _require(amplitude > 0, f"forcing.amplitude must be positive, got {amplitude}")
    return ForcingSpec(field_seed=field_seed, decay=decay, n0=n0, amplitude=amplitude)


def _parse_initial(sec: dict, dim: int) -> InitialSpec:
    _check_keys(sec, ("kind", "amplitude", "width", "wave"), "initial")
    kind = sec.get("kind", "bump")
    if kind == "zero":
        _require(set(sec) <= {"kind"}, "initial: kind 'zero' takes no other keys")
        return InitialSpec(kind="zero")
    _require(kind == "bump", f"initial.kind must be 'bump' or 'zero', got {kind!r}")
    amplitude = _get_number(sec, "amplitude", "initial", required=True)
    width = _get_number(sec, "width", "initial", required=True)
    _require(width > 0, f"initial.width must be positive, got {width}")
    wave = sec.get("wave")
    if wave is not None:
        _require(
            isinstance(wave, list) and len(wave) == dim and all(_is_int(k) for k in wave),
            f"initial.wave must be a list of {dim} integers",
        )
        wave = tuple(int(k) for k in wave)
    return InitialSpec(kind="bump", amplitude=amplitude, width=width, wave=wave)


def _parse_times(sec: dict) -> np.ndarray:
    _check_keys(sec, ("t_final", "n_times"), "times")
    t_final = _get_number(sec, "t_final", "times", required=True)
    n_times = _get_int(sec, "n_times", "times", required=True)
    _require(t_final > 0, f"times.t_final must be positive, got {t_final}")
    _require(n_times >= 2, f"times.n_times must be at least 2, got {n_times}")
    return np.linspace(0.0, t_final, n_times)


def _parse_ladder(sec: dict) -> tuple[float, ...]:
    _check_keys(sec, ("amplitudes",), "ladder")
    amps = sec.get("amplitudes")
    _require(
        isinstance(amps, list) and len(amps) >= 2 and all(_is_number(x) and x > 0 for x in amps),
        "ladder.amplitudes must be a list of at least 2 positive numbers",
    )
    vals = tuple(float(x) for x in amps)
    _require(len(set(vals)) == len(vals), "ladder.amplitudes must be distinct")
    return vals


def _parse_sweep(sec: dict) -> tuple[str, tuple, str]:
    _check_keys(sec, ("axis", "values", "kind"), "sweep")
    axis = sec.get("axis")
    _require(isinstance(axis, str) and axis.count(".") == 1, "sweep.axis must look like 'section.key'")
    values = sec.get("values")
    _require(
        isinstance(values, list) and len(values) >= 1 and all(_is_number(v) for v in values),
        "sweep.values must be a non-empty list of numbers",
    )
    kind = sec.get("kind")
    _require(
        kind in KINDS and kind != "sweep",
        f"sweep.kind must be one of {', '.join(k for k in KINDS if k != 'sweep')}",
    )
    return axis, tuple(values), kind


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict into an ExperimentConfig. Unknown keys error."""
    _check_keys(data, ("kind",) + _OPERATIONAL_KEYS + _SECTION_KEYS, "config")
    kind = data.get("kind")
    _require(kind in KINDS, f"config.kind must be one of {', '.join(KINDS)}, got {kind!r}")
    out_dir = data.get("out_dir")
    _require(isinstance(out_dir, str) and out_dir != "", "config.out_dir is required")
    notes = data.get("notes", "")
    _require(isinstance(notes, str), "config.notes must be a string")

    seed = _get_int(data, "seed", "config", default=0)
    n_samples = _get_int(data, "n_samples", "config", default=1)
    _require(n_samples >= 0, f"config.n_samples must be nonnegative, got {n_samples}")
    workers = _get_int(data, "workers", "config", default=1)
    _require(workers >= 1, f"config.workers must be at least 1, got {workers}")
    memory_limit_mb = _get_number(data, "memory_limit_mb", "config", default=4096.0)
    _require(memory_limit_mb > 0, "config.memory_limit_mb must be positive")
    save_fields = data.get("save_fields", kind == "evolve")
    _require(isinstance(save_fields, bool), "config.save_fields must be true or false")

    if kind == "sweep":
        _require("sweep" in data, "config: kind 'sweep' needs a sweep section")
        axis, values, sub_kind = _parse_sweep(data["sweep"])
        base = {k: v for k, v in data.items() if k not in ("sweep",)}
        base["kind"] = sub_kind
        _set_axis(base, axis, values[0])  # also validates the axis path
        parse_config(base)  # validates the base sections for the first rung
        payload = {k: data[k] for k in ("kind",) + _SECTION_KEYS if k in data}
        return ExperimentConfig(
            kind=kind,
            out_dir=out_dir,
            seed=seed,
            n_samples=n_samples,
            workers=workers,
            memory_limit_mb=memory_limit_mb,
            save_fields=save_fields,
            payload=payload,
            sweep_axis=axis,
            sweep_values=values,
            sweep_kind=sub_kind,
        )

    required, optional = _KIND_SECTIONS[kind]
    present = [k for k in _SECTION_KEYS if k in data]
    for name in required:
        _require(name in data, f"config: kind {kind!r} needs a {name} section")
    for name in present:
        _require(
            name in required or name in optional,
            f"config: section {name!r} is not used by kind {kind!r}",
        )

    grid = _parse_grid(data["grid"])
    partition = _parse_partition(data["partition"], grid.dim) if "partition" in data else None
    forcing = _parse_forcing(data["forcing"]) if "forcing" in data else None
    if forcing is not None:
        _require(partition is not None, "config: a forcing section needs a partition section")
    solver = (
        _parse_solver(data["solver"], grid.dim, forcing.n0 if forcing else None)
        if "solver" in data
        else None
    )
    initial = _parse_initial(data["initial"], grid.dim) if "initial" in data else None
    times = _parse_times(data["times"]) if "times" in data else None
    ladder = _parse_ladder(data["ladder"]) if "ladder" in data else None

    payload = {k: data[k] for k in ("kind",) + _SECTION_KEYS if k in data}
    return ExperimentConfig(
        kind=kind,
        out_dir=out_dir,
        seed=seed,
        n_samples=n_samples,
        workers=workers,
        memory_limit_mb=memory_limit_mb,
        save_fields=save_fields,
        payload=payload,
        grid=grid,
        partition=partition,
        solver=solver,
        forcing=forcing,
        initial=initial,
        times=times,
        ladder=ladder,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    _require(isinstance(data, dict), f"{p}: top level must be an object")
    return parse_config(data)


def _set_axis(raw: dict, axis: str, value) -> None:
    """Assign one dotted numeric config field in place; unknown axes error."""
    section, key = axis.split(".", 1)
    sec = raw.get(section)
    if not isinstance(sec, dict) or key not in sec:
        raise ConfigError(f"sweep axis {axis!r} is not a field of this config")
    old = sec[key]
    if not _is_number(old):
        raise ConfigError(f"sweep axis {axis!r} is not numeric (current value {old!r})")
    if _is_int(old) and float(value).is_integer():
        sec[key] = int(value)
    else:
        sec[key] = float(value)


# ---------------------------------------------------------------------------
# field builders


def _shaped_noise(grid: GridSpec, field_seed: int, decay: float) -> SpectralField:
    """Seeded complex Gaussian spectrum shaped by (1 + |xi|^2)^(-decay), physical."""
    rng = np.random.Generator(np.random.Philox(key=np.array([field_seed, 7], dtype=np.uint64)))
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    fhat = SpectralField(grid, noise * (1.0 + _xi_sq(grid)) ** (-decay), "frequency")
    return fhat.as_physical()


def shaped_profile(grid: GridSpec, field_seed: int, decay: float, amplitude: float) -> SpectralField:
    """The fixed base profile f for an ensemble, rescaled to sup |f| = amplitude."""
    f = _shaped_noise(grid, field_seed, decay)
    mx = float(np.abs(f.values).max())
    if mx == 0.0:
        raise ConfigError("profile is identically zero")
    return SpectralField(grid, (amplitude / mx) * f.values, "physical")


def forcing_field(
    grid: GridSpec,
    partition: FrequencyPartition,
    forcing: ForcingSpec,
    task_seed: int,
) -> SpectralField:
    """One run's rough component v(0): cube draw, high-pass, sup normalization."""
    f = _shaped_noise(grid, forcing.field_seed, forcing.decay)
    rnd = draw(f, partition, task_seed)
    v0 = high_pass(rnd.field, forcing.n0).as_physical()
    mx = float(np.abs(v0.values).max())
    if mx == 0.0:
        raise ConfigError(
            f"forcing cutoff n0={forcing.n0:g} removes all spectral content of the draw"
        )
    return SpectralField(grid, (forcing.amplitude / mx) * v0.values, "physical")


def initial_field(spec: InitialSpec, grid: GridSpec) -> SpectralField:
    """Closed-form initial data on the grid."""
    if spec.kind == "zero":
        return SpectralField(grid, np.zeros(grid.shape, dtype=complex), "physical")
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    r2 = np.zeros(grid.shape)
    for x in mesh:
        r2 = r2 + x**2
    vals = spec.amplitude * np.exp(-spec.width * r2).astype(complex)
    if spec.wave is not None:
        phase = np.zeros(grid.shape)
        for k, x in zip(spec.wave, mesh):
            phase = phase + k * x
        vals = vals * np.exp(1j * phase)
    return SpectralField(grid, vals, "physical")


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ResultRecord:
    """One completed task: scalar metrics plus artifact paths, append-only."""

    config_hash: str
    seed: int
    metrics: dict
    wall_clock: float
    artifacts: tuple[str, ...] = ()

    def to_line(self) -> str:
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "metrics": self.metrics,
            "wall_clock": self.wall_clock,
            "artifacts": list(self.artifacts),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_line(line: str) -> "ResultRecord":
        doc = json.loads(line)
        return ResultRecord(
            config_hash=doc["config_hash"],
            seed=int(doc["seed"]),
            metrics=doc["metrics"],
            wall_clock=float(doc["wall_clock"]),
            artifacts=tuple(doc.get("artifacts", [])),
        )


def _load_records(path: Path) -> list[ResultRecord]:
    if not path.exists():
        return []
    out = []
    bad = 0
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(ResultRecord.from_line(line))
        except (json.JSONDecodeError, KeyError, ValueError):
            bad += 1
    if bad:
        warnings.warn(f"{path}: skipped {bad} malformed record line(s)", stacklevel=2)
    return out


def _clean_metrics(metrics: dict) -> dict:
    """JSON-native scalars only; non-finite values are dropped, not serialized."""
    out = {}
    for k, v in metrics.items():
        if isinstance(v, (bool, np.bool_)):
            out[k] = bool(v)
        elif isinstance(v, (int, np.integer)):
            out[k] = int(v)
        else:
            v = float(v)
            if math.isfinite(v):
                out[k] = v
    return out


# ---------------------------------------------------------------------------
# resource guard


def _uses_partition(config: ExperimentConfig) -> bool:
    """Every task that uses the partition draws forcing from it or reports on it."""
    return config.forcing is not None or config.kind == "partition-report"


# complex lattice fields a forced solve_w needs beside what its snapshot consumer
# keeps: its work arrays (w_hat, u, v_hat(t), the phase and two float buffers,
# 5 fields; each snapshot is made in the phase and u buffers), v_hat(0), the
# two half-step multipliers and |xi|^2; tracemalloc measures 8.6 fields above
# the stacks at 64^3, 8.8 at 32^3 and 9.7 at 16^3
_SOLVER_FIELDS = 10


def _estimate_bytes(config: ExperimentConfig) -> int:
    """Rough peak-memory estimate for one run, before anything is allocated.

    Counts per in-flight task its snapshot fields, FFT workspace and, when the
    run builds one, the partition: its four float lattice arrays (normalizer,
    residual, unity and square sums). Its per-shell profile matrices and cell
    masks are far smaller and ignored. The evolve and morawetz-audit tasks
    stream their snapshots to disk or into the audit and hold no snapshot
    stack: they are charged one snapshot field per channel (the initial w
    and v the task holds for its solve). twin-ladder compares whole runs and
    is charged its snapshot stacks twice. A task that runs solve_w adds the
    solver's workspace: 10 complex lattice fields. Under tracemalloc a forced
    solve_w peaks 8.6 fields above its stacks at 64^3 and 8.8 at 32^3 (9.7
    at 16^3, where small allocations weigh more), counting its work arrays
    and the multipliers it caches; a whole streamed forced evolve task peaks
    10.1 fields at 16^3 and 9.3 at 32^3, with 3 snapshots or 21. A Morawetz
    audit adds its cached half-spectrum kernel tables (d + 1 real-input
    transforms, about (d + 1) / 2 complex fields) and the lattice
    temporaries of one snapshot: the two views' transforms, two gradients,
    the momentum density and its transform, about 3d + 6 complex fields.
    """
    g = config.grid
    if g is None:
        return 0
    per = 16 * g.n_points
    workspace = 8 * per
    solver = _SOLVER_FIELDS * per
    partition = 2 * per if _uses_partition(config) else 0
    kind = config.kind
    if kind == "partition-report":
        per_task = 4 * per
    elif kind == "linear-stats":
        per_task = (config.times.size + 4) * per
    else:
        chans = 2 if config.forcing is not None else 1
        if kind == "twin-ladder":
            per_task = 2 * config.solver.n_snapshots * chans * per + solver
        elif kind == "morawetz-audit":
            audit = (3 * g.dim + 6) * per + (g.dim + 1) * per // 2
            per_task = chans * per + audit + solver
        else:
            per_task = chans * per + solver
    return config.workers * per_task + workspace + partition


def _guard_memory(config: ExperimentConfig) -> None:
    est = _estimate_bytes(config)
    limit = config.memory_limit_mb * 2**20
    if est > limit:
        raise ResourceLimitError(
            f"estimated peak memory {est / 2**20:.0f} MiB exceeds the limit "
            f"{config.memory_limit_mb:.0f} MiB; raise memory_limit_mb or shrink the run"
        )


# ---------------------------------------------------------------------------
# tasks


def _run_forced(
    config: ExperimentConfig, part: FrequencyPartition, task_seed: int, sink: SnapshotSink
) -> ConservationSeries:
    """Solve one seed's forced remainder equation, streaming its snapshots into sink(t, w, v)."""
    v0 = forcing_field(config.grid, part, config.forcing, task_seed)
    w0 = initial_field(config.initial, config.grid)
    return solve_w(w0, v0, config.solver, sink)[1]


def _discard(t: float, w: np.ndarray, v: np.ndarray | None) -> None:
    """The snapshot sink of a run that keeps no fields."""


def _series_metrics(series: ConservationSeries) -> dict:
    m0 = series.mass[0]
    e0 = series.energy[0]
    out = {
        "mass_drift": float(np.max(np.abs(series.mass / m0 - 1.0))) if m0 != 0 else 0.0,
        "ratio_mass": float(np.max(series.mass / m0)) if m0 != 0 else 1.0,
    }
    if e0 != 0:
        out["energy_drift"] = float(np.max(np.abs(series.energy / e0 - 1.0)))
        out["ratio_energy"] = float(np.max(series.energy / e0))
    else:
        out["energy_drift"] = 0.0
        out["ratio_energy"] = 1.0
    return out


def _write_series_csv(path: Path, series: ConservationSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ConservationSeries.CSV_HEADER)
        writer.writerows(series.csv_rows())


def _task_partition_report(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    rng = np.random.Generator(np.random.Philox(key=np.array([task_seed, 0x9A], dtype=np.uint64)))
    vals = rng.normal(size=config.grid.shape) + 1j * rng.normal(size=config.grid.shape)
    ratio = part.orthogonality_ratio(SpectralField(config.grid, vals, "physical"))
    return {"ratio": ratio}, []


def _task_linear_stats(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    f = shaped_profile(config.grid, config.forcing.field_seed, config.forcing.decay, config.forcing.amplitude)
    pc = config.partition
    families = ("Y", "Z")
    specs = [composite_spec(f"{family}{config.grid.dim}", pc.s, float(pc.a)) for family in families]
    traj, norms = linear_seed(f, part, task_seed, config.forcing.n0, config.times, specs)
    metrics = {"L2": traj.snapshot("v", 0).l2_norm()}
    for family, (total, parts) in zip(families, norms):
        metrics[family] = total
        for label, val in parts.items():
            metrics[f"{family}:{label}"] = val
    return metrics, []


def _task_evolve(config, part: FrequencyPartition | None, task_seed: int, run_dir: Path):
    forced = config.forcing is not None
    artifacts = []
    writer = None
    sink = _discard
    if config.save_fields:
        # the snapshots stream into traj/ as the solve makes them; an unforced
        # run stores w as channel 'u', as evolve_full names it
        names = ("v", "w") if forced else ("u",)
        writer = TrajectoryWriter(run_dir / "traj", config.grid, names, config.solver.provenance())
        if forced:
            sink = lambda t, w, v: writer.add(t, {"v": v, "w": w})
        else:
            sink = lambda t, w, v: writer.add(t, {"u": w})
    if forced:
        series = increment_residuals(_run_forced(config, part, task_seed, sink))
    else:
        u0 = initial_field(config.initial, config.grid)
        series = solve_w(u0, None, config.solver, sink)[1]
    metrics = _series_metrics(series)
    if forced:
        metrics["r_mass"] = series.max_rel_mass
        metrics["r_energy"] = series.max_rel_energy
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_series_csv(run_dir / "series.csv", series)
    artifacts.append(str(run_dir.name) + "/series.csv")
    if writer is not None:
        writer.close()
        artifacts.append(str(run_dir.name) + "/traj")
    return metrics, artifacts


def _task_morawetz(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    audit = MorawetzAccumulator(config.grid)
    _run_forced(config, part, task_seed, audit.add)
    rep = audit.report()
    metrics = {
        "lhs": rep.lhs,
        "T1": rep.terms["T1"],
        "T2": rep.terms["T2"],
        "T3": rep.terms["T3"],
        "rhs": rep.rhs,
        "c_star": rep.c_star,
        "loc_min": float(rep.localization.min()),
    }
    if config.grid.dim == 4:
        ratios = rep.gn_ratios
        metrics["gn_max"] = float(ratios.max())
        metrics["gn_median"] = float(np.median(ratios))
    artifacts = []
    if config.save_fields:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "morawetz.json").write_text(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
        with open(run_dir / "interaction.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rep.CSV_HEADER)
            writer.writerows(rep.csv_rows())
        artifacts = [str(run_dir.name) + "/morawetz.json", str(run_dir.name) + "/interaction.csv"]
    return metrics, artifacts


def _task_twin_ladder(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    v0 = forcing_field(config.grid, part, config.forcing, task_seed)
    w0 = initial_field(config.initial, config.grid)
    rep = twin_run(w0, v0, config.solver, amplitudes=config.ladder)
    metrics = {"slope_smallest": rep.slope_smallest, "monotone": rep.monotone}
    for amp, div in zip(rep.amplitudes, rep.divergences):
        metrics[f"divergence_{amp:g}"] = div
    for i, slope in enumerate(rep.slopes):
        metrics[f"slope_{i}"] = slope
    return metrics, []


_TASKS = {
    "partition-report": _task_partition_report,
    "linear-stats": _task_linear_stats,
    "evolve": _task_evolve,
    "morawetz-audit": _task_morawetz,
    "twin-ladder": _task_twin_ladder,
}


# ---------------------------------------------------------------------------
# summaries


def _metric_stats(values: list) -> dict:
    nums = [float(v) for v in values]
    n = len(nums)
    srt = sorted(nums)
    def quantile(q: float) -> float:
        if n == 1:
            return srt[0]
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return srt[lo] * (1.0 - frac) + srt[hi] * frac
    return {
        "n": n,
        "mean": math.fsum(nums) / n,
        "median": quantile(0.5),
        "iqr": quantile(0.75) - quantile(0.25),
        "min": srt[0],
        "max": srt[-1],
    }


def summarize(records: list[ResultRecord]) -> dict:
    """Aggregate statistics per metric, computed over records sorted by seed."""
    recs = sorted(records, key=lambda r: r.seed)
    keys = sorted({k for r in recs for k in r.metrics})
    metrics = {}
    for key in keys:
        vals = [r.metrics[key] for r in recs if key in r.metrics]
        metrics[key] = _metric_stats(vals)
    return {
        "n_records": len(recs),
        "seeds": [r.seed for r in recs],
        "metrics": metrics,
    }


def _kind_extras(config: ExperimentConfig, records: list[ResultRecord], context) -> dict:
    if config.kind == "partition-report" and context is not None:
        return {"partition": context.report()}
    if config.kind == "morawetz-audit" and records:
        spread = c_star_spread([r.metrics["c_star"] for r in records])
        c_max = spread.max
        violations = sum(
            1
            for r in records
            if r.metrics["lhs"] > c_max * r.metrics["rhs"] * (1.0 + 1e-12)
        )
        return {
            "c_star": {
                "max": spread.max,
                "median": spread.median,
                "ratio": spread.ratio,
                "stable": spread.stable,
                "violations_at_max": violations,
            }
        }
    return {}


def _write_summary(config: ExperimentConfig, records: list[ResultRecord], context) -> dict:
    summary = {"kind": config.kind, "config_hash": config.hash}
    summary.update(summarize(records))
    summary.update(_kind_extras(config, records, context))
    out = Path(config.out_dir)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "metric", "value"])
        for rec in sorted(records, key=lambda r: r.seed):
            for key in sorted(rec.metrics):
                writer.writerow([rec.seed, key, rec.metrics[key]])
    return summary


def _effective_workers(config_workers: int, override: int | None) -> int:
    if override is not None:
        return max(1, int(override))
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"{ENV_WORKERS}={env!r} is not an integer") from exc
    return max(1, config_workers)


def run(config: ExperimentConfig, workers: int | None = None) -> list[ResultRecord]:
    """Execute one experiment: skip completed seeds, write records and summary.

    The worker count (argument, else the ROUGH_NLS_WORKERS environment
    variable, else the config) only sets parallelism; results are identical
    for any value. Returns every record of this config, old and new, sorted
    by seed.
    """
    if config.kind == "sweep":
        return sweep(config, workers=workers)
    _guard_memory(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    h = config.hash
    known = [r for r in _load_records(records_path) if r.config_hash == h]
    done = {r.seed for r in known}
    seeds = [config.seed + i for i in range(config.n_samples)]
    todo = [s for s in seeds if s not in done]

    context = build_partition(config.partition, config.grid) if _uses_partition(config) else None
    task = _TASKS[config.kind]

    def work(task_seed: int) -> ResultRecord:
        t0 = time.perf_counter()
        metrics, artifacts = task(config, context, task_seed, out / f"run_{task_seed:04d}")
        return ResultRecord(
            config_hash=h,
            seed=task_seed,
            metrics=_clean_metrics(metrics),
            wall_clock=time.perf_counter() - t0,
            artifacts=tuple(artifacts),
        )

    n_workers = _effective_workers(config.workers, workers)
    if todo:
        # the pool starts no thread until a task is submitted; one worker runs inline
        with ThreadPoolExecutor(max_workers=n_workers) as pool, open(records_path, "a") as fh:
            for rec in pool.map(work, todo) if n_workers > 1 else map(work, todo):
                fh.write(rec.to_line() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                known.append(rec)

    wanted = set(seeds)
    final = sorted((r for r in known if r.seed in wanted), key=lambda r: r.seed)
    _write_summary(config, final, context)
    return final


def sweep(
    config: ExperimentConfig,
    axis: str | None = None,
    values=None,
    workers: int | None = None,
) -> list[ResultRecord]:
    """One run per axis value; writes a long-format table plus per-value medians.

    The axis is a dotted numeric config field such as 'forcing.n0' or
    'solver.dt'. Each value gets its own subdirectory (own records, resume,
    summary); sweep.csv collects (axis value, seed, metric, value) rows and
    sweep_summary.json the per-value medians. When the axis is a forcing
    cutoff, the mass/energy ratio columns are also checked for being
    nonincreasing in the cutoff and flagged if not.
    """
    axis = axis if axis is not None else config.sweep_axis
    values = tuple(values) if values is not None else config.sweep_values
    kind = config.sweep_kind if config.sweep_kind is not None else config.kind
    if axis is None or values is None or not values:
        raise ConfigError("sweep needs an axis and a non-empty list of values")
    if kind == "sweep":
        raise ConfigError("sweep cannot nest another sweep")

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_records: list[ResultRecord] = []
    rows = []
    per_value_medians: dict[str, dict] = {}
    for value in values:
        raw = copy.deepcopy(config.payload)
        raw.pop("sweep", None)
        raw["kind"] = kind
        _set_axis(raw, axis, value)
        raw["out_dir"] = str(out / f"{axis.replace('.', '-')}_{value:g}")
        raw["seed"] = config.seed
        raw["n_samples"] = config.n_samples
        raw["workers"] = config.workers
        raw["memory_limit_mb"] = config.memory_limit_mb
        raw["save_fields"] = config.save_fields
        sub = parse_config(raw)
        recs = run(sub, workers=workers)
        all_records.extend(recs)
        stats = summarize(recs)["metrics"]
        per_value_medians[f"{value:g}"] = {k: v["median"] for k, v in stats.items()}
        for rec in recs:
            for key in sorted(rec.metrics):
                rows.append([value, rec.seed, key, rec.metrics[key]])

    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis_value", "seed", "metric", "value"])
        writer.writerows(rows)

    flags = {}
    if axis.endswith(".n0"):
        for metric in ("ratio_mass", "ratio_energy"):
            med = [per_value_medians[f"{v:g}"].get(metric) for v in values]
            if all(m is not None for m in med):
                flags[f"nonincreasing_{metric}"] = all(
                    med[i + 1] <= med[i] * (1.0 + 1e-12) for i in range(len(med) - 1)
                )
    sweep_summary = {
        "kind": kind,
        "axis": axis,
        "values": list(values),
        "medians": per_value_medians,
        "flags": flags,
    }
    (out / "sweep_summary.json").write_text(json.dumps(sweep_summary, indent=2, sort_keys=True))
    return all_records
