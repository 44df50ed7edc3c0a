"""Batch experiment runner: validated configs, seeded parallel tasks, crash-safe records.

A config is one JSON file, read through one schema table (_SCHEMA) of every
object's keys with their types and defaults. Unknown keys are errors
everywhere (silent typos are the main reproducibility hazard), required
sections depend on the experiment kind, and every spec checks its own
invariants when it is built. A sweep is parsed into its rungs, one config per
axis value, and run() memory-guards them all before the first one runs. The
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
subdirectory per axis value plus sweep.csv / sweep_summary.json. Summaries,
tables and each seed's series.csv replace the old ones atomically
(trajectory.write_json, trajectory.write_csv).
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .grids import FREQUENCY, GridSpec, SpectralField, xi_sq
from .linear_flow import check_cutoff, composite_spec, high_pass, linear_seed
from .morawetz import MorawetzAccumulator, c_star_spread
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
from .trajectory import TrajectoryWriter, write_csv, write_json

__all__ = [
    "KINDS",
    "ENV_WORKERS",
    "ForcingSpec",
    "InitialSpec",
    "ExperimentConfig",
    "ResultRecord",
    "config_hash",
    "parse_config",
    "read_config",
    "run",
    "summarize",
    "shaped_profile",
    "forcing_field",
    "initial_field",
]

# the CLI reads the worker count from this variable when --workers is absent
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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The types a config value can have, named as messages name them, each with its test and its conversion.
_NUM, _INT, _STR, _BOOL, _OBJ = "a number", "an integer", "a string", "true or false", "an object"
_NUM_OR_NULL, _NUMS, _INTS = "a number or null", "a list of numbers", "a list of integers"
_TYPES = {
    _NUM: (_is_number, float),
    _INT: (_is_int, int),
    _STR: (lambda x: isinstance(x, str), str),
    _BOOL: (lambda x: isinstance(x, bool), bool),
    _OBJ: (lambda x: isinstance(x, dict), dict),
    _NUM_OR_NULL: (lambda x: x is None or _is_number(x), lambda x: x if x is None else float(x)),
    # list values keep their elements as written: a sweep records its values as given
    _NUMS: (lambda x: isinstance(x, list) and all(map(_is_number, x)), tuple),
    _INTS: (lambda x: isinstance(x, list) and all(map(_is_int, x)), tuple),
}

# the default of a key that must be given
_REQ = object()

# The config schema: each object's keys, each with its type and its default.
# Every object is read through _read.
_SCHEMA = {
    "grid": {"dim": (_INT, _REQ), "points": (_INT, _REQ), "half_width": (_NUM, _REQ)},
    "partition": {"a": (_INT, _REQ), "n_max": (_INT, _REQ), "s": (_NUM, _REQ)},
    "solver": {
        "dt": (_NUM, _REQ), "t_final": (_NUM, _REQ), "snapshot_stride": (_INT, 1),
        "series_stride": (_INT, None), "power": (_NUM_OR_NULL, None), "mu": (_NUM, 1.0),
        "blowup_factor": (_NUM, 1e6), "dealias": (_BOOL, True),
    },
    "forcing": {
        "field_seed": (_INT, _REQ), "decay": (_NUM, _REQ), "n0": (_NUM, _REQ), "amplitude": (_NUM, _REQ),
    },
    "initial": {
        "kind": (_STR, "bump"), "amplitude": (_NUM, _REQ), "width": (_NUM, _REQ), "wave": (_INTS, None),
    },
    "times": {"t_final": (_NUM, _REQ), "n_times": (_INT, _REQ)},
    "ladder": {"amplitudes": (_NUMS, _REQ)},
    "sweep": {"kind": (_STR, _REQ), "axis": (_STR, _REQ), "values": (_NUMS, _REQ)},
}
_SECTIONS = tuple(_SCHEMA)
# The top level: the kind, the operational keys and one optional object per
# section. save_fields defaults to true for evolve runs, a sweep's values included.
_SCHEMA["config"] = {
    "kind": (_STR, _REQ), "out_dir": (_STR, _REQ), "seed": (_INT, 0), "n_samples": (_INT, 1),
    "workers": (_INT, 1), "memory_limit_mb": (_NUM, 4096.0), "save_fields": (_BOOL, None),
    "notes": (_STR, ""), **dict.fromkeys(_SECTIONS, (_OBJ, None)),
}


def _check_keys(section: dict, where: str) -> None:
    _require(isinstance(section, dict), f"{where} must be an object")
    allowed = _SCHEMA[where]
    for k in section:
        if k not in allowed:
            raise ConfigError(f"unknown key {where}.{k}; allowed: {', '.join(sorted(allowed))}")


def _read(section: dict, where: str) -> dict:
    """Every key of one config object by the schema: unknown keys rejected, types
    checked, required keys demanded and defaults filled in."""
    _check_keys(section, where)
    values = {}
    for key, (typ, default) in _SCHEMA[where].items():
        if key not in section:
            _require(default is not _REQ, f"{where}.{key} is required")
            values[key] = default
            continue
        test, convert = _TYPES[typ]
        v = section[key]
        _require(test(v), f"{where}.{key} must be {typ}, got {v!r}")
        values[key] = convert(v)
    return values


def _spec(cls, where: str, section: dict | None, **extra):
    """cls built from one config object, None when it is absent; the class checks its own invariants."""
    if section is None:
        return None
    values = _read(section, where)
    try:
        return cls(**extra, **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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

    def __post_init__(self):
        if not self.n0 > 0:
            raise ConfigError(f"n0 must be positive, got {self.n0}")
        if not self.amplitude > 0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class InitialSpec:
    """Closed-form initial data: a Gaussian bump with optional plane-wave factor."""

    kind: str
    amplitude: float = 0.0
    width: float = 1.0
    wave: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("bump", "zero"):
            raise ConfigError(f"kind must be 'bump' or 'zero', got {self.kind!r}")
        if not self.width > 0:
            raise ConfigError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: operational settings plus parsed sections, or
    for a sweep its rungs, one (axis value, config) pair per value in order."""

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
    rungs: tuple[tuple[float, "ExperimentConfig"], ...] = ()

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


def _rungs(data: dict, out_dir: str) -> tuple[str, tuple]:
    """A sweep's axis and its (value, config) pairs, each parsed as a config of the swept kind."""
    sweep = _read(data["sweep"], "sweep")
    axis, values, kind = sweep["axis"], sweep["values"], sweep["kind"]
    _require(axis.count(".") == 1, "sweep.axis must look like 'section.key'")
    _require(len(values) >= 1, "sweep.values must be a non-empty list of numbers")
    runnable = tuple(_KIND_SECTIONS)
    _require(kind in runnable, f"sweep.kind must be one of {', '.join(runnable)}")
    base = {k: v for k, v in data.items() if k != "sweep"}
    base["kind"] = kind
    rungs = []
    named: dict[str, float] = {}
    for value in values:
        # a rung's directory and its sweep_summary.json key are named by f"{value:g}"
        label = f"{value:g}"
        if label in named:
            raise ConfigError(f"sweep.values {named[label]!r} and {value!r} share the rung name {label!r}")
        named[label] = value
        raw = copy.deepcopy(base)
        _set_axis(raw, axis, value)
        raw["out_dir"] = str(Path(out_dir) / f"{axis.replace('.', '-')}_{label}")
        rungs.append((value, parse_config(raw)))
    return axis, tuple(rungs)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict into an ExperimentConfig. Unknown keys error.

    A sweep is parsed into its rungs, so each of its values is validated
    before anything runs.
    """
    top = _read(data, "config")
    kind = top.pop("kind")
    _require(kind in KINDS, f"config.kind must be one of {', '.join(KINDS)}, got {kind!r}")
    sections = {name: top.pop(name) for name in _SECTIONS}
    del top["notes"]
    _require(top["out_dir"] != "", "config.out_dir is required")
    _require(top["n_samples"] >= 0, f"config.n_samples must be nonnegative, got {top['n_samples']}")
    _require(top["workers"] >= 1, f"config.workers must be at least 1, got {top['workers']}")
    _require(top["memory_limit_mb"] > 0, "config.memory_limit_mb must be positive")
    payload = {k: data[k] for k in ("kind",) + _SECTIONS if k in data}

    if kind == "sweep":
        _require(sections["sweep"] is not None, "config: kind 'sweep' needs a sweep section")
        axis, rungs = _rungs(data, top["out_dir"])
        # fields are saved as the rungs save them: by default for a sweep of evolve
        top["save_fields"] = rungs[0][1].save_fields
        return ExperimentConfig(kind=kind, payload=payload, sweep_axis=axis, rungs=rungs, **top)
    if top["save_fields"] is None:
        top["save_fields"] = kind == "evolve"

    required, optional = _KIND_SECTIONS[kind]
    for name in required:
        _require(sections[name] is not None, f"config: kind {kind!r} needs a {name} section")
    for name in _SECTIONS:
        _require(
            sections[name] is None or name in required + optional,
            f"config: section {name!r} is not used by kind {kind!r}",
        )

    grid = _spec(GridSpec, "grid", sections["grid"])
    partition = _spec(PartitionConfig, "partition", sections["partition"], dim=grid.dim)
    forcing = _spec(ForcingSpec, "forcing", sections["forcing"])
    _require(forcing is None or partition is not None, "config: a forcing section needs a partition section")
    if kind == "linear-stats":
        check_cutoff(grid, forcing.n0)
    solver = _spec(SolverConfig, "solver", sections["solver"], dim=grid.dim)
    initial = sections["initial"]
    if initial is not None and initial.get("kind") == "zero":
        _check_keys(initial, "initial")
        _require(set(initial) == {"kind"}, "initial: kind 'zero' takes no other keys")
        initial = InitialSpec(kind="zero")
    else:
        initial = _spec(InitialSpec, "initial", initial)
        _require(
            initial is None or initial.wave is None or len(initial.wave) == grid.dim,
            f"initial.wave must be a list of {grid.dim} integers",
        )
    times = None
    if sections["times"] is not None:
        t = _read(sections["times"], "times")
        t_final, n_times = t["t_final"], t["n_times"]
        _require(t_final > 0, f"times.t_final must be positive, got {t_final}")
        _require(n_times >= 2, f"times.n_times must be at least 2, got {n_times}")
        times = np.linspace(0.0, t_final, n_times)
    ladder = None
    if sections["ladder"] is not None:
        ladder = tuple(float(x) for x in _read(sections["ladder"], "ladder")["amplitudes"])
        _require(
            len(ladder) >= 2 and min(ladder) > 0,
            "ladder.amplitudes must be a list of at least 2 positive numbers",
        )
        _require(len(set(ladder)) == len(ladder), "ladder.amplitudes must be distinct")

    return ExperimentConfig(kind=kind, payload=payload, grid=grid, partition=partition, solver=solver,
                            forcing=forcing, initial=initial, times=times, ladder=ladder, **top)


def read_config(path: str | Path) -> dict:
    """The top-level JSON object of a config file, not yet validated."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    _require(isinstance(data, dict), f"{p}: top level must be an object")
    return data


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
    """Seeded complex Gaussian spectrum shaped by (1 + |xi|^2)^(-decay), frequency representation."""
    rng = np.random.Generator(np.random.Philox(key=np.array([field_seed, 7], dtype=np.uint64)))
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return SpectralField(grid, noise * (1.0 + xi_sq(grid)) ** (-decay), FREQUENCY)


def shaped_profile(grid: GridSpec, field_seed: int, decay: float, amplitude: float) -> SpectralField:
    """The fixed base profile f for an ensemble, rescaled to sup |f| = amplitude.

    Returned as its spectrum (frequency representation), which is what a draw
    reads; one inverse transform finds the sup, and the physical values are
    not kept.
    """
    fhat = _shaped_noise(grid, field_seed, decay)
    mx = float(np.abs(fhat.as_physical().values).max())
    if mx == 0.0:
        raise ConfigError("profile is identically zero")
    return SpectralField(grid, (amplitude / mx) * fhat.values, FREQUENCY)


@lru_cache(maxsize=2)
def _profile_spectrum(grid: GridSpec, forcing: ForcingSpec) -> SpectralField:
    """shaped_profile of a forcing spec, built once per (grid, spec) and shared by a linear-stats run's seeds.

    A linear seed's norms scale with the profile, so it reads the sup-scaled
    spectrum. The cache keeps at most two profiles, and their arrays are
    read-only.
    """
    f = shaped_profile(grid, forcing.field_seed, forcing.decay, forcing.amplitude)
    f.values.flags.writeable = False
    return f


def forcing_field(
    grid: GridSpec,
    partition: FrequencyPartition,
    forcing: ForcingSpec,
    task_seed: int,
) -> SpectralField:
    """One run's rough component v(0): cube draw, high-pass, sup normalization.

    The draw and the high-pass are linear and v(0) is rescaled to its sup
    afterwards, so the profile's own sup scale cancels: the draw reads the
    unscaled shaped noise, and the high-pass the draw's spectrum. v(0) costs
    one inverse transform, and a forced run keeps nothing of the profile.
    Every lattice array of the draw is freed when this returns: a forced
    solve holds none of them.
    """
    rnd = draw(_shaped_noise(grid, forcing.field_seed, forcing.decay), partition, task_seed)
    v0 = high_pass(rnd.spectrum, forcing.n0).as_physical()
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
    """The records of a records file, first cut back to its last newline.

    A run killed mid-write can leave a last line with no newline; a record
    appended straight after it would join that line and be lost.
    """
    if not path.exists():
        return []
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        os.truncate(path, keep)
        warnings.warn(f"{path}: cut a torn last line ({len(data) - keep} bytes)", stacklevel=2)
    out = []
    bad = 0
    for line in data[:keep].decode().splitlines():
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
# one half-step multiplier and |xi|^2; tracemalloc measures 7.6 fields at
# 64^3, 8.0 at 32^3 and 9.6 at 16^3 with a sink that keeps nothing, whether
# the caller keeps w0 and v0 or passes them straight in (a fresh grid, so its
# cached symbols are counted)
_SOLVER_FIELDS = 10


def _estimate_bytes(config: ExperimentConfig) -> int:
    """Rough peak-memory estimate for one run, before anything is allocated, in
    complex lattice fields ("fields"); tracemalloc figures are per task.

    A run holds FFT workspace, the partition's float lattice arrays when it
    builds one (two, and four once a partition report reads its
    diagnostics), and for linear-stats its base profile's spectrum, which
    its seeds share. A forced task (evolve, morawetz-audit, twin-ladder)
    keeps nothing of the profile: it draws from the unscaled shaped noise,
    high-passes the draw, and frees all of it before its solve starts.
    That phase peaks 4.3 fields at 16^4 (n_max 2) and 64^3 (n_max 4) and
    6.1 at 32^3 (n_max 4, 29,129 cubes), and a process's first seed adds
    half a field for the cached |xi|^2; all of it is under every forced
    task's solve charge below. Per task:
    - linear-stats: v-hat(0), one snapshot's spectrum and values, and 2d
      fields of view buffers and symbols; 8.0 fields at 32^3 with 4 times or
      16, 9.5 at 12^4.
    - evolve, morawetz-audit: the snapshots stream, so one field per channel
      (the initial w and v, which the solve drops before it allocates its
      other work arrays) plus the solver's 10 fields; a streamed forced
      evolve task peaks 9.1 fields at 16^3 and 7.5 at 32^3, with 3 snapshots
      or 21, and 9.6 and 8.0 with 3 snapshots that a sink drops. The
      audit adds 4 fields: it is handed the solve's spectra and holds one
      channel's view at a time, then one component of v's gradient (one
      add() peaks 3.1 fields at 24^3 and at 12^4). Only with save_fields
      does it compute M(t) for interaction.csv, and add its half-spectrum
      kernel tables, (d + 1) / 2 fields, and d + 1 fields for one component
      of w's gradient, of the momentum density and of its transform at a
      time, with their buffers, or for the tables' build on a grid's first
      audit (such an add() peaks 5.7 fields at 24^3 and 6.6 at 12^4). A
      seed then peaks 11.3 fields at 12^3 and 12.2 at 8^4 without M(t),
      14.0 and 15.9 with it, and 16.6 and 20.7 with the tables built.
    - twin-ladder: the unforced twin's w_hat stack, the inputs, and 4 fields
      for a rung's scaled forcing and its gap buffer, plus the solver's 10;
      15.7 fields at 16^3 with 3 snapshots and 33.7 with 21.
    """
    g = config.grid
    if g is None:
        return 0
    per = 16 * g.n_points
    workspace = 8 * per
    solver = _SOLVER_FIELDS * per
    partition = 2 * per if _uses_partition(config) else 0
    kind = config.kind
    profile = per if kind == "linear-stats" else 0
    if kind == "partition-report":
        per_task = 4 * per
    elif kind == "linear-stats":
        per_task = (3 + 2 * g.dim) * per
    else:
        chans = 2 if config.forcing is not None else 1
        if kind == "twin-ladder":
            per_task = (config.solver.n_snapshots + chans + 4) * per + solver
        elif kind == "morawetz-audit":
            audit = 4 * per
            if config.save_fields:
                audit += 3 * (g.dim + 1) * per // 2
            per_task = chans * per + audit + solver
        else:
            per_task = chans * per + solver
    return config.workers * per_task + workspace + partition + profile


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
    """Solve one seed's forced remainder equation, streaming its snapshots into sink(t, w, v, w_hat, v_hat).

    The inputs go straight into the call, so the solve holds the only
    references to w(0) and v(0) and frees them before it allocates its
    other work arrays.
    """
    return solve_w(
        initial_field(config.initial, config.grid),
        forcing_field(config.grid, part, config.forcing, task_seed),
        config.solver,
        sink,
    )


def _discard(t: float, w: np.ndarray, v: np.ndarray | None, w_hat: np.ndarray, v_hat: np.ndarray | None) -> None:
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


def _task_partition_report(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    rng = np.random.Generator(np.random.Philox(key=np.array([task_seed, 0x9A], dtype=np.uint64)))
    vals = rng.normal(size=config.grid.shape) + 1j * rng.normal(size=config.grid.shape)
    ratio = part.orthogonality_ratio(SpectralField(config.grid, vals, "physical"))
    return {"ratio": ratio}, []


def _task_linear_stats(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    f = _profile_spectrum(config.grid, config.forcing)
    pc = config.partition
    families = ("Y", "Z")
    specs = [composite_spec(f"{family}{config.grid.dim}", pc.s, float(pc.a)) for family in families]
    l2, norms = linear_seed(f, part, task_seed, config.forcing.n0, config.times, specs)
    metrics = {"L2": l2}
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
        # run solves the full equation, so its w is stored as channel 'u'
        names = ("v", "w") if forced else ("u",)
        meta = config.solver.provenance()
        if forced:
            meta["n0"] = config.forcing.n0
        writer = TrajectoryWriter(run_dir / "traj", config.grid, names, meta)
        if forced:
            sink = lambda t, w, v, w_hat, v_hat: writer.add(t, {"v": v, "w": w})
        else:
            sink = lambda t, w, v, w_hat, v_hat: writer.add(t, {"u": w})
    if forced:
        series = increment_residuals(_run_forced(config, part, task_seed, sink))
    else:
        series = solve_w(initial_field(config.initial, config.grid), None, config.solver, sink)
    metrics = _series_metrics(series)
    if forced:
        metrics["r_mass"] = series.max_rel_mass
        metrics["r_energy"] = series.max_rel_energy
    run_dir.mkdir(parents=True, exist_ok=True)
    write_csv(run_dir / "series.csv", ConservationSeries.CSV_HEADER, series.csv_rows())
    artifacts.append(str(run_dir.name) + "/series.csv")
    if writer is not None:
        writer.close()
        artifacts.append(str(run_dir.name) + "/traj")
    return metrics, artifacts


def _task_morawetz(config, part: FrequencyPartition, task_seed: int, run_dir: Path):
    # M(t) is computed only for the interaction.csv that save_fields writes
    audit = MorawetzAccumulator(config.grid, interaction=config.save_fields)
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
        artifacts = [f"{run_dir.name}/{path.name}" for path in rep.write(run_dir)]
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
    write_json(out / "summary.json", summary)
    by_seed = sorted(records, key=lambda r: r.seed)
    rows = [[rec.seed, key, rec.metrics[key]] for rec in by_seed for key in sorted(rec.metrics)]
    write_csv(out / "metrics.csv", ["seed", "metric", "value"], rows)
    return summary


def run(config: ExperimentConfig) -> list[ResultRecord]:
    """Execute one experiment: skip completed seeds, write records and summary.

    config.workers threads run the seeds, and the memory guard charges that
    many tasks; the count only sets parallelism, and results are identical
    for any value. Returns every record of this config, old and new, sorted
    by seed. A sweep runs its rungs in order once the guard has passed each.
    """
    for _, rung in config.rungs:
        _guard_memory(rung)
    if config.kind == "sweep":
        return _run_sweep(config)
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

    def append(recs) -> None:
        with open(records_path, "a") as fh:
            for rec in recs:
                fh.write(rec.to_line() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                known.append(rec)

    if todo and config.workers > 1:
        # imported here, so a one-worker run, which runs its seeds inline, loads no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            append(pool.map(work, todo))
    elif todo:
        append(map(work, todo))

    wanted = set(seeds)
    final = sorted((r for r in known if r.seed in wanted), key=lambda r: r.seed)
    _write_summary(config, final, context)
    return final


def _run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """One run per rung; writes a long-format table plus per-value medians.

    The axis is a dotted numeric config field such as 'forcing.n0' or
    'solver.dt'. Each rung gets its own subdirectory (own records, resume,
    summary); sweep.csv collects (axis value, seed, metric, value) rows and
    sweep_summary.json the per-value medians, with the values as written in
    the config. When the axis is a forcing cutoff, the mass/energy ratio
    columns are also checked for being nonincreasing in the cutoff and
    flagged if not.
    """
    axis = config.sweep_axis
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_records: list[ResultRecord] = []
    rows = []
    per_value_medians: dict[str, dict] = {}
    for value, rung in config.rungs:
        recs = run(rung)
        all_records.extend(recs)
        stats = summarize(recs)["metrics"]
        per_value_medians[f"{value:g}"] = {k: v["median"] for k, v in stats.items()}
        for rec in recs:
            for key in sorted(rec.metrics):
                rows.append([value, rec.seed, key, rec.metrics[key]])

    write_csv(out / "sweep.csv", ["axis_value", "seed", "metric", "value"], rows)

    values = [value for value, _ in config.rungs]
    flags = {}
    if axis.endswith(".n0"):
        for metric in ("ratio_mass", "ratio_energy"):
            med = [per_value_medians[f"{v:g}"].get(metric) for v in values]
            if all(m is not None for m in med):
                flags[f"nonincreasing_{metric}"] = all(
                    med[i + 1] <= med[i] * (1.0 + 1e-12) for i in range(len(med) - 1)
                )
    sweep_summary = {
        "kind": config.rungs[0][1].kind,
        "axis": axis,
        "values": values,
        "medians": per_value_medians,
        "flags": flags,
    }
    write_json(out / "sweep_summary.json", sweep_summary)
    return all_records
