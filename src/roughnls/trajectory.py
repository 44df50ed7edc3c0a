"""Time-sampled fields and their on-disk form.

A Trajectory is a uniform time grid plus one array of snapshots per named
channel ("v" exact linear flow, "w" stepped remainder; "u" is derived as v+w
on demand and never stored). Snapshot files use a fixed little-endian binary
layout so runs can be consumed by other tools:

    header: magic 'RNLS' | version u32 | d u32 | M u32 | L f64 | t f64 | tag u8
    data:   M^d complex values as (real f64, imag f64) pairs, row-major,
            axis 0 slowest.

A trajectory directory holds one such file per channel and snapshot plus
manifest.json, written last. TrajectoryWriter writes it one snapshot at a
time, so a solve can stream its snapshots to disk without stacking them, and
save_trajectory feeds a stored Trajectory through the same writer.
TrajectoryReader reads a directory back one snapshot at a time, and
load_trajectory stacks what it reads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import GridSpec, SpectralField

__all__ = [
    "Trajectory",
    "write_snapshot",
    "read_snapshot",
    "TrajectoryWriter",
    "TrajectoryReader",
    "save_trajectory",
    "load_trajectory",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_MAGIC = b"RNLS"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIddB")

CHANNEL_TAGS = {"u": 0, "v": 1, "w": 2}
_TAG_CHANNELS = {v: k for k, v in CHANNEL_TAGS.items()}
_OTHER_TAG = 255
_MANIFEST = "manifest.json"


@dataclass
class Trajectory:
    """Uniformly strided snapshots of one or more field channels."""

    grid: GridSpec
    times: np.ndarray
    channels: dict[str, np.ndarray]
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("times must be a non-empty 1d array")
        if self.times.size > 1:
            steps = np.diff(self.times)
            h = steps[0]
            if h <= 0 or np.any(np.abs(steps - h) > 1e-12 * max(abs(h), 1.0)):
                raise ValueError("snapshot times must be uniformly strided and increasing")
        want = (self.times.size,) + self.grid.shape
        for name, arr in self.channels.items():
            if arr.shape != want:
                raise ValueError(f"channel {name!r} has shape {arr.shape}, expected {want}")

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    def channel(self, name: str) -> np.ndarray:
        """Snapshot stack for a channel; 'u' is synthesized as v + w if absent."""
        if name in self.channels:
            return self.channels[name]
        if name == "u" and "v" in self.channels and "w" in self.channels:
            return self.channels["v"] + self.channels["w"]
        raise KeyError(f"trajectory has no channel {name!r} (have {sorted(self.channels)})")

    def snapshot(self, name: str, k: int) -> SpectralField:
        """Snapshot k of a channel; an unstored 'u' is v[k] + w[k], built for this snapshot only."""
        if name == "u" and name not in self.channels and {"v", "w"} <= self.channels.keys():
            return SpectralField(self.grid, self.channels["v"][k] + self.channels["w"][k], "physical")
        return SpectralField(self.grid, self.channel(name)[k], "physical")


def _write_values(path: Path, grid: GridSpec, values: np.ndarray, t: float, channel: str) -> None:
    """Write physical lattice values in the binary layout above, from the array's own buffer.

    A C-contiguous complex128 array on a little-endian host is written as it
    is; any other layout or dtype is converted first.
    """
    tag = CHANNEL_TAGS.get(channel, _OTHER_TAG)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.points, grid.half_width, float(t), tag
    )
    data = np.ascontiguousarray(values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def write_snapshot(path: str | Path, field: SpectralField, t: float, channel: str = "u") -> None:
    """Write one physical-representation snapshot in the binary layout above."""
    _write_values(Path(path), field.grid, field.as_physical().values, t, channel)


def read_snapshot(path: str | Path) -> tuple[SpectralField, float, str]:
    """Read a snapshot file; returns (field, t, channel name).

    The data are read straight into the array the field holds.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ConfigError(f"{path}: truncated snapshot header")
        magic, version, dim, m, half_width, t, tag = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ConfigError(f"{path}: unsupported snapshot version {version}")
        grid = GridSpec(dim, m, half_width)
        values = np.empty(grid.shape, dtype="<c16")
        if fh.readinto(values) != values.nbytes:
            raise ConfigError(f"{path}: truncated snapshot data")
    values = values.astype(np.complex128, copy=False)
    return SpectralField(grid, values, "physical"), t, _TAG_CHANNELS.get(tag, "other")


class TrajectoryWriter:
    """Writes a trajectory directory one snapshot at a time; manifest.json goes last.

    add() writes one snapshot file per channel from the arrays it is given
    and keeps none of them, so they may be buffers the caller reuses for the
    next snapshot. close() writes manifest.json. A run that raises before
    close() leaves no manifest, and load_trajectory refuses the directory.
    Opening a writer removes a manifest left in the directory by an earlier
    run, so a directory being rewritten never shows one.
    """

    def __init__(self, out_dir: str | Path, grid: GridSpec, channels, meta: dict | None = None):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / _MANIFEST).unlink(missing_ok=True)
        self.grid = grid
        self.meta = {} if meta is None else meta
        self.files: dict[str, list[str]] = {name: [] for name in channels}
        self.times: list[float] = []

    def add(self, t: float, fields: dict[str, np.ndarray]) -> None:
        """Write the snapshot at time t; fields maps every channel to its physical values."""
        if fields.keys() != self.files.keys():
            raise ValueError(f"snapshot has channels {sorted(fields)}, expected {sorted(self.files)}")
        k = len(self.times)
        for name, files in self.files.items():
            fname = f"{name}_{k:06d}.rnls"
            _write_values(self.out / fname, self.grid, fields[name], t, name)
            files.append(fname)
        self.times.append(float(t))

    def close(self) -> Path:
        """Write manifest.json, which marks the directory complete; returns the directory."""
        g = self.grid
        manifest = {
            "format": "rough-nls trajectory",
            "version": SNAPSHOT_VERSION,
            "grid": {"dim": g.dim, "points": g.points, "half_width": g.half_width},
            "times": self.times,
            "channels": self.files,
            "meta": self.meta,
        }
        (self.out / _MANIFEST).write_text(json.dumps(manifest, indent=2))
        return self.out


def save_trajectory(traj: Trajectory, out_dir: str | Path) -> Path:
    """Persist a trajectory as a directory of snapshots plus manifest.json."""
    writer = TrajectoryWriter(out_dir, traj.grid, traj.channels, traj.meta)
    for k, t in enumerate(traj.times):
        writer.add(t, {name: arr[k] for name, arr in traj.channels.items()})
    return writer.close()


class TrajectoryReader:
    """A trajectory directory opened through its manifest; snapshots are read on demand."""

    def __init__(self, in_dir: str | Path):
        self.root = Path(in_dir)
        manifest_path = self.root / _MANIFEST
        if not manifest_path.exists():
            raise ConfigError(f"{self.root}: not a trajectory directory (no manifest.json)")
        manifest = json.loads(manifest_path.read_text())
        gs = manifest["grid"]
        self.grid = GridSpec(gs["dim"], gs["points"], gs["half_width"])
        self.times = np.asarray(manifest["times"], dtype=float)
        self.files: dict[str, list[str]] = manifest["channels"]
        self.meta: dict = manifest.get("meta", {})

    def read(self, name: str, k: int) -> np.ndarray:
        """Physical values of snapshot k of a channel, checked against the manifest."""
        fname = self.files[name][k]
        fld, t, _ = read_snapshot(self.root / fname)
        if fld.grid != self.grid:
            raise ConfigError(f"{fname}: grid mismatch inside trajectory directory")
        if abs(t - self.times[k]) > 1e-12 * max(1.0, abs(self.times[k])):
            raise ConfigError(f"{fname}: snapshot time {t} disagrees with manifest")
        return fld.values

    def snapshots(self, channels):
        """Yield (t, {channel: values}) per snapshot in time order, one snapshot in memory at a time."""
        for name in channels:
            if name not in self.files:
                raise ConfigError(f"{self.root}: trajectory has no channel {name!r} (have {sorted(self.files)})")
        for k, t in enumerate(self.times):
            yield float(t), {name: self.read(name, k) for name in channels}


def load_trajectory(in_dir: str | Path) -> Trajectory:
    reader = TrajectoryReader(in_dir)
    channels = {}
    for name, files in reader.files.items():
        stack = np.empty((len(files),) + reader.grid.shape, dtype=np.complex128)
        for k in range(len(files)):
            stack[k] = reader.read(name, k)
        channels[name] = stack
    return Trajectory(reader.grid, reader.times, channels, reader.meta)
