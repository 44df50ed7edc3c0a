"""Snapshot files and trajectory directories.

A run's snapshots are physical lattice values of named channels ("v" exact
linear flow, "w" stepped remainder, "u" a full field solved as such). A
solve keeps none of them; it streams each snapshot to a sink (see
solver.solve_w). Snapshot files use a fixed little-endian binary layout so
runs can be consumed by other tools:

    header: magic 'RNLS' | version u32 | d u32 | M u32 | L f64 | t f64 | tag u8
    data:   M^d complex values as (real f64, imag f64) pairs, row-major,
            axis 0 slowest.

A trajectory directory holds one such file per channel and snapshot plus
manifest.json, written last. TrajectoryWriter is its one writer: it writes
the directory one snapshot at a time, so a solve can stream its snapshots
to disk without stacking them. TrajectoryReader is its one reader: it
checks the manifest and reads the snapshots back one at a time, in time
order.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import GridSpec, SpectralField

__all__ = [
    "write_atomic",
    "write_snapshot",
    "read_snapshot",
    "TrajectoryWriter",
    "TrajectoryReader",
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


@contextmanager
def write_atomic(path: str | Path, newline: str | None = None):
    """A text file written under a temporary name and moved over `path` once whole; on failure `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        try:
            grid = GridSpec(dim, m, half_width)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad snapshot grid ({exc})") from exc
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
    close() leaves no manifest, and TrajectoryReader refuses the directory.
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
        with write_atomic(self.out / _MANIFEST) as fh:
            fh.write(json.dumps(manifest, indent=2))
        return self.out


class TrajectoryReader:
    """A trajectory directory opened through its manifest; snapshots are read on demand.

    The manifest is refused with a ConfigError unless its times are one or
    more finite, strictly increasing numbers, each channel lists one file
    per time and every listed file exists.
    """

    def __init__(self, in_dir: str | Path):
        self.root = Path(in_dir)
        manifest_path = self.root / _MANIFEST
        if not manifest_path.exists():
            raise ConfigError(f"{self.root}: not a trajectory directory (no manifest.json)")
        try:
            manifest = json.loads(manifest_path.read_text())
            gs = manifest["grid"]
            self.grid = GridSpec(gs["dim"], gs["points"], gs["half_width"])
            self.times = np.asarray(manifest["times"], dtype=float)
            self.files: dict[str, list[str]] = manifest["channels"]
            self.meta: dict = manifest.get("meta", {})
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"{manifest_path}: not a valid trajectory manifest ({exc!r})") from exc
        t = self.times
        if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise ConfigError(
                f"{manifest_path}: times must be a non-empty list of finite, strictly increasing numbers"
            )
        if not (isinstance(self.files, dict) and all(
            isinstance(files, list) and all(isinstance(f, str) for f in files) for files in self.files.values()
        )):
            raise ConfigError(f"{manifest_path}: channels must map each channel to a list of file names")
        for name, files in self.files.items():
            if len(files) != self.times.size:
                raise ConfigError(
                    f"{manifest_path}: channel {name!r} lists {len(files)} files for {self.times.size} times"
                )
        missing = [f for files in self.files.values() for f in files if not (self.root / f).is_file()]
        if missing:
            raise ConfigError(f"{self.root}: manifest names missing snapshot files {missing[:3]}")

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
