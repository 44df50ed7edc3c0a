"""Snapshot files and trajectory directories in the binary format."""

import struct

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    GridSpec,
    SpectralField,
    TrajectoryReader,
    TrajectoryWriter,
    read_snapshot,
    write_snapshot,
)

from conftest import traced_peak, write_trajectory


def make_snapshots(grid, n_times=3, seed=0):
    """(times, {channel: stack of random complex snapshot values})."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    times = np.linspace(0.0, 1.0, n_times)
    data = {}
    for ch in ("v", "w"):
        data[ch] = (rng.normal(size=(n_times,) + grid.shape)
                    + 1j * rng.normal(size=(n_times,) + grid.shape))
    return times, data


def assert_reads_back(out, grid, times, data):
    """The directory's reader serves exactly these times and snapshot values."""
    reader = TrajectoryReader(out)
    assert reader.grid == grid
    assert np.array_equal(reader.times, times)
    assert sorted(reader.files) == sorted(data)
    for k, (t, snap) in enumerate(reader.snapshots(tuple(data))):
        assert t == times[k]
        for ch, stack in data.items():
            assert np.array_equal(snap[ch], stack[k])
    return reader


def test_snapshot_round_trip(tmp_path):
    g = GridSpec(3, 8, np.pi)
    f = SpectralField(g, np.arange(512, dtype=complex).reshape(8, 8, 8), "physical")
    path = tmp_path / "snap.rnls"
    write_snapshot(path, f, t=0.75, channel="w")
    field, t, tag = read_snapshot(path)
    assert t == 0.75
    assert tag == "w"
    assert field.grid == g
    assert np.array_equal(field.values, f.values)


def test_snapshot_rejects_corrupt_magic(tmp_path):
    g = GridSpec(1, 8, 1.0)
    f = SpectralField(g, np.zeros(8, dtype=complex), "physical")
    path = tmp_path / "snap.rnls"
    write_snapshot(path, f, t=0.0, channel="u")
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        read_snapshot(path)


def _old_snapshot_bytes(field, t, tag):
    """The file the writer made before it wrote the array's own buffer."""
    g = field.grid
    header = struct.pack("<4sIIIddB", b"RNLS", 1, g.dim, g.points, g.half_width, float(t), tag)
    data = np.ascontiguousarray(field.as_physical().values.astype("<c16"))
    return header + data.tobytes()


def test_snapshot_bytes_match_the_old_formula(tmp_path):
    g = GridSpec(3, 16, np.pi)
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 2], dtype=np.uint64)))
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    fields = {
        "contiguous": SpectralField(g, vals, "physical"),
        "transposed": SpectralField(g, vals.transpose(2, 0, 1), "physical"),
        "real": SpectralField(g, vals.real.copy(), "physical"),
        "frequency": SpectralField(g, vals, "frequency"),
    }
    for name, field in fields.items():
        path = tmp_path / f"{name}.rnls"
        write_snapshot(path, field, t=0.125, channel="w")
        assert path.read_bytes() == _old_snapshot_bytes(field, 0.125, 2), name
        back, _, _ = read_snapshot(path)
        assert back.values.dtype == np.complex128
        assert np.array_equal(back.values, field.as_physical().values), name

    # writing a contiguous complex field copies nothing; reading allocates
    # only the array it returns
    path = tmp_path / "contiguous.rnls"
    nbytes = 16 * g.n_points
    _, wrote, _ = traced_peak(lambda: write_snapshot(path, fields["contiguous"], t=0.125, channel="w"))
    (back, _, _), read, _ = traced_peak(lambda: read_snapshot(path))
    assert wrote < nbytes / 4, wrote / nbytes
    assert read < 1.25 * nbytes, read / nbytes


def test_truncated_snapshot_data_rejected(tmp_path):
    g = GridSpec(2, 8, 1.0)
    path = tmp_path / "snap.rnls"
    write_snapshot(path, SpectralField(g, np.ones(g.shape, dtype=complex)), t=0.0, channel="v")
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ConfigError, match="truncated snapshot data"):
        read_snapshot(path)


def test_writer_writes_the_manifest_last(tmp_path):
    g = GridSpec(2, 8, 1.0)
    times, data = make_snapshots(g, n_times=3)
    out = write_trajectory(tmp_path / "traj", g, times, data)
    writer = TrajectoryWriter(out, g, ("v", "w"))
    assert not (out / "manifest.json").exists()  # an earlier run's manifest goes first
    for k, t in enumerate(times[:2]):
        writer.add(t, {"v": data["v"][k], "w": data["w"][k]})
    assert not (out / "manifest.json").exists()
    with pytest.raises(ConfigError, match="no manifest"):
        TrajectoryReader(out)
    with pytest.raises(ValueError):
        writer.add(times[2], {"w": data["w"][2]})
    writer.add(times[2], {"v": data["v"][2], "w": data["w"][2]})
    assert writer.close() == out
    assert_reads_back(out, g, times, data)


def test_trajectory_round_trip(tmp_path):
    g = GridSpec(2, 16, 2.0)
    times, data = make_snapshots(g, n_times=4)
    out = write_trajectory(tmp_path / "traj", g, times, data, {"note": "test"})
    assert assert_reads_back(out, g, times, data).meta.get("note") == "test"
