"""Snapshot container and the binary trajectory format."""

import struct

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    GridSpec,
    SpectralField,
    Trajectory,
    TrajectoryWriter,
    load_trajectory,
    read_snapshot,
    save_trajectory,
    write_snapshot,
)

from conftest import traced_peak


def make_traj(grid, n_times=3, channels=("v", "w"), seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    times = np.linspace(0.0, 1.0, n_times)
    data = {}
    for ch in channels:
        data[ch] = (rng.normal(size=(n_times,) + grid.shape)
                    + 1j * rng.normal(size=(n_times,) + grid.shape))
    return Trajectory(grid, times, data, {"note": "test"})


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
    traj = make_traj(g, n_times=3)
    out = save_trajectory(traj, tmp_path / "traj")
    writer = TrajectoryWriter(out, g, ("v", "w"), traj.meta)
    assert not (out / "manifest.json").exists()  # an earlier run's manifest goes first
    for k, t in enumerate(traj.times[:2]):
        writer.add(t, {"v": traj.channels["v"][k], "w": traj.channels["w"][k]})
    assert not (out / "manifest.json").exists()
    with pytest.raises(ConfigError, match="no manifest"):
        load_trajectory(out)
    with pytest.raises(ValueError):
        writer.add(traj.times[2], {"w": traj.channels["w"][2]})
    writer.add(traj.times[2], {"v": traj.channels["v"][2], "w": traj.channels["w"][2]})
    assert writer.close() == out
    back = load_trajectory(out)
    for ch in ("v", "w"):
        assert np.array_equal(back.channels[ch], traj.channels[ch])


def test_trajectory_round_trip(tmp_path):
    g = GridSpec(2, 16, 2.0)
    traj = make_traj(g, n_times=4)
    out = save_trajectory(traj, tmp_path / "traj")
    back = load_trajectory(out)
    assert back.grid == g
    assert np.array_equal(back.times, traj.times)
    assert sorted(back.channels) == ["v", "w"]
    for ch in ("v", "w"):
        assert np.array_equal(back.channels[ch], traj.channels[ch])
    assert back.meta.get("note") == "test"


def free_traj(grid, n_times=3, seed=0):
    """A stacked w beside a free channel v held as its spectrum alone."""
    traj = make_traj(grid, n_times=n_times, channels=("v", "w"), seed=seed)
    v0_hat = np.fft.fftn(traj.channels.pop("v")[0])
    return Trajectory(grid, traj.times, traj.channels, traj.meta, {"v": v0_hat})


def test_free_channel_snapshots_are_its_flow():
    # Snapshot k of a free channel is ifftn(e^{-i t_k |xi|^2} v-hat(0)),
    # and spectrum() gives the flowed spectrum with no transform.
    g = GridSpec(2, 16, 2.0)
    traj = free_traj(g, n_times=4)
    assert traj.names == ("v", "w") and set(traj.channels) == {"w"}
    xi = g.xi_axis()
    xi2 = xi[:, None] ** 2 + xi[None, :] ** 2
    for k, t in enumerate(traj.times):
        want = np.exp(-1j * t * xi2) * traj.free_spectra["v"]
        assert np.allclose(traj.spectrum("v", k), want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(traj.snapshot("v", k).values, np.fft.ifftn(traj.spectrum("v", k)))
        u = traj.snapshot("u", k).values
        assert np.array_equal(u, traj.snapshot("v", k).values + traj.channels["w"][k])


def test_free_channel_saves_as_snapshot_files(tmp_path):
    # On disk a free channel is a channel like any other; it loads as a stack.
    g = GridSpec(2, 8, 1.0)
    traj = free_traj(g, n_times=3)
    back = load_trajectory(save_trajectory(traj, tmp_path / "traj"))
    assert set(back.channels) == {"v", "w"} and not back.free_spectra
    for k in range(traj.n_snapshots):
        for ch in ("v", "w"):
            assert np.array_equal(back.channels[ch][k], traj.snapshot(ch, k).values)


def test_channel_held_two_ways_rejected():
    g = GridSpec(1, 8, 1.0)
    traj = make_traj(g, n_times=2)
    with pytest.raises(ValueError, match="both"):
        Trajectory(g, traj.times, traj.channels, {}, {"v": np.zeros(8, dtype=complex)})
    with pytest.raises(ValueError, match="free spectrum"):
        Trajectory(g, traj.times, {"w": traj.channels["w"]}, {}, {"v": np.zeros(4, dtype=complex)})


def test_channel_u_synthesized():
    g = GridSpec(1, 8, 1.0)
    traj = make_traj(g, n_times=2)
    snap = traj.snapshot("u", 1)
    assert snap.rep == "physical"
    assert np.allclose(snap.values, traj.channels["v"][1] + traj.channels["w"][1])


def test_snapshot_u_sums_one_snapshot():
    # snapshot('u', k) allocates one snapshot, not a v + w stack of four.
    g = GridSpec(3, 8, 1.0)
    traj = make_traj(g, n_times=4)
    stack = traj.channels["v"] + traj.channels["w"]
    field = 16 * g.n_points
    for k in range(traj.n_snapshots):
        snap, peak, _ = traced_peak(lambda: traj.snapshot("u", k))
        assert np.array_equal(snap.values, stack[k])
        assert peak < 2 * field, peak / field


def test_missing_channel_raises():
    g = GridSpec(1, 8, 1.0)
    traj = Trajectory(g, np.array([0.0, 1.0]), {"w": np.zeros((2, 8), dtype=complex)}, {})
    with pytest.raises(KeyError):
        traj.snapshot("v", 0)


def test_nonuniform_times_rejected():
    g = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 0.1, 0.5]), {"u": np.zeros((3, 8), dtype=complex)}, {})


def test_shape_mismatch_rejected():
    g = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 1.0]), {"u": np.zeros((3, 8), dtype=complex)}, {})
