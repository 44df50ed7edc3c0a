"""Space-time norms over trajectories: labels, admissibility, closed forms."""

import numpy as np
import pytest

from roughnls import GridSpec, NormSpec, Trajectory, is_admissible, spacetime_norm
from roughnls.norms import snapshot_norms


def constant_trajectory(grid, value, times):
    vals = np.full(grid.shape, value, dtype=complex)
    stack = np.stack([vals for _ in times])
    return Trajectory(grid, np.asarray(times, dtype=float), {"u": stack}, {})


def test_labels():
    assert NormSpec(4.0, 4.0).label() == "L4t_L4x"
    assert NormSpec(np.inf, 2.0).label() == "Linft_L2x"
    lab = NormSpec(2.0, np.inf, s=0.39, kind="inhomogeneous").label()
    assert "grad" in lab and "0.39" in lab


def test_admissibility():
    # 2/q + d/r = d/2 for Schrodinger-admissible pairs.
    assert is_admissible(2.0, 6.0, 3)
    assert is_admissible(np.inf, 2.0, 3)
    assert is_admissible(2.0, 4.0, 4)
    assert not is_admissible(2.0, 6.0, 4)


def test_constant_field_closed_form():
    g = GridSpec(2, 8, 1.0)
    times = np.linspace(0.0, 2.0, 9)
    traj = constant_trajectory(g, 0.5, times)
    vol = (2.0 * g.half_width) ** g.dim
    # ||u||_{L4t L4x}^4 = T * 0.5^4 * vol
    want = (2.0 * 0.5**4 * vol) ** 0.25
    got = spacetime_norm(traj, NormSpec(4.0, 4.0))
    assert got == pytest.approx(want, rel=1e-12)
    # sup-in-time L2
    want_l2 = 0.5 * vol**0.5
    assert spacetime_norm(traj, NormSpec(np.inf, 2.0)) == pytest.approx(want_l2, rel=1e-12)


def test_snapshot_norms_shape_and_values():
    g = GridSpec(1, 16, np.pi)
    times = np.array([0.0, 1.0, 2.0])
    stack = np.stack([k * np.ones(16, dtype=complex) for k in range(3)])
    traj = Trajectory(g, times, {"u": stack}, {})
    vals = snapshot_norms(traj, NormSpec(2.0, np.inf), "u")
    assert vals.shape == (3,)
    assert np.allclose(vals, [0.0, 1.0, 2.0])


def test_spacetime_norm_needs_two_snapshots():
    g = GridSpec(1, 8, 1.0)
    traj = Trajectory(g, np.array([0.0]), {"u": np.zeros((1, 8), dtype=complex)}, {})
    with pytest.raises(ValueError):
        spacetime_norm(traj, NormSpec(4.0, 4.0))
    # sup in time works with a single snapshot
    assert spacetime_norm(traj, NormSpec(np.inf, 2.0)) == 0.0


def test_derivative_norms_on_plane_wave():
    g = GridSpec(1, 32, np.pi)
    x = g.x_axis()
    stack = np.stack([np.exp(2j * x), np.exp(2j * x)])
    traj = Trajectory(g, np.array([0.0, 1.0]), {"u": stack}, {})
    base = spacetime_norm(traj, NormSpec(np.inf, 2.0))
    hom = spacetime_norm(traj, NormSpec(np.inf, 2.0, s=0.5, kind="homogeneous"))
    assert hom == pytest.approx(np.sqrt(2.0) * base, rel=1e-12)
    inh = spacetime_norm(traj, NormSpec(np.inf, 2.0, s=1.0, kind="inhomogeneous"))
    assert inh == pytest.approx(np.sqrt(5.0) * base, rel=1e-12)


def test_missing_channel_synthesizes_u():
    g = GridSpec(1, 8, 1.0)
    v = np.ones((2, 8), dtype=complex)
    w = 2.0 * np.ones((2, 8), dtype=complex)
    traj = Trajectory(g, np.array([0.0, 1.0]), {"v": v, "w": w}, {})
    total = spacetime_norm(traj, NormSpec(np.inf, np.inf), "u")
    assert total == pytest.approx(3.0, rel=1e-12)
