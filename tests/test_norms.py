"""Space-time norms through one NormPass: labels and closed forms."""

import numpy as np
import pytest

from roughnls import GridSpec, NormPass, NormSpec


def pass_norms(grid, snapshots, times, specs):
    """Feed each snapshot's values to a NormPass on channel 'u'; returns its folded norms."""
    norm_pass = NormPass(grid, {key: ("u", spec) for key, spec in specs.items()})
    for values in snapshots:
        norm_pass.take("u", norm_pass.view(values, None))
    return norm_pass.norms(np.asarray(times, dtype=float))


def test_labels():
    assert NormSpec(4.0, 4.0).label() == "L4t_L4x"
    assert NormSpec(np.inf, 2.0).label() == "Linft_L2x"
    lab = NormSpec(2.0, np.inf, s=0.39, kind="inhomogeneous").label()
    assert "grad" in lab and "0.39" in lab


def test_constant_field_closed_form():
    g = GridSpec(2, 8, 1.0)
    times = np.linspace(0.0, 2.0, 9)
    snaps = [np.full(g.shape, 0.5, dtype=complex) for _ in times]
    got = pass_norms(g, snaps, times, {"l4": NormSpec(4.0, 4.0), "l2": NormSpec(np.inf, 2.0)})
    vol = (2.0 * g.half_width) ** g.dim
    # ||u||_{L4t L4x}^4 = T * 0.5^4 * vol
    assert got["l4"] == pytest.approx((2.0 * 0.5**4 * vol) ** 0.25, rel=1e-12)
    # sup-in-time L2
    assert got["l2"] == pytest.approx(0.5 * vol**0.5, rel=1e-12)


def test_snapshot_norms_shape_and_values():
    # The pass keeps one spatial norm per snapshot and spec, and folds it in
    # time: sup |u| reads 0, 1, 2 over the snapshots.
    g = GridSpec(1, 16, np.pi)
    times = np.array([0.0, 1.0, 2.0])
    snaps = [k * np.ones(16, dtype=complex) for k in range(3)]
    got = pass_norms(g, snaps, times, {"sup": NormSpec(np.inf, np.inf), "l2t": NormSpec(2.0, np.inf)})
    assert got["sup"] == pytest.approx(2.0, rel=1e-12)
    assert got["l2t"] == pytest.approx(np.sqrt(np.trapezoid([0.0, 1.0, 4.0], times)), rel=1e-12)


def test_pass_takes_one_channel_at_a_time():
    # take() reads only the specs of the channel it is given.
    g = GridSpec(1, 8, 1.0)
    norm_pass = NormPass(g, {"v": ("v", NormSpec(np.inf, np.inf)), "w": ("w", NormSpec(np.inf, np.inf))})
    for t in (0.0, 1.0):
        norm_pass.take("w", norm_pass.view(np.full(8, 2.0 + t, dtype=complex), None))
        norm_pass.take("v", norm_pass.view(np.ones(8, dtype=complex), None))
    assert norm_pass.norms(np.array([0.0, 1.0])) == {"v": 1.0, "w": 3.0}


def test_spacetime_norm_needs_two_snapshots():
    g = GridSpec(1, 8, 1.0)
    snaps = [np.zeros(8, dtype=complex)]
    with pytest.raises(ValueError):
        pass_norms(g, snaps, [0.0], {"l4": NormSpec(4.0, 4.0)})
    # sup in time works with a single snapshot
    assert pass_norms(g, snaps, [0.0], {"l2": NormSpec(np.inf, 2.0)}) == {"l2": 0.0}


def test_derivative_norms_on_plane_wave():
    g = GridSpec(1, 32, np.pi)
    x = g.x_axis()
    snaps = [np.exp(2j * x), np.exp(2j * x)]
    got = pass_norms(g, snaps, [0.0, 1.0], {
        "base": NormSpec(np.inf, 2.0),
        "hom": NormSpec(np.inf, 2.0, s=0.5, kind="homogeneous"),
        "inh": NormSpec(np.inf, 2.0, s=1.0, kind="inhomogeneous"),
    })
    assert got["hom"] == pytest.approx(np.sqrt(2.0) * got["base"], rel=1e-12)
    assert got["inh"] == pytest.approx(np.sqrt(5.0) * got["base"], rel=1e-12)
