"""Space-time norms through one NormPass: labels and closed forms."""

import numpy as np
import pytest

from roughnls import (
    GridSpec,
    MorawetzAccumulator,
    NormPass,
    NormSpec,
    PartitionConfig,
    build_partition,
    composite_spec,
    linear_seed,
    shaped_profile,
)

from conftest import traced_peak


def pass_norms(grid, snapshots, times, specs):
    """Feed each snapshot's values to a NormPass; returns its folded norms."""
    norm_pass = NormPass(grid, specs)
    for values in snapshots:
        norm_pass.take(norm_pass.view(values, None))
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


def test_take_returns_the_figures_it_appends():
    # take() returns each spec's spatial norm of the snapshot, the same
    # numbers its series keep: sup |u| over time is the largest returned.
    g = GridSpec(1, 8, 1.0)
    norm_pass = NormPass(g, {"sup": NormSpec(np.inf, np.inf), "l2": NormSpec(np.inf, 2.0)})
    taken = [norm_pass.take(norm_pass.view(np.full(8, 2.0 + t, dtype=complex), None)) for t in (0.0, 1.0)]
    assert [f["sup"] for f in taken] == [2.0, 3.0]
    assert taken[1]["l2"] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)
    assert norm_pass.norms(np.array([0.0, 1.0])) == {"sup": 3.0, "l2": taken[1]["l2"]}


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


def test_views_keep_no_derivative_past_its_norm():
    # A view frees each D^s f once its norm is read, so a warm 4D add() and
    # a linear seed hold one derivative at a time, not every one their
    # snapshot's view made. In complex lattice fields: a 16^4 add() peaks
    # 2.63 without M(t) and 5.25 with it (3.08 and 6.25 when the view kept
    # its derivatives), and a 16^3 linear seed of Y3 and Z3 7.58 (8.59).
    # About 0.1 s.
    field = lambda g: 16 * g.n_points
    g4 = GridSpec(4, 16, np.pi)
    rng = np.random.default_rng(3)
    w, v = (rng.normal(size=g4.shape) + 1j * rng.normal(size=g4.shape) for _ in range(2))
    snap = (w, v, np.fft.fftn(w), np.fft.fftn(v))
    for interaction, bound in ((False, 2.85), (True, 5.75)):
        audit = MorawetzAccumulator(g4, interaction=interaction)
        audit.add(0.0, *snap)  # warm the symbols and kernel tables
        _, peak, _ = traced_peak(lambda: audit.add(0.1, *snap))
        assert peak < bound * field(g4), (interaction, peak / field(g4))

    g3 = GridSpec(3, 16, np.pi)
    part = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    f = shaped_profile(g3, 11, 2.0, 0.3)
    specs = [composite_spec(name, -0.1, 1.0) for name in ("Y3", "Z3")]
    times = np.linspace(0.0, 0.3, 4)
    linear_seed(f, part, 1, 4.0, times, specs)  # warm the symbols
    _, peak, _ = traced_peak(lambda: linear_seed(f, part, 2, 4.0, times, specs))
    assert peak < 8.1 * field(g3), peak / field(g3)
