"""Splitting integrator: conservation, residual identities, twins, proxies."""

import csv
import dataclasses
import weakref

import numpy as np
import pytest

from roughnls import (
    BlowupError,
    ConfigError,
    ConservationSeries,
    GridSpec,
    PartitionConfig,
    RepresentationError,
    SolverConfig,
    SpectralField,
    build_partition,
    critical_power,
    draw,
    free_flow_into,
    free_multiplier,
    high_pass,
    increment_residuals,
    parse_config,
    run,
    solve_w,
    twin_run,
)

from roughnls import grids
from roughnls.solver import (
    _abs_sq,
    _guard,
    _kinetic_slab,
    _mass_rate_slab,
    _nonlinear_slab,
    _pairing_slab,
    _potential_slab,
    _rotate,
    _split_checked,
)

from conftest import discard, kept_snapshots, traced_peak
from instruments import almost_conservation_monitor, scattering_proxy


def bump(grid, amp, width, wave=None):
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    r2 = sum(x**2 for x in mesh)
    vals = amp * np.exp(-width * r2).astype(complex)
    if wave is not None:
        phase = sum(k * x for k, x in zip(wave, mesh))
        vals = vals * np.exp(1j * phase)
    return SpectralField(grid, vals, "physical")


def rough_v0(grid, n0=2.0, amp=0.2, seed=3):
    part = build_partition(PartitionConfig(a=1, n_max=2, s=-0.1), grid)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    f = SpectralField(grid, vals, "physical")
    v0 = high_pass(draw(f, part, seed).field, n0).as_physical()
    scale = amp / np.abs(v0.values).max()
    return SpectralField(grid, scale * v0.values, "physical")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_final=0.0)
    cfg = SolverConfig(dt=1e-2, t_final=0.1)
    assert cfg.power is None  # the solve's grid gives it: critical_power(grid.dim)
    assert cfg.provenance()["dt"] == pytest.approx(1e-2)


def test_critical_power_is_four_over_d_minus_two():
    # 0.00 s. The one definition of the energy-critical power: quintic in 3d,
    # cubic in 4d, and no default in any other dimension.
    assert critical_power(3) == 4.0
    assert critical_power(4) == 2.0
    for dim in (1, 2):
        with pytest.raises(ConfigError, match="power"):
            critical_power(dim)


def test_a_solve_without_a_power_takes_the_grids_critical_power():
    # 0.01 s. power None is critical_power(grid.dim), bit for bit, and a 2d
    # solve without a power is refused naming it.
    for dim, points in ((3, 8), (4, 6)):
        g = GridSpec(dim, points, np.pi)
        w0 = bump(g, 0.4, 1.5)
        cfg = SolverConfig(dt=1e-2, t_final=0.04, snapshot_stride=2)
        snaps, series = kept_snapshots(w0, None, cfg)
        ref_snaps, ref = kept_snapshots(w0, None, dataclasses.replace(cfg, power=critical_power(dim)))
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(snaps, ref_snaps))
        assert np.array_equal(series.energy, ref.energy)
    with pytest.raises(ConfigError, match="power"):
        solve_w(bump(GridSpec(2, 8, np.pi), 0.4, 1.5), None, SolverConfig(dt=1e-2, t_final=0.02), discard)


def test_mass_conserved_unforced():
    # Both substeps preserve |u| pointwise / L2 exactly; without the dealias
    # projection (which clips unresolved tails) mass is machine-exact.
    g = GridSpec(3, 16, np.pi)
    u0 = bump(g, 0.4, 1.5, wave=(1, 0, 0))
    cfg = SolverConfig(dt=1e-3, t_final=0.05, snapshot_stride=10, dealias=False)
    series = solve_w(u0, None, cfg, discard)
    drift = np.max(np.abs(series.mass / series.mass[0] - 1.0))
    assert drift < 1e-12


def test_linear_limit_matches_free_flow():
    # mu = 0 turns the stepper into the exact free propagator.
    g = GridSpec(2, 16, np.pi)
    u0 = bump(g, 0.3, 1.0)
    cfg = SolverConfig(dt=1e-2, t_final=0.1, mu=0.0, power=2.0, dealias=False)
    snapshots, _ = kept_snapshots(u0, None, cfg)
    exact = np.fft.ifftn(np.fft.fftn(u0.values) * free_multiplier(g, 0.1))
    got = snapshots[-1][1]
    assert np.max(np.abs(got - exact)) < 1e-10


def test_blowup_guard_raises():
    g = GridSpec(1, 64, np.pi)
    u0 = bump(g, 5.0, 0.5)
    # Focusing sign with large data and a tight guard must trip the guard.
    cfg = SolverConfig(dt=1e-2, t_final=5.0, mu=-1.0, power=4.0, blowup_factor=1.05)
    with pytest.raises(BlowupError):
        solve_w(u0, None, cfg, discard)


def test_forced_residuals_present_and_small():
    g = GridSpec(3, 12, np.pi)
    v0 = rough_v0(g, n0=2.0, amp=0.1)
    w0 = bump(g, 0.2, 1.5)
    cfg = SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=2, series_stride=2)
    series = solve_w(w0, v0, cfg, discard)
    series = increment_residuals(series)
    assert np.isfinite(series.max_rel_mass)
    assert np.isfinite(series.max_rel_energy)
    assert series.max_rel_mass >= 0.0
    rows = series.csv_rows()
    assert len(rows[0]) == len(series.CSV_HEADER)
    assert len(rows) == series.times.size


def test_solve_returns_the_series_complete_and_residuals_fill_it_in_place():
    # solve_w's series has every column, the difference and residual columns
    # NaN; increment_residuals fills those and max_rel_* in the same object
    # and returns it, the boundary samples staying NaN. 0.01 s.
    g = GridSpec(3, 12, np.pi)
    cfg = SolverConfig(dt=1e-3, t_final=4e-3, snapshot_stride=2, series_stride=1)
    series = solve_w(bump(g, 0.2, 1.5), rough_v0(g, n0=2.0, amp=0.1), cfg, discard)
    filled = ("dmass_fd", "res_mass", "denergy_fd", "res_energy")
    for name in ("times", "mass", "energy", "dmass_id", "denergy_id") + filled:
        assert getattr(series, name).shape == (cfg.n_series,), name
    assert all(np.isnan(getattr(series, name)).all() for name in filled)
    assert np.isnan(series.max_rel_mass) and np.isnan(series.max_rel_energy)
    identity = series.dmass_id.copy(), series.denergy_id.copy()
    assert increment_residuals(series) is series
    for name in filled:
        column = getattr(series, name)
        assert np.isnan(column[[0, -1]]).all() and np.isfinite(column[1:-1]).all(), name
    assert np.isfinite(series.max_rel_mass) and np.isfinite(series.max_rel_energy)
    assert np.array_equal(series.dmass_id, identity[0]) and np.array_equal(series.denergy_id, identity[1])


def test_twin_zero_forcing_gives_zero_divergence():
    g = GridSpec(3, 12, np.pi)
    v0 = SpectralField(g, np.zeros(g.shape, dtype=complex), "physical")
    w0 = bump(g, 0.2, 1.5)
    cfg = SolverConfig(dt=2e-3, t_final=0.02)
    rep = twin_run(w0, v0, cfg, amplitudes=(1.0, 0.5))
    assert all(d == 0.0 for d in rep.divergences)


def test_twin_divergence_scales_linearly():
    g = GridSpec(3, 12, np.pi)
    v0 = rough_v0(g, n0=2.0, amp=0.05)
    w0 = bump(g, 0.3, 1.5)
    cfg = SolverConfig(dt=2e-3, t_final=0.1)
    rep = twin_run(w0, v0, cfg, amplitudes=(1.0, 0.5, 0.25))
    assert rep.divergences[0] > rep.divergences[1] > rep.divergences[2] > 0
    assert abs(rep.slope_smallest - 1.0) < 0.5


def test_almost_conservation_preconditions():
    g = GridSpec(3, 12, np.pi)
    v0 = rough_v0(g, n0=2.0, amp=0.1)
    w0 = bump(g, 0.2, 1.5)
    cfg = SolverConfig(dt=2e-3, t_final=0.02)
    series = solve_w(w0, v0, cfg, discard)
    s = -0.1
    n0 = 2.0
    a_big = 10.0 * max(series.mass[0] * n0 ** (2 * s), series.energy[0] / n0 ** (2 * (1 - s)))
    rep = almost_conservation_monitor(v0, series, a_big, n0, s)
    assert rep.ok
    with pytest.raises(ConfigError):
        almost_conservation_monitor(v0, series, a_big * 1e-9, n0, s)


def test_scattering_proxy_zero_for_linear():
    g = GridSpec(3, 12, np.pi)
    u0 = bump(g, 0.2, 1.5)
    cfg = SolverConfig(dt=2e-3, t_final=0.2, mu=0.0, snapshot_stride=10)
    snapshots, _ = kept_snapshots(u0, None, cfg)
    rep = scattering_proxy(g, [t for t, *_ in snapshots], [w_hat for *_, w_hat, _ in snapshots])
    # Linear runs have an exactly constant pullback; only roundoff remains,
    # whose ordering is meaningless, so just the magnitude is checked.
    assert max(rep.deltas) < 1e-12


def test_dealias_flag_changes_solution():
    g = GridSpec(3, 12, np.pi)
    u0 = bump(g, 0.6, 1.0)
    on = SolverConfig(dt=2e-3, t_final=0.05, dealias=True)
    off = SolverConfig(dt=2e-3, t_final=0.05, dealias=False)
    (s1, _), (s2, _) = kept_snapshots(u0, None, on), kept_snapshots(u0, None, off)
    d = np.max(np.abs(s1[-1][1] - s2[-1][1]))
    assert d > 0.0


def test_series_stride_applies_unforced(tmp_path):
    g = GridSpec(3, 8, np.pi)
    u0 = bump(g, 0.4, 1.5)
    cfg = SolverConfig(dt=1e-3, t_final=0.1, snapshot_stride=100, series_stride=10)
    snapshots, series = kept_snapshots(u0, None, cfg)
    assert len(snapshots) == 2
    assert series.times.size == cfg.n_series == 11
    np.testing.assert_allclose(series.times, np.arange(11) * 0.01, rtol=0, atol=1e-15)
    assert np.all(series.dmass_id == 0.0) and np.all(series.denergy_id == 0.0)

    config = parse_config({
        "kind": "evolve",
        "out_dir": str(tmp_path),
        "n_samples": 1,
        "save_fields": False,
        "grid": {"dim": 3, "points": 8, "half_width": float(np.pi)},
        "solver": {"dt": 1e-3, "t_final": 0.1, "snapshot_stride": 100, "series_stride": 10},
        "initial": {"kind": "bump", "amplitude": 0.4, "width": 1.5},
    })
    run(config)
    with open(tmp_path / "run_0000" / "series.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ConservationSeries.CSV_HEADER
    assert len(rows) - 1 == config.solver.n_series == 11


def test_zero_forcing_is_the_full_equation():
    g = GridSpec(3, 12, np.pi)
    u0 = bump(g, 0.6, 1.0, wave=(1, 0, 0))
    cfg = SolverConfig(dt=2e-3, t_final=0.04, snapshot_stride=5)
    zero = SpectralField(g, np.zeros(g.shape, dtype=complex), "physical")
    forced, forced_series = kept_snapshots(u0, zero, cfg)
    full, full_series = kept_snapshots(u0, None, cfg)
    assert len(forced) == len(full) == cfg.n_snapshots
    for (_, _, v, w_hat, v_hat), (_, _, v_full, w_hat_full, v_hat_full) in zip(forced, full):
        assert np.array_equal(w_hat, w_hat_full)
        assert not np.any(v_hat) and not np.any(v)
        assert v_full is None and v_hat_full is None
    assert np.array_equal(forced_series.mass, full_series.mass)
    assert np.array_equal(forced_series.energy, full_series.energy)


@pytest.mark.parametrize("forcing", ["rough", "zero", "none"])
def test_sink_receives_the_stacked_snapshots(forcing):
    # A sink gets every snapshot in time order, t = 0 included: w and v are
    # the inverse transforms of w_hat and v_hat bit for bit, v_hat is the
    # free flow of v_hat(0) = fftn(v0), v and v_hat are None without forcing
    # and zero for zero forcing, and the series does not depend on what the
    # sink does.
    g = GridSpec(3, 12, np.pi)
    w0 = bump(g, 0.4, 1.5, wave=(1, 0, 0))
    v0 = {
        "rough": rough_v0(g, n0=2.0, amp=0.2),
        "zero": SpectralField(g, np.zeros(g.shape, dtype=complex), "physical"),
        "none": None,
    }[forcing]
    cfg = SolverConfig(dt=2e-3, t_final=0.04, snapshot_stride=5, series_stride=2)
    series = solve_w(w0, v0, cfg, discard)
    got, streamed = kept_snapshots(w0, v0, cfg)
    assert [t for t, *_ in got] == [k * cfg.snapshot_stride * cfg.dt for k in range(cfg.n_snapshots)]
    v0_hat = None if v0 is None else np.fft.fftn(v0.values)
    for t, w, v, w_hat, v_hat in got:
        assert np.array_equal(w, np.fft.ifftn(w_hat))
        if v0 is None:
            assert v is None and v_hat is None
        elif forcing == "zero":
            assert not np.any(v_hat) and not np.any(v)
        else:
            assert np.array_equal(v_hat, free_flow_into(v0_hat, g, t, np.empty_like(v0_hat)))
            assert np.array_equal(v, np.fft.ifftn(v_hat))
    for name in ("mass", "energy", "dmass_id", "denergy_id"):
        assert np.array_equal(getattr(streamed, name), getattr(series, name))


def _unfused_reference(w0, v0, cfg):
    """The split step with three transforms, in plain numpy: a separate inverse
    transform of v at the midpoint, the exp(-1j dt mu |u|^p) rotation and
    np.where dealiasing. Returns w and v snapshots and M, E and the identity
    rates at the series samples."""
    g = w0.grid
    xi = g.xi_axis()
    xi2 = sum(c**2 for c in np.meshgrid(*([xi] * g.dim), indexing="ij", sparse=True))
    ax = np.exp(1j * g.half_width * xi)
    phase = ax
    for _ in range(g.dim - 1):
        phase = np.multiply.outer(phase, ax)
    dvol = g.cell_volume
    spec_weight = g.dxi**g.dim / (2 * np.pi) ** g.dim

    def fwd(x):
        return np.fft.fftn(x) * (dvol * phase)

    def inv(x):
        return np.fft.ifftn(x / (dvol * phase))

    keep = np.abs(np.fft.fftfreq(g.points) * g.points) < g.points / 3.0
    mask = keep
    for _ in range(g.dim - 1):
        mask = np.logical_and.outer(mask, keep)
    k_half = np.exp(-0.5j * cfg.dt * xi2)
    mu, p = cfg.mu, critical_power(g.dim) if cfg.power is None else cfg.power
    v0hat = fwd(v0.values) if v0 is not None else np.zeros(g.shape, dtype=complex)

    def v_at(t):
        return inv(v0hat * np.exp(-1j * t * xi2))

    ws, vs, rows = [], [], []

    def sample(t, what, w):
        v = v_at(t)
        u = w + v
        kin = 0.5 * np.sum(xi2 * np.abs(what) ** 2) * spec_weight
        energy = kin + mu / (p + 2) * np.sum(np.abs(u) ** (p + 2)) * dvol
        nl_u, nl_w = np.abs(u) ** p * u, np.abs(w) ** p * w
        dm = 2 * mu * np.sum((np.conj(w) * (nl_u - nl_w)).imag) * dvol
        lap_v = inv(-xi2 * v0hat * np.exp(-1j * t * xi2))
        de = mu * np.sum((nl_u * np.conj(lap_v)).imag) * dvol
        rows.append((np.sum(np.abs(w) ** 2) * dvol, energy, dm, de))

    what = fwd(w0.values)
    ws.append(w0.values)
    vs.append(v_at(0.0))
    sample(0.0, what, w0.values)
    for step in range(cfg.n_steps):
        t_mid = (step + 0.5) * cfg.dt
        w = inv(what * k_half)
        v_mid = v_at(t_mid)
        u = w + v_mid
        u = u * np.exp(-1j * cfg.dt * mu * np.abs(u) ** p)
        what = np.where(mask, fwd(u - v_mid), 0.0) * k_half
        done = step + 1
        w = inv(what)
        if done % cfg.snapshot_stride == 0:
            ws.append(w)
            vs.append(v_at(done * cfg.dt))
        if done % cfg.series_stride == 0:
            sample(done * cfg.dt, what, w)
    return np.array(ws), np.array(vs), np.array(rows).T


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("dim,points,half_width", [(3, 16, np.pi), (4, 8, np.pi / 2)])
@pytest.mark.parametrize("forced", [True, False])
def test_fused_step_matches_unfused_reference(dim, points, half_width, forced):
    # The fused step transforms K_half w_hat + v_hat(t_mid) once instead of w
    # and v separately, and rotates by cos/sin of a real angle; the arithmetic
    # is the same up to rounding, so 20 steps must agree to 1e-12 relative.
    g = GridSpec(dim, points, half_width)
    w0 = bump(g, 0.5, 1.0, wave=(1,) + (0,) * (dim - 1))
    v0 = rough_v0(g, n0=2.0, amp=0.3) if forced else None
    cfg = SolverConfig(dt=2e-3, t_final=0.04, snapshot_stride=5, series_stride=2)
    snapshots, series = kept_snapshots(w0, v0, cfg)
    ws, vs, (mass, energy, dm, de) = _unfused_reference(w0, v0, cfg)
    assert _rel(np.stack([w for _, w, *_ in snapshots]), ws) < 1e-12
    assert _rel(series.mass, mass) < 1e-12
    assert _rel(series.energy, energy) < 1e-12
    if forced:
        assert _rel(np.stack([v for _, _, v, *_ in snapshots]), vs) < 1e-12
        assert _rel(series.dmass_id, dm) < 1e-12
        assert _rel(series.denergy_id, de) < 1e-12
    else:
        assert all(v is None for _, _, v, *_ in snapshots)
        assert not np.any(series.dmass_id) and not np.any(series.denergy_id)


@pytest.mark.parametrize("n_steps", [4, 8])
def test_forced_step_makes_two_transforms(monkeypatch, n_steps):
    g = GridSpec(3, 8, np.pi / 2)
    v0 = rough_v0(g, n0=2.0, amp=0.2)
    w0 = bump(g, 0.3, 1.5)
    cfg = SolverConfig(dt=1e-3, t_final=n_steps * 1e-3, snapshot_stride=n_steps, series_stride=n_steps)
    calls = []  # every np.fft.fftn / ifftn call made inside solve_w
    for name in ("fftn", "ifftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    solve_w(w0, v0, cfg, discard)
    # 2 per step; the forward transforms of w0 and v0 (2); the reports at
    # t = 0 and at the end each make w and v for the snapshot and Lap v for
    # the sample (3 each), u being v + w
    assert len(calls) == 2 * n_steps + 8
    assert calls.count("fftn") == n_steps + 2


def _noise(shape, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("points", [64, 65])
def test_split_kernels_are_the_serial_bits(points, monkeypatch):
    # 0.1 s in all. |u|^2 and the rotation in two slabs (uneven at 65^3) against one call.
    shape = (points,) * 3
    u = _noise(shape, points)
    got = {}
    for cpus in (1, 2):
        monkeypatch.setattr(grids, "_CPUS", cpus)
        assert grids._slab_count(shape, 0) == cpus
        abs_sq, scratch = np.empty(shape), np.empty(shape)
        _abs_sq(u, abs_sq, scratch)
        rotated = u.copy()
        _rotate(rotated, abs_sq.copy(), np.empty_like(u), 1e-3, 4.0)
        got[cpus] = (abs_sq, rotated)
    for serial, split in zip(got[1], got[2]):
        assert np.array_equal(serial, split)


def test_split_solve_is_the_serial_solve(monkeypatch):
    # 0.6 s. A forced 64^3 solve, every step a snapshot and a series sample,
    # with the slab pool on and off: its sink gets the same arrays and it
    # returns the same series, bit for bit.
    g = GridSpec(3, 64, np.pi)
    w0 = bump(g, 0.4, 1.5, wave=(1, 0, 0))
    v0 = SpectralField(g, 0.2 * _noise(g.shape, 3), "physical")
    cfg = SolverConfig(dt=1e-3, t_final=3e-3, snapshot_stride=1, series_stride=1)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(grids, "_CPUS", cpus)
        runs[cpus] = kept_snapshots(w0, v0, cfg)
    (snaps1, series1), (snaps2, series2) = runs[1], runs[2]
    assert len(snaps1) == len(snaps2) == cfg.n_snapshots
    for a, b in zip(snaps1, snaps2):
        assert a[0] == b[0]
        for x, y in zip(a[1:], b[1:]):
            assert np.array_equal(x, y)
    for name in ("times", "mass", "energy", "dmass_id", "denergy_id"):
        assert np.array_equal(getattr(series1, name), getattr(series2, name))


@pytest.mark.parametrize("forced", [True, False])
def test_kept_mode_solve_is_the_full_solve(forced, monkeypatch):
    # 1.0 s in all. A 64^3 solve whose steps 1, 2, 4 and 5 (forced; unforced,
    # every step) finish only the kept modes in their forward transforms:
    # with the kept path and the slab pool on and off (SPLIT_POINTS above the
    # lattice turns off both), its sink gets equal arrays and it returns the
    # same series, bit for bit. A handed w_hat may differ only in the sign
    # of a masked zero.
    g = GridSpec(3, 64, np.pi)
    w0 = bump(g, 0.4, 1.5, wave=(1, 0, 0))
    v0 = SpectralField(g, 0.2 * _noise(g.shape, 4), "physical") if forced else None
    cfg = SolverConfig(dt=1e-3, t_final=6e-3, snapshot_stride=3, series_stride=2)
    runs = []
    for split, cpus in ((grids.SPLIT_POINTS, 2), (grids.SPLIT_POINTS, 1), (2 * g.n_points, 1)):
        monkeypatch.setattr(grids, "SPLIT_POINTS", split)
        monkeypatch.setattr(grids, "_CPUS", cpus)
        runs.append(kept_snapshots(w0, v0, cfg))
    ref_snaps, ref_series = runs[-1]
    assert len(ref_snaps) == cfg.n_snapshots == 3
    for snaps, series in runs[:-1]:
        for a, b in zip(snaps, ref_snaps):
            assert a[0] == b[0]
            for x, y in zip(a[1:], b[1:]):
                assert np.array_equal(x, y)
        for name in ("times", "mass", "energy", "dmass_id", "denergy_id"):
            assert np.array_equal(getattr(series, name), getattr(ref_series, name)), name


def _serial_series_passes(what, xi2, vhat, u, w, half_power):
    """A series sample's lattice passes as one numpy call each, in the order of
    the unfused sample; returns what each fused pass leaves in its arrays."""
    vhat, u = vhat.copy(), u.copy()
    abs_sq, scratch = np.empty(what.shape), np.empty(what.shape)
    kin = _abs_sq(what, abs_sq, scratch)
    kin *= xi2
    kin = kin.copy()
    u += w
    mod_sq = _abs_sq(u, abs_sq, scratch)
    u_pow = np.power(mod_sq, half_power, out=scratch)
    u *= u_pow
    mod_sq *= u_pow
    pot = mod_sq.copy()
    vhat *= xi2
    lap = vhat.copy()
    np.conjugate(vhat, out=vhat)
    vhat *= u
    pairing = vhat.copy()
    mod_sq = _abs_sq(w, abs_sq, scratch).copy()
    np.power(abs_sq, half_power, out=abs_sq)
    np.multiply(w, abs_sq, out=vhat)
    np.subtract(u, vhat, out=vhat)
    np.conjugate(vhat, out=vhat)
    vhat *= w
    w_pot = np.power(mod_sq, half_power)
    w_pot *= mod_sq
    return kin, lap, u, pot, pairing, mod_sq, vhat, abs_sq, w_pot


@pytest.mark.parametrize("points", [64, 65])
def test_fused_series_passes_are_the_serial_bits(points, monkeypatch):
    # 0.2 s in all. The series sample's fused passes, in two slabs (uneven at
    # 65^3), against one numpy call per operation.
    shape = (points,) * 3
    what, vhat, u, w = (_noise(shape, seed) for seed in (11, 12, 13, 14))
    xi2 = np.abs(_noise(shape, 15))
    half_power = 2.0
    want = _serial_series_passes(what, xi2, vhat, u, w, half_power)
    monkeypatch.setattr(grids, "_CPUS", 2)
    assert grids._slab_count(shape, 0) == 2
    vhat, u = vhat.copy(), u.copy()
    kin, scratch = np.empty(shape), np.empty(shape)
    grids.on_slabs(_kinetic_slab, what, xi2, kin, scratch, vhat)
    lap = vhat.copy()
    mod_sq = np.empty(shape)
    grids.on_slabs(lambda *a: _nonlinear_slab(half_power, *a), u, w, mod_sq, scratch)
    pot = mod_sq.copy()
    grids.on_slabs(_pairing_slab, vhat, u, w, mod_sq, scratch)
    pairing, w_sq = vhat.copy(), mod_sq.copy()
    grids.on_slabs(lambda *a: _mass_rate_slab(half_power, *a), vhat, u, w, mod_sq)
    # the unforced sample's pass: |w|^2 and |w|^{p+2}
    unforced_sq, w_pot = np.empty(shape), np.empty(shape)
    grids.on_slabs(lambda *a: _potential_slab(half_power, *a), w, unforced_sq, w_pot)
    assert np.array_equal(unforced_sq, w_sq)
    got = (kin, lap, u, pot, pairing, w_sq, vhat, mod_sq, w_pot)
    names = ("kin", "lap", "nl_u", "pot", "pairing", "w_sq", "mass_rate", "w_pow", "w_pot")
    for name, x, y in zip(names, got, want):
        assert np.array_equal(x, y), name


def test_split_check_and_guard_read_every_slab(monkeypatch):
    # 0.03 s. In two slabs, the checked subtraction writes np.subtract's bits,
    # its maxima see a drift or a NaN in the second slab, and the guard's see
    # the largest value and a NaN in either slab.
    monkeypatch.setattr(grids, "_CPUS", 2)
    shape = (64,) * 3
    uhat, vhat = _noise(shape, 21), _noise(shape, 22)
    out, check, modulus = np.empty_like(uhat), np.empty_like(uhat), np.empty(shape)
    _split_checked(uhat, vhat, out, check, modulus)
    assert np.array_equal(out, uhat - vhat)
    for value in (1e20, np.nan):  # (u - v) + v loses u there, or is NaN
        vhat[40, 3, 5] = value
        with pytest.raises(RepresentationError):
            _split_checked(uhat, vhat, out, check, modulus)
    abs_sq = np.ones(shape)
    _guard(abs_sq, 1.0, 0.0)
    for where, value in (((63, 0, 0), 1.5), ((0, 0, 0), 1.5), ((50, 1, 2), np.nan), ((3, 1, 2), np.inf)):
        spiked = abs_sq.copy()
        spiked[where] = value
        with pytest.raises(BlowupError):
            _guard(spiked, 1.0, 0.0)


@pytest.mark.parametrize("channel", ["w0", "v0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_initial_channel_is_refused(channel, value):
    # 0.01 s. Unrefused, a NaN would run to an all-NaN series with no error:
    # the guard's threshold would be NaN, and no comparison with NaN is true.
    g = GridSpec(3, 8, np.pi / 2)
    fields = {"w0": bump(g, 0.3, 1.5), "v0": rough_v0(g, n0=2.0, amp=0.2)}
    values = fields[channel].values.copy()
    values[1, 2, 3] = value
    fields[channel] = SpectralField(g, values, "physical")
    cfg = SolverConfig(dt=1e-3, t_final=2e-3)
    with pytest.raises(ConfigError, match=channel):
        solve_w(fields["w0"], fields["v0"], cfg, discard)
    if channel == "w0":
        with pytest.raises(ConfigError, match=channel):
            solve_w(fields["w0"], None, cfg, discard)


def test_solve_frees_its_inputs_before_the_first_snapshot():
    # Passed straight into the call, w(0) and v(0) are referenced only by the
    # solve, which drops them once it has their spectra and the guard
    # threshold: no snapshot, t = 0 included, finds them alive.
    g = GridSpec(3, 8, np.pi / 2)
    cfg = SolverConfig(dt=1e-3, t_final=4e-3, snapshot_stride=2, series_stride=1)
    refs = []

    def tracked(field):
        refs.extend((weakref.ref(field), weakref.ref(field.values)))
        return field

    alive = []
    solve_w(
        tracked(bump(g, 0.3, 1.5)),
        tracked(rough_v0(g, n0=2.0, amp=0.2)),
        cfg,
        lambda t, w, v, w_hat, v_hat: alive.append(sum(r() is not None for r in refs)),
    )
    assert alive == [0] * cfg.n_snapshots


def test_forced_solve_stays_within_the_guard_workspace():
    # 0.15 s. The memory guard charges a task that runs solve_w _SOLVER_FIELDS
    # complex lattice fields above the snapshots it keeps; a forced solve on
    # a fresh grid (its multipliers and weights cached inside the
    # measurement) into a sink that keeps nothing fits in it. Built inside
    # the traced call and passed straight in, as the harness passes them, the
    # inputs are dropped before the solve allocates its other work arrays,
    # so the solve then peaks near its 7.6-field workspace.
    from roughnls.harness import _SOLVER_FIELDS

    cfg = SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=10, series_stride=5)

    def forcing(grid):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 9], dtype=np.uint64)))
        return SpectralField(grid, 0.1 * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)))

    warm = GridSpec(3, 8, np.pi)
    solve_w(bump(warm, 0.3, 1.5), forcing(warm), cfg, discard)  # first-call imports are not lattice memory
    grid = GridSpec(3, 16, 2.25)  # a grid no other test warms
    w0, v0 = bump(grid, 0.3, 1.5), forcing(grid)
    field = 16 * grid.n_points
    _, peak, _ = traced_peak(lambda: solve_w(w0, v0, cfg, discard))
    assert peak <= _SOLVER_FIELDS * field, peak / field

    grid = GridSpec(3, 32, 2.75)  # a grid no other test warms
    field = 16 * grid.n_points
    _, peak, _ = traced_peak(lambda: solve_w(bump(grid, 0.3, 1.5), forcing(grid), cfg, discard))
    assert peak <= 9 * field, peak / field


def test_series_does_not_depend_on_the_snapshot_stride():
    # 0.04 s. Every reported time goes through one block, so a series sample
    # is made the same way whether or not its step is also a snapshot.
    g = GridSpec(3, 12, np.pi)
    w0 = bump(g, 0.4, 1.5, wave=(1, 0, 0))
    v0 = rough_v0(g, n0=2.0, amp=0.2)
    runs = [
        solve_w(w0, v0, SolverConfig(dt=2e-3, t_final=0.04, snapshot_stride=stride, series_stride=1), discard)
        for stride in (1, 4)
    ]
    for name in ("mass", "energy", "dmass_id", "denergy_id"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


def test_a_forced_solve_reads_every_solver_setting(monkeypatch):
    # 0.01 s. Every setting of SolverConfig must take effect: a forced solve
    # reads each of its fields.
    g = GridSpec(3, 8, np.pi / 2)
    w0, v0 = bump(g, 0.3, 1.5), rough_v0(g, n0=2.0, amp=0.2)
    cfg = SolverConfig(dt=1e-3, t_final=4e-3, snapshot_stride=2, series_stride=1)
    read = set()
    get = object.__getattribute__

    def recording(self, name):
        read.add(name)
        return get(self, name)

    monkeypatch.setattr(SolverConfig, "__getattribute__", recording)
    solve_w(w0, v0, cfg, discard)
    monkeypatch.undo()
    unread = {f.name for f in dataclasses.fields(SolverConfig)} - read
    assert not unread, f"SolverConfig settings a forced solve never reads: {sorted(unread)}"


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dt", [1e-2, 1e-3])
def test_plane_wave_is_solved_to_rounding(dt, dealias):
    # 0.25 s in all. A e^{i(k.x - (|k|^2 + mu |A|^4) t)} solves the quintic
    # equation, and both Strang substeps map a plane wave to a plane wave
    # exactly, so the only error is rounding: measured 4.9e-15 at dt 1e-2 and
    # 3.5e-14 at dt 1e-3, mask on or off; the bound leaves a margin of about 30x.
    g = GridSpec(3, 16, np.pi)
    amp, k = 0.4, (2, -1, 1)
    u0 = bump(g, amp, 0.0, wave=k)  # width 0: a pure plane wave
    t_final = 0.5
    cfg = SolverConfig(dt=dt, t_final=t_final, snapshot_stride=round(t_final / dt), dealias=dealias)
    snapshots, _ = kept_snapshots(u0, None, cfg)
    t, u = snapshots[-1][:2]
    omega = sum(kj * kj for kj in k) + cfg.mu * amp**4
    exact = u0.values * np.exp(-1j * omega * t)
    assert t == t_final
    assert np.max(np.abs(u - exact)) < 1e-12


def test_forced_solve_is_the_full_solve_unmasked():
    # 0.11 s. v(t_mid) is the exact free flow of v(t_n), so one forced step
    # maps u = w + v exactly as one full step maps it: unmasked, w(T) + v(T)
    # equals the full solve of w0 + v0 to rounding (measured 1.2e-14
    # relative, 100 steps at 16^3). With the mask on they differ (93%): the
    # full solve projects v's masked modes away.
    g = GridSpec(3, 16, np.pi)
    w0, v0 = bump(g, 0.4, 1.5, wave=(1, 0, 0)), rough_v0(g, n0=2.0, amp=0.3)
    u0 = SpectralField(g, w0.values + v0.values, "physical")
    gaps = []
    for dealias in (False, True):
        cfg = SolverConfig(dt=2e-3, t_final=0.2, snapshot_stride=100, dealias=dealias)
        forced, _ = kept_snapshots(w0, v0, cfg)
        full, _ = kept_snapshots(u0, None, cfg)
        (t, w, v, *_), u = forced[-1], full[-1][1]
        assert t == full[-1][0] == 0.2
        gaps.append(np.max(np.abs(w + v - u)) / np.max(np.abs(u)))
    assert gaps[0] < 1e-12
    assert gaps[1] > 0.1


def test_forced_solve_is_reversed_by_its_conjugate():
    # 0.06 s. Strang splitting is symmetric: the forced solve from conj(w(T))
    # and conj(v(T)) over the same time returns conj(w0), unmasked, to
    # rounding (measured 1.4e-14 relative, 100 steps at 16^3), and its free
    # flow returns conj(v0).
    g = GridSpec(3, 16, np.pi)
    w0, v0 = bump(g, 0.4, 1.5, wave=(1, 0, 0)), rough_v0(g, n0=2.0, amp=0.3)
    cfg = SolverConfig(dt=2e-3, t_final=0.2, snapshot_stride=100, dealias=False)
    _, w, v, *_ = kept_snapshots(w0, v0, cfg)[0][-1]
    conj = lambda a: SpectralField(g, np.conj(a), "physical")
    _, w_back, v_back, *_ = kept_snapshots(conj(w), conj(v), cfg)[0][-1]
    assert np.max(np.abs(w_back - np.conj(w0.values))) < 1e-12 * np.max(np.abs(w0.values))
    assert np.max(np.abs(v_back - np.conj(v0.values))) < 1e-12 * np.max(np.abs(v0.values))


@pytest.mark.parametrize("initial, forced", [("bump", True), ("zero", True), ("zero", False)])
def test_evolve_ratios_are_the_monitors(tmp_path, initial, forced):
    # 0.05 s in all. One sup-ratio convention: an evolve record's ratio_mass and ratio_energy
    # equal almost_conservation_monitor's for the same series bit for bit, and
    # read 1.0 where M(0) or E(0) is 0: a zero w(0) has M(0) = 0, and with no
    # forcing E(0) = 0 too.
    payload = {
        "kind": "evolve",
        "out_dir": str(tmp_path),
        "n_samples": 1,
        "save_fields": False,
        "grid": {"dim": 3, "points": 12, "half_width": float(np.pi)},
        "solver": {"dt": 0.02, "t_final": 0.1},
        "initial": {"kind": "bump", "amplitude": 0.3, "width": 1.5} if initial == "bump" else {"kind": "zero"},
    }
    if forced:
        payload["partition"] = {"a": 1, "n_max": 2, "s": -0.1}
        payload["forcing"] = {"field_seed": 11, "decay": 2.0, "n0": 2.0, "amplitude": 0.2}
    (rec,) = run(parse_config(payload))
    with open(tmp_path / rec.artifacts[0]) as fh:
        cols = list(zip(*list(csv.reader(fh))[1:]))
    times, mass, energy, dmass_id, denergy_id = (np.array(cols[k], dtype=float) for k in (0, 1, 2, 4, 7))
    series = ConservationSeries(times, mass, energy, dmass_id, denergy_id)
    rep = almost_conservation_monitor(None, series, 1e6, 1.0, 0.0)
    assert (rep.ratio_mass, rep.ratio_energy) == (rec.metrics["ratio_mass"], rec.metrics["ratio_energy"])
    if initial == "zero":
        assert mass[0] == 0.0 and rep.ratio_mass == 1.0
        assert (energy[0] == 0.0) == (not forced)
        if not forced:
            assert rep.ratio_energy == 1.0
    else:
        assert mass[0] > 0.0 and energy[0] > 0.0
