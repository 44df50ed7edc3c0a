"""Free evolution of randomized data and its composite ensemble norms."""

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    GridSpec,
    PartitionConfig,
    SpectralField,
    build_partition,
    composite_norm,
    composite_spec,
    draw,
    ensemble_linear_stats,
    free_propagate,
    high_pass,
    linear_seed,
    linear_trajectory,
)


def setup_draw(dim=1, points=256, half_width=np.pi, seed=0):
    g = GridSpec(dim, points, half_width)
    part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2, s=-0.1), g)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    f = SpectralField(g, vals, "physical")
    return g, part, draw(f, part, seed=seed)


def test_high_pass_kills_low_modes():
    g = GridSpec(1, 64, np.pi)
    f = SpectralField(g, np.ones(64, dtype=complex), "physical")  # pure mean mode
    out = high_pass(f, 4.0)
    assert out.as_physical().l2_norm() < 1e-12
    wave = SpectralField(g, np.exp(12j * g.x_axis()), "physical")
    kept = high_pass(wave, 4.0)
    assert kept.l2_norm() == pytest.approx(wave.l2_norm(), rel=1e-12)


def test_high_pass_idempotent():
    g, part, rnd = setup_draw()
    once = high_pass(rnd.field, 2.0)
    twice = high_pass(once, 2.0)
    assert np.max(np.abs(twice.as_frequency().values - once.as_frequency().values)) < 1e-12


def test_linear_trajectory_matches_free_flow():
    g, part, rnd = setup_draw(seed=3)
    times = np.linspace(0.0, 0.5, 6)
    traj = linear_trajectory(rnd, 2.0, times)
    v0 = high_pass(rnd.field, 2.0)
    for k in (0, 3, 5):
        expect = free_propagate(v0, float(times[k])).as_physical().values
        got = traj.snapshot("v", k).values
        assert np.max(np.abs(got - expect)) < 1e-10
    # free flow preserves the L2 norm along the whole trajectory
    norms = [traj.snapshot("v", k).l2_norm() for k in range(6)]
    assert np.ptp(norms) < 1e-10 * norms[0]


def test_composite_spec_names_and_channels():
    for name in ("Y3", "Z3", "X3", "Y4", "Z4"):
        spec = composite_spec(name, -0.1, 1.0)
        assert spec.name == name
        assert spec.dim == int(name[-1])
        assert len(spec.components) >= 1
    with pytest.raises(ConfigError):
        composite_spec("Q3", -0.1, 1.0)


def test_composite_norm_parts_sum_to_total():
    g, part, rnd = setup_draw(dim=1, seed=4)
    times = np.linspace(0.0, 0.4, 5)
    traj = linear_trajectory(rnd, 2.0, times)
    # 1D has no named composite; use a 3D-shaped grid only for dims with
    # defined families. Build a tiny 3D case instead.
    g3 = GridSpec(3, 16, np.pi)
    part3 = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    rng = np.random.Generator(np.random.Philox(key=np.array([6, 6], dtype=np.uint64)))
    f3 = SpectralField(g3, rng.normal(size=g3.shape) + 1j * rng.normal(size=g3.shape), "physical")
    rnd3 = draw(f3, part3, seed=1)
    traj3 = linear_trajectory(rnd3, 2.0, times)
    spec = composite_spec("Y3", -0.1, 1.0)
    total, parts = composite_norm(traj3, spec)
    assert total == pytest.approx(sum(parts.values()), rel=1e-12)
    assert set(parts.keys()) == set(spec.labels())


def test_composite_norms_transform_each_snapshot_once(monkeypatch):
    # Y3 and Z3 read one shared view per snapshot: their six components make
    # one forward transform of each v snapshot between them.
    g3 = GridSpec(3, 12, np.pi)
    part3 = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    f3 = SpectralField(g3, rng.normal(size=g3.shape) + 1j * rng.normal(size=g3.shape), "physical")
    times = np.linspace(0.0, 0.3, 4)
    specs = [composite_spec("Y3", -0.1, 1.0), composite_spec("Z3", -0.1, 1.0)]
    calls = {"n": 0}
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls["n"] += 1
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    linear_seed(f3, part3, 3, 2.0, times, [])  # the draw and the trajectory alone
    without_norms = calls["n"]
    traj, norms = linear_seed(f3, part3, 3, 2.0, times, specs)
    assert calls["n"] - 2 * without_norms == traj.n_snapshots
    # sharing the views leaves every figure as composite_norm gives it alone
    assert norms == [composite_norm(traj, spec) for spec in specs]


def test_ensemble_linear_stats_reproducible():
    g3 = GridSpec(3, 12, np.pi)
    part3 = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 8], dtype=np.uint64)))
    f3 = SpectralField(g3, rng.normal(size=g3.shape) + 1j * rng.normal(size=g3.shape), "physical")
    times = np.linspace(0.0, 0.3, 4)
    spec = composite_spec("Y3", -0.1, 1.0)
    s1 = ensemble_linear_stats(f3, part3, 2.0, times, 8, spec, seed0=0)
    s2 = ensemble_linear_stats(f3, part3, 2.0, times, 8, spec, seed0=0, workers=2)
    assert np.array_equal(s1.totals, s2.totals)
    assert s1.tail is None  # 8 samples cannot support a tail fit
    assert s1.moment_ratios is None
    assert s1.reference_norm > 0.0
    assert all(np.all(arr > 0) for arr in s1.components.values())


def test_harness_and_ensemble_give_identical_norms(tmp_path):
    # Both entry points run each seed through linear_seed, so the harness's
    # per-seed Y metrics equal the ensemble's totals and components bit for bit.
    from roughnls.harness import parse_config, run, shaped_profile

    cfg = parse_config({
        "kind": "linear-stats",
        "out_dir": str(tmp_path),
        "seed": 40,
        "n_samples": 3,
        "grid": {"dim": 3, "points": 12, "half_width": float(np.pi)},
        "partition": {"a": 1, "n_max": 2, "s": -0.1},
        "forcing": {"field_seed": 9, "decay": 1.2, "n0": 2.0, "amplitude": 0.3},
        "times": {"t_final": 0.3, "n_times": 4},
    })
    recs = run(cfg, workers=1)
    f = shaped_profile(cfg.grid, 9, 1.2, 0.3)
    part = build_partition(cfg.partition, cfg.grid)
    spec = composite_spec("Y3", -0.1, 1.0)
    stats = ensemble_linear_stats(f, part, 2.0, cfg.times, 3, spec, seed0=40, workers=2)
    assert [r.seed for r in recs] == list(stats.seeds)
    for i, rec in enumerate(recs):
        assert rec.metrics["Y"] == stats.totals[i]
        for label, arr in stats.components.items():
            assert rec.metrics[f"Y:{label}"] == arr[i]
