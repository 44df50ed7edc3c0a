"""Free evolution of randomized data and its composite ensemble norms."""

import json

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    GridSpec,
    PartitionConfig,
    SpectralField,
    FrequencyView,
    build_partition,
    composite_spec,
    draw,
    free_flow_into,
    high_pass,
    linear_seed,
    parse_config,
    run,
    shaped_profile,
)
from roughnls.grids import derivative_symbol, modulus_lp_norm, raw_spectrum
from roughnls.norms import time_norm


def weighted_free_flow(fhat: SpectralField, t: float) -> SpectralField:
    """e^{it Lap} of a continuum-normalized spectrum, returned in physical representation."""
    out = free_flow_into(fhat.values, fhat.grid, t, np.empty_like(fhat.values))
    return SpectralField(fhat.grid, out, "frequency").as_physical()


def setup_draw(dim=1, points=256, half_width=np.pi, seed=0):
    g = GridSpec(dim, points, half_width)
    part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2, s=-0.1), g)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    f = SpectralField(g, vals, "physical")
    return g, part, f, draw(f, part, seed=seed)


def seed_snapshot(v0_hat, grid, t):
    """v(t) as linear_seed builds it: the free flow of v-hat(0) and one inverse transform."""
    return np.fft.ifftn(free_flow_into(v0_hat, grid, t, np.empty_like(v0_hat)))


def test_high_pass_kills_low_modes():
    g = GridSpec(1, 64, np.pi)
    f = SpectralField(g, np.ones(64, dtype=complex), "physical")  # pure mean mode
    out = high_pass(f, 4.0)
    assert out.as_physical().l2_norm() < 1e-12
    wave = SpectralField(g, np.exp(12j * g.x_axis()), "physical")
    kept = high_pass(wave, 4.0)
    assert kept.l2_norm() == pytest.approx(wave.l2_norm(), rel=1e-12)


def test_high_pass_idempotent():
    g, part, _, rnd = setup_draw()
    once = high_pass(rnd.field, 2.0)
    twice = high_pass(once, 2.0)
    assert np.max(np.abs(twice.as_frequency().values - once.as_frequency().values)) < 1e-12


def test_linear_trajectory_matches_free_flow():
    # The seed's v(t), the free flow of v-hat(0) in numpy's raw coordinates,
    # matches the continuum-weighted free flow and keeps its L2 norm.
    g, part, _, rnd = setup_draw(seed=3)
    times = np.linspace(0.0, 0.5, 6)
    v0_hat = raw_spectrum(high_pass(rnd.spectrum, 2.0))
    v0 = high_pass(rnd.field, 2.0)
    snaps = [seed_snapshot(v0_hat, g, float(t)) for t in times]
    for k in (0, 3, 5):
        expect = weighted_free_flow(v0, float(times[k])).values
        assert np.max(np.abs(snaps[k] - expect)) < 1e-10
    # free flow preserves the L2 norm along the whole trajectory
    norms = [FrequencyView(g, v).norm(2) for v in snaps]
    assert np.ptp(norms) < 1e-10 * norms[0]


def test_composite_spec_names_and_channels():
    for name in ("Y3", "Z3", "Y4", "Z4"):
        spec = composite_spec(name, -0.1, 1.0)
        assert spec.name == name
        assert spec.dim == int(name[-1])
        assert len(spec.components) >= 1
        assert all(label.endswith("[v]") for label in spec.labels())
    for name in ("Q3", "X3", "X4"):
        with pytest.raises(ConfigError):
            composite_spec(name, -0.1, 1.0)


def test_composite_norm_parts_sum_to_total():
    g3 = GridSpec(3, 16, np.pi)
    part3 = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    rng = np.random.Generator(np.random.Philox(key=np.array([6, 6], dtype=np.uint64)))
    f3 = SpectralField(g3, rng.normal(size=g3.shape) + 1j * rng.normal(size=g3.shape), "physical")
    spec = composite_spec("Y3", -0.1, 1.0)
    _, [(total, parts)] = linear_seed(f3, part3, 1, 2.0, np.linspace(0.0, 0.4, 5), [spec])
    assert total == pytest.approx(sum(parts.values()), rel=1e-12)
    assert list(parts.keys()) == spec.labels()
    with pytest.raises(ConfigError):
        linear_seed(f3, part3, 1, 2.0, np.linspace(0.0, 0.4, 5), [composite_spec("Y4", -0.1, 1.0)])


def test_composite_norms_transform_each_snapshot_once(monkeypatch):
    # Y3 and Z3 read one shared view per snapshot, whose spectrum is the
    # seed's own free flow of v-hat(0): once the profile's spectrum
    # exists, a seed makes no forward transform, and per snapshot one inverse
    # transform for its values plus one per distinct derivative symbol outside
    # L^2 (Y3's <grad>^0.39 and Z3's <grad>^1.39 in L^inf; Z3's H^s is a
    # Parseval sum). The L^2 norm of v(t_0) is read off the first view.
    g3 = GridSpec(3, 12, np.pi)
    part3 = build_partition(PartitionConfig(dim=3, a=1, n_max=2, s=-0.1), g3)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    f3 = SpectralField(g3, rng.normal(size=g3.shape) + 1j * rng.normal(size=g3.shape), "physical")
    f3 = f3.as_frequency()
    times = np.linspace(0.0, 0.3, 4)
    specs = [composite_spec("Y3", -0.1, 1.0), composite_spec("Z3", -0.1, 1.0)]
    calls = {"fftn": 0, "ifftn": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    l2, norms = linear_seed(f3, part3, 3, 2.0, times, specs)
    assert calls == {"fftn": 0, "ifftn": times.size * (1 + 2)}
    monkeypatch.undo()
    v0_hat = raw_spectrum(high_pass(draw(f3, part3, 3).spectrum, 2.0))
    assert l2 == FrequencyView(g3, seed_snapshot(v0_hat, g3, 0.0)).norm(2)
    # sharing the views leaves every figure as the spec gives it alone
    assert norms == [linear_seed(f3, part3, 3, 2.0, times, [spec])[1][0] for spec in specs]


@pytest.mark.parametrize("dim,points", [(3, 12), (4, 10)])
def test_linear_seed_matches_physical_round_trip(dim, points):
    # The round trip a seed made before it stayed in frequency space: the
    # draw's physical field, its forward transform, the high-pass, the free
    # flow of the continuum-normalized spectrum, and each spatial norm taken
    # from physical values: D^s as transform, symbol, inverse transform, then
    # a Riemann sum, apart from FrequencyView. Every Y/Z component and L2 agree.
    g = GridSpec(dim, points, np.pi)
    part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2, s=-0.1), g)
    rng = np.random.Generator(np.random.Philox(key=np.array([dim, 13], dtype=np.uint64)))
    f = SpectralField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape), "physical")
    times = np.linspace(0.0, 0.3, 4)
    specs = [composite_spec(f"{family}{dim}", -0.1, 1.0) for family in "YZ"]
    l2, norms = linear_seed(f.as_frequency(), part, 5, 2.0, times, specs)

    v0 = high_pass(draw(f, part, 5).field.as_frequency(), 2.0)
    snaps = [weighted_free_flow(v0, float(t)) for t in times]

    def derivative_norm(v, s, kind, r):
        if kind == "homogeneous" and s == 0:
            return modulus_lp_norm(np.abs(v.values), r, g)
        dv = SpectralField(g, v.as_frequency().values * derivative_symbol(g, s, kind), "frequency")
        return modulus_lp_norm(np.abs(dv.as_physical().values), r, g)

    for spec, (total, parts) in zip(specs, norms):
        want = {}
        for ns, label in zip(spec.components, spec.labels()):
            kind = "homogeneous" if ns.kind == "none" else ns.kind
            series = np.array([derivative_norm(v, ns.s, kind, ns.r) for v in snaps])
            want[label] = time_norm(series, times, ns.q)
        assert parts.keys() == want.keys()
        for label, val in parts.items():
            assert val == pytest.approx(want[label], rel=1e-12, abs=0.0), label
        assert total == pytest.approx(sum(want.values()), rel=1e-12, abs=0.0)
    assert l2 == pytest.approx(
        modulus_lp_norm(np.abs(snaps[0].values), 2, g), rel=1e-12, abs=0.0
    )


def test_linear_trajectory_records_its_spectrum():
    # The seed holds v-hat(0) in numpy's raw coordinates: the forward
    # transform of the high-passed draw. Each snapshot is its free flow, and
    # the seed's L2 is the norm of the snapshot at the first time, which
    # need not be 0.
    g, part, f, rnd = setup_draw(dim=2, points=32, seed=6)
    v0_hat = raw_spectrum(high_pass(rnd.spectrum, 2.0))
    want = np.fft.fftn(high_pass(rnd.field, 2.0).as_physical().values)
    assert np.allclose(v0_hat, want, rtol=0, atol=1e-12 * np.abs(want).max())
    times = np.linspace(0.1, 0.3, 3)
    l2, norms = linear_seed(f, part, 6, 2.0, times, [])
    assert norms == []
    assert l2 == FrequencyView(g, seed_snapshot(v0_hat, g, 0.1)).norm(2)


def linear_stats_config(out_dir, seed, n_samples, workers=1):
    return parse_config({
        "kind": "linear-stats",
        "out_dir": str(out_dir),
        "seed": seed,
        "n_samples": n_samples,
        "workers": workers,
        "grid": {"dim": 3, "points": 12, "half_width": float(np.pi)},
        "partition": {"a": 1, "n_max": 2, "s": -0.1},
        "forcing": {"field_seed": 9, "decay": 1.2, "n0": 2.0, "amplitude": 0.3},
        "times": {"t_final": 0.3, "n_times": 4},
    })


def test_linear_stats_reproducible_across_workers(tmp_path):
    r1 = run(linear_stats_config(tmp_path / "w1", 0, 8, workers=1))
    r2 = run(linear_stats_config(tmp_path / "w2", 0, 8, workers=2))
    assert [r.metrics for r in r1] == [r.metrics for r in r2]
    s1, s2 = (json.loads((tmp_path / w / "summary.json").read_text()) for w in ("w1", "w2"))
    assert s1["metrics"] == s2["metrics"]
    components = [v for r in r1 for k, v in r.metrics.items() if k.startswith("Y:")]
    assert len(components) == 8 * 4 and all(v > 0 for v in components)


def test_harness_and_ensemble_give_identical_norms(tmp_path):
    # The harness runs each seed of its ensemble through linear_seed, so its
    # per-seed Y metrics equal linear_seed's totals and components bit for bit.
    cfg = linear_stats_config(tmp_path, 40, 3)
    recs = run(cfg)
    f = shaped_profile(cfg.grid, 9, 1.2, 0.3)
    part = build_partition(cfg.partition, cfg.grid)
    spec = composite_spec("Y3", -0.1, 1.0)
    assert [r.seed for r in recs] == [40, 41, 42]
    for rec in recs:
        _, [(total, parts)] = linear_seed(f, part, rec.seed, 2.0, cfg.times, [spec])
        assert rec.metrics["Y"] == total
        for label, val in parts.items():
            assert rec.metrics[f"Y:{label}"] == val
