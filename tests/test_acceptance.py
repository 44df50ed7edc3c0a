"""Acceptance gate: one test per quantitative criterion, pinned configurations.

Each test prints a single summary line with the measured quantities next to
its threshold. Shared expensive objects (the 32^3 cube partition) are
session-scoped fixtures.
"""

import json

import numpy as np
import pytest

from roughnls import (
    FrequencyView,
    GridSpec,
    PartitionConfig,
    SolverConfig,
    SpectralField,
    build_partition,
    c_star_spread,
    composite_spec,
    draw,
    expected_count,
    free_flow_into,
    high_pass,
    increment_residuals,
    interaction_functional,
    linear_seed,
    parse_config,
    run,
    solve_w,
    tail_fit,
    twin_run,
)

from conftest import discard
from instruments import (
    _pair_direct,
    almost_conservation_monitor,
    bernstein_exponent,
    gradient,
    identity_mor_mainterm,
    scattering_proxy,
)


def bump(grid, amp, width, wave=None):
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    vals = amp * np.exp(-width * sum(x**2 for x in mesh)).astype(complex)
    if wave is not None:
        vals = vals * np.exp(1j * sum(k * x for k, x in zip(wave, mesh)))
    return SpectralField(grid, vals, "physical")


def shaped_noise(grid, key, decay):
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    ax = grid.xi_axis()
    xi2 = sum(m**2 for m in np.meshgrid(*([ax] * grid.dim), indexing="ij", sparse=True))
    return SpectralField(grid, noise * (1.0 + xi2) ** (-decay), "frequency").as_physical()


def normalized_high_pass(field, n0, amp):
    hp = high_pass(field, n0).as_physical()
    scale = amp / np.abs(hp.values).max()
    return SpectralField(field.grid, scale * hp.values, "physical")


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(3, 32, np.pi)


@pytest.fixture(scope="session")
def part32(grid32):
    return build_partition(PartitionConfig(a=1, n_max=4, s=-0.1), grid32)


def test_c01_cube_counts_exact():
    cases = [
        (1, 1, 2, GridSpec(1, 128, np.pi)),
        (2, 1, 2, GridSpec(2, 64, np.pi)),
        (3, 1, 1, GridSpec(3, 16, np.pi)),
        (1, 2, 2, GridSpec(1, 128, np.pi)),
    ]
    checked = []
    for d, a, n_max, grid in cases:
        part = build_partition(PartitionConfig(a=a, n_max=n_max), grid)
        for shell in part.config.shells:
            want = expected_count(d, a, shell)
            assert want == (2**d - 1) * shell ** (d * (a + 1))
            assert part.shell_count(shell) == want
            checked.append((d, a, shell, want))
    print(f"\n[c01] cube counts exact for {len(checked)} (d,a,shell) combinations: PASS")


def test_c02_partition_of_unity():
    configs = [
        (1, 1, 4, GridSpec(1, 256, np.pi)),
        (1, 2, 2, GridSpec(1, 256, np.pi)),
        (2, 1, 2, GridSpec(2, 64, np.pi)),
        (2, 1, 4, GridSpec(2, 128, np.pi)),
        (3, 1, 2, GridSpec(3, 32, np.pi)),
    ]
    worst = 0.0
    for d, a, n_max, grid in configs:
        part = build_partition(PartitionConfig(a=a, n_max=n_max), grid)
        dev, _ = part.unity_deviation()
        worst = max(worst, dev)
        assert dev < 1e-10, f"(d={d}, a={a}, n_max={n_max}) deviation {dev:.3e}"
    print(f"\n[c02] partition of unity: worst coverage deviation {worst:.3e} < 1e-10 over 5 configs: PASS")


def test_c03_orthogonality_bounds():
    configs = [
        (1, GridSpec(1, 256, np.pi)),
        (2, GridSpec(2, 64, np.pi)),
        (3, GridSpec(3, 16, np.pi)),
    ]
    lo_margin = np.inf
    for d, grid in configs:
        part = build_partition(PartitionConfig(a=1, n_max=2), grid)
        assert part.kappa <= 4 * 3**d
        rng = np.random.Generator(np.random.Philox(key=np.array([d, 0xA3], dtype=np.uint64)))
        for _ in range(50):
            vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
            ratio = part.orthogonality_ratio(SpectralField(grid, vals, "physical"))
            assert 1.0 / part.kappa <= ratio <= 1.0 + 1e-10
            lo_margin = min(lo_margin, ratio * part.kappa)
    print(f"\n[c03] orthogonality in [1/kappa, 1+1e-10] for 150 fields (min ratio*kappa {lo_margin:.3f}), kappa bounds hold: PASS")


def test_c04_bernstein_scaling():
    fits = []
    part1 = build_partition(PartitionConfig(a=1, n_max=8), GridSpec(1, 4096, 32 * np.pi))
    fits.append((1, bernstein_exponent(part1)))
    part2 = build_partition(PartitionConfig(a=1, n_max=4), GridSpec(2, 512, 16 * np.pi))
    fits.append((2, bernstein_exponent(part2)))
    for d, fit in fits:
        assert fit.expected == pytest.approx(-1.0 * d / 2.0)
        assert abs(fit.slope - fit.expected) < 0.2, f"d={d}: slope {fit.slope:.3f}"
    line = ", ".join(f"d={d}: {fit.slope:.3f} (target {fit.expected:g})" for d, fit in fits)
    print(f"\n[c04] Bernstein slopes within 0.2: {line}: PASS")


def test_c05_tail_rates():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0x7A11], dtype=np.uint64)))
    samples = np.abs(rng.standard_normal(10_000))
    rep = tail_fit(samples)
    assert abs(rep.rate - 0.5) <= 0.1, f"scalar rate {rep.rate:.4f}"
    assert rep.r_squared > 0.95

    g = GridSpec(3, 12, np.pi)
    part = build_partition(PartitionConfig(a=1, n_max=2, s=-0.1), g)
    f = shaped_noise(g, [51, 7], 1.2)
    spec = composite_spec("Y3", -0.1, 1.0)
    times = np.linspace(0.0, 0.3, 4)
    totals = []
    for seed in range(200):
        _, [(total, _)] = linear_seed(f, part, seed, 2.0, times, [spec])
        totals.append(total)
    tail = tail_fit(np.array(totals), q_lo=0.75, q_hi=0.975)
    assert tail.r_squared > 0.9
    print(f"\n[c05] scalar tail rate {rep.rate:.4f} (target 0.5 +- 0.1, R2 {rep.r_squared:.4f}); ensemble Y tail R2 {tail.r_squared:.4f} > 0.9: PASS")


def test_c06_free_flow_exactness():
    # free_flow_into on numpy's raw spectrum: the free flow the linear
    # trajectory and the solver run. Closed form in 1D and 2D on a wide box.
    def flow(fhat, g, t):
        return free_flow_into(fhat, g, t, np.empty_like(fhat))

    worst = 0.0
    for d, pts in ((1, 256), (2, 128)):
        g = GridSpec(d, pts, 16.0)
        mesh = np.meshgrid(*([g.x_axis()] * d), indexing="ij", sparse=True)
        r2 = sum(x**2 for x in mesh)
        a = 1.0
        f = np.exp(-a * r2).astype(complex)
        t = 0.3
        out = np.fft.ifftn(flow(np.fft.fftn(f), g, t))
        sigma = 1.0 + 4j * a * t
        exact = np.exp(-a * r2 / sigma) / sigma ** (d / 2.0)
        worst = max(worst, float(np.max(np.abs(out - exact))))
    assert worst < 1e-6

    g = GridSpec(2, 32, np.pi)
    rng = np.random.Generator(np.random.Philox(key=np.array([6, 6], dtype=np.uint64)))
    f = SpectralField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape), "physical")
    fhat = np.fft.fftn(f.values)
    moved = SpectralField(g, np.fft.ifftn(flow(fhat, g, 0.7)), "physical")
    l2_dev = abs(moved.l2_norm() / f.l2_norm() - 1.0)
    assert l2_dev < 1e-12
    two = flow(flow(fhat, g, 0.2), g, 0.3)
    one = flow(fhat, g, 0.5)
    group_dev = float(np.max(np.abs(two - one)) / np.max(np.abs(one)))
    assert group_dev < 1e-12
    print(f"\n[c06] free flow: Gaussian sup err {worst:.3e} < 1e-6, L2 dev {l2_dev:.3e}, group law {group_dev:.3e} < 1e-12: PASS")


def test_c07_solver_order_and_conservation(grid32):
    u0 = bump(grid32, 0.6, 1.5, wave=(1, 0, 0))
    cfg = SolverConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000, series_stride=100)
    series = solve_w(u0, None, cfg, discard)
    drift = float(np.max(np.abs(series.mass / series.mass[0] - 1.0)))
    assert drift < 1e-10, f"mass drift {drift:.3e}"

    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / dt)
        c = SolverConfig(dt=dt, t_final=1.0, snapshot_stride=n, series_stride=n, dealias=False)
        s = solve_w(u0, None, c, discard)
        finals.append(s.energy[-1])
    ratio = abs(finals[0] - finals[1]) / abs(finals[1] - finals[2])
    assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3, f"self-convergence ratio {ratio:.3f}"
    print(f"\n[c07] mass drift {drift:.3e} < 1e-10 over 1000 steps; energy self-convergence ratio {ratio:.3f} in 4 +- 30%: PASS")


def test_c08_increment_identities(grid32, part32):
    f = shaped_noise(grid32, [11, 2], 2.0)
    v0 = normalized_high_pass(draw(f, part32, 3).field, 4.0, 0.3)
    w0 = bump(grid32, 0.3, 1.5)
    residuals = {}
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(dt=dt, t_final=0.5, snapshot_stride=round(0.05 / dt), series_stride=1)
        series = increment_residuals(solve_w(w0, v0, cfg, discard))
        residuals[dt] = (series.max_rel_mass, series.max_rel_energy)
    rm, re_ = residuals[1e-3]
    assert rm < 1e-2 and re_ < 1e-2, f"rM {rm:.3e}, rE {re_:.3e}"
    rm2, re2 = residuals[5e-4]
    assert rm2 < 0.5 * rm and re2 < 0.5 * re_
    print(f"\n[c08] increment residuals rM {rm:.3e}, rE {re_:.3e} < 1e-2; halving dt+stride shrinks by {rm / rm2:.2f}x / {re_ / re2:.2f}x: PASS")


def test_c09_morawetz_machinery():
    # M(t)'s FFT pairing, as the audit runs it, vs the explicit double sum on both grids
    worst = 0.0
    for d, pts in ((3, 8), (4, 6)):
        g = GridSpec(d, pts, np.pi)
        rng = np.random.Generator(np.random.Philox(key=np.array([d, 0x99], dtype=np.uint64)))
        view = FrequencyView(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        m = 0.5 * view.modulus**2
        p = np.stack([0.5 * np.imag(np.conj(view.values) * gk) for gk in gradient(view)])
        a = interaction_functional(view, m)
        b = _pair_direct(p, m, g)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    assert worst < 1e-8

    # main-term identity residual shrinks >= 2x from 32^3 to 64^3
    y = [(0.0, 0.0, 0.0), (np.pi / 4, 0.0, -np.pi / 4), (-np.pi / 2, np.pi / 4, 0.0), (np.pi / 8, -np.pi / 8, 3 * np.pi / 8)]
    rels = []
    for pts in (32, 64):
        g = GridSpec(3, pts, np.pi)
        w = bump(g, 0.5, 1.5, wave=(1, 0, 0))
        v = bump(g, 0.3, 2.0, wave=(0, 2, 0))
        u = SpectralField(g, w.values + v.values, "physical")
        rels.append(identity_mor_mainterm(w, u, v, y_points=y).max_rel)
    assert rels[1] <= rels[0] / 2.0
    print(f"\n[c09] FFT=direct worst rel {worst:.3e} < 1e-8 (8^3, 6^4); main-term residual {rels[0]:.4f} -> {rels[1]:.4f} ({rels[0] / rels[1]:.2f}x >= 2x): PASS")


def test_c10_inequality_audits(tmp_path):
    ensembles = {
        3: {
            "grid": {"dim": 3, "points": 24, "half_width": float(np.pi)},
            "partition": {"a": 1, "n_max": 4, "s": -0.1},
            "forcing": {"field_seed": 31, "decay": 1.2, "n0": 4.0, "amplitude": 0.3},
        },
        4: {
            "grid": {"dim": 4, "points": 16, "half_width": float(np.pi)},
            "partition": {"a": 1, "n_max": 2, "s": -0.1},
            "forcing": {"field_seed": 41, "decay": 1.2, "n0": 4.0, "amplitude": 0.3},
        },
    }
    lines = []
    for d, sections in ensembles.items():
        cfg = parse_config({
            "kind": "morawetz-audit",
            "out_dir": str(tmp_path / f"d{d}"),
            "n_samples": 10,
            "workers": 4,
            "save_fields": False,
            "solver": {"dt": 2e-3, "t_final": 0.4, "snapshot_stride": 10, "series_stride": 10},
            "initial": {"kind": "bump", "amplitude": 0.25, "width": 1.5},
            **sections,
        })
        recs = run(cfg)
        assert len(recs) == 10
        spread = c_star_spread([r.metrics["c_star"] for r in recs])
        assert spread.ratio < 10.0, f"d={d} spread {spread.ratio:.3f}"
        violations = sum(
            1 for r in recs if r.metrics["lhs"] > spread.max * r.metrics["rhs"] * (1 + 1e-12)
        )
        assert violations == 0
        lines.append(f"{d}D max/median {spread.ratio:.3f}")
        if d == 4:
            gn_max = max(r.metrics["gn_max"] for r in recs)
            gn_med = float(np.median([r.metrics["gn_median"] for r in recs]))
            assert np.isfinite(gn_max) and gn_max > 0
            assert gn_max / gn_med < 10.0
            lines.append(f"GN constant {gn_max:.3f} (max/median {gn_max / gn_med:.3f})")
    print(f"\n[c10] inequality audits over 10 forced runs/dim: {'; '.join(lines)}; zero violations at C=max: PASS")


def test_c11_almost_conservation_sweep():
    g = GridSpec(3, 64, np.pi)
    part = build_partition(PartitionConfig(a=1, n_max=4, s=-0.1), g)
    fw = draw(shaped_noise(g, [21, 1], 1.2), part, 2).field
    base = high_pass(fw, 4.0).as_physical()
    scale = 0.4 / np.abs(base.values).max()
    fw = SpectralField(g, scale * fw.values, "physical")
    w0 = bump(g, 0.25, 1.5)
    s = -0.1
    ratios_m, ratios_e = [], []
    for n0 in (4.0, 8.0, 16.0):
        v0 = high_pass(fw, n0)
        cfg = SolverConfig(dt=2e-3, t_final=0.6, snapshot_stride=60, series_stride=5)
        series = solve_w(w0, v0, cfg, discard)
        m0, e0 = series.mass[0], series.energy[0]
        a_cap = 1.5 * max(m0 * n0 ** (2 * s), e0 / n0 ** (2 * (1 - s)))
        rep = almost_conservation_monitor(v0, series, a_cap, n0, s)
        assert rep.ok and rep.ratio_mass <= 2.0 and rep.ratio_energy <= 2.0
        ratios_m.append(rep.ratio_mass)
        ratios_e.append(rep.ratio_energy)
    eps = 1e-9
    assert all(b <= a * (1 + eps) for a, b in zip(ratios_m, ratios_m[1:]))
    assert all(b <= a * (1 + eps) for a, b in zip(ratios_e, ratios_e[1:]))
    print(f"\n[c11] sup-ratios <= 2 and nonincreasing in N0 (energy: {', '.join(f'{r:.6f}' for r in ratios_e)}): PASS")


def test_c12_perturbation_ladder(grid32, part32):
    f = shaped_noise(grid32, [11, 2], 2.0)
    v0 = normalized_high_pass(draw(f, part32, 3).field, 4.0, 0.05)
    w0 = bump(grid32, 0.3, 1.5)
    cfg = SolverConfig(dt=2e-3, t_final=0.5, snapshot_stride=25)
    rep = twin_run(w0, v0, cfg, amplitudes=(1.0, 0.5, 0.25))
    assert abs(rep.slope_smallest - 1.0) < 0.3, f"slope {rep.slope_smallest:.4f}"
    zero = SpectralField(grid32, np.zeros(grid32.shape, complex), "physical")
    rep0 = twin_run(w0, zero, cfg, amplitudes=(1.0, 0.5))
    assert all(d == 0.0 for d in rep0.divergences)
    print(f"\n[c12] twin slope {rep.slope_smallest:.4f} in 1 +- 0.3 at smallest rungs; zero forcing diverges exactly 0: PASS")


def test_c13_scattering_proxy(grid32):
    u0 = bump(grid32, 0.2, 2.0)

    def proxy(cfg):
        times, spectra = [], []

        def keep(t, w, v, w_hat, v_hat):
            times.append(t)
            spectra.append(w_hat.copy())

        solve_w(u0, None, cfg, keep)
        return scattering_proxy(grid32, times, spectra)

    rep = proxy(SolverConfig(dt=2e-3, t_final=0.8, snapshot_stride=10))
    assert rep.decreasing, f"deltas {rep.deltas}"
    lin = proxy(SolverConfig(dt=2e-3, t_final=0.8, snapshot_stride=10, mu=0.0, dealias=False))
    assert max(lin.deltas) < 1e-12
    print(f"\n[c13] pullback deltas decreasing ({', '.join(f'{d:.2e}' for d in rep.deltas)}); linear deltas {max(lin.deltas):.2e} ~ 0: PASS")


def test_c14_harness_determinism(tmp_path):
    base = {
        "kind": "evolve",
        "n_samples": 8,
        "seed": 0,
        "save_fields": False,
        "grid": {"dim": 3, "points": 12, "half_width": float(np.pi)},
        "partition": {"a": 1, "n_max": 2, "s": -0.1},
        "forcing": {"field_seed": 11, "decay": 2.0, "n0": 2.0, "amplitude": 0.2},
        "solver": {"dt": 0.02, "t_final": 0.1},
        "initial": {"kind": "bump", "amplitude": 0.3, "width": 1.5},
    }
    r1 = run(parse_config(dict(base, out_dir=str(tmp_path / "w1"), workers=1)))
    r8 = run(parse_config(dict(base, out_dir=str(tmp_path / "w8"), workers=8)))
    assert len(r1) == len(r8) == 8
    for a, b in zip(r1, r8):
        assert a.seed == b.seed
        assert a.metrics == b.metrics  # exact float equality, every metric
    s1 = json.load(open(tmp_path / "w1" / "summary.json"))
    s8 = json.load(open(tmp_path / "w8" / "summary.json"))
    assert s1["metrics"] == s8["metrics"]
    print("\n[c14] 8 seeds, workers 1 vs 8: every metric bit-for-bit identical: PASS")
