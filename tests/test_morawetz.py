"""The interaction functional M(t) against its direct sum, audits, main-term identity."""

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    FrequencyView,
    GridSpec,
    MorawetzAccumulator,
    SolverConfig,
    SpectralField,
    TrajectoryReader,
    TrajectoryWriter,
    c_star_spread,
    interaction_functional,
    localization_ratio,
    solve_w,
    stored_audit,
)
from roughnls.morawetz import _kernel_tables_hat, _max_grad_sq

from conftest import kept_snapshots, traced_peak, write_trajectory
from instruments import SCALING_DEGREES, _kernel_tables, _pair_direct, gradient, identity_mor_mainterm


def gaussian(grid, amp=1.0, width=1.0, wave=None):
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    r2 = sum(x**2 for x in mesh)
    vals = amp * np.exp(-width * r2).astype(complex)
    if wave is not None:
        vals = vals * np.exp(1j * sum(k * x for k, x in zip(wave, mesh)))
    return SpectralField(grid, vals, "physical")


def noise(grid, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 13], dtype=np.uint64)))
    return rng.normal(size=grid.shape)


def synth_snapshots(grid, n_times=3, t_final=0.1):
    """Analytic (t, w, v) snapshots: Gaussians with time-varying phases."""
    times = np.linspace(0.0, t_final, n_times)
    w = gaussian(grid, 0.5, 1.5, wave=(1,) + (0,) * (grid.dim - 1))
    v = gaussian(grid, 0.3, 2.0, wave=(0, 2) + (0,) * (grid.dim - 2))
    return [
        (t, np.exp(1j * k * 0.3) * w.values, np.exp(-1j * k * 0.2) * v.values)
        for k, t in enumerate(times)
    ]


def momentum(view):
    """The momentum density Im(conj(w) grad w) / 2 of a view, its d components stacked."""
    return np.stack([0.5 * np.imag(np.conj(view.values) * gk) for gk in gradient(view)])


def _compare_pairings(grid, seed):
    view = FrequencyView(grid, noise(grid, seed) + 1j * noise(grid, seed + 1))
    h = noise(grid, seed + 10)
    a = interaction_functional(view, h)
    b = _pair_direct(momentum(view), h, grid)
    scale = max(abs(a), abs(b), 1e-30)
    assert abs(a - b) / scale < 1e-10


def test_fft_pairing_matches_direct_sum_3d():
    _compare_pairings(GridSpec(3, 8, np.pi), seed=1)


def test_fft_pairing_matches_direct_sum_4d():
    _compare_pairings(GridSpec(4, 6, np.pi), seed=3)


def test_plane_wave_momentum_density():
    # w = A e^{ik.x} has momentum density |A|^2 k / 2 exactly; against a
    # constant p the double sum factors into p . (sum of the kernel table)
    # times sum m.
    g = GridSpec(3, 16, np.pi)
    w = gaussian(g, 1.0, 0.0, wave=(2, -1, 0))  # width 0: pure plane wave
    m = noise(g, 5)
    expect = np.array([2.0, -1.0, 0.0]) * 0.5
    kernel_sums = _kernel_tables(g)[0].sum(axis=(1, 2, 3))
    ref = float(expect @ kernel_sums) * np.sum(m) * g.cell_volume**2
    assert interaction_functional(FrequencyView(g, w.values), m) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("dim,points", [(3, 8), (3, 24), (4, 6), (4, 12)])
def test_kernel_tables_are_the_stacked_transform(dim, points):
    # 0.01 s in all. The pairing tables are built one component at a time
    # from the sparse displacement axes; they equal, bit for bit, the former
    # build: the transform of the stacked real-space vector table, which held
    # the d real tables and their squares at once.
    g = GridSpec(dim, points, np.pi)
    vec, _ = _kernel_tables(g)
    half = np.full(points // 2 + 1, 2.0)
    half[0] = half[-1] = 1.0
    scale = half * (g.cell_volume**2 / g.n_points)
    stacked = np.conj(np.fft.rfftn(vec, axes=tuple(range(1, dim + 1)))) * scale
    assert _kernel_tables_hat(g).tobytes() == stacked.tobytes()


def test_real_field_has_zero_momentum():
    # p vanishes for a real w; |M(t)| is held to what a pointwise |p| < 1e-12
    # allows against |K| <= 1
    g = GridSpec(3, 16, np.pi)
    view = FrequencyView(g, noise(g, 7).astype(complex))
    m = noise(g, 8)
    bound = 1e-12 * np.sqrt(g.dim) * g.n_points * np.sum(np.abs(m)) * g.cell_volume**2
    assert abs(interaction_functional(view, m)) < bound


def test_mass_density_normalization():
    # the audit's M(t) pairs p against m = |w|^2 / 2, whose integral is half of
    # ||w||^2; on a smaller grid, where the direct sum is cheap, with a wave
    # so that p does not vanish
    g = GridSpec(3, 12, np.pi)
    w = gaussian(g, 0.6, 1.0)
    total = np.sum(0.5 * np.abs(w.values) ** 2) * g.cell_volume
    assert total == pytest.approx(0.5 * w.l2_norm() ** 2, rel=1e-12)
    g = GridSpec(3, 8, np.pi)
    w = gaussian(g, 0.6, 1.0, wave=(1, 0, 0))
    m = 0.5 * np.abs(w.values) ** 2
    audit = MorawetzAccumulator(g)
    for t in (0.0, 0.1):
        audit.add(t, w.values, np.zeros(g.shape, complex))
    ref = _pair_direct(momentum(FrequencyView(g, w.values)), m, g)
    assert audit.report().interaction == pytest.approx([ref, ref], rel=1e-10)


def test_vector_functional_antisymmetry():
    # For even m the vector kernel pairing vanishes by antisymmetry; the
    # sharply localized Gaussian keeps the self-paired half-box displacements
    # negligible. w = sqrt(2m) e^{i x_1} has momentum density p = (m, 0, 0).
    g = GridSpec(3, 16, np.pi)
    mesh = np.meshgrid(*([g.x_axis()] * 3), indexing="ij", sparse=True)
    r2 = sum(x**2 for x in mesh)
    m = np.exp(-2.0 * r2)
    w = np.sqrt(2.0 * m) * np.exp(1j * mesh[0])
    val = interaction_functional(FrequencyView(g, w), m)
    norm = np.sum(np.abs(m)) ** 2 * g.cell_volume**2
    assert abs(val) / norm < 1e-4


def test_interaction_functional_methods_agree():
    # the Parseval pairing against the direct double sum
    g = GridSpec(3, 8, np.pi)
    w = gaussian(g, 0.8, 1.0, wave=(1, 0, 0))
    view = FrequencyView(g, w.values)
    m = 0.5 * view.modulus**2
    a = interaction_functional(view, m)
    assert a == pytest.approx(_pair_direct(momentum(view), m, g), rel=1e-10)


def test_localization_ratio():
    g = GridSpec(3, 16, np.pi)
    centered = gaussian(g, 1.0, 3.0)
    flat = SpectralField(g, np.ones(g.shape, dtype=complex), "physical")
    assert localization_ratio(0.5 * np.abs(centered.values) ** 2, g) > 0.8
    assert localization_ratio(0.5 * np.abs(flat.values) ** 2, g) < 0.2
    assert localization_ratio(np.zeros(g.shape), g) == 1.0


def test_audit_requires_v_and_w(tmp_path):
    g = GridSpec(3, 8, np.pi)
    traj = write_trajectory(tmp_path / "traj", g, [0.0, 0.1], {"u": np.zeros((2,) + g.shape, complex)})
    with pytest.raises(ConfigError, match="no channel 'v'"):
        stored_audit(TrajectoryReader(traj))


def test_audit_dimension_guard(tmp_path):
    g = GridSpec(2, 8, np.pi)
    z = np.zeros((2,) + g.shape, complex)
    traj = write_trajectory(tmp_path / "traj", g, [0.0, 0.1], {"v": z, "w": z})
    with pytest.raises(ConfigError, match="dimensions 3 and 4"):
        stored_audit(TrajectoryReader(traj))


def _scaled(snapshots, c):
    return [(t, c * w, c * v) for t, w, v in snapshots]


def test_audit_amplitude_scaling_3d():
    # Scaling w -> c w, v -> c v multiplies each audit term by c^degree.
    g = GridSpec(3, 12, np.pi)
    snaps = synth_snapshots(g)
    c = 0.5
    r1 = _accumulate(g, snaps)
    r2 = _accumulate(g, _scaled(snaps, c))
    deg = SCALING_DEGREES[3]
    assert r2.lhs == pytest.approx(c ** deg["lhs"] * r1.lhs, rel=1e-9)
    for name in ("T1", "T2", "T3"):
        assert r2.terms[name] == pytest.approx(c ** deg[name] * r1.terms[name], rel=1e-9)


def test_audit_amplitude_scaling_4d():
    g = GridSpec(4, 8, np.pi)
    snaps = synth_snapshots(g)
    c = 0.5
    r1 = _accumulate(g, snaps)
    r2 = _accumulate(g, _scaled(snaps, c))
    deg = SCALING_DEGREES[4]
    assert r2.lhs == pytest.approx(c ** deg["lhs"] * r1.lhs, rel=1e-9)
    for name in ("T1", "T2", "T3"):
        assert r2.terms[name] == pytest.approx(c ** deg[name] * r1.terms[name], rel=1e-9)


def test_audit_report_shape():
    g = GridSpec(3, 12, np.pi)
    rep = _accumulate(g, synth_snapshots(g))
    assert rep.dim == 3
    assert rep.rhs == pytest.approx(sum(rep.terms.values()))
    assert rep.c_star == pytest.approx(rep.lhs / rep.rhs)
    assert rep.interaction.shape == rep.times.shape
    assert np.all((0.0 <= rep.localization) & (rep.localization <= 1.0))
    d = rep.to_dict()
    assert "c_star" in d and "min_localization" in d
    rows = rep.csv_rows()
    assert len(rows) == rep.times.size
    assert len(rows[0]) == len(rep.CSV_HEADER)


def test_mainterm_v_zero_exact():
    g = GridSpec(3, 16, np.pi)
    w = gaussian(g, 0.5, 1.5, wave=(1, 0, 0))
    zero = SpectralField(g, np.zeros(g.shape, complex), "physical")
    rep = identity_mor_mainterm(w, w, zero)
    assert rep.max_rel == 0.0


def test_mainterm_quadrature_refines():
    # The omitted singular cell dominates the residual, which shrinks ~4x per
    # grid doubling.
    y = [(0.0, 0.0, 0.0), (np.pi / 4, 0.0, -np.pi / 4)]
    rels = []
    for pts in (16, 32):
        g = GridSpec(3, pts, np.pi)
        w = gaussian(g, 0.5, 1.5, wave=(1, 0, 0))
        v = gaussian(g, 0.3, 2.0, wave=(0, 2, 0))
        u = SpectralField(g, w.values + v.values, "physical")
        rep = identity_mor_mainterm(w, u, v, y_points=y)
        rels.append(rep.max_rel)
    assert rels[1] < rels[0] / 2.0


def test_mainterm_report_consistency():
    g = GridSpec(3, 16, np.pi)
    w = gaussian(g, 0.5, 1.5, wave=(1, 0, 0))
    v = gaussian(g, 0.3, 2.0, wave=(0, 2, 0))
    u = SpectralField(g, w.values + v.values, "physical")
    rep = identity_mor_mainterm(w, u, v, n_points=4, seed=2)
    assert rep.lhs.shape == rep.hardy.shape == rep.cross.shape
    assert np.all(np.isfinite(rep.rhs))
    assert rep.max_rel >= 0.0


def test_c_star_spread():
    s = c_star_spread([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.max == 4.0
    assert s.median == pytest.approx(2.5)
    assert s.ratio == pytest.approx(4.0 / 2.5)
    assert s.stable
    s2 = c_star_spread([0.0, 0.0])
    assert s2.ratio == 1.0 and s2.stable
    with pytest.raises(ValueError):
        c_star_spread([1.0, np.inf])


def test_gn_ratios_finite_positive_4d():
    g = GridSpec(4, 8, np.pi)
    ratios = _accumulate(g, synth_snapshots(g)).gn_ratios
    assert ratios.shape == (3,)
    assert np.all(ratios > 0) and np.all(np.isfinite(ratios))


# ---------------------------------------------------------------------------
# the snapshot-major audit against a norm-major reference in plain numpy


def _ref_symbol(grid, s, kind):
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.dx)
    xi2 = sum(c**2 for c in np.meshgrid(*([xi] * grid.dim), indexing="ij"))
    if kind == "homogeneous":
        with np.errstate(divide="ignore"):
            return np.where(xi2 > 0, xi2 ** (s / 2.0), 0.0)
    return (1.0 + xi2) ** (s / 2.0)


def _ref_series(stack, grid, r, s=0.0, kind="none"):
    """||D^s f||_{L^r} per snapshot, one fftn/ifftn pair per snapshot and norm."""
    out = []
    for f in stack:
        if kind != "none":
            f = np.fft.ifftn(np.fft.fftn(f) * _ref_symbol(grid, s, kind))
        a = np.abs(f)
        out.append(a.max() if np.isinf(r) else (np.sum(a**r) * grid.cell_volume) ** (1.0 / r))
    return np.array(out)


def _ref_time(series, times, q):
    return series.max() if np.isinf(q) else np.trapezoid(series**q, times) ** (1.0 / q)


def _ref_gradient(f, grid):
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.dx)
    xi[grid.points // 2] = 0.0
    comps = np.meshgrid(*([xi] * grid.dim), indexing="ij")
    fhat = np.fft.fftn(f)
    return [np.fft.ifftn(fhat * 1j * c) for c in comps]


def _ref_kernel(grid):
    ax = grid.dx * np.arange(grid.points)
    ax = (ax + grid.half_width) % (2.0 * grid.half_width) - grid.half_width
    r = np.stack(np.meshgrid(*([ax] * grid.dim), indexing="ij"))
    rad = np.sqrt(np.sum(r * r, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rad > 0.0, r / rad, 0.0)


def _reference_audit(g, snapshots):
    """The norm-major audit: every norm re-transforms each snapshot, and the
    interaction is d complex circular correlations. The v + w stack and the
    defect field are left out because no reported figure reads them."""
    t = np.array([snap[0] for snap in snapshots])
    w, v = (np.stack([snap[i] for snap in snapshots]) for i in (1, 2))
    inf = np.inf
    w_mass = _ref_time(_ref_series(w, g, 2), t, inf)
    w_hhalf = _ref_time(_ref_series(w, g, 2, 0.5, "homogeneous"), t, inf)
    v_sup = _ref_time(_ref_series(v, g, inf), t, 2)
    dv = np.array([np.sqrt(sum(np.abs(c) ** 2 for c in _ref_gradient(f, g)).max()) for f in v])
    dv_sup = _ref_time(dv, t, 2)
    v_l4 = _ref_time(_ref_series(v, g, 4), t, 4)
    gn = None
    if g.dim == 3:
        w_l4 = _ref_time(_ref_series(w, g, 4), t, 4)
        mix4 = w_l4**2 + v_l4**2
        mix6 = _ref_time(_ref_series(w, g, 6), t, inf) ** 3 + _ref_time(_ref_series(v, g, 6), t, inf) ** 3
        lhs = w_l4**4
        terms = {
            "T1": w_mass**2 * w_hhalf**2,
            "T2": v_sup * mix4 * mix6 * w_hhalf**2,
            "T3": dv_sup * mix4 * mix6 * w_mass**2,
        }
    else:
        g_series = _ref_series(w, g, 4, -0.25, "homogeneous")
        h_series = _ref_series(w, g, 2, 0.5, "inhomogeneous")
        g_norm = _ref_time(g_series, t, 4)
        lhs = g_norm**4
        terms = {
            "T1": w_mass**2 * w_hhalf**2,
            "T2": _ref_time(h_series, t, inf) * g_norm**2 * (v_sup * w_hhalf**2 + dv_sup * w_mass**2),
            "T3": v_sup * w_hhalf**2 * (w_mass * v_l4**2 + _ref_time(_ref_series(v, g, 3), t, 6) ** 3),
        }
        gn = _ref_series(w, g, 3) ** 3 / (h_series * g_series**2)
    kern_hat = np.conj(np.fft.fftn(_ref_kernel(g), axes=tuple(range(1, g.dim + 1))))
    inner = np.abs(g.x_axis()) < 0.5 * g.half_width
    mask = np.ones(g.shape, bool)
    for ax in range(g.dim):
        mask &= inner.reshape((-1,) + (1,) * (g.dim - 1 - ax))
    inter, bound, loc = [], [], []
    for f in w:
        m = 0.5 * np.abs(f) ** 2
        total = scale = 0.0
        for kh, gk in zip(kern_hat, _ref_gradient(f, g)):
            p = 0.5 * np.imag(np.conj(f) * gk)
            total += np.sum(np.fft.ifftn(kh * np.fft.fftn(p)).real * m) * g.cell_volume**2
            scale += np.sum(np.abs(p)) * np.sum(m) * g.cell_volume**2
        inter.append(total)
        bound.append(scale)
        loc.append(m[mask].sum() / m.sum())
    return lhs, terms, (np.array(inter), np.array(bound)), np.array(loc), gn


def _forced_inputs(dim, points, **over):
    g = GridSpec(dim, points, np.pi)
    w0 = gaussian(g, 0.5, 1.5, wave=(1,) + (0,) * (dim - 1))
    v0 = gaussian(g, 0.3, 2.0, wave=(0, 2) + (0,) * (dim - 2))
    return w0, v0, SolverConfig(dt=2e-3, t_final=0.04, snapshot_stride=5, **over)


def _forced_snapshots(dim, points):
    """A forced solve's grid and (t, w, v) snapshot values, as a stored run is read back."""
    w0, v0, cfg = _forced_inputs(dim, points)
    snapshots, _ = kept_snapshots(w0, v0, cfg)
    return w0.grid, [(t, w, v) for t, w, v, *_ in snapshots]


def _synth(dim, points):
    g = GridSpec(dim, points, np.pi)
    return g, synth_snapshots(g, n_times=5)


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: _forced_snapshots(3, 12),
        lambda: _forced_snapshots(4, 8),
        lambda: _synth(3, 12),
        lambda: _synth(4, 8),
    ],
    ids=["forced-3d-12", "forced-4d-8", "synth-3d", "synth-4d"],
)
def test_audit_matches_norm_major_reference(make):
    g, snapshots = make()
    lhs, terms, (inter, bound), loc, gn = _reference_audit(g, snapshots)
    rep = _accumulate(g, snapshots)
    assert _rel(rep.lhs, lhs) < 1e-12
    for name in ("T1", "T2", "T3"):
        assert _rel(rep.terms[name], terms[name]) < 1e-12
    assert _rel(rep.c_star, lhs / sum(terms.values())) < 1e-12
    # M(t) can cancel almost to zero (a plane-wave momentum against an even
    # mass), so it is compared relative to its bound |M| <= ||p||_1 ||m||_1,
    # the scale of its rounding error.
    assert np.max(np.abs(rep.interaction - inter) / bound) < 1e-12
    assert _rel(rep.localization, loc) < 1e-12
    if g.dim == 4:
        assert _rel(rep.gn_ratios, gn) < 1e-12
        assert "gn_ratios" not in rep.to_dict()
    else:
        assert rep.gn_ratios is None


def _count_transforms(monkeypatch):
    """Patch np.fft's n-d transforms to count 1-component transforms."""
    counter = {"n": 0}
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        fn = getattr(np.fft, name)

        def counted(a, s=None, axes=None, *args, _fn=fn, **kwargs):
            a = np.asarray(a)
            batch = 1 if axes is None else a.size // int(np.prod([a.shape[ax] for ax in axes]))
            counter["n"] += batch
            return _fn(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counter


def _with_spectra(snapshots):
    """Each (t, w, v) snapshot as (t, w, v, w_hat, v_hat), the arguments of add()."""
    return [(t, w, v, np.fft.fftn(w), np.fft.fftn(v)) for t, w, v in snapshots]


def _accumulate(grid, snapshots, interaction=True):
    """The audit of the snapshots, the arguments of add(), through an accumulator
    that computes M(t) or not."""
    audit = MorawetzAccumulator(grid, interaction=interaction)
    for snap in snapshots:
        audit.add(*snap)
    return audit.report()


@pytest.mark.parametrize(
    "dim,points,interaction,limit",
    [(3, 12, True, 10), (4, 8, True, 14), (3, 12, False, 3), (4, 8, False, 5)],
)
def test_audit_transform_count(monkeypatch, dim, points, interaction, limit):
    # Each snapshot handed with both spectra: d inverse transforms for
    # sup |grad v| and one for |grad|^{-1/4} w in 4D, and no forward
    # transform. M(t) adds d inverse transforms for w's gradient (the
    # momentum) and d + 1 real-input transforms for the pairing. The 4D
    # Gagliardo-Nirenberg ratios come with the audit at no transform.
    g, plain = _synth(dim, points)
    snapshots = _with_spectra(plain)
    _accumulate(g, snapshots, interaction)  # warm the symbol and kernel caches
    counter = _count_transforms(monkeypatch)
    rep = _accumulate(g, snapshots, interaction)
    assert (rep.gn_ratios is not None) == (dim == 4)
    assert (rep.interaction is not None) == interaction
    assert counter["n"] <= limit * len(snapshots), counter["n"] / len(snapshots)


@pytest.mark.parametrize("dim,points", [(3, 12), (4, 8)])
def test_audit_without_interaction_keeps_every_other_figure(tmp_path, dim, points):
    # Skipping M(t) moves no other figure by a bit, and a report without M(t)
    # refuses to be written rather than leave a partial interaction.csv.
    g, snapshots = _synth(dim, points)
    full, bare = _accumulate(g, snapshots), _accumulate(g, _with_spectra(snapshots), interaction=False)
    assert bare.interaction is None and full.interaction.shape == (len(snapshots),)
    assert bare.to_dict() == full.to_dict()
    for name in ("times", "localization"):
        assert np.array_equal(getattr(bare, name), getattr(full, name))
    if dim == 4:
        assert np.array_equal(bare.gn_ratios, full.gn_ratios)
    with pytest.raises(ValueError, match="interaction"):
        bare.write(tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_audit_keeps_only_half_spectrum_kernel_tables():
    # After an audit on a fresh grid, what stays resident is the cached
    # half-spectrum kernel tables plus a few lattice-sized symbols and
    # weights (under three complex fields), not the d + 1 real kernel tables.
    grid = GridSpec(4, 12, 2.75)  # a grid no other test warms
    snapshots = synth_snapshots(grid, n_times=3)
    _, _, retained = traced_peak(lambda: _accumulate(grid, snapshots))
    tables = sum(t.nbytes for t in _kernel_tables_hat(grid))
    assert retained < tables + 3 * 16 * grid.n_points, retained / grid.n_points


@pytest.mark.parametrize("dim,points", [(3, 12), (4, 8)])
def test_streamed_audit_equals_stored_audit(tmp_path, dim, points):
    # The snapshots a solve streams into the accumulator are made in its work
    # buffers, which the next snapshot overwrites; the report must equal, bit
    # for bit, one fed copies of the same (t, w, v, w_hat, v_hat). The
    # directory the same solve writes holds values alone: its stored audit
    # equals, bit for bit, one fed copies of the same (t, w, v), and the
    # streamed audit to rounding, since the forward transform of w gives the
    # solve's w_hat back only to rounding.
    w0, v0, cfg = _forced_inputs(dim, points, series_stride=2)
    snapshots, _ = kept_snapshots(w0, v0, cfg)
    audit = MorawetzAccumulator(w0.grid)
    writer = TrajectoryWriter(tmp_path / "traj", w0.grid, ("v", "w"))

    def sink(t, w, v, w_hat, v_hat):
        audit.add(t, w, v, w_hat, v_hat)
        writer.add(t, {"v": v, "w": w})

    solve_w(w0, v0, cfg, sink)
    streamed = audit.report()
    stored = stored_audit(TrajectoryReader(writer.close()))
    _assert_same_report(streamed, _accumulate(w0.grid, snapshots))
    _assert_same_report(stored, _accumulate(w0.grid, [(t, w, v) for t, w, v, *_ in snapshots]))
    assert stored.c_star == pytest.approx(streamed.c_star, rel=1e-12)
    for name in ("T1", "T2", "T3"):
        assert stored.terms[name] == pytest.approx(streamed.terms[name], rel=1e-12)


def _assert_same_report(a, b):
    """Two audit reports agree bit for bit."""
    assert a.to_dict() == b.to_dict()
    for name in ("times", "interaction", "localization"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    if a.dim == 4:
        assert np.array_equal(a.gn_ratios, b.gn_ratios)
    else:
        assert a.gn_ratios is None and b.gn_ratios is None


@pytest.mark.parametrize("dim,points", [(3, 12), (4, 8)])
def test_streamed_gradient_sup_equals_the_component_stack(dim, points):
    # sup |grad v| is taken one partial derivative at a time in one buffer;
    # it must equal the sum over the d components held at once bit for bit.
    g = GridSpec(dim, points, np.pi)
    for seed in range(3):
        view = FrequencyView(g, noise(g, seed) + 1j * noise(g, seed + 7))
        reference = sum(c.real**2 + c.imag**2 for c in gradient(view)).max()
        assert _max_grad_sq(view) == float(reference)


def stacked_interaction(view, m):
    """M(t) with the d components of p stacked and transformed at once, then summed and paired."""
    prod = np.fft.rfftn(momentum(view), axes=tuple(range(1, view.grid.dim + 1)))
    prod *= _kernel_tables_hat(view.grid)
    return float(np.sum((np.conj(np.fft.rfftn(m)) * prod.sum(axis=0)).real))


@pytest.mark.parametrize("dim,points", [(3, 12), (3, 24), (3, 32), (4, 8), (4, 10)])
def test_streamed_interaction_equals_the_density_stack(dim, points):
    # add() pairs M(t)'s momentum density one gradient component at a time;
    # each value must equal the pairing of the stacked densities bit for
    # bit, below numpy's 256 KiB elision size (12^3, 8^4), above it (32^3)
    # and where only the stack reaches it (24^3, 10^4). A swapped factor
    # order moves M(t) on about one seed in six, so six are taken.
    g = GridSpec(dim, points, np.pi)
    audit = MorawetzAccumulator(g)
    want = []
    for seed in range(6):
        w = noise(g, seed) + 1j * noise(g, seed + 7)
        v = noise(g, seed + 3)
        audit.add(0.1 * seed, w, v, np.fft.fftn(w), None)
        view = FrequencyView(g, w)
        want.append(stacked_interaction(view, 0.5 * view.modulus**2))
    assert audit.report().interaction.tolist() == want


def test_one_4d_add_peaks_under_four_fields():
    # A warm 4D add() handed both spectra holds w's view, then v's view and
    # one component of v's gradient: its traced peak stays under 4 complex
    # lattice fields (it was 10.6 with both views and v's whole gradient).
    g = GridSpec(4, 8, np.pi)
    w = gaussian(g, 0.5, 1.5, wave=(1, 0, 0, 0)).values
    v = gaussian(g, 0.3, 2.0, wave=(0, 2, 0, 0)).values
    snap = (w, v, np.fft.fftn(w), np.fft.fftn(v))
    audit = MorawetzAccumulator(g, interaction=False)
    audit.add(0.0, *snap)  # warm the symbols
    _, peak, _ = traced_peak(lambda: audit.add(0.1, *snap))
    assert peak < 4 * 16 * g.n_points, peak / (16 * g.n_points)
