"""Cube-Gaussian randomization, chaos moments, and tail fits."""

import numpy as np
import pytest

from roughnls import (
    FitError,
    GridSpec,
    PartitionConfig,
    SpectralField,
    build_partition,
    draw,
    tail_fit,
)
from roughnls import randomize

import instruments
from instruments import chaos_moment, cube_gaussian, cutoff, moment_estimate


def small_partition(dim=1, points=256, half_width=np.pi, n_max=2):
    g = GridSpec(dim, points, half_width)
    return g, build_partition(PartitionConfig(dim=dim, a=1, n_max=n_max), g)


def noise_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 4], dtype=np.uint64)))
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return SpectralField(grid, vals, "physical")


def test_cube_gaussian_reproducible_and_unit_variance():
    a = cube_gaussian(7, 3, size=5)
    b = cube_gaussian(7, 3, size=5)
    assert np.array_equal(a, b)
    assert cube_gaussian(7, 4, size=5)[0] != a[0]
    big = cube_gaussian(1, 2, size=200_000)
    # complex unit variance: E|g|^2 = 1
    assert abs(np.mean(np.abs(big) ** 2) - 1.0) < 0.02


def test_draw_deterministic_and_seed_sensitive():
    g, part = small_partition()
    f = noise_field(g, seed=5)
    d1 = draw(f, part, seed=0)
    d2 = draw(f, part, seed=0)
    d3 = draw(f, part, seed=1)
    assert np.array_equal(d1.field.values, d2.field.values)
    assert not np.array_equal(d1.field.values, d3.field.values)
    assert d1.n_cubes == part.n_cutoffs


def test_draw_coefficients_are_the_per_cube_streams():
    # one re-keyed generator must give each cube's own Philox stream, bit for bit
    g = GridSpec(3, 32, np.pi)
    part = build_partition(PartitionConfig(dim=3, a=1, n_max=4, s=-0.1), g)
    f = noise_field(g, seed=1)
    for seed in (0, 1004):
        coeffs = draw(f, part, seed).coefficients
        ref = np.array([cube_gaussian(seed, j, 1)[0] for j in range(part.n_cutoffs)])
        assert coeffs.size == part.n_cutoffs == 29_129
        assert np.array_equal(coeffs.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1004, 2**63 + 5])
def test_lane_philox_is_numpys_stream(seed):
    # the first two words of Philox(key=(seed, j)), one lane per cube
    j = np.arange(100_001, dtype=np.uint64)
    w0, w1 = randomize._philox_words(seed, j)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    ref = np.empty((j.size, 2), dtype=np.uint64)
    for k in range(j.size):
        fresh["state"]["key"][1] = k
        bitgen.state = fresh
        ref[k] = bitgen.random_raw(2)
    assert np.array_equal(w0, ref[:, 0]) and np.array_equal(w1, ref[:, 1])
    for k in (0, 1, 4097, 8192, 99_999, 100_000):
        key = np.array([seed, k], dtype=np.uint64)
        assert np.array_equal(np.random.Philox(key=key).random_raw(2), ref[k])


@pytest.mark.parametrize("sign", [0, 1])
def test_ziggurat_fast_path_is_numpys(sign):
    # numpy returns at once iff rabs < ki[idx]; its taking the largest rabs the
    # fast path accepts, from one word and with the same value, shows that
    # every accepted lane is accepted by numpy too
    wi, ki = randomize._ziggurat_tables()
    idx = np.array([i for i in range(256) if i != 1])
    rabs = ki[idx] - np.uint64(1)
    words = (rabs << np.uint64(9)) | np.uint64(sign << 8) | idx.astype(np.uint64)
    bitgen = randomize._mt19937_emitting([int(w) for w in words])
    x = np.random.Generator(bitgen).standard_normal(idx.size)
    assert bitgen.state["state"]["pos"] == 2 * idx.size
    expect = (-1.0) ** sign * (rabs.astype(np.float64) * wi[idx])
    assert np.array_equal(x.view(np.uint64), expect.view(np.uint64))
    fast, ok = randomize._fast_normals(words, wi, ki)
    assert ok.all() and np.array_equal(fast.view(np.uint64), x.view(np.uint64))
    assert not randomize._fast_normals(words + np.uint64(1 << 9), wi, ki)[1].any()


def test_draw_coefficients_4d_take_both_paths(monkeypatch):
    # 16^4, a=1, n_max=2: the vectorized lanes and the per-cube fallback
    g = GridSpec(4, 16, np.pi)
    part = build_partition(PartitionConfig(dim=4, a=1, n_max=2, s=-0.1), g)
    accepted = []
    fast_normals = randomize._fast_normals

    def spy(r, wi, ki):
        x, ok = fast_normals(r, wi, ki)
        accepted.append(ok)
        return x, ok

    monkeypatch.setattr(randomize, "_fast_normals", spy)
    coeffs = draw(noise_field(g, seed=2), part, seed=7000).coefficients
    ref = np.array([cube_gaussian(7000, j, 1)[0] for j in range(part.n_cutoffs)])
    assert coeffs.size == part.n_cutoffs == 3_857
    assert np.array_equal(coeffs.view(np.uint64), ref.view(np.uint64))
    both = np.concatenate([re & im for re, im in zip(accepted[::2], accepted[1::2])])
    assert 0 < np.count_nonzero(~both) < both.size


def test_draw_rejects_seeds_philox_rejects():
    g, part = small_partition()
    f = noise_field(g)
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            cube_gaussian(seed, 0)
        with pytest.raises(OverflowError):
            draw(f, part, seed=seed)


def test_draw_is_linear_in_f():
    g, part = small_partition()
    f = noise_field(g, seed=6)
    scaled = SpectralField(g, 2.5 * f.values, "physical")
    d = draw(f, part, seed=3)
    ds = draw(scaled, part, seed=3)
    assert np.max(np.abs(ds.field.values - 2.5 * d.field.values)) < 1e-10 * np.abs(d.field.values).max()


def test_draw_grid_mismatch_rejected():
    g, part = small_partition()
    other = GridSpec(1, 128, np.pi)
    with pytest.raises(ValueError):
        draw(noise_field(other), part, seed=0)


def test_draw_preserves_mean_l2():
    # E ||f_omega||^2 = sum_j ||box_j f||^2; with unit Gaussians the ensemble
    # L2 average approaches the deterministic weighted sum.
    g, part = small_partition()
    f = noise_field(g, seed=8)
    sq = [draw(f, part, seed=s).field.l2_norm() ** 2 for s in range(60)]
    fhat = f.as_frequency().values
    target = 0.0
    for j in range(part.n_cutoffs):
        cut = cutoff(part, j)
        box = np.zeros_like(fhat)
        box[cut.support] = cut.values * fhat[cut.support]
        target += SpectralField(g, box, "frequency").l2_norm() ** 2
    assert abs(np.mean(sq) / target - 1.0) < 0.25


def test_chaos_moment_guards():
    coeffs = np.array([1.0, 0.5])
    with pytest.raises(ValueError):
        chaos_moment(coeffs, 1.5, 1000)
    with pytest.raises(ValueError):
        chaos_moment(coeffs, 4.0, 50)


def test_chaos_moment_matches_gaussian_closed_form():
    # A single unit coefficient makes F a standard complex Gaussian, where
    # E|F|^4 = 2 (second moment 1).
    coeffs = np.array([1.0])
    m2 = chaos_moment(coeffs, 2.0, 200_000, seed=1)
    m4 = chaos_moment(coeffs, 4.0, 200_000, seed=1)
    assert m2.moment == pytest.approx(1.0, rel=0.02)
    assert m4.moment == pytest.approx(2.0**0.25, rel=0.03)
    assert m2.coeff_norm == pytest.approx(1.0)


def test_tail_fit_standard_normal_rate():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0x7A11], dtype=np.uint64)))
    samples = np.abs(rng.standard_normal(10_000))
    rep = tail_fit(samples)
    assert abs(rep.rate - 0.5) < 0.1
    assert rep.r_squared > 0.95
    assert rep.n_samples == 10_000
    assert np.all(rep.wilson_lo <= rep.survival) and np.all(rep.survival <= rep.wilson_hi)


def test_tail_fit_rejects_small_samples():
    with pytest.raises(FitError):
        tail_fit(np.ones(150))


def test_tail_fit_rejects_bad_window():
    with pytest.raises(FitError):
        tail_fit(np.random.default_rng(0).normal(size=500), q_lo=0.9, q_hi=0.5)


def test_moment_estimate_single_cube():
    g, part = small_partition()
    f = noise_field(g, seed=2)
    est = moment_estimate(f, part, p=4.0, n_samples=5000, seed=0)
    assert est.moment > 0.0
    assert est.coeff_norm > 0.0
    assert est.ratio == pytest.approx(est.moment / (2.0 * est.coeff_norm), rel=1e-12)


@pytest.mark.parametrize("dim,points,point", [(1, 64, (37,)), (2, 32, (5, 20)), (3, 16, (3, 9, 14))])
def test_moment_estimate_coefficients_are_the_cube_projections(dim, points, point, monkeypatch):
    # c_j = (box_j f)(x0): one inverse transform per cube, read at x0
    g = GridSpec(dim, points, 2.5)
    part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2), g)
    f = noise_field(g, seed=dim)
    seen = {}

    def capture(coeffs, p, n_samples, seed=0):
        seen["c"] = coeffs
        return chaos_moment(coeffs, p, n_samples, seed)

    monkeypatch.setattr(instruments, "chaos_moment", capture)
    moment_estimate(f, part, p=4.0, n_samples=200, point=point)
    fhat = f.as_frequency().values.reshape(-1)
    ref = np.empty(part.n_cutoffs, dtype=complex)
    for j in range(part.n_cutoffs):
        cut = cutoff(part, j)
        box = np.zeros(g.n_points, dtype=complex)
        box[cut.support] = cut.values * fhat[cut.support]
        ref[j] = SpectralField(g, box.reshape(g.shape), "frequency").as_physical().values[point]
    assert np.max(np.abs(seen["c"] - ref)) < 1e-13 * np.max(np.abs(ref))
