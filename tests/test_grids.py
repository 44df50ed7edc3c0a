"""Fourier conventions: transforms, multipliers, and the spectral operations
(derivatives, gradients, norms and the free flow) in numpy's raw coordinates."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from roughnls import (
    FrequencyView,
    GridSpec,
    SpectralField,
    free_flow_into,
    free_multiplier,
    lp_symbol,
)
from roughnls import grids
from roughnls.grids import derivative_symbol, xi_grids_odd, xi_sq

from conftest import traced_peak
from instruments import gradient, scattering_proxy


def gaussian_field(grid, width=1.0, amp=1.0):
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    r2 = sum(x**2 for x in mesh)
    return SpectralField(grid, amp * np.exp(-width * r2).astype(complex), "physical")


def free_flow(values, grid, t):
    """e^{it Lap} of physical values through free_flow_into in numpy's raw coordinates."""
    fhat = np.fft.fftn(values)
    return np.fft.ifftn(free_flow_into(fhat, grid, t, fhat))


def noise_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return SpectralField(grid, vals, "physical")


def test_grid_spec_geometry():
    g = GridSpec(3, 16, np.pi)
    assert g.shape == (16, 16, 16)
    assert g.n_points == 16**3
    assert g.dx == pytest.approx(2 * np.pi / 16)
    assert g.dxi == pytest.approx(1.0)
    assert g.nyquist == pytest.approx(8.0)
    x = g.x_axis()
    assert x[0] == pytest.approx(-np.pi)
    assert x[-1] == pytest.approx(np.pi - g.dx)
    xi = g.xi_axis()
    assert xi.min() == pytest.approx(-8.0)
    assert xi.max() == pytest.approx(7.0)


def test_grid_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GridSpec(5, 16, 1.0)
    with pytest.raises(ValueError):
        GridSpec(3, 15, 1.0)
    with pytest.raises(ValueError):
        GridSpec(3, 16, -1.0)


def test_representation_round_trip():
    g = GridSpec(2, 32, 2.0)
    f = noise_field(g, seed=3)
    back = f.as_frequency().as_physical()
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_forward_transform_matches_plane_wave():
    # A single lattice plane wave e^{i k.x} concentrates all spectral mass on
    # the one mode, with continuum weight (2L)^d.
    g = GridSpec(1, 32, np.pi)
    x = g.x_axis()
    f = SpectralField(g, np.exp(3j * x), "physical")
    fhat = f.as_frequency().values
    k = np.argmin(np.abs(g.xi_axis() - 3.0))
    expected = (2 * g.half_width) ** g.dim
    assert abs(fhat[k] - expected) < 1e-10
    mask = np.ones_like(fhat, dtype=bool)
    mask[k] = False
    assert np.max(np.abs(fhat[mask])) < 1e-10


def test_parseval():
    g = GridSpec(3, 12, 1.5)
    f = noise_field(g, seed=5)
    phys = np.sum(np.abs(f.values) ** 2) * g.cell_volume
    fhat = f.as_frequency().values
    freq = np.sum(np.abs(fhat) ** 2) * g.dxi**g.dim / (2 * np.pi) ** g.dim
    assert phys == pytest.approx(freq, rel=1e-12)
    assert f.l2_norm() == pytest.approx(np.sqrt(phys), rel=1e-12)


def test_wrong_representation_raises():
    g = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros(8, dtype=complex), "spectral")
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros((8, 8), dtype=complex), "physical")


def test_gradient_of_plane_wave():
    g = GridSpec(2, 16, np.pi)
    mesh = np.meshgrid(*([g.x_axis()] * 2), indexing="ij")
    f = SpectralField(g, np.exp(1j * (2 * mesh[0] - mesh[1])), "physical")
    grads = gradient(FrequencyView(g, f.values))
    assert np.max(np.abs(grads[0] - 2j * f.values)) < 1e-10
    assert np.max(np.abs(grads[1] + 1j * f.values)) < 1e-10


def test_gradient_of_real_field_is_real():
    # The unpaired Nyquist mode is zeroed in odd-order derivatives, so real
    # input gives real output even for rough fields.
    g = GridSpec(3, 8, np.pi)
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    f = SpectralField(g, rng.normal(size=g.shape).astype(complex), "physical")
    for comp in gradient(FrequencyView(g, f.values)):
        assert np.max(np.abs(comp.imag)) < 1e-12


def test_fractional_derivative_homogeneous_drops_mean():
    g = GridSpec(2, 16, np.pi)
    f = noise_field(g, seed=1)
    view = FrequencyView(g, f.values)
    fhat = view.fhat
    scale = np.abs(fhat).max()
    for s in (0.5, -0.25):
        out = np.fft.fftn(view.derivative(s, "homogeneous"))
        # xi = 0 sits at FFT index 0; the round trip through the physical
        # representation leaves only roundoff there.
        assert abs(out[0, 0]) < 1e-13 * scale
    smooth = np.fft.fftn(view.derivative(1.0, "inhomogeneous"))
    assert abs(smooth[0, 0] - fhat[0, 0]) < 1e-12


def test_fractional_derivative_matches_symbol_on_plane_wave():
    g = GridSpec(1, 32, np.pi)
    x = g.x_axis()
    f = SpectralField(g, np.exp(4j * x), "physical")
    out = FrequencyView(g, f.values).derivative(0.5, "homogeneous")
    assert np.max(np.abs(out - 2.0 * np.exp(4j * x))) < 1e-10


def test_lp_symbol_low_band_high_partition():
    g = GridSpec(2, 32, np.pi)
    low = lp_symbol(g, 4.0, "low")
    band = lp_symbol(g, 8.0, "band")
    high = lp_symbol(g, 8.0, "high")
    # low(N) + sum of bands + high tail reproduces 1 where the dyadic ladder
    # is complete; here just check complementarity at one scale.
    assert np.max(np.abs(lp_symbol(g, 8.0, "low") + high - 1.0)) < 1e-12
    assert np.all(band >= -1e-15)
    assert np.all(low <= 1 + 1e-15)


def test_free_propagate_gaussian_closed_form():
    # e^{it Lap} of a centered Gaussian has the exact heat-kernel-like form
    # with complex variance; on a box large enough for negligible wraparound
    # the lattice solution matches pointwise.
    g = GridSpec(1, 128, 16.0)
    x = g.x_axis()
    a = 1.0
    f = SpectralField(g, np.exp(-a * x**2).astype(complex), "physical")
    t = 0.3
    out = free_flow(f.values, g, t)
    sigma = 1.0 + 4j * a * t
    exact = np.exp(-a * x**2 / sigma) / np.sqrt(sigma)
    assert np.max(np.abs(out - exact)) < 1e-8


def test_free_propagate_group_law_and_isometry():
    g = GridSpec(2, 16, np.pi)
    f = noise_field(g, seed=7)
    fhat = np.fft.fftn(f.values)
    once = free_flow_into(free_flow_into(fhat, g, 0.2, np.empty_like(fhat)), g, 0.3, np.empty_like(fhat))
    direct = free_flow_into(fhat, g, 0.5, np.empty_like(fhat))
    assert np.max(np.abs(once - direct)) < 1e-12
    moved = FrequencyView(g, free_flow(f.values, g, 0.7))
    assert moved.norm(2) == pytest.approx(FrequencyView(g, f.values).norm(2), rel=1e-13)


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 32), (3, 16), (4, 8)])
@pytest.mark.parametrize("t", [1e-3, 0.3, -0.8])
def test_free_multiplier_matches_lattice_exponential(dim, points, t):
    g = GridSpec(dim, points, np.pi)
    exact = np.exp(-1j * t * xi_sq(g))
    got = free_multiplier(g, t)
    assert got.shape == g.shape
    assert np.max(np.abs(got - exact)) < 1e-13
    # the same symbol applied in place, one broadcast multiply per axis
    fhat = noise_field(g, seed=dim).values
    out = np.empty(g.shape, dtype=complex)
    assert free_flow_into(fhat, g, t, out) is out
    assert np.max(np.abs(out - exact * fhat)) < 1e-13 * np.max(np.abs(fhat))


@pytest.mark.parametrize("dim,points,half_width", [(1, 64, 3.0), (2, 16, np.pi), (3, 12, 2.5), (4, 6, np.pi)])
def test_transforms_match_inline_normalization(dim, points, half_width):
    # The weight dx^d * e^{i L xi} per axis is exactly dx^d * (-1)^(m_1+...+m_d),
    # since L xi_k = pi m_k; it is applied exactly as the inline
    # fftn(x) * (dvol * sign) and ifftn(x / (dvol * sign)) do.
    g = GridSpec(dim, points, half_width)
    sign = 1.0 - 2.0 * (np.indices(g.shape).sum(axis=0) % 2)
    weight = g.cell_volume * sign
    f = noise_field(g, seed=dim)
    kept = f.values.copy()
    fhat = f.as_frequency().values
    assert np.array_equal(fhat, np.fft.fftn(f.values) * weight)
    assert np.array_equal(f.values, kept)  # the transform does not write its input
    kept_hat = fhat.copy()
    back = SpectralField(g, fhat, "frequency").as_physical().values
    assert np.array_equal(back, np.fft.ifftn(fhat / weight))
    assert np.array_equal(fhat, kept_hat)
    # a real-dtype physical field transforms as its complex cast does
    real = f.values.real.copy()
    rhat = SpectralField(g, real, "physical").as_frequency().values
    assert rhat.dtype == np.complex128
    assert np.array_equal(rhat, np.fft.fftn(real) * weight)
    assert np.array_equal(real, f.values.real)
    # the phase form of the weight agrees to rounding
    ax = np.exp(1j * g.half_width * g.xi_axis())
    phase = ax
    for _ in range(dim - 1):
        phase = np.multiply.outer(phase, ax)
    ref = np.fft.fftn(f.values) * (g.cell_volume * phase)
    assert np.max(np.abs(fhat - ref)) <= 1e-13 * np.max(np.abs(ref))
    ref_back = np.fft.ifftn(fhat / (g.cell_volume * phase))
    assert np.max(np.abs(back - ref_back)) <= 1e-13 * np.max(np.abs(ref_back))


@pytest.mark.parametrize("dim,points", [(3, 32), (4, 16), (3, 64)])
def test_transforms_allocate_one_lattice_field(dim, points, monkeypatch):
    # Each transform allocates its result and transforms in place in it, so
    # its traced peak is one complex lattice field above its input; 64^3
    # holds the split path to it on any host.
    monkeypatch.setattr(grids, "_CPUS", max(grids._CPUS, 2))
    g = GridSpec(dim, points, np.pi)
    field = 16 * g.n_points
    f = noise_field(g, seed=5)
    inputs = {
        "to_frequency": SpectralField(g, f.values, "physical"),
        "to_frequency real": SpectralField(g, f.values.real.copy(), "physical"),
        "to_physical": f.as_frequency(),
    }
    for name, field_in in inputs.items():
        transform = field_in.as_frequency if field_in.rep == "physical" else field_in.as_physical
        transform()  # warm the FFT plan caches
        out, peak, _ = traced_peak(transform)
        assert out.values.dtype == np.complex128
        assert field <= peak < 1.25 * field, (name, peak / field)


@pytest.mark.parametrize("shape", [(64,) * 3, (65,) * 3, (20,) * 4])
def test_split_transforms_are_numpys_bits(shape, monkeypatch):
    # 0.3 s in all. Two slabs on any host (65^3 splits unevenly): in place,
    # into out= and into a new array, the split transforms give np.fft's bits.
    monkeypatch.setattr(grids, "_CPUS", 2)
    assert grids._slab_count(shape, 0) == 2
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 1], dtype=np.uint64)))
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for split, whole in ((grids.fftn, np.fft.fftn), (grids.ifftn, np.fft.ifftn)):
        ref = whole(values)
        in_place = values.copy()
        assert split(in_place, out=in_place) is in_place
        out = np.empty_like(values)
        assert split(values, out=out) is out
        for got in (in_place, out, split(values)):
            assert np.array_equal(got, ref)
    real = values.real.copy()
    assert np.array_equal(grids.fftn(real), np.fft.fftn(real))


def test_small_lattices_never_use_the_slab_pool(monkeypatch):
    # 0.01 s. The 3D linear-stats (32^3) and 4D audit (16^4) lattices stay one
    # plain call, and fftn_kept, whose extra calls would cost more than the
    # lines they save there, is the full fftn.
    def no_pool():
        raise AssertionError("the slab pool was used")

    monkeypatch.setattr(grids, "_CPUS", 2)
    monkeypatch.setattr(grids, "_slab_pool", no_pool)
    for g in (GridSpec(3, 32, np.pi), GridSpec(4, 16, np.pi)):
        assert grids._slab_count(g.shape, 0) == 1
        f = noise_field(g)
        assert f.as_frequency().as_physical().values.shape == g.shape
        free_flow_into(f.values, g, 0.1, np.empty_like(f.values))
        assert np.array_equal(grids.fftn_kept(f.values, out=np.empty_like(f.values)), np.fft.fftn(f.values))


def test_a_slab_exception_reaches_the_caller(monkeypatch):
    # 0.01 s. The raising slab runs on a pool thread; the call returns once both slabs are done.
    monkeypatch.setattr(grids, "_CPUS", 2)
    err = ValueError("slab 1")
    lattice = np.zeros((64,) * 3)
    lattice[32:] = np.nan

    def fill(slab):
        if np.isnan(slab).any():
            raise err
        slab[...] = 1.0

    with pytest.raises(ValueError) as caught:
        grids.on_slabs(fill, lattice)
    assert caught.value is err
    assert (lattice[:32] == 1.0).all() and np.isnan(lattice[32:]).all()


def test_callers_on_more_threads_than_cpus_share_the_slab_pool(monkeypatch):
    # 0.2 s. Four threads transform their own 64^3 lattices on the one pool,
    # with the interpreter switching threads every microsecond: each gets
    # np.fft's bits for its own lattice, every time.
    monkeypatch.setattr(grids, "_CPUS", 2)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 2], dtype=np.uint64)))
    lattices = [rng.normal(size=(64,) * 3) + 1j * rng.normal(size=(64,) * 3) for _ in range(4)]
    refs = [np.fft.fftn(a) for a in lattices]
    equal = []

    def transform(a, ref):
        for _ in range(5):
            equal.append(np.array_equal(grids.fftn(a), ref))

    threads = [threading.Thread(target=transform, args=pair) for pair in zip(lattices, refs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert equal == [True] * 20


def _kept_mask(shape):
    """The modes whose every FFT-order index lies in grids.dealias_ranges."""
    mask = np.ones(shape, dtype=bool)
    for axis, points in enumerate(shape):
        keep = np.zeros(points, dtype=bool)
        for kept in grids.dealias_ranges(points):
            keep[kept] = True
        mask &= keep.reshape((-1,) + (1,) * (len(shape) - 1 - axis))
    return mask


@pytest.mark.parametrize("shape", [(64,) * 3, (20,) * 4])
@pytest.mark.parametrize("cpus", [1, 2])
def test_kept_transform_is_numpys_bits_on_the_kept_modes(shape, cpus, monkeypatch):
    # 0.1 s in all. Into out= and in place, with the slab pool off and on:
    # np.fft.fftn's bits on the kept modes, finite partial sums elsewhere.
    monkeypatch.setattr(grids, "_CPUS", cpus)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.fft.fftn(values)
    mask = _kept_mask(shape)
    out = np.empty_like(values)
    in_place = values.copy()
    assert grids.fftn_kept(values, out=out) is out
    assert grids.fftn_kept(in_place, out=in_place) is in_place
    for got in (out, in_place):
        assert np.array_equal(got[mask], ref[mask])
        assert np.isfinite(got).all()


@pytest.mark.parametrize("cpus", [1, 2])
def test_kept_transform_makes_8697_line_transforms(cpus, monkeypatch):
    # 0.05 s. At 64^3 the last axis transforms all 4,096 lines, axis 1 the
    # 64 x 43 lines of a kept axis-2 index and axis 0 the 43 x 43 lines of
    # kept axis-1 and axis-2 indices, against fftn's 3 x 4,096.
    monkeypatch.setattr(grids, "_CPUS", cpus)
    real = np.fft.fft
    lines = []  # appended from the pool's threads too

    def counted(a, *args, axis=-1, **kwargs):
        lines.append(a.size // a.shape[axis])
        return real(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    values = np.ones((64,) * 3, dtype=np.complex128)
    grids.fftn_kept(values, out=values)
    assert sum(lines) == 4096 + 64 * 43 + 43 * 43 == 8697


def test_a_forked_child_makes_its_own_slab_pool(monkeypatch):
    # 0.04 s. A child forked after the parent's pool exists inherits its queues
    # but not its threads; it must make its own pool, not wait on theirs. One
    # child, killed if it is not done within 20 s.
    monkeypatch.setattr(grids, "_CPUS", 2)
    values = noise_field(GridSpec(3, 64, np.pi), seed=4).values
    ref = np.fft.fftn(values)
    assert np.array_equal(grids.fftn(values), ref)  # the parent's pool is made
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(grids.fftn(values), ref) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in its first 64^3 transform")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_lp_norm_against_closed_form():
    g = GridSpec(1, 64, np.pi)
    f = FrequencyView(g, np.ones(64, dtype=complex))
    assert f.norm(4.0) == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)
    assert f.norm(np.inf) == pytest.approx(1.0)


def test_sobolev_norm_plane_wave():
    g = GridSpec(1, 32, np.pi)
    f = SpectralField(g, np.exp(2j * g.x_axis()), "physical")
    l2 = f.l2_norm()
    view = FrequencyView(g, f.values)
    assert view.norm(2, 1.0, "inhomogeneous") == pytest.approx(np.sqrt(5.0) * l2, rel=1e-12)
    assert view.norm(2, 0.5, "homogeneous") == pytest.approx(np.sqrt(2.0) * l2, rel=1e-12)


def weighted_multiply(f, mult):
    """Reference: continuum-weighted transform of f, times mult, inverse transform to physical values."""
    return SpectralField(f.grid, f.as_frequency().values * mult, "frequency").as_physical().values


def riemann_lp(values, r, grid):
    """Reference: Riemann-sum L^r norm; r = inf is the lattice max."""
    if np.isinf(r):
        return float(np.abs(values).max())
    return float((np.sum(np.abs(values) ** r) * grid.cell_volume) ** (1.0 / r))


@pytest.mark.parametrize("dim,points,half_width", [(3, 12, 2.5), (4, 8, np.pi)])
def test_view_matches_weighted_reference(dim, points, half_width, monkeypatch):
    # The continuum-weighted formulas the package used before every spectral
    # operation moved to numpy's raw coordinates: the view's H^s and D^s L^r
    # norms, its gradient and scattering_proxy's pulled-back H^1 deltas agree.
    # The deltas are Parseval sums, so scattering_proxy makes no inverse
    # transform, and each equals that of a view given the values as well.
    g = GridSpec(dim, points, half_width)
    f = noise_field(g, seed=dim + 20)
    view = FrequencyView(g, f.values)
    for s, kind in ((0.5, "inhomogeneous"), (1.0, "inhomogeneous"), (0.5, "homogeneous"), (-0.25, "homogeneous")):
        ds = weighted_multiply(f, derivative_symbol(g, s, kind))
        for r in (2.0, 3.0, 4.0, np.inf):
            assert view.norm(r, s, kind) == pytest.approx(riemann_lp(ds, r, g), rel=1e-12), (s, kind, r)
    for got, c in zip(gradient(view), xi_grids_odd(g)):
        want = weighted_multiply(f, np.broadcast_to(1j * c, g.shape))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    times = np.linspace(0.0, 0.4, 5)
    stack = np.stack([noise_field(g, seed=dim + 30 + k).values for k in range(times.size)])
    spectra = [np.fft.fftn(values) for values in stack]
    inverse, calls = np.fft.ifftn, []

    def counted_ifftn(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counted_ifftn)
    rep = scattering_proxy(g, times, spectra)
    monkeypatch.undo()
    assert calls == []
    assert all(np.array_equal(f, np.fft.fftn(v)) for f, v in zip(spectra, stack))  # only read
    raw = []
    for k in range(1, times.size):  # the ladder: t_final / 4, ..., t_final
        fhat = np.fft.fftn(stack[k])
        raw.append(free_flow_into(fhat, g, -float(times[k]), fhat))
    assert list(rep.deltas) == [
        FrequencyView(g, np.fft.ifftn(p2 - p1), p2 - p1).norm(2, 1.0, "inhomogeneous")
        for p1, p2 in zip(raw, raw[1:])
    ]
    pulled = [
        SpectralField(g, w, "physical").as_frequency().values * free_multiplier(g, -t)
        for w, t in zip(stack, times)
    ]
    h1 = derivative_symbol(g, 1.0, "inhomogeneous")
    want = [
        riemann_lp(SpectralField(g, (p2 - p1) * h1, "frequency").as_physical().values, 2.0, g)
        for p1, p2 in zip(pulled[1:], pulled[2:])
    ]
    assert rep.times == tuple(times[1:])
    assert rep.deltas == pytest.approx(want, rel=1e-12)
