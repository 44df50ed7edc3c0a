"""Fourier conventions: transforms, multipliers, and the spectral operations
(derivatives, gradients, norms and the free flow) in numpy's raw coordinates."""

import numpy as np
import pytest

from roughnls import (
    FrequencyView,
    GridSpec,
    SpectralField,
    Trajectory,
    free_flow_into,
    free_multiplier,
    lp_symbol,
    scattering_proxy,
)
from roughnls.grids import derivative_symbol, xi_grids_odd, xi_sq

from conftest import traced_peak


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
    grads = FrequencyView(g, f.values).gradient()
    assert np.max(np.abs(grads[0] - 2j * f.values)) < 1e-10
    assert np.max(np.abs(grads[1] + 1j * f.values)) < 1e-10


def test_gradient_of_real_field_is_real():
    # The unpaired Nyquist mode is zeroed in odd-order derivatives, so real
    # input gives real output even for rough fields.
    g = GridSpec(3, 8, np.pi)
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    f = SpectralField(g, rng.normal(size=g.shape).astype(complex), "physical")
    for comp in FrequencyView(g, f.values).gradient():
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
    # The cached weight is dx^d * e^{i L xi} per axis, formed exactly as the
    # inline fftn(x) * (dvol * phase) and ifftn(x / (dvol * phase)) did.
    g = GridSpec(dim, points, half_width)
    ax = np.exp(1j * g.half_width * g.xi_axis())
    phase = ax
    for _ in range(dim - 1):
        phase = np.multiply.outer(phase, ax)
    f = noise_field(g, seed=dim)
    kept = f.values.copy()
    fhat = f.as_frequency().values
    assert np.array_equal(fhat, np.fft.fftn(f.values) * (g.cell_volume * phase))
    assert np.array_equal(f.values, kept)  # the transform does not write its input
    kept_hat = fhat.copy()
    back = SpectralField(g, fhat, "frequency").as_physical().values
    assert np.array_equal(back, np.fft.ifftn(fhat / (g.cell_volume * phase)))
    assert np.array_equal(fhat, kept_hat)
    # a real-dtype physical field transforms as its complex cast does
    real = f.values.real.copy()
    rhat = SpectralField(g, real, "physical").as_frequency().values
    assert rhat.dtype == np.complex128
    assert np.array_equal(rhat, np.fft.fftn(real) * (g.cell_volume * phase))
    assert np.array_equal(real, f.values.real)


@pytest.mark.parametrize("dim,points", [(3, 32), (4, 16)])
def test_transforms_allocate_one_lattice_field(dim, points):
    # Each transform allocates its result and transforms in place in it, so
    # its traced peak is one complex lattice field above its input.
    g = GridSpec(dim, points, np.pi)
    field = 16 * g.n_points
    f = noise_field(g, seed=5)
    inputs = {
        "to_frequency": SpectralField(g, f.values, "physical"),
        "to_frequency real": SpectralField(g, f.values.real.copy(), "physical"),
        "to_physical": f.as_frequency(),  # also warms the cached weight
    }
    for name, field_in in inputs.items():
        transform = field_in.as_frequency if field_in.rep == "physical" else field_in.as_physical
        transform()  # warm the FFT plan caches
        out, peak, _ = traced_peak(transform)
        assert out.values.dtype == np.complex128
        assert field <= peak < 1.25 * field, (name, peak / field)


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
def test_view_matches_weighted_reference(dim, points, half_width):
    # The continuum-weighted formulas the package used before every spectral
    # operation moved to numpy's raw coordinates: the view's H^s and D^s L^r
    # norms, its gradient and scattering_proxy's pulled-back H^1 deltas agree.
    g = GridSpec(dim, points, half_width)
    f = noise_field(g, seed=dim + 20)
    view = FrequencyView(g, f.values)
    for s, kind in ((0.5, "inhomogeneous"), (1.0, "inhomogeneous"), (0.5, "homogeneous"), (-0.25, "homogeneous")):
        ds = weighted_multiply(f, derivative_symbol(g, s, kind))
        for r in (2.0, 3.0, 4.0, np.inf):
            assert view.norm(r, s, kind) == pytest.approx(riemann_lp(ds, r, g), rel=1e-12), (s, kind, r)
    for got, c in zip(view.gradient(), xi_grids_odd(g)):
        want = weighted_multiply(f, np.broadcast_to(1j * c, g.shape))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    times = np.linspace(0.0, 0.4, 5)
    stack = np.stack([noise_field(g, seed=dim + 30 + k).values for k in range(times.size)])
    rep = scattering_proxy(Trajectory(g, times, {"w": stack}))
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
