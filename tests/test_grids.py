"""Fourier conventions: transforms, multipliers, derivatives, free flow."""

import tracemalloc

import numpy as np
import pytest

from roughnls import (
    GridSpec,
    SpectralField,
    fractional_derivative,
    free_flow_into,
    free_multiplier,
    free_propagate,
    gradient,
    l2_inner,
    lp_norm,
    lp_symbol,
    sobolev_norm,
)
from roughnls.grids import xi_sq


def gaussian_field(grid, width=1.0, amp=1.0):
    mesh = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij", sparse=True)
    r2 = sum(x**2 for x in mesh)
    return SpectralField(grid, amp * np.exp(-width * r2).astype(complex), "physical")


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
    grads = gradient(f)
    assert np.max(np.abs(grads[0].as_physical().values - 2j * f.values)) < 1e-10
    assert np.max(np.abs(grads[1].as_physical().values + 1j * f.values)) < 1e-10


def test_gradient_of_real_field_is_real():
    # The unpaired Nyquist mode is zeroed in odd-order derivatives, so real
    # input gives real output even for rough fields.
    g = GridSpec(3, 8, np.pi)
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    f = SpectralField(g, rng.normal(size=g.shape).astype(complex), "physical")
    for comp in gradient(f):
        assert np.max(np.abs(comp.as_physical().values.imag)) < 1e-12


def test_fractional_derivative_homogeneous_drops_mean():
    g = GridSpec(2, 16, np.pi)
    f = noise_field(g, seed=1)
    scale = np.abs(f.as_frequency().values).max()
    for s in (0.5, -0.25):
        out = fractional_derivative(f, s, "homogeneous").as_frequency().values
        # xi = 0 sits at FFT index 0; the round trip through the physical
        # representation leaves only roundoff there.
        assert abs(out[0, 0]) < 1e-13 * scale
    smooth = fractional_derivative(f, 1.0, "inhomogeneous")
    fhat = f.as_frequency().values
    assert abs(smooth.as_frequency().values[0, 0] - fhat[0, 0]) < 1e-12


def test_fractional_derivative_matches_symbol_on_plane_wave():
    g = GridSpec(1, 32, np.pi)
    x = g.x_axis()
    f = SpectralField(g, np.exp(4j * x), "physical")
    out = fractional_derivative(f, 0.5, "homogeneous").as_physical().values
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
    out = free_propagate(f, t).as_physical().values
    sigma = 1.0 + 4j * a * t
    exact = np.exp(-a * x**2 / sigma) / np.sqrt(sigma)
    assert np.max(np.abs(out - exact)) < 1e-8


def test_free_propagate_group_law_and_isometry():
    g = GridSpec(2, 16, np.pi)
    f = noise_field(g, seed=7)
    once = free_propagate(free_propagate(f, 0.2), 0.3)
    direct = free_propagate(f, 0.5)
    diff = once.as_frequency().values - direct.as_frequency().values
    assert np.max(np.abs(diff)) < 1e-12
    assert free_propagate(f, 0.7).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)


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
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = transform()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.values.dtype == np.complex128
        assert field <= peak < 1.25 * field, (name, peak / field)


def test_lp_norm_against_closed_form():
    g = GridSpec(1, 64, np.pi)
    f = SpectralField(g, np.ones(64, dtype=complex), "physical")
    assert lp_norm(f, 4.0) == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)
    assert lp_norm(f, np.inf) == pytest.approx(1.0)


def test_sobolev_norm_plane_wave():
    g = GridSpec(1, 32, np.pi)
    f = SpectralField(g, np.exp(2j * g.x_axis()), "physical")
    l2 = f.l2_norm()
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(5.0) * l2, rel=1e-12)
    assert sobolev_norm(f, 0.5, "homogeneous") == pytest.approx(np.sqrt(2.0) * l2, rel=1e-12)


def test_l2_inner_conjugate_linear():
    g = GridSpec(1, 16, 1.0)
    f = noise_field(g, seed=11)
    h = noise_field(g, seed=12)
    ip = l2_inner(f, h)
    assert l2_inner(h, f) == pytest.approx(np.conj(ip))
    assert l2_inner(f, f).real == pytest.approx(f.l2_norm() ** 2, rel=1e-12)
