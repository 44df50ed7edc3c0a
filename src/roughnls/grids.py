"""Periodic grids, spectral fields, Fourier multipliers, and dyadic frequency projectors.

Conventions (fixed once, used everywhere):

* Physical domain [-L, L)^d sampled at M points per axis, spacing dx = 2L/M.
* Frequency lattice xi in (pi/L) * {-M/2, ..., M/2 - 1}^d, spacing dxi = pi/L,
  stored in FFT order.
* Forward transform approximates fhat(xi) = int e^{-i x.xi} f(x) dx as the
  Riemann sum dx^d * sum_x e^{-i x.xi} f(x); the inverse carries the 1/(2pi)^d.
  With this normalization discrete Parseval reads
  sum_x |f|^2 dx^d = sum_xi |fhat|^2 dxi^d / (2pi)^d.
* e^{it Laplacian} acts as the multiplier e^{-i t |xi|^2}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RepresentationError

__all__ = [
    "GridSpec",
    "SpectralField",
    "to_frequency",
    "to_physical",
    "fractional_derivative",
    "derivative_symbol",
    "littlewood_paley",
    "free_propagate",
    "free_multiplier",
    "lp_norm",
    "modulus_lp_norm",
    "sobolev_norm",
    "l2_inner",
    "gradient",
    "smoothstep",
    "lp_symbol",
]

PHYSICAL = "physical"
FREQUENCY = "frequency"


@dataclass(frozen=True)
class GridSpec:
    """Isotropic periodic grid: dim axes, points per axis, box half-width L."""

    dim: int
    points: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3, 4):
            raise ValueError(f"dim must be in 1..4, got {self.dim}")
        m = self.points
        if m < 4 or m % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 4, got {m}")
        if not (self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def dxi(self) -> float:
        return math.pi / self.half_width

    @property
    def nyquist(self) -> float:
        """Largest resolved |xi_j| on the one-sided axis, pi*M/(2L)."""
        return math.pi * self.points / (2.0 * self.half_width)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def n_points(self) -> int:
        return self.points**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def x_axis(self) -> np.ndarray:
        """Physical coordinates along one axis, [-L, L) order."""
        return -self.half_width + self.dx * np.arange(self.points)

    def xi_axis(self) -> np.ndarray:
        """Frequency coordinates along one axis, FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.dx)


@lru_cache(maxsize=64)
def _xi_grids(grid: GridSpec) -> tuple[np.ndarray, ...]:
    ax = grid.xi_axis()
    return tuple(np.meshgrid(*([ax] * grid.dim), indexing="ij", sparse=True))


@lru_cache(maxsize=64)
def _xi_sq(grid: GridSpec) -> np.ndarray:
    comps = _xi_grids(grid)
    out = np.zeros(grid.shape)
    for c in comps:
        out = out + c**2
    return out


def _outer_power(ax: np.ndarray, dim: int) -> np.ndarray:
    """The lattice array ax[m_1] * ... * ax[m_d], a product of per-axis factors."""
    out = ax
    for _ in range(dim - 1):
        out = np.multiply.outer(out, ax)
    return out


@lru_cache(maxsize=64)
def _transform_weight(grid: GridSpec) -> np.ndarray:
    # dx^d * e^{-i x0 . xi} with x0 = (-L, ..., -L): cell volume times the
    # reference phase of the leftmost sample.
    return grid.cell_volume * _outer_power(np.exp(1j * grid.half_width * grid.xi_axis()), grid.dim)


def free_multiplier(grid: GridSpec, t: float) -> np.ndarray:
    """The free-flow symbol e^{-i t |xi|^2} on the lattice, exact up to rounding.

    Built as the outer product of the d per-axis factors e^{-i t xi_k^2}: d*M
    complex exponentials instead of M^d.
    """
    return _outer_power(np.exp(-1j * t * grid.xi_axis() ** 2), grid.dim)


@dataclass(frozen=True)
class SpectralField:
    """One complex field on a grid, tagged with its current representation.

    Frequency-representation values are samples of the continuum-normalized
    transform fhat(xi) on the FFT-ordered lattice. Arrays are treated as
    immutable; operations return new fields.
    """

    grid: GridSpec
    values: np.ndarray
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise RepresentationError(f"unknown representation tag {self.rep!r}")
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def as_physical(self) -> "SpectralField":
        return self if self.rep == PHYSICAL else to_physical(self)

    def as_frequency(self) -> "SpectralField":
        return self if self.rep == FREQUENCY else to_frequency(self)

    def l2_norm(self) -> float:
        f = self.as_physical()
        return math.sqrt(np.sum(np.abs(f.values) ** 2).real * self.grid.cell_volume)


def to_frequency(field: SpectralField) -> SpectralField:
    """Forward transform. Errors if the field is already in frequency representation."""
    if field.rep != PHYSICAL:
        raise RepresentationError("to_frequency expects a physical-representation field")
    g = field.grid
    fhat = np.fft.fftn(field.values)
    fhat *= _transform_weight(g)
    return SpectralField(g, fhat, FREQUENCY)


def to_physical(field: SpectralField) -> SpectralField:
    """Inverse transform. Errors if the field is already in physical representation."""
    if field.rep != FREQUENCY:
        raise RepresentationError("to_physical expects a frequency-representation field")
    g = field.grid
    raw = field.values / _transform_weight(g)
    return SpectralField(g, np.fft.ifftn(raw), PHYSICAL)


def _apply_multiplier(field: SpectralField, mult: np.ndarray) -> SpectralField:
    start_physical = field.rep == PHYSICAL
    fhat = field.as_frequency()
    out = SpectralField(field.grid, fhat.values * mult, FREQUENCY)
    return out.as_physical() if start_physical else out


def derivative_symbol(grid: GridSpec, s: float, kind: str) -> np.ndarray:
    """The lattice symbol |xi|^s (homogeneous, zero at xi = 0) or (1 + |xi|^2)^(s/2).

    The square of the symbol of order s is the symbol of order 2s, which is
    how Parseval sums weight |fhat|^2.
    """
    xi2 = _xi_sq(grid)
    if kind == "homogeneous":
        with np.errstate(divide="ignore"):
            mult = np.where(xi2 > 0, xi2 ** (s / 2.0), 0.0)
    elif kind == "inhomogeneous":
        mult = (1.0 + xi2) ** (s / 2.0)
    else:
        raise ValueError(f"kind must be 'homogeneous' or 'inhomogeneous', got {kind!r}")
    return mult


def fractional_derivative(field: SpectralField, s: float, kind: str = "homogeneous") -> SpectralField:
    """Apply |grad|^s (homogeneous) or <grad>^s (inhomogeneous, Bessel).

    The homogeneous symbol |xi|^s is zero at xi = 0 for s != 0 (the mean mode is
    dropped, also for negative s); s = 0 is the identity. Output keeps the input
    representation.
    """
    if kind == "homogeneous" and s == 0:
        return field
    return _apply_multiplier(field, derivative_symbol(field.grid, s, kind))


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 for t <= 0, 1 for t >= 1, 6t^5 - 15t^4 + 10t^3 between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _phi(r: np.ndarray) -> np.ndarray:
    """Radial dyadic cutoff: 1 on r <= 1, 0 on r >= 2, C^2 smoothstep between."""
    return 1.0 - smoothstep(np.asarray(r) - 1.0)


@lru_cache(maxsize=256)
def lp_symbol(grid: GridSpec, n: float, variant: str) -> np.ndarray:
    """Littlewood-Paley symbol on the grid: variant in {'low','band','high'}.

    low  = phi(|xi|/N)           (P_{<=N})
    band = phi(|xi|/N) - phi(2|xi|/N)   (P_N)
    high = 1 - phi(|xi|/N)       (P_{>=N} = Id - P_{<=N})
    """
    if n <= 0:
        raise ValueError(f"dyadic scale must be positive, got {n}")
    r = np.sqrt(_xi_sq(grid))
    if n > grid.nyquist * math.sqrt(grid.dim):
        warnings.warn(
            f"dyadic scale N={n:g} exceeds the largest lattice frequency; "
            "projector degenerates (low -> identity, high -> tail only)",
            stacklevel=3,
        )
    if variant == "low":
        return _phi(r / n)
    if variant == "band":
        return _phi(r / n) - _phi(2.0 * r / n)
    if variant == "high":
        return 1.0 - _phi(r / n)
    raise ValueError(f"variant must be 'low', 'band' or 'high', got {variant!r}")


def littlewood_paley(field: SpectralField, n: float, variant: str = "band") -> SpectralField:
    """Dyadic frequency projector P_N / P_{<=N} / P_{>=N} acting on one field."""
    return _apply_multiplier(field, lp_symbol(field.grid, float(n), variant))


def free_propagate(field: SpectralField, t: float) -> SpectralField:
    """Exact free flow e^{it Laplacian}: multiply fhat by e^{-i t |xi|^2}."""
    if t == 0:
        return field
    return _apply_multiplier(field, free_multiplier(field.grid, t))


@lru_cache(maxsize=64)
def _xi_grids_odd(grid: GridSpec) -> tuple[np.ndarray, ...]:
    # Derivative axes: the unpaired mode at -M/2 has no positive partner, so an
    # odd multiplier there would make the derivative of a real field complex;
    # it is zeroed, the usual convention for odd-order spectral derivatives.
    ax = grid.xi_axis().copy()
    ax[grid.points // 2] = 0.0
    return tuple(np.meshgrid(*([ax] * grid.dim), indexing="ij", sparse=True))


def gradient(field: SpectralField) -> list[SpectralField]:
    """Spectral partial derivatives [d/dx_1 f, ..., d/dx_d f], physical representation.

    Real fields get real derivatives: the odd symbol i xi_k is zeroed at the
    unpaired Nyquist frequency.
    """
    fhat = field.as_frequency()
    comps = _xi_grids_odd(field.grid)
    shape = field.grid.shape
    return [
        to_physical(SpectralField(field.grid, fhat.values * np.broadcast_to(1j * c, shape), FREQUENCY))
        for c in comps
    ]


def lp_norm(field: SpectralField, r: float) -> float:
    """Spatial L^r norm by Riemann sum; r = inf is the lattice max of |f|."""
    return modulus_lp_norm(np.abs(field.as_physical().values), r, field.grid)


def modulus_lp_norm(modulus: np.ndarray, r: float, grid: GridSpec) -> float:
    """lp_norm of a field whose pointwise modulus |f| is already at hand."""
    if math.isinf(r):
        return float(modulus.max())
    if r <= 0:
        raise ValueError(f"Lebesgue exponent must be positive, got {r}")
    return float((np.sum(modulus**r) * grid.cell_volume) ** (1.0 / r))


def sobolev_norm(field: SpectralField, s: float, kind: str = "inhomogeneous") -> float:
    """||D^s f||_L2 with D = <grad> (default) or |grad|."""
    if s == 0 and kind == "inhomogeneous":
        return field.l2_norm()
    return fractional_derivative(field, s, kind).l2_norm()


def l2_inner(f: SpectralField, g: SpectralField) -> complex:
    """Lattice inner product int conj(f) g dx."""
    a = f.as_physical().values
    b = g.as_physical().values
    return complex(np.sum(np.conj(a) * b) * f.grid.cell_volume)
