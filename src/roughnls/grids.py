"""Periodic grids, spectral fields, Fourier symbols, and Littlewood-Paley symbols.

Conventions (fixed once, used everywhere):

* Physical domain [-L, L)^d sampled at M points per axis, spacing dx = 2L/M.
* Frequency lattice xi in (pi/L) * {-M/2, ..., M/2 - 1}^d, spacing dxi = pi/L,
  stored in FFT order.
* Forward transform approximates fhat(xi) = int e^{-i x.xi} f(x) dx as the
  Riemann sum dx^d * sum_x e^{-i x.xi} f(x); the inverse carries the 1/(2pi)^d.
  With this normalization discrete Parseval reads
  sum_x |f|^2 dx^d = sum_xi |fhat|^2 dxi^d / (2pi)^d.
* e^{it Laplacian} acts as the multiplier e^{-i t |xi|^2}.
* Each grid transform (to_frequency, to_physical) allocates one lattice
  array and transforms in place in it: the per-axis FFT passes and the
  weight multiply write into that array, never into the input.

Every lattice transform of the package goes through fftn, ifftn and
fftn_kept here, which give np.fft.fftn's and np.fft.ifftn's bits (fftn_kept
on the modes it keeps), in place or into out=.
This module alone decides how a transform runs. A lattice of at least
SPLIT_POINTS points, on a process whose CPU affinity holds more than one
CPU, is transformed in slabs: the trailing axes on axis-0 slabs, then axis 0
on axis-1 slabs, one slab per CPU, on one process-wide pool made on first
use (on_slabs) and made again in a child forked from the process. Any
smaller lattice, or any lattice on one CPU, is one plain np.fft call. On a
large lattice fftn_kept finishes only the modes the 2/3 rule keeps
(dealias_ranges, the rule's one definition), for the solver's steps, which
read the rest through a zero multiplier. The solver's elementwise passes over
a large lattice (|u|^2, the rotation, the free flow, the step's in-place
products, the series sample's passes) and its maxima go through on_slabs
too; no sum does, since splitting a sum changes its order and its bits.

The continuum weight exists only at the SpectralField boundary (to_frequency,
to_physical, raw_spectrum, the as_* methods and l2_norm). Every other
spectral operation works in numpy's raw np.fft.fftn coordinates, on which
the diagonal symbols here act unchanged: norms, derivatives and gradients
are read through norms.FrequencyView, and the free flow is free_flow_into.

Caching: a lattice array is cached per grid only when a solve's step loop
or every snapshot reads it, so the cache holds nothing the loop would not
hold anyway. Here that is |xi|^2 (xi_sq, half a complex field) and the
sparse per-axis frequency grids (_xi_grids, xi_grids_odd, d axes of M
values each); solver.dealias_mask and morawetz._kernel_tables_hat keep the
same rule. What only a seed's draw reads is not cached, so a forced solve
holds none of it: lp_symbol is built per call (6 ms at 64^3). The
transform weight of to_frequency, to_physical and raw_spectrum is the
exact sign pattern dx^d * (-1)^(m_1 + ... + m_d), applied by _weigh from
two signed slabs of the trailing axes, so a transform allocates its result
and no lattice-sized weight.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RepresentationError

__all__ = [
    "GridSpec",
    "SpectralField",
    "fftn",
    "ifftn",
    "fftn_kept",
    "dealias_ranges",
    "on_slabs",
    "to_frequency",
    "to_physical",
    "raw_spectrum",
    "derivative_symbol",
    "free_multiplier",
    "free_flow_into",
    "modulus_lp_norm",
    "smoothstep",
    "lp_symbol",
    "xi_sq",
    "xi_grids_odd",
]

PHYSICAL = "physical"
FREQUENCY = "frequency"

# A lattice of at least SPLIT_POINTS points is transformed, and passed through
# on_slabs, in axis-0 slabs, one per CPU: 2**17 complex128 points are 2 MiB,
# one core's L2 cache on the 2-CPU host measured. There a 64^3 lattice (2**18
# points) took 7.3 ms for an fftn and an ifftn against 11.7 ms in one call;
# the 32^3 and 16^4 lattices of the other workloads stay below it.
SPLIT_POINTS = 2**17
_CPUS = len(os.sched_getaffinity(0))
_pool = None
_pool_lock = threading.Lock()
_SLAB_THREAD = "roughnls-slab"


def _slab_count(shape: tuple[int, ...], axis: int) -> int:
    """How many slabs along axis a pass over a lattice of this shape runs in; 1 is one plain call."""
    if _CPUS < 2 or len(shape) < 2 or math.prod(shape) < SPLIT_POINTS:
        return 1
    if threading.current_thread().name.startswith(_SLAB_THREAD):
        return 1  # a slab never waits on the pool it runs on
    return min(_CPUS, shape[axis])


def _serve(cpu: int, jobs) -> None:
    """A slab thread: pinned to cpu, it runs the jobs put on its queue in turn.

    Unpinned, a woken slab thread was placed on its waker's busy CPU while
    the other idled, and a split 64^3 transform ran no faster than one call.
    """
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass  # an unpinned thread gives the same bits, only slower
    while True:
        k, fn, args, done = jobs.get()
        try:
            done.put((k, True, fn(*args)))
        except BaseException as exc:  # raised again by the waiting caller
            done.put((k, False, exc))


def _slab_pool() -> list:
    """The process-wide slab pool, made on first use: one job queue per CPU of the
    affinity mask, each served by one daemon thread pinned to that CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from queue import SimpleQueue

            _pool = []
            for cpu in sorted(os.sched_getaffinity(0)):
                jobs = SimpleQueue()
                threading.Thread(target=_serve, args=(cpu, jobs), name=f"{_SLAB_THREAD}-{cpu}", daemon=True).start()
                _pool.append(jobs)
    return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's slab threads do not exist there, so the
    child drops their queues and makes its own pool on first use."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _on_pool(calls: list) -> list:
    """fn(*args) for each (fn, args) of calls, the k-th on the pool's k-th thread, while
    the caller waits; returns the results in call order. An exception raised in a
    call reaches the caller unchanged, once every call has finished."""
    from queue import SimpleQueue  # loaded with the pool

    pool = _slab_pool()
    done = SimpleQueue()
    for k, (fn, args) in enumerate(calls):
        pool[k % len(pool)].put((k, fn, args, done))
    outcomes = sorted(done.get() for _ in calls)  # (k, ok, value), k unique
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def on_slabs(fn, *arrays: np.ndarray, axis: int = 0) -> list:
    """fn(*slabs) on matching slabs of arrays along axis, one slab per CPU for a large
    lattice; returns fn's results, one per slab, in slab order.

    arrays[0] is the lattice, and every array has its length along axis.
    fn must act on each element, or on each line across the other axes,
    independently of the rest: numpy then computes every element with the
    same code whatever the slab, so the result has the same bits as the
    one call fn(*arrays) that runs below SPLIT_POINTS or on one CPU. Never
    split a sum this way, since that changes its order; a maximum may be
    split, its slabs' maxima having the same maximum. Slab k runs on the
    pool's k-th thread, so the same CPU reads the same part of a lattice
    from one pass to the next, while the caller waits; an exception raised
    in a slab reaches the caller unchanged, once every slab has finished.
    The pool belongs to one process: a child forked from it (say by
    multiprocessing's fork start method) makes its own on first use.
    """
    parts = _slab_count(arrays[0].shape, axis)
    if parts == 1:
        return [fn(*arrays)]
    n = arrays[0].shape[axis]
    lead = (slice(None),) * axis
    slabs = [[a[lead + (slice(n * k // parts, n * (k + 1) // parts),)] for a in arrays] for k in range(parts)]
    return _on_pool([(fn, slab) for slab in slabs])


def _transform(values: np.ndarray, out: np.ndarray | None, inverse: bool) -> np.ndarray:
    whole = np.fft.ifftn if inverse else np.fft.fftn
    if _slab_count(values.shape, 0) == 1:
        return whole(values, out=out)
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    line = np.fft.ifft if inverse else np.fft.fft
    trailing = tuple(range(1, values.ndim))
    # np.fft.fftn runs the axes last to first, each line on its own: the
    # trailing axes on axis-0 slabs and then axis 0 on axis-1 slabs is the
    # same sequence of line transforms
    on_slabs(lambda src, dst: whole(src, axes=trailing, out=dst), values, out)
    on_slabs(lambda dst: line(dst, axis=0, out=dst), out, axis=1)
    return out


def fftn(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.fftn(values, out=out), bit for bit; out may be values itself.

    Every lattice transform of the package goes through fftn, ifftn and
    fftn_kept. On a lattice of at least SPLIT_POINTS points, on more than
    one CPU, the line transforms run in slabs on the slab pool (see
    on_slabs).
    """
    return _transform(values, out, inverse=False)


def ifftn(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.ifftn(values, out=out), bit for bit; out may be values itself. See fftn."""
    return _transform(values, out, inverse=True)


def dealias_ranges(points: int) -> tuple[slice, slice]:
    """The 2/3 rule on an axis of M points: the FFT-order indices of the signed
    modes |m| < M/3 it keeps, as two ranges.

    With n = ceil(M/3), [0, n) holds m = 0, ..., n - 1 and [M - n + 1, M)
    holds m = -(n - 1), ..., -1; at M = 64 they are [0, 22) and [43, 64).
    """
    n = -(-points // 3)
    return slice(0, n), slice(points - n + 1, points)


def _kept_lines(a: np.ndarray, axis: int, later: list) -> None:
    """np.fft.fft along axis, in place in a, of the lines whose indices on the
    following axes lie in the ranges later[0], later[1], ..."""
    for ranges in itertools.product(*later):
        lines = a[(slice(None),) * (axis + 1) + ranges]
        np.fft.fft(lines, axis=axis, out=lines)


def fftn_kept(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.fft.fftn(values, out=out) on the modes the 2/3 rule keeps, bit for bit.

    The kept modes are those with every index in dealias_ranges. A caller
    reads the result only through a multiplier that is zero off them: there
    out holds finite partial sums of the transform (for finite values), not
    the transform. Axes run last to first as in np.fft.fftn, and an axis
    transforms only the lines whose later-axis indices are all kept, so a
    64^3 lattice makes 4,096 + 2,752 + 1,849 = 8,697 line transforms where
    fftn makes 12,288. Split as fftn is: the trailing axes on axis-0 slabs,
    then axis 0 on the kept axis-1 ranges, one range per pool thread. A
    lattice of fewer than SPLIT_POINTS points, where the extra calls cost
    more than the lines they save, takes the full fftn. Returns out.
    """
    if values.ndim < 2 or values.size < SPLIT_POINTS:
        return fftn(values, out=out)
    last = values.ndim - 1
    keep = [dealias_ranges(n) for n in values.shape]

    def trailing(src: np.ndarray, dst: np.ndarray) -> None:
        np.fft.fft(src, axis=last, out=dst)
        for axis in range(last - 1, 0, -1):
            _kept_lines(dst, axis, keep[axis + 1 :])

    on_slabs(trailing, values, out)
    leading = [(_kept_lines, (out, 0, [(r,)] + keep[2:])) for r in keep[1]]
    if _slab_count(values.shape, 0) == 1:
        for fn, args in leading:
            fn(*args)
    else:
        _on_pool(leading)
    return out


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
def xi_sq(grid: GridSpec) -> np.ndarray:
    """|xi|^2 on the FFT-ordered lattice, cached per grid; shared, so never written to."""
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


def _weigh(grid: GridSpec, op: np.ufunc, src: np.ndarray, out: np.ndarray) -> None:
    """out = op(src, weight) for the transform weight dx^d * e^{-i x0 . xi}, x0 = (-L, ..., -L).

    L xi_k = pi m_k, so the weight is exactly dx^d * (-1)^(m_1 + ... + m_d),
    and m_k has the parity of its FFT-order index. op runs one axis-0 slab
    at a time against one of two signed slabs of the trailing axes. The
    slabs are stacked, not broadcast, and every op's operands are
    contiguous, so numpy allocates no loop buffers: the weight costs the
    two slabs, 2/M of a lattice field.
    """
    even = np.array(grid.cell_volume, dtype=np.complex128)
    for _ in range(grid.dim - 1):
        even = np.stack([even, -even] * (grid.points // 2))
    slabs = (even, -even)
    for i in range(grid.points):
        op(src[i], slabs[i % 2], out=out[i, ...])  # out[i, ...] is a view, 0-d on a 1d grid


def _free_axis_factor(grid: GridSpec, t: float) -> np.ndarray:
    """The per-axis factor e^{-i t xi_k^2} of the free-flow symbol, one axis long."""
    return np.exp(-1j * t * grid.xi_axis() ** 2)


def free_multiplier(grid: GridSpec, t: float) -> np.ndarray:
    """The free-flow symbol e^{-i t |xi|^2} on the lattice, exact up to rounding.

    Built as the outer product of the d per-axis factors e^{-i t xi_k^2}: d*M
    complex exponentials instead of M^d.
    """
    return _outer_power(_free_axis_factor(grid, t), grid.dim)


def free_flow_into(fhat: np.ndarray, grid: GridSpec, t: float, out: np.ndarray) -> np.ndarray:
    """out = e^{-i t |xi|^2} fhat, with no lattice-sized multiplier: d broadcast
    multiplies by the per-axis factors of free_multiplier. The symbol is
    diagonal, so fhat may carry any diagonal weight (the raw np.fft.fftn
    coordinates as well as the continuum-normalized ones). A large lattice
    is flowed in slabs (on_slabs), with the same bits. Returns out.
    """
    factor = _free_axis_factor(grid, t)
    axis_factors = [factor.reshape((-1,) + (1,) * (grid.dim - 1 - ax)) for ax in range(grid.dim)]

    def flow(fhat: np.ndarray, out: np.ndarray, first: np.ndarray) -> None:
        np.multiply(fhat, first, out=out)
        for f in axis_factors[1:]:
            np.multiply(out, f, out=out)

    on_slabs(flow, fhat, out, axis_factors[0])
    return out


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
    """Forward transform. Errors if the field is already in frequency representation.

    Allocates one complex lattice array: every axis pass of the FFT and the
    weight multiply run in place in it. The input is not written.
    """
    if field.rep != PHYSICAL:
        raise RepresentationError("to_frequency expects a physical-representation field")
    g = field.grid
    values = field.values
    if values.dtype == np.complex128:
        fhat = fftn(values, out=np.empty(g.shape, dtype=np.complex128))
    else:
        # fftn would cast any other dtype into a temporary; cast into the buffer instead
        fhat = values.astype(np.complex128)
        fftn(fhat, out=fhat)
    _weigh(g, np.multiply, fhat, fhat)
    return SpectralField(g, fhat, FREQUENCY)


def to_physical(field: SpectralField) -> SpectralField:
    """Inverse transform. Errors if the field is already in physical representation.

    Allocates one complex lattice array, the input divided by the weight;
    every axis pass of the inverse FFT runs in place in it. The input is not
    written.
    """
    raw = raw_spectrum(field)
    ifftn(raw, out=raw)
    return SpectralField(field.grid, raw, PHYSICAL)


def raw_spectrum(field: SpectralField) -> np.ndarray:
    """numpy's raw np.fft.fftn coordinates of a frequency-representation field.

    One new lattice array, the values divided by the transform weight; no
    transform. Errors if the field is in physical representation.
    """
    if field.rep != FREQUENCY:
        raise RepresentationError("expected a frequency-representation field")
    raw = np.empty(field.grid.shape, dtype=np.complex128)
    _weigh(field.grid, np.divide, field.values, raw)
    return raw


def derivative_symbol(grid: GridSpec, s: float, kind: str) -> np.ndarray:
    """The lattice symbol |xi|^s (homogeneous, zero at xi = 0) or (1 + |xi|^2)^(s/2).

    The square of the symbol of order s is the symbol of order 2s, which is
    how Parseval sums weight |fhat|^2.
    """
    xi2 = xi_sq(grid)
    if kind == "homogeneous":
        with np.errstate(divide="ignore"):
            mult = np.where(xi2 > 0, xi2 ** (s / 2.0), 0.0)
    elif kind == "inhomogeneous":
        mult = (1.0 + xi2) ** (s / 2.0)
    else:
        raise ValueError(f"kind must be 'homogeneous' or 'inhomogeneous', got {kind!r}")
    return mult


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 for t <= 0, 1 for t >= 1, 6t^5 - 15t^4 + 10t^3 between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _phi(r: np.ndarray) -> np.ndarray:
    """Radial dyadic cutoff: 1 on r <= 1, 0 on r >= 2, C^2 smoothstep between."""
    return 1.0 - smoothstep(np.asarray(r) - 1.0)


def lp_symbol(grid: GridSpec, n: float, variant: str) -> np.ndarray:
    """Littlewood-Paley symbol on the grid: variant in {'low','band','high'}.

    low  = phi(|xi|/N)           (P_{<=N})
    band = phi(|xi|/N) - phi(2|xi|/N)   (P_N)
    high = 1 - phi(|xi|/N)       (P_{>=N} = Id - P_{<=N})
    """
    if n <= 0:
        raise ValueError(f"dyadic scale must be positive, got {n}")
    r = np.sqrt(xi_sq(grid))
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


@lru_cache(maxsize=64)
def xi_grids_odd(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The sparse per-axis frequency grids of a spectral derivative, cached per grid.

    The unpaired mode at -M/2 has no positive partner, so an odd multiplier
    there would make the derivative of a real field complex; it is zeroed,
    the usual convention for odd-order spectral derivatives.
    """
    ax = grid.xi_axis().copy()
    ax[grid.points // 2] = 0.0
    return tuple(np.meshgrid(*([ax] * grid.dim), indexing="ij", sparse=True))


def modulus_lp_norm(modulus: np.ndarray, r: float, grid: GridSpec) -> float:
    """Spatial L^r norm of a field from its modulus |f|, by Riemann sum; r = inf is the lattice max."""
    if math.isinf(r):
        return float(modulus.max())
    if r <= 0:
        raise ValueError(f"Lebesgue exponent must be positive, got {r}")
    return float((np.sum(modulus**r) * grid.cell_volume) ** (1.0 / r))
