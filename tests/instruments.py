"""Reference instruments of the claims, which no command line run executes.

Each is a slow reference for a fast path of the package, or the measurement
behind a tier-1 claim; test modules import them as `from instruments import
...`. They read the package through its public names, plus two private
ones: `morawetz._displacements`, the one minimal-image displacement
lattice, and `partition._contract_axes`.

- c09, the interaction functional and the main-term identity: `_pair_direct`,
  the double-sum reference of `morawetz.interaction_functional`; the
  real-space kernel tables `_kernel_tables`; `identity_mor_mainterm` with
  `MainTermReport`, `_y_lattice_indices` and `_critical_power`; and
  `SCALING_DEGREES`, the homogeneity of each audit figure.
- c04, the Bernstein fit `bernstein_exponent`, and the single cubes it and
  the partition's unit tests read: `cutoff`, `supported_members`,
  `coefficients` (the adjoint of `multiplier`) and the block functions
  `supported` and `contract`.
- The draw's unit tests: `cube_gaussian`, the per-cube Philox stream that
  `randomize.draw` reproduces bit for bit, and the chaos moments
  `chaos_moment` and `moment_estimate`.
- c11 and c13: `almost_conservation_monitor` and `scattering_proxy`.
- `gradient`, the d partial derivatives of a view held at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from roughnls import (
    ConfigError,
    ConservationSeries,
    FrequencyPartition,
    FrequencyView,
    GridSpec,
    SpectralField,
    free_flow_into,
)
from roughnls.errors import ResolutionError
from roughnls.grids import fftn, ifftn, modulus_lp_norm, xi_sq
from roughnls.morawetz import _displacements
from roughnls.norms import Symbols
from roughnls.partition import RESIDUAL_SHELL, ShellBlock, _contract_axes


def gradient(view: FrequencyView) -> list[np.ndarray]:
    """Physical values of the d spectral partial derivatives of a view: a copy of each of partials()."""
    return [comp.copy() for comp in view.partials()]


# ---------------------------------------------------------------------------
# morawetz: M(t)'s double-sum reference and the main-term identity (c09)

# Homogeneity degree of each reported audit value under (w, v) -> (alpha w, alpha v),
# read off from the norm products of the morawetz module docstring.
SCALING_DEGREES = {
    3: {"lhs": 4, "T1": 4, "T2": 8, "T3": 8},
    4: {"lhs": 4, "T1": 4, "T2": 6, "T3": 6},
}


def _critical_power(dim: int) -> float:
    """The energy-critical power 4/(d-2), defined in dimensions 3 and 4."""
    if dim in (3, 4):
        return 4.0 / (dim - 2)
    raise ConfigError(f"the energy-critical power is defined in dimensions 3 and 4, got {dim}")


def _kernel_tables(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated kernels on the displacement lattice, minimal image, K(0) = 0.

    Index delta holds the value at displacement r = delta*dx wrapped to
    [-L, L)^d. Returns (vector table (d, *shape) with x_k/|x|, scalar table
    with 1/|x|).
    """
    ax = _displacements(grid)
    comps = np.meshgrid(*([ax] * grid.dim), indexing="ij")
    r = np.stack(comps)
    rad = np.sqrt(np.sum(r * r, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = np.where(rad > 0.0, r / rad, 0.0)
        sca = np.where(rad > 0.0, 1.0 / rad, 0.0)
    return vec, sca


def _pair_direct(p: np.ndarray, m: np.ndarray, grid: GridSpec) -> float:
    """Reference M(t): the explicit double sum of (x-y)/|x-y| . p(x) m(y) dx^{2d} over all point pairs.

    p stacks the d components along axis 0, (d, *shape). Quadratic in the
    point count; meant for small cross-check grids only.
    """
    d = grid.dim
    ax = grid.x_axis()
    coords = np.meshgrid(*([ax] * d), indexing="ij")
    pts = np.stack([c.ravel() for c in coords], axis=1)
    two_l = 2.0 * grid.half_width
    diff = pts[:, None, :] - pts[None, :, :]
    diff = (diff + grid.half_width) % two_l - grid.half_width
    rad = np.sqrt(np.sum(diff * diff, axis=2))
    ok = rad > 0.0
    pv = p.reshape(d, -1)
    mv = m.ravel()
    total = 0.0
    for k in range(d):
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = np.where(ok, diff[:, :, k] / rad, 0.0)
        total += float(pv[k] @ kern @ mv)
    return total * grid.cell_volume**2


@dataclass(frozen=True)
class MainTermReport:
    """Both sides of the defect main-term identity at each sampled center y.

    lhs(y) = sum_x (x-y)/|x-y| . Re[(|u|^p u - |w|^p w) grad conj(w)] dx^d and
    rhs(y) = hardy(y) + cross(y) with
    hardy(y) = -(d-1)/(p+2) sum_x (|u|^{p+2} - |w|^{p+2}) / |x-y| dx^d,
    cross(y) = -sum_x (x-y)/|x-y| . Re[|u|^p u grad conj(v)] dx^d.
    max_rel normalizes by the largest constituent integral, so degenerate
    cancellations (w identically zero) still report the small quadrature error
    rather than 100 percent.
    """

    y_indices: tuple[tuple[int, ...], ...]
    lhs: np.ndarray
    hardy: np.ndarray
    cross: np.ndarray
    max_rel: float

    @property
    def rhs(self) -> np.ndarray:
        return self.hardy + self.cross


def _y_lattice_indices(
    grid: GridSpec,
    y_points,
    n_points: int,
    seed: int,
) -> list[tuple[int, ...]]:
    if y_points is None:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x4D59], dtype=np.uint64)))
        raw = rng.integers(0, grid.points, size=(n_points, grid.dim))
        return [tuple(int(j) for j in row) for row in raw]
    out = []
    for pt in y_points:
        pt = np.atleast_1d(np.asarray(pt, dtype=float))
        if pt.shape != (grid.dim,):
            raise ConfigError(f"sample point {pt} is not a {grid.dim}-vector")
        idx = np.rint((pt + grid.half_width) / grid.dx).astype(int) % grid.points
        out.append(tuple(int(j) for j in idx))
    return out


def identity_mor_mainterm(
    w: SpectralField,
    u: SpectralField,
    v: SpectralField,
    y_points=None,
    n_points: int = 8,
    seed: int = 0,
) -> MainTermReport:
    """Check the integration-by-parts identity behind the defect main term.

    At each center y both sides are evaluated by lattice quadrature with
    spectral gradients; the identity holds exactly in the continuum, so the
    residual is pure discretization error and must shrink under grid
    refinement. The power is the energy-critical 4/(d-2). y_points are
    physical coordinates snapped to the nearest lattice point; by default
    n_points centers are drawn from a seeded counter-based generator.
    """
    g = w.grid
    if u.grid != g or v.grid != g:
        raise ConfigError("w, u, v must live on the same grid")
    p = _critical_power(g.dim)
    coeff = (g.dim - 1) / (p + 2.0)

    wp = w.as_physical().values
    up = u.as_physical().values
    nl_u = np.abs(up) ** p * up
    nl_w = np.abs(wp) ** p * wp
    grad_w = np.stack(gradient(FrequencyView(g, wp)))
    grad_v = np.stack(gradient(FrequencyView(g, v.as_physical().values)))
    f_main = np.real((nl_u - nl_w)[None] * np.conj(grad_w))
    g_hardy = np.abs(up) ** (p + 2.0) - np.abs(wp) ** (p + 2.0)
    h_cross = np.real(nl_u[None] * np.conj(grad_v))

    vec, sca = _kernel_tables(g)
    centers = _y_lattice_indices(g, y_points, n_points, seed)
    axes = tuple(range(g.dim))
    dvol = g.cell_volume
    lhs = np.empty(len(centers))
    hardy = np.empty(len(centers))
    cross = np.empty(len(centers))
    for i, j in enumerate(centers):
        vec_y = np.roll(vec, shift=j, axis=tuple(a + 1 for a in axes))
        sca_y = np.roll(sca, shift=j, axis=axes)
        lhs[i] = float(np.sum(vec_y * f_main)) * dvol
        hardy[i] = -coeff * float(np.sum(sca_y * g_hardy)) * dvol
        cross[i] = -float(np.sum(vec_y * h_cross)) * dvol

    scale = max(np.abs(lhs).max(), np.abs(hardy).max(), np.abs(cross).max())
    if scale == 0.0:
        max_rel = 0.0
    else:
        max_rel = float(np.abs(lhs - hardy - cross).max() / scale)
    return MainTermReport(
        y_indices=tuple(centers),
        lhs=lhs,
        hardy=hardy,
        cross=cross,
        max_rel=max_rel,
    )


# ---------------------------------------------------------------------------
# partition: single cubes and the Bernstein fit (c01-c04)


@dataclass(frozen=True)
class CubeCutoff:
    """One member of the partition, sampled: its lattice support and values."""

    index: int
    shell: int  # 0 core, -1 residual, else the dyadic shell N
    support: np.ndarray  # flat indices into the FFT-ordered lattice
    values: np.ndarray  # renormalized psi_j at those points


def supported(block: ShellBlock) -> np.ndarray:
    """Indices (numbered from `start`) of the block's cutoffs with lattice support.

    A cutoff is empty exactly when one of its profile rows vanishes on the
    whole lattice axis, so this needs no sampling.
    """
    live = block.profiles.any(axis=1)
    cells = reduce(np.logical_and.outer, [live] * block.cells.ndim)
    return block.start + np.flatnonzero(cells[block.cells])


def contract(block: ShellBlock, h: np.ndarray) -> np.ndarray:
    """sum_x h[x] prod_i profiles[m_i(k), x_i] for each cutoff k of the block: the adjoint of combine."""
    return _contract_axes(h, block.profiles.T)[block.cells]


def coefficients(partition: FrequencyPartition, h: np.ndarray) -> np.ndarray:
    """c_j = sum_xi psi_j(xi) h(xi) for every cutoff, the residual (last) included.

    The adjoint of `multiplier`: sum(multiplier(c) * h) = sum(c * coefficients(h)).
    """
    h = np.reshape(h, -1)
    g = (h / partition.normalizer).reshape(partition.grid.shape)
    return np.concatenate([contract(block, g) for block in partition.blocks] + [[np.sum(partition.residual * h)]])


def cutoff(partition: FrequencyPartition, j: int) -> CubeCutoff:
    """The j-th cutoff psi_j, sampled on demand.

    Along each axis the support runs in increasing frequency, the order in
    which `bernstein_exponent` lays its probe moduli down.
    """
    if not 0 <= j < partition.n_cutoffs:
        raise IndexError(f"cube index {j} out of range 0..{partition.n_cutoffs - 1}")
    shell = next(n for n, members in partition.shell_members.items() if j in members)
    if shell == RESIDUAL_SHELL:
        sup = np.flatnonzero(partition.residual > 0)
        return CubeCutoff(j, shell, sup, partition.residual[sup])
    block = next(b for b in partition.blocks if j < b.stop)
    cell = np.unravel_index(np.flatnonzero(block.cells)[j - block.start], block.cells.shape)
    order = np.argsort(partition.grid.xi_axis(), kind="stable")
    rows = [block.profiles[m, order] for m in cell]
    idx = np.meshgrid(*[order[row > 0] for row in rows], indexing="ij")
    sup = np.ravel_multi_index(tuple(i.reshape(-1) for i in idx), partition.grid.shape)
    vals = reduce(np.multiply.outer, [row[row > 0] for row in rows]).reshape(-1)
    return CubeCutoff(j, shell, sup, vals / partition.normalizer[sup])


def supported_members(partition: FrequencyPartition, shell: int) -> list[int]:
    """The cutoff indices of the core or of shell N with nonempty lattice support, in index order."""
    members = partition.shell_members.get(shell, range(0))
    blocks = [b for b in partition.blocks if b.start < members.stop and members.start < b.stop]
    return [j for b in blocks for j in supported(b).tolist() if j in members]


@dataclass(frozen=True)
class BernsteinFit:
    slope: float
    expected: float
    shells: tuple[int, ...]
    ratios: tuple[float, ...]  # median ||box f||_inf / ||box f||_2 per shell


def bernstein_exponent(partition: FrequencyPartition) -> BernsteinFit:
    """Fit the growth exponent of ||box_j f||_inf / ||box_j f||_2 across the shells N >= 2.

    Probes up to 8 single-cube random fields per shell, drawn from a Philox
    stream with seed 0, and regresses log2(median ratio) on log2 N. Probe spectra have random Rayleigh moduli
    with aligned phases (random phases would not saturate the volume factor,
    and the ratio would go flat). The expected slope from the cube side
    2*N^-a is -a*d/2.
    """
    cfg = partition.config
    shells = tuple(n for n in cfg.shells if n >= 2)
    if len(shells) < 2:
        raise ConfigError("bernstein_exponent needs at least two shells >= 2")
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0xB3A7], dtype=np.uint64)))
    medians = []
    for n in shells:
        usable = supported_members(partition, n)
        if not usable:
            raise ResolutionError(f"shell {n} has no lattice-resolvable cubes on this grid")
        take = min(8, len(usable))
        picks = rng.choice(len(usable), size=take, replace=False)
        ratios = []
        for k in picks:
            cut = cutoff(partition, usable[int(k)])
            moduli = rng.rayleigh(scale=math.sqrt(0.5), size=cut.support.size)
            fhat = np.zeros(partition.grid.n_points, dtype=np.complex128)
            fhat[cut.support] = cut.values * moduli
            # raw coordinates: the probe is a half-box translate of the weighted one, same ratio
            modulus = np.abs(ifftn(fhat.reshape(partition.grid.shape)))
            denom = modulus_lp_norm(modulus, 2.0, partition.grid)
            if denom > 0:
                ratios.append(modulus_lp_norm(modulus, math.inf, partition.grid) / denom)
        medians.append(float(np.median(ratios)))
    lg_n = np.log2(np.asarray(shells, dtype=float))
    lg_r = np.log2(np.asarray(medians))
    slope = float(np.polyfit(lg_n, lg_r, 1)[0])
    return BernsteinFit(slope, -cfg.a * (cfg.dim / 2.0), shells, tuple(medians))


# ---------------------------------------------------------------------------
# randomize: the per-cube stream and the chaos moments (c05)


def cube_gaussian(seed: int, j: int, size: int = 1) -> np.ndarray:
    """Unit complex Gaussians for cube j under the given master seed."""
    key = np.array([np.uint64(seed), np.uint64(j)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z * math.sqrt(0.5)


@dataclass(frozen=True)
class MomentEstimate:
    p: float
    moment: float  # (E |F|^p)^{1/p} Monte Carlo estimate
    coeff_norm: float  # ||c||_{l2}
    ratio: float  # moment / (sqrt(p) ||c||_{l2})
    n_samples: int


def chaos_moment(coeffs: np.ndarray, p: float, n_samples: int, seed: int = 0) -> MomentEstimate:
    """Monte Carlo estimate of the L^p_omega moment of F = sum_n c_n g_n."""
    if p < 2:
        raise ValueError(f"moment order must be >= 2, got {p}")
    if n_samples < 100:
        raise ValueError(f"moment estimate needs at least 100 samples, got {n_samples}")
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    key = np.array([np.uint64(seed), np.uint64(0xC0E5)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    g = (
        rng.standard_normal((n_samples, c.size))
        + 1j * rng.standard_normal((n_samples, c.size))
    ) * math.sqrt(0.5)
    samples = np.abs(g @ c)
    moment = float(np.mean(samples**p) ** (1.0 / p))
    cn = float(np.linalg.norm(c))
    return MomentEstimate(p, moment, cn, moment / (math.sqrt(p) * cn), n_samples)


def moment_estimate(
    f: SpectralField,
    partition: FrequencyPartition,
    p: float,
    n_samples: int,
    seed: int = 0,
    point: tuple[int, ...] | None = None,
) -> MomentEstimate:
    """Moment of the scalar chaos F(omega) = f^omega(x0) at a lattice point.

    The chaos coefficients are c_j = (box_j f)(x0); x0 defaults to the lattice
    argmax of |f|. The inverse transform at x0 is (2L)^-d sum_xi ghat(xi)
    e^{i x0.xi}, so all of them come from one adjoint contraction,
    c = coefficients(partition, fhat e^{i x0.xi} / (2L)^d).
    """
    grid = f.grid
    if point is None:
        point = np.unravel_index(int(np.argmax(np.abs(f.as_physical().values))), grid.shape)
    x, xi = grid.x_axis(), grid.xi_axis()
    phase = reduce(np.multiply.outer, [np.exp(1j * x[i] * xi) for i in point])
    h = f.as_frequency().values * phase / (2.0 * grid.half_width) ** grid.dim
    return chaos_moment(coefficients(partition, h), p, n_samples, seed)


# ---------------------------------------------------------------------------
# solver: the almost-conservation monitor (c11) and the scattering proxy (c13)


@dataclass(frozen=True)
class AlmostConservationReport:
    """Whether sup M and sup E stay below twice their stated ceilings."""

    a: float
    n0: float
    s: float
    mass_bound: float
    energy_bound: float
    sup_mass: float
    sup_energy: float
    ratio_mass: float  # ConservationSeries.sup_ratios
    ratio_energy: float
    ok_mass: bool
    ok_energy: bool

    @property
    def ok(self) -> bool:
        return self.ok_mass and self.ok_energy


def almost_conservation_monitor(
    v0: SpectralField | None,
    series: ConservationSeries,
    a: float,
    n0: float,
    s: float,
) -> AlmostConservationReport:
    """Check sup_t M <= 2 A n0^{-2s} and sup_t E <= 2 A n0^{2(1-s)}.

    series is the solve's and v0 its forcing, None for an unforced solve.
    Preconditions (initial data below the ceilings, v supported above n0/2)
    are enforced and violations raise a configuration error naming the
    offending quantity.
    """
    mass_bound = a * n0 ** (-2.0 * s)
    energy_bound = a * n0 ** (2.0 * (1.0 - s))
    m0, e0 = float(series.mass[0]), float(series.energy[0])
    if m0 > mass_bound:
        raise ConfigError(f"initial mass {m0:.6g} exceeds A n0^(-2s) = {mass_bound:.6g}")
    if e0 > energy_bound:
        raise ConfigError(f"initial energy {e0:.6g} exceeds A n0^(2(1-s)) = {energy_bound:.6g}")
    if v0 is not None:
        # raw coordinates: the transform weight has constant modulus, so the relative leak is unchanged
        vhat0 = fftn(v0.as_physical().values)
        low = np.sqrt(xi_sq(v0.grid)) < n0 / 2.0
        leak = float(np.linalg.norm(vhat0[low]))
        total = float(np.linalg.norm(vhat0))
        if total > 0 and leak > 1e-9 * total:
            raise ConfigError(
                f"v carries frequency content below n0/2 = {n0 / 2:g} "
                f"(relative l2 leak {leak / total:.3e})"
            )
    sup_m = float(series.mass.max())
    sup_e = float(series.energy.max())
    ratio_mass, ratio_energy = series.sup_ratios()
    return AlmostConservationReport(
        a=a,
        n0=n0,
        s=s,
        mass_bound=mass_bound,
        energy_bound=energy_bound,
        sup_mass=sup_m,
        sup_energy=sup_e,
        ratio_mass=ratio_mass,
        ratio_energy=ratio_energy,
        ok_mass=sup_m <= 2.0 * mass_bound,
        ok_energy=sup_e <= 2.0 * energy_bound,
    )


@dataclass(frozen=True)
class ScatteringReport:
    """Cauchy behavior of the free pullback w_+(t) = e^{-it Lap} w(t)."""

    times: tuple[float, ...]
    deltas: tuple[float, ...]  # consecutive H^1 differences of w_+
    decreasing: bool


def scattering_proxy(grid: GridSpec, times: Sequence[float], w_hats: Sequence[np.ndarray]) -> ScatteringReport:
    """H^1 Cauchy differences of the free pullback along a time ladder.

    times are a solve's snapshot times and w_hats[k] the raw spectrum
    np.fft.fftn of w at times[k], as a SnapshotSink receives it; they are
    only read. Picks the snapshots nearest t_final / 4, t_final / 2,
    3 t_final / 4 and t_final, pulls each w back by the free flow, and
    reports whether consecutive differences decrease (they vanish
    identically for a linear run).
    """
    times = np.asarray(times, dtype=float)
    t_final = float(times[-1])
    idx = sorted({int(np.argmin(np.abs(times - f * t_final))) for f in (0.25, 0.5, 0.75, 1.0)})
    if len(idx) < 2:
        raise ConfigError("scattering proxy needs at least two distinct ladder times")
    pulled = []
    for k in idx:
        pulled.append(free_flow_into(w_hats[k], grid, -float(times[k]), np.empty_like(w_hats[k])))
    symbols: Symbols = {}
    deltas = []
    for f1, f2 in zip(pulled, pulled[1:]):
        diff = f2 - f1
        view = FrequencyView(grid, None, diff, symbols)
        deltas.append(view.norm(2, 1.0, "inhomogeneous"))
    decreasing = all(d2 <= d1 * (1 + 1e-9) for d1, d2 in zip(deltas, deltas[1:]))
    return ScatteringReport(
        times=tuple(float(times[k]) for k in idx),
        deltas=tuple(deltas),
        decreasing=decreasing,
    )
