"""Frequency-cube partition of unity for narrowed cube randomization.

The frequency lattice is covered by a core cube O_1 = [-1,1]^d, dyadic shells
Q_N = {N < |xi|_inf <= 2N} for N in {1, 2, ..., N_max}, and one residual
region beyond 2*N_max. Shells N >= 2 are tiled exactly by dyadic cubes of
side 2*N^-a, giving (2^d - 1) * N^{d(a+1)} cubes per shell. The N = 1 shell
has sub-cube side 2, which cannot tile an annulus of thickness 1; it is
decomposed instead into the 2^d - 1 product-partition pieces
prod_j K_{delta_j}, delta != 0, with K_0 = [-1,1] and K_1 = {1 <= |t| <= 2},
which realizes the same count.

Each piece carries a tensor-product cutoff: 1 on the piece, a C^2 smoothstep
ramp of width mollify_fraction * side outside it, zero beyond the doubled
piece. Renormalizing by the pointwise sum makes the family an exact partition
of unity at every lattice point; a bookkeeping residual cutoff absorbs the
region beyond coverage.

Storage is per shell, not per cube. The cubes of shell N >= 2 are the cells
m in [-2P, 2P)^d outside the inner block [-P, P)^d, P = N^{a+1}/2, and each
cube's cutoff is a product of 1D axis profiles. A shell therefore keeps one
(4P x points) profile matrix and a boolean mask of its outer cells, and a
weighted sum over its cubes is d tensor-matrix contractions. The 2^d core and
N = 1 pieces are sampled as single cutoffs. The flat normalizer, the residual
and the unity, square and overlap diagnostics are lattice arrays. A single
cube's support and values are sampled on demand (`FrequencyPartition.cutoff`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import reduce

import numpy as np

from .errors import ConfigError, ResolutionError, ResourceLimitError
from .grids import GridSpec, SpectralField, lp_norm, smoothstep, to_physical

__all__ = [
    "PartitionConfig",
    "AxisSegment",
    "CubeCutoff",
    "ShellBlock",
    "FrequencyPartition",
    "build_partition",
    "project_cube",
    "expected_count",
    "bernstein_exponent",
    "BernsteinFit",
]

CORE_SHELL = 0
RESIDUAL_SHELL = -1


def expected_count(dim: int, a: int, shell: int) -> int:
    """Number of cubes tiling shell N: (2^d - 1) * N^{d(a+1)}."""
    return (2**dim - 1) * shell ** (dim * (a + 1))


@dataclass(frozen=True)
class PartitionConfig:
    """Parameters of the cube family.

    s is recorded for regime bookkeeping only; a is the narrowing exponent
    (integer so cube corners stay dyadic), n_max the largest shell.
    """

    dim: int
    a: int
    n_max: int
    s: float = 0.0
    mollify_fraction: float = 0.25
    allow_subcell: bool = True
    max_cubes: int = 500_000

    def __post_init__(self):
        if self.dim not in (1, 2, 3, 4):
            raise ConfigError(f"dim must be in 1..4, got {self.dim}")
        if not isinstance(self.a, int) or self.a < 1:
            raise ConfigError(f"narrowing exponent a must be a positive integer, got {self.a!r}")
        n = self.n_max
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_max must be a power of two >= 1, got {n}")
        if not (0 < self.mollify_fraction <= 0.5):
            raise ConfigError(
                f"mollify_fraction must lie in (0, 1/2], got {self.mollify_fraction}"
            )

    @property
    def shells(self) -> tuple[int, ...]:
        return tuple(2**k for k in range(int(math.log2(self.n_max)) + 1))

    @property
    def coverage(self) -> float:
        """Cutoff family covers {|xi|_inf <= coverage}."""
        return 2.0 * self.n_max

    def total_cubes(self) -> int:
        """Core + shell pieces (no residual)."""
        return 1 + sum(expected_count(self.dim, self.a, n) for n in self.shells)

    def in_paper_regime(self, s: float | None = None) -> bool:
        """Whether (s, a) satisfy the narrowing thresholds of the wellposedness theory."""
        s = self.s if s is None else s
        if self.dim == 4:
            return self.a > max(1 - 2 * s, 10)
        return self.a > max(3 - 4 * s, 1 - 2 * s, 10)


def _profile(x, lo, hi, w):
    """Interval profile: 1 on [lo, hi], smoothstep ramps of width w, 0 beyond."""
    up = smoothstep((x - (lo - w)) / w)
    down = smoothstep(((hi + w) - x) / w)
    return np.where(x < lo, up, np.where(x > hi, down, 1.0))


@dataclass(frozen=True)
class AxisSegment:
    """One axis factor of a cutoff: an interval [lo, hi] or a symmetric band
    {lo <= |t| <= hi}, with ramp width w on each side."""

    kind: str  # "interval" | "band"
    lo: float
    hi: float
    w: float

    def profile(self, t: np.ndarray) -> np.ndarray:
        x = np.abs(t) if self.kind == "band" else t
        return _profile(x, self.lo, self.hi, self.w)

    def support_bounds(self) -> list[tuple[float, float]]:
        lo, hi = self.lo - self.w, self.hi + self.w
        if self.kind == "band":
            return [(-hi, -lo), (lo, hi)]
        return [(lo, hi)]


@dataclass(frozen=True)
class CubeCutoff:
    """One member of the partition: geometry plus sampled lattice values."""

    index: int
    shell: int  # 0 core, -1 residual, else the dyadic shell N
    axes: tuple[AxisSegment, ...]
    support: np.ndarray  # flat indices into the FFT-ordered lattice
    values: np.ndarray  # renormalized psi_j at those points

    @property
    def center(self) -> np.ndarray:
        """Piece center; symmetric band axes report 0."""
        return np.array(
            [0.0 if ax.kind == "band" else 0.5 * (ax.lo + ax.hi) for ax in self.axes]
        )

    @property
    def half_side(self) -> np.ndarray:
        """Per-axis half-extent; band axes report the outer radius."""
        return np.array(
            [ax.hi if ax.kind == "band" else 0.5 * (ax.hi - ax.lo) for ax in self.axes]
        )


@dataclass(frozen=True)
class ShellBlock:
    """The cubes of one shell N >= 2 in separable form.

    Row m + 2P of `profiles` is the profile of the interval [m*side, (m+1)*side]
    (ramp width w) on the FFT-ordered lattice axis, for m in [-2P, 2P). The
    shell's cubes are the True cells of `outer`, in C order, numbered from
    `start`; cube (m_1, ..., m_d) has raw cutoff prod_i profiles[m_i + 2P, x_i].
    """

    shell: int
    start: int
    stop: int  # one past the index of the last cube
    side: float
    w: float
    profiles: np.ndarray  # (4P, points)
    outer: np.ndarray  # bool, (4P,)*d, False on the inner block

    def cube_axes(self, k: int) -> tuple[AxisSegment, ...]:
        """Axis segments of the shell's k-th cube."""
        cell = np.unravel_index(np.flatnonzero(self.outer)[k], self.outer.shape)
        half = self.outer.shape[0] // 2
        return tuple(
            AxisSegment("interval", m * self.side, (m + 1) * self.side, self.w)
            for m in (c - half for c in cell)
        )

    def supported(self) -> np.ndarray:
        """Indices (numbered from `start`) of the cubes with lattice support.

        A cube is empty exactly when one of its profile rows vanishes on the
        whole lattice axis, so this needs no sampling.
        """
        live = self.profiles.any(axis=1)
        cells = reduce(np.logical_and.outer, [live] * self.outer.ndim)
        return self.start + np.flatnonzero(cells[self.outer])

    def combine(self, coeffs: np.ndarray, profiles: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] prod_i profiles[m_i(k), x_i] on the whole lattice (grid shape).

        A complex coefficient vector is carried as a trailing (real, imag)
        axis, so the contractions stay real.
        """
        cplx = np.iscomplexobj(coeffs)
        cells = np.zeros(self.outer.shape + ((2,) if cplx else ()))
        cells[self.outer] = np.stack([coeffs.real, coeffs.imag], axis=-1) if cplx else coeffs
        for _ in range(self.outer.ndim):
            # contract the leading cell axis; the lattice axes collect at the end
            cells = _contract_leading(cells, profiles)
        return cells[0] + 1j * cells[1] if cplx else cells


# multiply-adds per matrix product in _contract_leading: OpenBLAS runs products
# this small on the calling thread whatever its thread count
_PRODUCT_SIZE = 1 << 18


def _contract_leading(cells: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """sum_a cells[a, ...] profiles[a, m], shaped cells.shape[1:] + (m,).

    The same products as np.tensordot(cells, profiles, axes=([0], [0])), bit
    for bit, cut into row blocks of at most _PRODUCT_SIZE multiply-adds. A
    threaded BLAS would wake its threads for the whole product, which on
    these small matrices costs far more than the arithmetic (a 32^3 build
    took about 100 ms with two OpenBLAS threads against 5 ms with one); the
    blocks keep the time the same for any thread count.
    """
    a, m = profiles.shape
    rows = cells.reshape(a, -1).T
    out = np.empty((rows.shape[0], m))
    step = max(1, _PRODUCT_SIZE // (a * m))
    for lo in range(0, rows.shape[0], step):
        np.matmul(rows[lo : lo + step], profiles, out=out[lo : lo + step])
    return out.reshape(cells.shape[1:] + (m,))


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def _positive(v: np.ndarray) -> np.ndarray:
    return (v > 0).astype(np.float64)


def _raw_sum(grid: GridSpec, pieces, shells, coeffs: np.ndarray, factor=_identity) -> np.ndarray:
    """Flat sum_j c_j factor(raw_j) over every cutoff but the residual, before renormalization.

    `factor` acts on sampled values and axis profiles alike, which is exact
    for multiplicative maps: np.square gives sum c_j raw_j^2 and `_positive`
    the support indicator.
    """
    out = np.zeros(grid.n_points, dtype=np.result_type(coeffs, np.float64))
    for piece, c in zip(pieces, coeffs):
        out[piece.support] += c * factor(piece.values)  # support indices are unique
    for block in shells:
        out += block.combine(coeffs[block.start : block.stop], factor(block.profiles)).reshape(-1)
    return out


@dataclass
class FrequencyPartition:
    config: PartitionConfig
    grid: GridSpec
    # the core and N = 1 pieces, with values before renormalization
    pieces: list[CubeCutoff] = dc_field(repr=False)
    shells: list[ShellBlock] = dc_field(repr=False)  # one per shell N >= 2
    shell_members: dict[int, range]  # shell label -> cutoff indices
    kappa: int  # measured max overlap of cutoff supports
    normalizer: np.ndarray = dc_field(repr=False)  # t = max(sum_j raw_j, 1), flat
    residual: np.ndarray = dc_field(repr=False)  # 1 - sum_j raw_j / t, flat
    sq_sum: np.ndarray = dc_field(repr=False)  # sum_j psi_j^2, flat
    unity_sum: np.ndarray = dc_field(repr=False, default=None)  # sum_j psi_j, flat; set from multiplier

    @property
    def n_cutoffs(self) -> int:
        return self.shell_members[RESIDUAL_SHELL].stop

    def shell_count(self, shell: int) -> int:
        return len(self.shell_members.get(shell, ()))

    def multiplier(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat sum_j c_j psi_j over all n_cutoffs cutoffs, the residual (last) included."""
        raw = _raw_sum(self.grid, self.pieces, self.shells, coeffs[:-1])
        return raw / self.normalizer + coeffs[-1] * self.residual

    def cutoff(self, j: int) -> CubeCutoff:
        """The j-th cutoff psi_j, sampled on demand."""
        if not 0 <= j < self.n_cutoffs:
            raise IndexError(f"cube index {j} out of range 0..{self.n_cutoffs - 1}")
        if j == self.n_cutoffs - 1:
            sup = np.flatnonzero(self.residual > 0)
            return CubeCutoff(j, RESIDUAL_SHELL, (), sup, self.residual[sup])
        if j < len(self.pieces):
            piece = self.pieces[j]
            return replace(piece, values=piece.values / self.normalizer[piece.support])
        block = next(b for b in self.shells if j < b.stop)
        axes = block.cube_axes(j - block.start)
        sup, vals = _sample_cutoff(self.grid, axes)
        return CubeCutoff(j, block.shell, axes, sup, vals / self.normalizer[sup])

    def supported_members(self, shell: int) -> list[int]:
        """The shell's cutoff indices with nonempty lattice support, in index order."""
        block = next((b for b in self.shells if b.shell == shell), None)
        if block is not None:
            return block.supported().tolist()
        members = self.shell_members.get(shell, ())
        return [j for j in members if self.cutoff(j).support.size > 0]

    def coverage_mask(self) -> np.ndarray:
        """Flat boolean mask of lattice points with |xi|_inf <= 2*N_max."""
        ax = self.grid.xi_axis()
        inside = np.abs(ax) <= self.config.coverage + 1e-12
        m = inside
        for _ in range(self.grid.dim - 1):
            m = np.logical_and.outer(m, inside)
        return m.reshape(-1)

    def unity_deviation(self) -> tuple[float, float]:
        """(max |sum psi - 1| over coverage, over the whole lattice)."""
        dev = np.abs(self.unity_sum - 1.0)
        return float(dev[self.coverage_mask()].max()), float(dev.max())

    def orthogonality_ratio(self, field: SpectralField) -> float:
        """sum_j ||box_j f||_L2^2 / ||f||_L2^2 via the pointwise multiplier identity.

        Identical (by Parseval, summed per mode) to projecting every cube and
        adding the squared norms; the unit tests check that equivalence.
        """
        fhat = field.as_frequency().values.reshape(-1)
        power = np.abs(fhat) ** 2
        total = power.sum()
        if total == 0:
            raise ValueError("orthogonality ratio of the zero field is undefined")
        return float((power * self.sq_sum).sum() / total)

    def project(self, field: SpectralField, j: int) -> SpectralField:
        return project_cube(self, field, j)

    def report(self) -> dict:
        cov_dev, full_dev = self.unity_deviation()
        shells = {}
        for n in self.config.shells:
            shells[str(n)] = {
                "count": self.shell_count(n),
                "expected": expected_count(self.config.dim, self.config.a, n),
                "side": 2.0 * n**-self.config.a,
            }
        return {
            "dim": self.config.dim,
            "a": self.config.a,
            "n_max": self.config.n_max,
            "coverage": self.config.coverage,
            "grid": {
                "points": self.grid.points,
                "half_width": self.grid.half_width,
                "nyquist": self.grid.nyquist,
            },
            "n_cutoffs": self.n_cutoffs,
            "core_count": self.shell_count(CORE_SHELL),
            "shells": shells,
            "kappa": self.kappa,
            "kappa_bound": 4 * 3**self.config.dim,
            "unity_deviation_coverage": cov_dev,
            "unity_deviation_full": full_dev,
            "paper_regime": self.config.in_paper_regime(),
        }


def _axis_slices(xs_sorted: np.ndarray, order: np.ndarray, seg: AxisSegment):
    """Lattice points of one axis inside the segment's support.

    Returns (original indices, profile values); empty arrays if none.
    """
    pos: list[np.ndarray] = []
    for lo, hi in seg.support_bounds():
        i0 = np.searchsorted(xs_sorted, lo, side="left")
        i1 = np.searchsorted(xs_sorted, hi, side="right")
        if i1 > i0:
            pos.append(np.arange(i0, i1))
    if not pos:
        e = np.empty(0, dtype=np.int64)
        return e, np.empty(0)
    p = np.concatenate(pos)
    idx = order[p]
    vals = seg.profile(xs_sorted[p])
    keep = vals > 0
    return idx[keep], vals[keep]


def _sample_cutoff(grid: GridSpec, axes: tuple[AxisSegment, ...]):
    """Tensor-product sampling of a cutoff on the lattice; flat support + values."""
    xi = grid.xi_axis()
    order = np.argsort(xi, kind="stable")
    xs_sorted = xi[order]
    per_axis = [_axis_slices(xs_sorted, order, seg) for seg in axes]
    if any(ix.size == 0 for ix, _ in per_axis):
        return np.empty(0, dtype=np.int64), np.empty(0)
    idx_arrays = [ix for ix, _ in per_axis]
    val_arrays = [v for _, v in per_axis]
    mesh = np.meshgrid(*idx_arrays, indexing="ij")
    flat = np.ravel_multi_index(tuple(m.reshape(-1) for m in mesh), grid.shape)
    vals = reduce(np.multiply.outer, val_arrays).reshape(-1)
    keep = vals > 0
    return flat[keep], vals[keep]


def _shell_one_axes(dim: int, frac: float) -> list[tuple[AxisSegment, ...]]:
    """Product-partition pieces of {1 < |xi|_inf <= 2}: delta in {0,1}^d \\ {0}."""
    pieces = []
    for bits in range(1, 2**dim):
        segs = []
        for j in range(dim):
            if (bits >> (dim - 1 - j)) & 1:
                segs.append(AxisSegment("band", 1.0, 2.0, frac * 1.0))
            else:
                segs.append(AxisSegment("interval", -1.0, 1.0, frac * 2.0))
        pieces.append(tuple(segs))
    return pieces


def _shell_block(config: PartitionConfig, grid: GridSpec, n: int, start: int) -> ShellBlock:
    """Separable form of shell N >= 2, its cubes numbered from `start`.

    Cells [m*l, (m+1)*l)^d with l = 2*N^-a tile {N < |xi|_inf <= 2N} exactly:
    m ranges over [-2P, 2P-1]^d minus [-P, P-1]^d, P = N^{a+1}/2.
    """
    p = n ** (config.a + 1) // 2
    side = 2.0 * n**-config.a
    w = config.mollify_fraction * side
    m = np.arange(-2 * p, 2 * p)[:, None]
    profiles = _profile(grid.xi_axis()[None, :], m * side, (m + 1) * side, w)
    inner = np.zeros(4 * p, dtype=bool)
    inner[p : 3 * p] = True
    outer = ~reduce(np.logical_and.outer, [inner] * config.dim)
    stop = start + expected_count(config.dim, config.a, n)
    return ShellBlock(n, start, stop, side, w, profiles, outer)


def build_partition(config: PartitionConfig, grid: GridSpec) -> FrequencyPartition:
    """Construct the cutoff family sampled on the grid's frequency lattice."""
    if grid.dim != config.dim:
        raise ConfigError(f"grid dim {grid.dim} != partition dim {config.dim}")
    if grid.nyquist <= config.coverage:
        raise ConfigError(
            f"grid Nyquist {grid.nyquist:g} must strictly exceed the outermost "
            f"shell frequency {config.coverage:g}"
        )
    total = config.total_cubes()
    if total + 1 > config.max_cubes:
        raise ResourceLimitError(
            f"partition would have {total} cubes, above the max_cubes cap "
            f"{config.max_cubes}; lower a or n_max"
        )
    for n in config.shells[1:]:
        if 2.0 * n**-config.a < grid.dxi and not config.allow_subcell:
            raise ResolutionError(
                f"shell {n} cube side {2.0 * n**-config.a:g} is below the lattice "
                f"spacing {grid.dxi:g} and allow_subcell is off"
            )

    frac = config.mollify_fraction
    core_axes = tuple(AxisSegment("interval", -1.0, 1.0, frac * 2.0) for _ in range(config.dim))
    pieces = [CubeCutoff(0, CORE_SHELL, core_axes, *_sample_cutoff(grid, core_axes))]
    for axes in _shell_one_axes(config.dim, frac):
        pieces.append(CubeCutoff(len(pieces), 1, axes, *_sample_cutoff(grid, axes)))
    shell_members = {CORE_SHELL: range(0, 1), 1: range(1, len(pieces))}
    shells = []
    start = len(pieces)
    for n in config.shells[1:]:
        shells.append(_shell_block(config, grid, n, start))
        shell_members[n] = range(start, shells[-1].stop)
        start = shells[-1].stop
    shell_members[RESIDUAL_SHELL] = range(total, total + 1)

    # Renormalize by the pointwise sum so the family sums to one exactly on the
    # covered lattice; the residual cutoff absorbs everything outside.
    ones = np.ones(total + 1)
    s = _raw_sum(grid, pieces, shells, ones[:-1])
    t = np.maximum(s, 1.0)
    res = 1.0 - s / t
    counts = _raw_sum(grid, pieces, shells, ones[:-1], _positive) + (res > 0)
    part = FrequencyPartition(
        config=config,
        grid=grid,
        pieces=pieces,
        shells=shells,
        shell_members=shell_members,
        kappa=int(counts.max()),
        normalizer=t,
        residual=res,
        sq_sum=_raw_sum(grid, pieces, shells, ones[:-1], np.square) / t**2 + res**2,
    )
    part.unity_sum = part.multiplier(ones)
    return part


def project_cube(partition: FrequencyPartition, field: SpectralField, j: int) -> SpectralField:
    """box_j f: multiply fhat by the j-th cutoff. Output keeps the input representation."""
    cut = partition.cutoff(j)
    fhat = field.as_frequency()
    out = np.zeros_like(fhat.values).reshape(-1)
    out[cut.support] = cut.values * fhat.values.reshape(-1)[cut.support]
    res = SpectralField(field.grid, out.reshape(field.grid.shape), "frequency")
    return to_physical(res) if field.rep == "physical" else res


@dataclass(frozen=True)
class BernsteinFit:
    slope: float
    expected: float
    shells: tuple[int, ...]
    ratios: tuple[float, ...]  # median ||box f||_q / ||box f||_p per shell

    @property
    def error(self) -> float:
        return abs(self.slope - self.expected)


def bernstein_exponent(
    partition: FrequencyPartition,
    p: float = 2.0,
    q: float = math.inf,
    shells: tuple[int, ...] | None = None,
    n_probes: int = 8,
    seed: int = 0,
) -> BernsteinFit:
    """Fit the growth exponent of ||box_j f||_q / ||box_j f||_p across shells.

    Probes single-cube random fields on shells N in {2, 4, ...} and regresses
    log2(median ratio) on log2 N. Probe spectra have random Rayleigh moduli
    with aligned phases (random phases would not saturate the volume factor,
    and the ratio would go flat). The expected slope from the cube side
    2*N^-a is -a*(d/p - d/q).
    """
    cfg = partition.config
    if shells is None:
        shells = tuple(n for n in cfg.shells if n >= 2)
    if len(shells) < 2:
        raise ConfigError("bernstein_exponent needs at least two shells >= 2")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xB3A7], dtype=np.uint64)))
    medians = []
    for n in shells:
        usable = partition.supported_members(n)
        if not usable:
            raise ResolutionError(f"shell {n} has no lattice-resolvable cubes on this grid")
        take = min(n_probes, len(usable))
        picks = rng.choice(len(usable), size=take, replace=False)
        ratios = []
        for k in picks:
            cut = partition.cutoff(usable[int(k)])
            moduli = rng.rayleigh(scale=math.sqrt(0.5), size=cut.support.size)
            fhat = np.zeros(partition.grid.n_points, dtype=np.complex128)
            fhat[cut.support] = cut.values * moduli
            f = to_physical(
                SpectralField(partition.grid, fhat.reshape(partition.grid.shape), "frequency")
            )
            denom = lp_norm(f, p)
            if denom > 0:
                ratios.append(lp_norm(f, q) / denom)
        medians.append(float(np.median(ratios)))
    lg_n = np.log2(np.asarray(shells, dtype=float))
    lg_r = np.log2(np.asarray(medians))
    slope = float(np.polyfit(lg_n, lg_r, 1)[0])
    dp = 0.0 if math.isinf(p) else cfg.dim / p
    dq = 0.0 if math.isinf(q) else cfg.dim / q
    return BernsteinFit(slope, -cfg.a * (dp - dq), tuple(shells), tuple(medians))
