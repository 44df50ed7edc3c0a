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
ramp of width MOLLIFY_FRACTION * side outside it, zero beyond the doubled
piece. Renormalizing by the pointwise sum makes the family an exact partition
of unity at every lattice point; a bookkeeping residual cutoff absorbs the
region beyond coverage.

Storage is per block of cutoffs, not per cube: every cutoff is a product of
d 1D axis profiles. The 2^d core and N = 1 pieces form one block with two
profile rows, the core interval [-1, 1] and the band {1 <= |t| <= 2}; its cell
0 is the core and cell delta != 0 the piece prod_j K_{delta_j}. Each shell
N >= 2 is one block: its cubes are the cells m in [-2P, 2P)^d outside the
inner block [-P, P)^d, P = N^{a+1}/2, with one profile row per m. A block
keeps its (rows x points) profile table and a boolean mask of its cells, so a
weighted sum over its cutoffs (`FrequencyPartition.multiplier`) is d
tensor-matrix contractions. The flat normalizer and the residual are the
lattice arrays a build makes. The unity, square and overlap diagnostics
(`unity_sum`, `sq_sum`, `kappa`), which only the partition report and the
checks read, are built on first read and then kept.

What only the tests read lives in tests/instruments.py: c04's Bernstein fit
(`bernstein_exponent`), and for it and the unit tests a single cube sampled
on demand (`cutoff`), the cubes with lattice support (`supported_members`)
and every coefficient sum_xi psi_j(xi) h(xi), the adjoint contractions of
`multiplier` (`coefficients`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .grids import GridSpec, SpectralField, smoothstep

__all__ = [
    "PartitionConfig",
    "ShellBlock",
    "FrequencyPartition",
    "build_partition",
    "expected_count",
]

CORE_SHELL = 0
RESIDUAL_SHELL = -1
# each cutoff's ramp width as a fraction of its piece's side
MOLLIFY_FRACTION = 0.25
# build_partition refuses a family with more cutoffs than this, residual included
MAX_CUBES = 500_000


def expected_count(dim: int, a: int, shell: int) -> int:
    """Number of cubes tiling shell N: (2^d - 1) * N^{d(a+1)}."""
    return (2**dim - 1) * shell ** (dim * (a + 1))


@dataclass(frozen=True)
class PartitionConfig:
    """Parameters of the cube family, in any dimension: the grid it is built on gives that.

    s is recorded for regime bookkeeping only; a is the narrowing exponent
    (integer so cube corners stay dyadic), n_max the largest shell.
    """

    a: int
    n_max: int
    s: float = 0.0

    def __post_init__(self):
        if not isinstance(self.a, int) or self.a < 1:
            raise ConfigError(f"narrowing exponent a must be a positive integer, got {self.a!r}")
        n = self.n_max
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_max must be a power of two >= 1, got {n}")

    @property
    def shells(self) -> tuple[int, ...]:
        return tuple(2**k for k in range(int(math.log2(self.n_max)) + 1))

    @property
    def coverage(self) -> float:
        """Cutoff family covers {|xi|_inf <= coverage}."""
        return 2.0 * self.n_max

    def total_cubes(self, dim: int) -> int:
        """Core + shell pieces (no residual) in dimension dim."""
        return 1 + sum(expected_count(dim, self.a, n) for n in self.shells)

    def in_paper_regime(self, dim: int) -> bool:
        """Whether (s, a) satisfy the narrowing thresholds of the wellposedness theory in dimension dim."""
        if dim == 4:
            return self.a > max(1 - 2 * self.s, 10)
        return self.a > max(3 - 4 * self.s, 1 - 2 * self.s, 10)


def _profile(x, lo, hi, w):
    """Interval profile: 1 on [lo, hi], smoothstep ramps of width w, 0 beyond."""
    up = smoothstep((x - (lo - w)) / w)
    down = smoothstep(((hi + w) - x) / w)
    return np.where(x < lo, up, np.where(x > hi, down, 1.0))


@dataclass(frozen=True)
class ShellBlock:
    """Cutoffs start..stop-1 in separable form.

    The cutoffs are the True cells of `cells`, numbered in C order from
    `start`; cell (m_1, ..., m_d) has raw cutoff prod_i profiles[m_i, x_i],
    one profile row per axis on the FFT-ordered lattice axis.
    """

    start: int
    stop: int  # one past the index of the last cutoff
    profiles: np.ndarray  # (rows, points)
    cells: np.ndarray  # bool, (rows,)*d

    def combine(self, coeffs: np.ndarray, profiles: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] prod_i profiles[m_i(k), x_i] on the whole lattice (grid shape)."""
        cells = np.zeros(self.cells.shape, dtype=coeffs.dtype)
        cells[self.cells] = coeffs
        return _contract_axes(cells, profiles)


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


def _contract_axes(cells: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """sum_a cells[a_1, ..., a_d] prod_i profiles[a_i, m_i], every axis contracted.

    A complex array is carried as a trailing (real, imag) axis, so the
    contractions stay real.
    """
    cplx = np.iscomplexobj(cells)
    out = np.stack([cells.real, cells.imag], axis=-1) if cplx else cells
    for _ in range(cells.ndim):
        # contract the leading axis; the contracted axes collect at the end
        out = _contract_leading(out, profiles)
    return out[0] + 1j * out[1] if cplx else out


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def _positive(v: np.ndarray) -> np.ndarray:
    return (v > 0).astype(np.float64)


def _raw_sum(grid: GridSpec, blocks, coeffs: np.ndarray, factor=_identity) -> np.ndarray:
    """Flat sum_j c_j factor(raw_j) over every cutoff but the residual, before renormalization.

    `factor` acts on the axis profiles, which is exact for multiplicative
    maps: np.square gives sum c_j raw_j^2 and `_positive` the support
    indicator.
    """
    out = np.zeros(grid.n_points, dtype=np.result_type(coeffs, np.float64))
    for block in blocks:
        out += block.combine(coeffs[block.start : block.stop], factor(block.profiles)).reshape(-1)
    return out


@dataclass
class FrequencyPartition:
    config: PartitionConfig
    grid: GridSpec
    # the core and N = 1 pieces, then one block per shell N >= 2
    blocks: list[ShellBlock] = dc_field(repr=False)
    shell_members: dict[int, range]  # shell label -> cutoff indices
    normalizer: np.ndarray = dc_field(repr=False)  # t = max(sum_j raw_j, 1), flat
    residual: np.ndarray = dc_field(repr=False)  # 1 - sum_j raw_j / t, flat

    @cached_property
    def kappa(self) -> int:
        """Measured max overlap of cutoff supports, the residual's included."""
        ones = np.ones(self.n_cutoffs - 1)
        return int((_raw_sum(self.grid, self.blocks, ones, _positive) + (self.residual > 0)).max())

    @cached_property
    def sq_sum(self) -> np.ndarray:
        """sum_j psi_j^2, flat."""
        ones = np.ones(self.n_cutoffs - 1)
        return _raw_sum(self.grid, self.blocks, ones, np.square) / self.normalizer**2 + self.residual**2

    @cached_property
    def unity_sum(self) -> np.ndarray:
        """sum_j psi_j, flat."""
        return self.multiplier(np.ones(self.n_cutoffs))

    @property
    def n_cutoffs(self) -> int:
        return self.shell_members[RESIDUAL_SHELL].stop

    def shell_count(self, shell: int) -> int:
        return len(self.shell_members.get(shell, ()))

    def multiplier(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat sum_j c_j psi_j over all n_cutoffs cutoffs, the residual (last) included."""
        raw = _raw_sum(self.grid, self.blocks, coeffs[:-1])
        return raw / self.normalizer + coeffs[-1] * self.residual

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

    def report(self) -> dict:
        cov_dev, full_dev = self.unity_deviation()
        shells = {}
        for n in self.config.shells:
            shells[str(n)] = {
                "count": self.shell_count(n),
                "expected": expected_count(self.grid.dim, self.config.a, n),
                "side": 2.0 * n**-self.config.a,
            }
        return {
            "dim": self.grid.dim,
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
            "kappa_bound": 4 * 3**self.grid.dim,
            "unity_deviation_coverage": cov_dev,
            "unity_deviation_full": full_dev,
            "paper_regime": self.config.in_paper_regime(self.grid.dim),
        }


def _core_block(config: PartitionConfig, grid: GridSpec) -> ShellBlock:
    """The core and the N = 1 pieces as one block of 2^d cutoffs.

    Row 0 is the core interval [-1, 1] (ramp 2*frac), row 1 the band
    {1 <= |t| <= 2} (ramp frac). Cell 0 is the core O_1 = [-1,1]^d, and
    cell delta != 0 the N = 1 product piece prod_i K_{delta_i}.
    """
    xi = grid.xi_axis()
    frac = MOLLIFY_FRACTION
    profiles = np.stack([_profile(xi, -1.0, 1.0, frac * 2.0), _profile(np.abs(xi), 1.0, 2.0, frac)])
    return ShellBlock(0, 2**grid.dim, profiles, np.ones((2,) * grid.dim, dtype=bool))


def _shell_block(config: PartitionConfig, grid: GridSpec, n: int, start: int) -> ShellBlock:
    """Separable form of shell N >= 2, its cubes numbered from `start`.

    Cells [m*l, (m+1)*l)^d with l = 2*N^-a tile {N < |xi|_inf <= 2N} exactly:
    m ranges over [-2P, 2P-1]^d minus [-P, P-1]^d, P = N^{a+1}/2. Row m + 2P
    of the profile table is the profile of [m*l, (m+1)*l] with ramp
    MOLLIFY_FRACTION * l.
    """
    p = n ** (config.a + 1) // 2
    side = 2.0 * n**-config.a
    w = MOLLIFY_FRACTION * side
    m = np.arange(-2 * p, 2 * p)[:, None]
    profiles = _profile(grid.xi_axis()[None, :], m * side, (m + 1) * side, w)
    inner = np.zeros(4 * p, dtype=bool)
    inner[p : 3 * p] = True
    outer = ~reduce(np.logical_and.outer, [inner] * grid.dim)
    return ShellBlock(start, start + expected_count(grid.dim, config.a, n), profiles, outer)


def build_partition(config: PartitionConfig, grid: GridSpec) -> FrequencyPartition:
    """Construct the cutoff family sampled on the grid's frequency lattice, in the grid's dimension."""
    if grid.nyquist <= config.coverage:
        raise ConfigError(
            f"grid Nyquist {grid.nyquist:g} must strictly exceed the outermost "
            f"shell frequency {config.coverage:g}"
        )
    total = config.total_cubes(grid.dim)
    if total + 1 > MAX_CUBES:
        raise ResourceLimitError(
            f"partition would have {total} cubes, above the cap {MAX_CUBES}; lower a or n_max"
        )

    blocks = [_core_block(config, grid)]
    shell_members = {CORE_SHELL: range(0, 1), 1: range(1, blocks[0].stop)}
    for n in config.shells[1:]:
        blocks.append(_shell_block(config, grid, n, blocks[-1].stop))
        shell_members[n] = range(blocks[-1].start, blocks[-1].stop)
    shell_members[RESIDUAL_SHELL] = range(total, total + 1)

    # Renormalize by the pointwise sum so the family sums to one exactly on the
    # covered lattice; the residual cutoff absorbs everything outside.
    s = _raw_sum(grid, blocks, np.ones(total))
    t = np.maximum(s, 1.0)
    return FrequencyPartition(
        config=config,
        grid=grid,
        blocks=blocks,
        shell_members=shell_members,
        normalizer=t,
        residual=1.0 - s / t,
    )
