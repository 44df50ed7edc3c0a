"""Unit-cube frequency partition: counts, unity, orthogonality, Bernstein."""

from collections import Counter

import numpy as np
import pytest

from roughnls import (
    ConfigError,
    GridSpec,
    PartitionConfig,
    SpectralField,
    bernstein_exponent,
    build_partition,
    cube_gaussian,
    expected_count,
)


def noise_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return SpectralField(grid, vals, "physical")


def test_expected_count_formula():
    # (2^d - 1) N^{d(a+1)} cubes of side N^-a tile the dyadic shell at N.
    assert expected_count(1, 1, 2) == 1 * 2**2
    assert expected_count(2, 1, 2) == 3 * 2**4
    assert expected_count(3, 1, 1) == 7
    assert expected_count(1, 2, 2) == 1 * 2**3
    assert expected_count(4, 1, 2) == 15 * 2**8


def test_config_validation():
    with pytest.raises(ConfigError):
        PartitionConfig(dim=5, a=1, n_max=2)
    with pytest.raises(ConfigError):
        PartitionConfig(dim=3, a=0, n_max=2)
    with pytest.raises(ConfigError):
        PartitionConfig(dim=3, a=1, n_max=3)  # not a power of two
    cfg = PartitionConfig(dim=2, a=1, n_max=4, s=-0.2)
    assert cfg.shells == (1, 2, 4)
    assert cfg.coverage == 8.0


def test_built_counts_match_formula():
    g = GridSpec(2, 64, np.pi)
    cfg = PartitionConfig(dim=2, a=1, n_max=2, s=0.0)
    part = build_partition(cfg, g)
    for shell in cfg.shells:
        assert part.shell_count(shell) == expected_count(2, 1, shell)


def test_partition_of_unity_on_coverage():
    g = GridSpec(2, 64, np.pi)
    part = build_partition(PartitionConfig(dim=2, a=1, n_max=2), g)
    cov_dev, _ = part.unity_deviation()
    assert cov_dev < 1e-10


def test_kappa_bound():
    for dim, pts in ((1, 256), (2, 64), (3, 32)):
        part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2), GridSpec(dim, pts, np.pi))
        assert 1 <= part.kappa <= 4 * 3**dim


def test_orthogonality_ratio_bounds():
    g = GridSpec(2, 64, np.pi)
    part = build_partition(PartitionConfig(dim=2, a=1, n_max=2), g)
    for seed in range(5):
        ratio = part.orthogonality_ratio(noise_field(g, seed))
        assert 1.0 / part.kappa <= ratio <= 1.0 + 1e-10


def test_orthogonality_rejects_zero_field():
    g = GridSpec(1, 64, np.pi)
    part = build_partition(PartitionConfig(dim=1, a=1, n_max=2), g)
    zero = SpectralField(g, np.zeros(64, dtype=complex), "physical")
    with pytest.raises(ValueError):
        part.orthogonality_ratio(zero)


def test_projection_reconstructs_on_coverage():
    # Summing all projections equals multiplying by the (coverage-complete)
    # weight sum; inside the covered band that weight sum is 1.
    g = GridSpec(1, 256, np.pi)
    part = build_partition(PartitionConfig(dim=1, a=1, n_max=2), g)
    f = noise_field(g, seed=9)
    fhat = f.as_frequency().values
    total = np.zeros_like(fhat)
    for j in range(part.n_cutoffs):
        total = total + part.project(f, j).as_frequency().values
    mask = part.coverage_mask()
    assert np.max(np.abs(total[mask] - fhat[mask])) < 1e-9 * np.abs(fhat).max()


def test_report_keys():
    g = GridSpec(2, 64, np.pi)
    part = build_partition(PartitionConfig(dim=2, a=1, n_max=2, s=-0.3), g)
    rep = part.report()
    keys = ("dim", "a", "n_max", "kappa", "kappa_bound", "shells",
            "unity_deviation_coverage", "unity_deviation_full")
    for key in keys:
        assert key in rep
    assert rep["kappa_bound"] == 4 * 3**2


def test_bernstein_slope_1d():
    # Cube sides must span several frequency-lattice cells, so the box is
    # large (small dxi) while n_max stays modest.
    g = GridSpec(1, 4096, 32 * np.pi)
    part = build_partition(PartitionConfig(dim=1, a=1, n_max=8), g)
    fit = bernstein_exponent(part)
    assert fit.expected == pytest.approx(-0.5)
    assert abs(fit.slope - fit.expected) < 0.2


def test_grid_too_coarse_raises():
    # Shell-4 cubes of side 1/4 need lattice spacing <= 1/4; a tiny box makes
    # the cubes sub-lattice and the build must refuse (or place them) per
    # allow_subcell.
    g = GridSpec(1, 16, 1.0)
    with pytest.raises(ConfigError):
        build_partition(PartitionConfig(dim=1, a=2, n_max=4, allow_subcell=False), g)


# every (dim, a) whose n_max = 2 family has at most 30,000 cubes: (4, 2) has
# 61,440 and (4, 3) 983,040, too many to sample one by one in a unit test
SEPARABLE_CASES = [
    (d, a) for d in (1, 2, 3, 4) for a in (1, 2, 3) if expected_count(d, a, 2) <= 30_000
]


@pytest.mark.parametrize("dim,a", SEPARABLE_CASES)
def test_separable_sums_match_cube_by_cube(dim, a):
    # The per-shell contractions against sums over single cutoffs built on
    # demand; only the summation order differs, so 1e-14 is ample. At a >= 2
    # the cubes are narrower than the lattice spacing and some are empty.
    points = {1: 64, 2: 24, 3: 12, 4: 12}[dim]
    g = GridSpec(dim, points, np.pi)
    cfg = PartitionConfig(dim=dim, a=a, n_max=2)
    part = build_partition(cfg, g)
    coeffs = np.array([cube_gaussian(5, j)[0] for j in range(part.n_cutoffs)])
    unity = np.zeros(g.n_points)
    sq = np.zeros(g.n_points)
    mult = np.zeros(g.n_points, dtype=complex)
    counts = np.zeros(g.n_points, dtype=np.int64)
    per_shell = Counter()
    supported = {n: [] for n in cfg.shells}
    for j, c in enumerate(coeffs):
        cut = part.cutoff(j)
        if cut.support.size and cut.shell in supported:
            supported[cut.shell].append(j)
        unity[cut.support] += cut.values
        sq[cut.support] += cut.values**2
        mult[cut.support] += c * cut.values
        counts[cut.support] += 1
        per_shell[cut.shell] += 1
    assert np.max(np.abs(part.unity_sum - unity)) < 1e-14
    assert np.max(np.abs(part.sq_sum - sq)) < 1e-14
    assert np.max(np.abs(part.multiplier(coeffs) - mult)) < 1e-14
    assert part.kappa == counts.max()
    for n in cfg.shells:
        assert per_shell[n] == part.shell_count(n) == expected_count(dim, a, n)
        # usability from the profile rows matches the sampled supports
        assert part.supported_members(n) == supported[n]
    assert per_shell[0] == per_shell[-1] == 1
