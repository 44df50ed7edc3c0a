"""Unit-cube frequency partition: counts, unity, orthogonality, Bernstein."""

import itertools
from collections import Counter
from functools import reduce

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
from roughnls.grids import smoothstep
from roughnls.partition import MOLLIFY_FRACTION


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


def test_build_leaves_the_diagnostics_to_first_read():
    # A build makes the normalizer and the residual; kappa, sq_sum and
    # unity_sum are built on first read and then kept.
    g = GridSpec(2, 32, np.pi)
    part = build_partition(PartitionConfig(dim=2, a=1, n_max=2), g)
    names = ("kappa", "sq_sum", "unity_sum")
    assert not set(names) & set(vars(part))
    for name in names:
        first = getattr(part, name)
        assert name in vars(part) and getattr(part, name) is first


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
        cut = part.cutoff(j)
        total[cut.support] += cut.values * fhat[cut.support]
    mask = part.coverage_mask()
    assert np.max(np.abs(total[mask] - fhat[mask])) < 1e-9 * np.abs(fhat).max()


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 24), (3, 12), (4, 10)])
def test_coefficients_are_the_adjoint_of_multiplier(dim, points):
    # <multiplier(c), h> = <c, coefficients(h)> for complex c and h: the cube
    # coefficients are the transpose of the weighted sum, residual included.
    g = GridSpec(dim, points, np.pi)
    part = build_partition(PartitionConfig(dim=dim, a=1, n_max=2), g)
    rng = np.random.default_rng(dim)
    c = rng.normal(size=part.n_cutoffs) + 1j * rng.normal(size=part.n_cutoffs)
    h = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    lhs = np.vdot(part.multiplier(c), h)
    rhs = np.vdot(c, part.coefficients(h))
    assert abs(lhs - rhs) < 1e-13 * abs(lhs)
    # a real h gives real coefficients, the residual's last
    real = part.coefficients(h.real)
    assert real.dtype == np.float64 and real.size == part.n_cutoffs
    assert real[-1] == pytest.approx(np.sum(part.residual * h.real), rel=1e-12, abs=1e-12)


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


# every (dim, a) whose n_max = 2 family has at most 30,000 cubes: (4, 2) has
# 61,440 and (4, 3) 983,040, too many to sample one by one in a unit test
SEPARABLE_CASES = [
    (d, a) for d in (1, 2, 3, 4) for a in (1, 2, 3) if expected_count(d, a, 2) <= 30_000
]


def ramp(x, lo, hi, w):
    """The documented axis profile: 1 on [lo, hi], smoothstep ramps of width w, 0 beyond."""
    return np.where(x < lo, smoothstep((x - (lo - w)) / w),
                    np.where(x > hi, smoothstep(((hi + w) - x) / w), 1.0))


def geometric_cutoffs(grid, cfg):
    """(shell, axis profiles) of every cube in index order, from the documented geometry.

    The core [-1, 1]^d (ramp 2*frac); the N = 1 pieces prod_i K_{delta_i},
    delta != 0 in C order, with K_0 = [-1, 1] and K_1 = {1 <= |t| <= 2} (ramp
    frac); then per shell N >= 2 the cells [m*side, (m+1)*side] (ramp
    frac*side) with m in [-2P, 2P)^d outside [-P, P)^d, in C order.
    """
    xi = grid.xi_axis()
    frac, dim = MOLLIFY_FRACTION, cfg.dim
    k = {0: ramp(xi, -1.0, 1.0, 2.0 * frac), 1: ramp(np.abs(xi), 1.0, 2.0, frac)}
    for delta in itertools.product((0, 1), repeat=dim):
        yield (1 if any(delta) else 0), [k[b] for b in delta]
    for n in cfg.shells[1:]:
        p, side = n ** (cfg.a + 1) // 2, 2.0 * n**-cfg.a
        rows = {m: ramp(xi, m * side, (m + 1) * side, frac * side) for m in range(-2 * p, 2 * p)}
        for cell in itertools.product(range(-2 * p, 2 * p), repeat=dim):
            if not all(-p <= m < p for m in cell):
                yield n, [rows[m] for m in cell]


@pytest.mark.parametrize("dim,a", SEPARABLE_CASES)
def test_separable_sums_match_cube_by_cube(dim, a):
    # The per-block contractions against sums over single cutoffs built here
    # from the geometry; only the summation order differs, so 1e-14 is ample.
    # At a >= 2 the cubes are narrower than the lattice spacing and some are
    # empty.
    points = {1: 64, 2: 24, 3: 12, 4: 12}[dim]
    g = GridSpec(dim, points, np.pi)
    cfg = PartitionConfig(dim=dim, a=a, n_max=2)
    part = build_partition(cfg, g)
    cubes = []
    raw_sum = np.zeros(g.n_points)
    for shell, profiles in geometric_cutoffs(g, cfg):
        idx = [np.flatnonzero(prof) for prof in profiles]
        sup = np.ravel_multi_index([m.reshape(-1) for m in np.meshgrid(*idx, indexing="ij")], g.shape)
        raw = reduce(np.multiply.outer, [prof[i] for prof, i in zip(profiles, idx)]).reshape(-1)
        raw_sum[sup] += raw
        cubes.append((shell, sup, raw))
    t = np.maximum(raw_sum, 1.0)
    res = 1.0 - raw_sum / t
    cubes.append((-1, np.flatnonzero(res > 0), res[res > 0]))
    assert len(cubes) == part.n_cutoffs

    coeffs = np.array([cube_gaussian(5, j)[0] for j in range(part.n_cutoffs)])
    unity = np.zeros(g.n_points)
    sq = np.zeros(g.n_points)
    mult = np.zeros(g.n_points, dtype=complex)
    counts = np.zeros(g.n_points, dtype=np.int64)
    per_shell = Counter()
    supported = {n: [] for n in cfg.shells}
    for j, (c, (shell, sup, raw)) in enumerate(zip(coeffs, cubes)):
        vals = raw if shell == -1 else raw / t[sup]
        if sup.size and shell in supported:
            supported[shell].append(j)
        unity[sup] += vals
        sq[sup] += vals**2
        mult[sup] += c * vals
        counts[sup] += 1
        per_shell[shell] += 1
    assert np.max(np.abs(part.unity_sum - unity)) < 1e-14
    assert np.max(np.abs(part.sq_sum - sq)) < 1e-14
    assert np.max(np.abs(part.multiplier(coeffs) - mult)) < 1e-14
    assert part.kappa == counts.max()
    for n in cfg.shells:
        assert per_shell[n] == part.shell_count(n) == expected_count(dim, a, n)
        # usability from the profile rows matches the geometric supports
        assert part.supported_members(n) == supported[n]
    assert per_shell[0] == per_shell[-1] == 1
    # cutoffs sampled on demand: the same points and values as the geometry
    for j in list(range(2**dim + 1)) + list(range(2**dim + 1, part.n_cutoffs, 97)) + [part.n_cutoffs - 1]:
        cut, (shell, sup, raw) = part.cutoff(j), cubes[j]
        assert cut.shell == shell
        order = np.argsort(sup)
        assert np.array_equal(np.sort(cut.support), sup[order])
        ref = raw if shell == -1 else raw / t[sup]
        assert np.max(np.abs(cut.values[np.argsort(cut.support)] - ref[order]), initial=0.0) < 1e-14
