"""Cube randomization f -> f^omega and the subgaussian tail fit.

Each cutoff j gets an independent unit complex Gaussian g_j (real and
imaginary parts each of variance 1/2, so E|g_j|^2 = 1), drawn from a
counter-based Philox stream keyed by (master seed, cube index). The draw is
therefore reproducible per cube, independent of enumeration order or of how
many other cubes exist. `draw` computes the first Philox block of every
cube at once in uint64 lanes and maps its two words through the fast path
of numpy's ziggurat normal sampler; the few cubes that leave that path are
drawn by numpy from a re-keyed bit generator. The coefficients are those
of numpy's generator on each cube's own stream, bit for bit (the reference
`cube_gaussian` lives in tests/instruments.py, beside the chaos moments
that the unit tests check), and `draw` applies them through the
partition's per-shell multiplier rather than cube by cube. A draw keeps the
spectrum of f^omega, which the multiplier gives it: given f in frequency
representation, `draw` makes no transform, and f^omega's physical values
cost one inverse transform, made only when asked for
(`RandomizationDraw.field`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import FitError
from .grids import SpectralField, to_physical
from .partition import FrequencyPartition

__all__ = [
    "RandomizationDraw",
    "draw",
    "TailReport",
    "tail_fit",
]


@dataclass(frozen=True)
class RandomizationDraw:
    """One realization: the seed, the per-cube coefficients, and the spectrum of f^omega."""

    seed: int
    coefficients: np.ndarray  # complex, one per cutoff
    spectrum: SpectralField  # frequency representation

    @cached_property
    def field(self) -> SpectralField:
        """f^omega in physical representation: one inverse transform, on first use."""
        return to_physical(self.spectrum)

    @property
    def n_cubes(self) -> int:
        return self.coefficients.size


# Philox4x64-10 (Salmon et al., SC'11) with the constants numpy's Philox uses.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
# cubes per vectorized block, so that the temporaries do not grow with n
_LANES = 8192
# numpy's ziggurat_nor_r, the start of the normal sampler's tail layer
_ZIGGURAT_R = 3.6541528853610088


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, hi = x & _MASK32, x >> 32
    lh, hl = m_lo * hi, m_hi * x_lo
    carry = m_lo * x_lo
    carry >>= 32
    carry += lh & _MASK32
    carry += hl & _MASK32
    carry >>= 32
    hi *= m_hi
    hi += lh >> 32
    hi += hl >> 32
    hi += carry
    return hi, x * np.uint64(m)


def _philox_words(seed: int, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first two uint64 outputs of Philox(key=(seed, j)), one lane per j.

    numpy increments the counter before its first block, so they are words 0
    and 1 of Philox4x64-10 at counter (1, 0, 0, 0). The first round maps that
    counter to (k0, 0, k1, M0) whatever the key; nine rounds follow.
    """
    c0 = np.full(j.shape, seed, dtype=np.uint64)
    c1 = np.zeros(j.shape, dtype=np.uint64)
    c2 = j
    c3 = np.full(j.shape, _PHILOX_M[0], dtype=np.uint64)
    for r in range(1, 10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        k1 = j + np.uint64((r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


def _untemper(y: np.ndarray) -> np.ndarray:
    """The MT19937 state words whose tempered outputs are y (uint32)."""
    y = y ^ (y >> 18)
    y = y ^ ((y << 15) & 0xEFC60000)
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def _mt19937_emitting(words: list[int]) -> np.random.MT19937:
    """An MT19937 whose next 64-bit outputs are `words` (at most 312 of them).

    numpy joins two 32-bit outputs into one uint64, the first as the high half.
    """
    out = np.array([(w >> 32, w & 0xFFFFFFFF) for w in words], dtype=np.uint32).reshape(-1)
    key = np.zeros(624, dtype=np.uint32)
    key[: out.size] = _untemper(out)
    bitgen = np.random.MT19937(0)
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return bitgen


@cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat layer widths wi and conservative fast-path bounds ki.

    numpy's standard normal maps a uint64 r to idx = r & 0xff, sign = bit 8,
    rabs = bits 9..60 and x = +-rabs * wi[idx], returned at once iff
    rabs < ki[idx]. wi is read from numpy: r = (1 << 9) | idx makes it return
    wi[idx], for all 256 layers in one call. Layer 1 never takes the fast
    path, so its word is followed by a 0 word, whose U = 0 accepts it; the
    call must consume exactly those 257 words. ki is rebuilt from wi as
    floor(2^52 wi[i-1] / wi[i]) (i >= 2) and floor(r / wi[0]) (i = 0),
    within one count of numpy's, less 2; layer 1 gets 0.
    """
    words = [(1 << 9) | idx for idx in range(256)]
    words.insert(2, 0)
    bitgen = _mt19937_emitting(words)
    wi = np.random.Generator(bitgen).standard_normal(256)
    if bitgen.state["state"]["pos"] != 2 * len(words):
        raise RuntimeError("numpy's normal sampler no longer matches the ziggurat fast path")
    ki = np.zeros(256)
    ki[0] = np.floor(_ZIGGURAT_R / wi[0]) - 2.0
    ki[2:] = np.floor(2.0**52 * wi[1:-1] / wi[2:]) - 2.0
    return wi, ki.astype(np.uint64)


def _fast_normals(r: np.ndarray, wi: np.ndarray, ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal of each word r, and where its fast path is sure."""
    idx = (r & 0xFF).astype(np.intp)
    rabs = (r >> 9) & 0xFFFFFFFFFFFFF
    x = rabs.astype(np.float64) * wi[idx]
    np.negative(x, out=x, where=(r & 0x100).astype(bool))
    return x, rabs < ki[idx]


def _cube_gaussians(seed: int, n: int) -> np.ndarray:
    """cube_gaussian(seed, j, 1)[0] (tests/instruments.py) for j in 0..n-1, bit for bit.

    Each cube's real and imaginary parts are numpy's standard normals of
    the first two words of its Philox stream, computed for all cubes at
    once. A cube where either word leaves the ziggurat's fast path (about
    3%) is drawn by numpy's own sampler from a bit generator re-keyed to
    (seed, j) with counter 0 and an empty buffer, the state Philox(key=(seed, j))
    starts in; the Generator keeps no state of its own.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    wi, ki = _ziggurat_tables()
    pairs = np.empty((n, 2))
    fast = np.ones(n, dtype=bool)
    for start in range(0, n, _LANES):
        j = np.arange(start, min(start + _LANES, n), dtype=np.uint64)
        for col, r in enumerate(_philox_words(int(key[0]), j)):
            pairs[start : start + j.size, col], ok = _fast_normals(r, wi, ki)
            fast[start : start + j.size] &= ok
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    for j in np.flatnonzero(~fast):
        fresh["state"]["key"][1] = j
        bitgen.state = fresh
        rng.standard_normal(out=pairs[j])
    return (pairs[:, 0] + 1j * pairs[:, 1]) * math.sqrt(0.5)


def draw(f: SpectralField, partition: FrequencyPartition, seed: int) -> RandomizationDraw:
    """Sample f^omega = sum_j g_j(omega) box_j f, kept as its spectrum.

    Linear in f; the same seed reproduces the same coefficients bit for bit.
    An f in frequency representation is read as it is, with no transform.
    """
    grid = partition.grid
    if f.grid != grid:
        raise ValueError("field grid does not match partition grid")
    coeffs = _cube_gaussians(seed, partition.n_cutoffs)
    fhat = f.as_frequency().values.reshape(-1) * partition.multiplier(coeffs)
    spectrum = SpectralField(grid, fhat.reshape(grid.shape), "frequency")
    return RandomizationDraw(seed=seed, coefficients=coeffs, spectrum=spectrum)


@dataclass(frozen=True)
class TailReport:
    """Empirical survival of |F| on a quantile grid with a subgaussian fit.

    The fit regresses log S(lambda) on lambda^2; `rate` is the fitted c in
    S ~ exp(-c lambda^2). Wilson 95% intervals accompany each survival point.
    """

    lam: np.ndarray
    survival: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    rate: float
    intercept: float
    r_squared: float
    n_samples: int


def _wilson(k: np.ndarray, n: int, z: float = 1.96) -> tuple[np.ndarray, np.ndarray]:
    ph = k / n
    denom = 1.0 + z**2 / n
    mid = (ph + z**2 / (2 * n)) / denom
    half = z * np.sqrt(ph * (1 - ph) / n + z**2 / (4 * n**2)) / denom
    return mid - half, mid + half


def tail_fit(
    samples: np.ndarray,
    q_lo: float = 0.90,
    q_hi: float = 0.998,
) -> TailReport:
    """Fit the subgaussian tail rate of |samples| over a quantile-spaced grid.

    The grid is 20 evenly spaced levels of the empirical quantiles in [q_lo, q_hi]. The defaults are
    calibrated on the exact standard-normal survival curve, where this window
    recovers rate ~ 0.575 against the asymptotic 1/2: the pre-asymptotic
    survival is steeper than exp(-lambda^2/2) by a 1/lambda prefactor, and
    shallower windows inflate the fitted rate past 0.6. Small ensembles
    cannot resolve the 0.998 quantile and should pass a shallower window
    (e.g. 0.75 to 0.975).
    """
    x = np.abs(np.asarray(samples, dtype=float).reshape(-1))
    n = x.size
    if n < 200:
        raise FitError(f"tail fit needs at least 200 samples, got {n}")
    if not (0 < q_lo < q_hi < 1):
        raise FitError(f"bad quantile window ({q_lo}, {q_hi})")
    lam = np.quantile(x, np.linspace(q_lo, q_hi, 20))
    lam = np.unique(lam)
    counts = (x[None, :] > lam[:, None]).sum(axis=1)
    keep = counts > 0
    lam, counts = lam[keep], counts[keep]
    if lam.size < 3 or np.ptp(lam) == 0:
        raise FitError("degenerate sample distribution: not enough distinct tail levels")
    surv = counts / n
    lo, hi = _wilson(counts, n)
    y = np.log(surv)
    t = lam**2
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return TailReport(
        lam=lam,
        survival=surv,
        wilson_lo=lo,
        wilson_hi=hi,
        rate=float(-slope),
        intercept=float(intercept),
        r_squared=r2,
        n_samples=n,
    )
