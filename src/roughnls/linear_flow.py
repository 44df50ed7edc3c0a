"""Free evolution of randomized data and composite space-time norms.

The rough channel v(t) = e^{it Laplacian} P_{>= N0} f^omega is evaluated
exactly (spectral multiplier from the t=0 data, never time-stepped). Six
named composite norms measure the two channels:

    Y3 = <grad>^{s+a/2-eps} L2_t Linf_x + L8_{t,x} + L4_{t,x} + L8_t L12_x   (v)
    Z3 = Linf_t H^s + <grad>^{s+3a/2-eps} Linf_t Linf_x                      (v)
    X3 = <grad>^1 L2_t L6_x + L8_{t,x} + L8_t L12_x                          (w)
    Y4 = <grad>^{s+a-eps} L2_t Linf_x + L4_t L8_x + L6_t L3_x
         + <grad>^{-1/4} L4_{t,x}                                            (v)
    Z4 = Linf_t H^s + <grad>^{s+2a-eps} Linf_t Linf_x                        (v)
    X4 = <grad>^1 L2_t L4_x + L4_t L8_x + L4_{t,x}                           (w)

Here s is the data regularity, a the cube-partition decay parameter, and
eps a small positive shift standing in for the strict-inequality exponents.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import SpectralField, free_propagate, lp_symbol, sobolev_norm, to_physical
from .norms import NormSpec, spacetime_norm
from .partition import FrequencyPartition
from .randomize import RandomizationDraw, TailReport, draw, tail_fit
from .trajectory import Trajectory

__all__ = [
    "CompositeNormSpec",
    "composite_spec",
    "composite_norm",
    "linear_trajectory",
    "EnsembleLinearStats",
    "linear_seed",
    "ensemble_linear_stats",
    "COMPOSITE_NAMES",
]

COMPOSITE_NAMES = ("Y3", "Z3", "X3", "Y4", "Z4", "X4")


@dataclass(frozen=True)
class CompositeNormSpec:
    """A named sum of (NormSpec, channel) components with resolved exponents."""

    name: str
    components: tuple[tuple[NormSpec, str], ...]
    epsilon: float = 0.01

    @property
    def dim(self) -> int:
        return int(self.name[-1])

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(sorted({ch for _, ch in self.components}))

    def labels(self) -> list[str]:
        return [f"{ns.label()}[{ch}]" for ns, ch in self.components]


def composite_spec(name: str, s: float, a: float, epsilon: float = 0.01) -> CompositeNormSpec:
    """Resolve one of the six named composite norms at parameters (s, a)."""
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    inf = math.inf
    jb = "inhomogeneous"
    if name == "Y3":
        comps = [
            (NormSpec(2, inf, s + 0.5 * a - epsilon, jb), "v"),
            (NormSpec(8, 8), "v"),
            (NormSpec(4, 4), "v"),
            (NormSpec(8, 12), "v"),
        ]
    elif name == "Z3":
        comps = [
            (NormSpec(inf, 2, s, jb), "v"),
            (NormSpec(inf, inf, s + 1.5 * a - epsilon, jb), "v"),
        ]
    elif name == "X3":
        comps = [
            (NormSpec(2, 6, 1.0, jb), "w"),
            (NormSpec(8, 8), "w"),
            (NormSpec(8, 12), "w"),
        ]
    elif name == "Y4":
        comps = [
            (NormSpec(2, inf, s + a - epsilon, jb), "v"),
            (NormSpec(4, 8), "v"),
            (NormSpec(6, 3), "v"),
            (NormSpec(4, 4, -0.25, jb), "v"),
        ]
    elif name == "Z4":
        comps = [
            (NormSpec(inf, 2, s, jb), "v"),
            (NormSpec(inf, inf, s + 2.0 * a - epsilon, jb), "v"),
        ]
    elif name == "X4":
        comps = [
            (NormSpec(2, 4, 1.0, jb), "w"),
            (NormSpec(4, 8), "w"),
            (NormSpec(4, 4), "w"),
        ]
    else:
        raise ConfigError(f"unknown composite norm {name!r}; choose from {COMPOSITE_NAMES}")
    return CompositeNormSpec(name=name, components=tuple(comps), epsilon=epsilon)


def composite_norm(traj: Trajectory, spec: CompositeNormSpec) -> tuple[float, dict[str, float]]:
    """Sum of the spec's component norms plus a per-component breakdown."""
    if traj.grid.dim != spec.dim:
        raise ConfigError(f"{spec.name} is a {spec.dim}d norm; trajectory is {traj.grid.dim}d")
    for ch in spec.channels:
        if ch not in traj.channels and not (ch == "u" and {"v", "w"} <= traj.channels.keys()):
            raise ConfigError(f"trajectory lacks channel {ch!r} required by {spec.name}")
    breakdown: dict[str, float] = {}
    total = 0.0
    for (ns, ch), label in zip(spec.components, spec.labels()):
        val = spacetime_norm(traj, ns, ch)
        breakdown[label] = val
        total += val
    return total, breakdown


def _is_dyadic(n: float) -> bool:
    m = int(n)
    return m == n and m >= 1 and (m & (m - 1)) == 0


def high_pass(field: SpectralField, n0: float) -> SpectralField:
    """P_{>= n0}: zero below n0/2, identity above n0, smooth ramp between."""
    sym = lp_symbol(field.grid, n0 / 2.0, "high")
    fhat = field.as_frequency()
    return SpectralField(field.grid, fhat.values * sym, "frequency")


def linear_trajectory(
    rnd: RandomizationDraw,
    n0: float,
    times: np.ndarray,
    channel: str = "v",
) -> Trajectory:
    """Sample v(t) = e^{it Laplacian} P_{>= n0} f^omega on a uniform time grid.

    Each snapshot is computed by one exact multiplier from the t=0 data, so
    unitarity and frequency support hold to rounding error regardless of the
    stride.
    """
    grid = rnd.field.grid
    if not _is_dyadic(n0):
        raise ConfigError(f"n0 must be a dyadic integer >= 1, got {n0}")
    if n0 > grid.nyquist / 2.0:
        raise ConfigError(
            f"n0={n0:g} exceeds half the Nyquist frequency {grid.nyquist:g}/2; "
            "refine the grid or lower the cutoff"
        )
    times = np.asarray(times, dtype=float)
    v0 = high_pass(rnd.field, n0).as_frequency()
    kept = float(np.linalg.norm(v0.values))
    had = float(np.linalg.norm(rnd.field.as_frequency().values))
    if kept <= 1e-13 * had or had == 0.0:
        warnings.warn(
            f"high-pass at n0={n0:g} removed all frequency content; v is identically zero",
            stacklevel=2,
        )
    stack = np.empty((times.size,) + grid.shape, dtype=np.complex128)
    for k, t in enumerate(times):
        stack[k] = to_physical(free_propagate(v0, float(t))).values
    meta = {"seed": rnd.seed, "n0": float(n0)}
    return Trajectory(grid=grid, times=times, channels={channel: stack}, meta=meta)


def linear_seed(
    f: SpectralField,
    partition: FrequencyPartition,
    seed: int,
    n0: float,
    times: np.ndarray,
    specs: list[CompositeNormSpec],
) -> tuple[Trajectory, list[tuple[float, dict[str, float]]]]:
    """One seed of the linear ensemble: draw f^omega, sample v(t), take each composite norm.

    Returns the trajectory and composite_norm's (total, breakdown) per spec.
    Both ensemble_linear_stats and the harness's linear-stats task run their
    seeds through here.
    """
    traj = linear_trajectory(draw(f, partition, int(seed)), n0, times)
    return traj, [composite_norm(traj, spec) for spec in specs]


@dataclass(frozen=True)
class EnsembleLinearStats:
    """Per-seed composite norms of the free evolution plus tail statistics.

    `tail` is present when the ensemble is large enough for a survival fit
    (>= 200 samples) and `moment_ratios` when it supports moment estimates
    (>= 100 samples); both are None for smaller ensembles.
    """

    name: str
    seeds: np.ndarray
    totals: np.ndarray
    components: dict[str, np.ndarray]
    tail: TailReport | None
    moment_ratios: dict[float, float] | None
    reference_norm: float


def ensemble_linear_stats(
    f: SpectralField,
    partition: FrequencyPartition,
    n0: float,
    times: np.ndarray,
    n_samples: int,
    spec: CompositeNormSpec,
    seed0: int = 0,
    q_lo: float = 0.75,
    q_hi: float = 0.975,
    moment_orders: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0),
    workers: int = 1,
) -> EnsembleLinearStats:
    """Composite-norm statistics of e^{it Laplacian} f^omega over seeds.

    Seeds are seed0 .. seed0 + n_samples - 1, so results are reproducible and
    independent of the worker count. The tail window defaults to the upper
    quartile because moderate ensembles cannot resolve deeper quantiles.
    Moment ratios divide the empirical p-th moment of the norm samples by
    sqrt(p) times the H^s norm of f (s from the partition config); the
    square-root growth law predicts these stay bounded in p.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    seeds = np.arange(seed0, seed0 + n_samples, dtype=np.int64)
    totals = np.empty(n_samples)
    comp_arrays = {label: np.empty(n_samples) for label in spec.labels()}

    def one(i: int) -> None:
        _, [(total, br)] = linear_seed(f, partition, seeds[i], n0, times, [spec])
        totals[i] = total
        for label, val in br.items():
            comp_arrays[label][i] = val

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(n_samples)))
    else:
        for i in range(n_samples):
            one(i)

    ref = sobolev_norm(f, partition.config.s)
    tail = tail_fit(totals, q_lo=q_lo, q_hi=q_hi) if n_samples >= 200 else None
    ratios = None
    if n_samples >= 100 and ref > 0:
        ratios = {
            p: float(np.mean(totals**p) ** (1.0 / p) / (math.sqrt(p) * ref))
            for p in moment_orders
        }
    return EnsembleLinearStats(
        name=spec.name,
        seeds=seeds,
        totals=totals,
        components=comp_arrays,
        tail=tail,
        moment_ratios=ratios,
        reference_norm=ref,
    )
