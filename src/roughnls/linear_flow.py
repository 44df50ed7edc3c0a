"""Free evolution of randomized data and composite space-time norms.

The rough channel v(t) = e^{it Laplacian} P_{>= N0} f^omega is evaluated
exactly (spectral multiplier from the t=0 data, never time-stepped). A seed
stays in frequency space from the draw to the norms: the high-pass acts on
the draw's spectrum, and the trajectory holds v-hat(0) alone, in numpy's raw
FFT coordinates, with no snapshot stack. The norm pass builds each
snapshot's spectrum e^{-i t |xi|^2} v-hat(0) once and its values by one
inverse transform, so a seed makes no forward transform and no free flow
twice. Six named composite norms measure the two channels:

    Y3 = <grad>^{s+a/2-eps} L2_t Linf_x + L8_{t,x} + L4_{t,x} + L8_t L12_x   (v)
    Z3 = Linf_t H^s + <grad>^{s+3a/2-eps} Linf_t Linf_x                      (v)
    X3 = <grad>^1 L2_t L6_x + L8_{t,x} + L8_t L12_x                          (w)
    Y4 = <grad>^{s+a-eps} L2_t Linf_x + L4_t L8_x + L6_t L3_x
         + <grad>^{-1/4} L4_{t,x}                                            (v)
    Z4 = Linf_t H^s + <grad>^{s+2a-eps} Linf_t Linf_x                        (v)
    X4 = <grad>^1 L2_t L4_x + L4_t L8_x + L4_{t,x}                           (w)

Here s is the data regularity, a the cube-partition decay parameter, and
eps = EPSILON = 0.01 a small positive shift standing in for the
strict-inequality exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import SpectralField, lp_symbol, raw_spectrum
from .norms import NormSpec, Symbols, snapshot_view, time_norm
from .partition import FrequencyPartition
from .randomize import RandomizationDraw, draw
from .trajectory import Trajectory

__all__ = [
    "CompositeNormSpec",
    "composite_spec",
    "composite_norm",
    "high_pass",
    "linear_trajectory",
    "linear_seed",
    "COMPOSITE_NAMES",
]

COMPOSITE_NAMES = ("Y3", "Z3", "X3", "Y4", "Z4", "X4")
# the shift eps below the strict-inequality exponents of the composite norms
EPSILON = 0.01


@dataclass(frozen=True)
class CompositeNormSpec:
    """A named sum of (NormSpec, channel) components with resolved exponents."""

    name: str
    components: tuple[tuple[NormSpec, str], ...]

    @property
    def dim(self) -> int:
        return int(self.name[-1])

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(sorted({ch for _, ch in self.components}))

    def labels(self) -> list[str]:
        return [f"{ns.label()}[{ch}]" for ns, ch in self.components]


def composite_spec(name: str, s: float, a: float) -> CompositeNormSpec:
    """Resolve one of the six named composite norms at parameters (s, a)."""
    inf = math.inf
    jb = "inhomogeneous"
    if name == "Y3":
        comps = [
            (NormSpec(2, inf, s + 0.5 * a - EPSILON, jb), "v"),
            (NormSpec(8, 8), "v"),
            (NormSpec(4, 4), "v"),
            (NormSpec(8, 12), "v"),
        ]
    elif name == "Z3":
        comps = [
            (NormSpec(inf, 2, s, jb), "v"),
            (NormSpec(inf, inf, s + 1.5 * a - EPSILON, jb), "v"),
        ]
    elif name == "X3":
        comps = [
            (NormSpec(2, 6, 1.0, jb), "w"),
            (NormSpec(8, 8), "w"),
            (NormSpec(8, 12), "w"),
        ]
    elif name == "Y4":
        comps = [
            (NormSpec(2, inf, s + a - EPSILON, jb), "v"),
            (NormSpec(4, 8), "v"),
            (NormSpec(6, 3), "v"),
            (NormSpec(4, 4, -0.25, jb), "v"),
        ]
    elif name == "Z4":
        comps = [
            (NormSpec(inf, 2, s, jb), "v"),
            (NormSpec(inf, inf, s + 2.0 * a - EPSILON, jb), "v"),
        ]
    elif name == "X4":
        comps = [
            (NormSpec(2, 4, 1.0, jb), "w"),
            (NormSpec(4, 8), "w"),
            (NormSpec(4, 4), "w"),
        ]
    else:
        raise ConfigError(f"unknown composite norm {name!r}; choose from {COMPOSITE_NAMES}")
    return CompositeNormSpec(name=name, components=tuple(comps))


def composite_norm(traj: Trajectory, spec: CompositeNormSpec) -> tuple[float, dict[str, float]]:
    """Sum of the spec's component norms plus a per-component breakdown."""
    return _composite_norms(traj, [spec])[0][0]


def _composite_norms(
    traj: Trajectory, specs: list[CompositeNormSpec]
) -> tuple[list[tuple[float, dict[str, float]]], dict[str, float]]:
    """composite_norm of each spec in one pass, and each channel's L^2 norm at the first snapshot.

    Each snapshot gets one FrequencyView per channel, shared by every
    component of every spec, so each snapshot is transformed at most once per
    channel, and the views share the pass's derivative symbols. Each
    component's per-snapshot series is then folded with time_norm.
    """
    for spec in specs:
        if traj.grid.dim != spec.dim:
            raise ConfigError(f"{spec.name} is a {spec.dim}d norm; trajectory is {traj.grid.dim}d")
        for ch in spec.channels:
            if ch not in traj.names:
                raise ConfigError(f"trajectory lacks channel {ch!r} required by {spec.name}")
    channels = sorted({ch for spec in specs for ch in spec.channels})
    series = [np.empty((len(spec.components), traj.n_snapshots)) for spec in specs]
    symbols: Symbols = {}
    first_l2: dict[str, float] = {}
    for k in range(traj.n_snapshots):
        views = {ch: snapshot_view(traj, ch, k, symbols) for ch in channels}
        if k == 0:
            first_l2 = {ch: view.norm(2) for ch, view in views.items()}
        for spec, rows in zip(specs, series):
            for (ns, ch), row in zip(spec.components, rows):
                row[k] = views[ch].norm(ns.r, ns.s, ns.kind)
        del views  # release this snapshot's arrays before the next view is built
    results = []
    for spec, rows in zip(specs, series):
        breakdown: dict[str, float] = {}
        total = 0.0
        for (ns, _), label, row in zip(spec.components, spec.labels(), rows):
            val = time_norm(row, traj.times, ns.q)
            breakdown[label] = val
            total += val
        results.append((total, breakdown))
    return results, first_l2


def _is_dyadic(n: float) -> bool:
    m = int(n)
    return m == n and m >= 1 and (m & (m - 1)) == 0


def high_pass(field: SpectralField, n0: float) -> SpectralField:
    """P_{>= n0}: zero below n0/2, identity above n0, smooth ramp between.

    Returns the frequency representation; a field given in it makes no transform.
    """
    sym = lp_symbol(field.grid, n0 / 2.0, "high")
    fhat = field.as_frequency()
    return SpectralField(field.grid, fhat.values * sym, "frequency")


def linear_trajectory(
    rnd: RandomizationDraw,
    n0: float,
    times: np.ndarray,
) -> Trajectory:
    """v(t) = e^{it Laplacian} P_{>= n0} f^omega on a uniform time grid, as free channel 'v'.

    The trajectory holds only v-hat(0), the high-passed draw's spectrum in
    numpy's raw FFT coordinates, and makes no transform. Each snapshot is one
    exact multiplier from it, so unitarity and frequency support hold to
    rounding error regardless of the stride.
    """
    grid = rnd.spectrum.grid
    if not _is_dyadic(n0):
        raise ConfigError(f"n0 must be a dyadic integer >= 1, got {n0}")
    if n0 > grid.nyquist / 2.0:
        raise ConfigError(
            f"n0={n0:g} exceeds half the Nyquist frequency {grid.nyquist:g}/2; "
            "refine the grid or lower the cutoff"
        )
    times = np.asarray(times, dtype=float)
    v0 = high_pass(rnd.spectrum, n0)
    kept = float(np.linalg.norm(v0.values))
    had = float(np.linalg.norm(rnd.spectrum.values))
    if kept <= 1e-13 * had or had == 0.0:
        warnings.warn(
            f"high-pass at n0={n0:g} removed all frequency content; v is identically zero",
            stacklevel=2,
        )
    meta = {"seed": rnd.seed, "n0": float(n0)}
    return Trajectory(grid=grid, times=times, channels={}, meta=meta, free_spectra={"v": raw_spectrum(v0)})


def linear_seed(
    f: SpectralField,
    partition: FrequencyPartition,
    seed: int,
    n0: float,
    times: np.ndarray,
    specs: list[CompositeNormSpec],
) -> tuple[Trajectory, float, list[tuple[float, dict[str, float]]]]:
    """One seed of the linear ensemble: draw f^omega, sample v(t), take each composite norm.

    Returns the trajectory, ||v(t_0)||_{L^2} and composite_norm's
    (total, breakdown) per spec. The specs, at least one, share one view per
    snapshot, and the L^2 norm is read off the first, at no transform. The
    harness's linear-stats task runs each of its seeds through here.
    """
    traj = linear_trajectory(draw(f, partition, int(seed)), n0, times)
    norms, first_l2 = _composite_norms(traj, specs)
    return traj, first_l2["v"], norms
