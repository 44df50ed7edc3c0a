"""Free evolution of randomized data and composite space-time norms.

The rough channel v(t) = e^{it Laplacian} P_{>= N0} f^omega is evaluated
exactly (spectral multiplier from the t=0 data, never time-stepped). A seed
stays in frequency space from the draw to the norms: the high-pass acts on
the draw's spectrum, and the seed holds v-hat(0) alone, in numpy's raw FFT
coordinates, with no snapshot stack. At each time it builds the snapshot's
spectrum e^{-i t |xi|^2} v-hat(0) once and its values by one inverse
transform, and feeds that view to one NormPass (see norms), so a seed makes
no forward transform and no free flow twice. Four named composite norms
measure v:

    Y3 = <grad>^{s+a/2-eps} L2_t Linf_x + L8_{t,x} + L4_{t,x} + L8_t L12_x
    Z3 = Linf_t H^s + <grad>^{s+3a/2-eps} Linf_t Linf_x
    Y4 = <grad>^{s+a-eps} L2_t Linf_x + L4_t L8_x + L6_t L3_x
         + <grad>^{-1/4} L4_{t,x}
    Z4 = Linf_t H^s + <grad>^{s+2a-eps} Linf_t Linf_x

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
from .grids import GridSpec, SpectralField, free_flow_into, ifftn, lp_symbol, raw_spectrum
from .norms import NormPass, NormSpec
from .partition import FrequencyPartition
from .randomize import draw

__all__ = [
    "CompositeNormSpec",
    "check_cutoff",
    "composite_spec",
    "high_pass",
    "linear_seed",
    "COMPOSITE_NAMES",
]

COMPOSITE_NAMES = ("Y3", "Z3", "Y4", "Z4")
# the shift eps below the strict-inequality exponents of the composite norms
EPSILON = 0.01


@dataclass(frozen=True)
class CompositeNormSpec:
    """A named sum of NormSpec components of v with resolved exponents."""

    name: str
    components: tuple[NormSpec, ...]

    @property
    def dim(self) -> int:
        return int(self.name[-1])

    def labels(self) -> list[str]:
        return [f"{ns.label()}[v]" for ns in self.components]


def composite_spec(name: str, s: float, a: float) -> CompositeNormSpec:
    """Resolve one of the four named composite norms at parameters (s, a)."""
    inf = math.inf
    jb = "inhomogeneous"
    if name == "Y3":
        comps = [
            NormSpec(2, inf, s + 0.5 * a - EPSILON, jb),
            NormSpec(8, 8),
            NormSpec(4, 4),
            NormSpec(8, 12),
        ]
    elif name == "Z3":
        comps = [
            NormSpec(inf, 2, s, jb),
            NormSpec(inf, inf, s + 1.5 * a - EPSILON, jb),
        ]
    elif name == "Y4":
        comps = [
            NormSpec(2, inf, s + a - EPSILON, jb),
            NormSpec(4, 8),
            NormSpec(6, 3),
            NormSpec(4, 4, -0.25, jb),
        ]
    elif name == "Z4":
        comps = [
            NormSpec(inf, 2, s, jb),
            NormSpec(inf, inf, s + 2.0 * a - EPSILON, jb),
        ]
    else:
        raise ConfigError(f"unknown composite norm {name!r}; choose from {COMPOSITE_NAMES}")
    return CompositeNormSpec(name=name, components=tuple(comps))


def check_cutoff(grid: GridSpec, n0: float) -> None:
    """Refuse a linear-ensemble cutoff n0 that is not a dyadic integer or exceeds half the Nyquist frequency."""
    m = int(n0)
    if not (m == n0 and m >= 1 and (m & (m - 1)) == 0):
        raise ConfigError(f"n0 must be a dyadic integer >= 1, got {n0}")
    if n0 > grid.nyquist / 2.0:
        raise ConfigError(
            f"n0={n0:g} exceeds half the Nyquist frequency {grid.nyquist:g}/2; "
            "refine the grid or lower the cutoff"
        )


def high_pass(field: SpectralField, n0: float) -> SpectralField:
    """P_{>= n0}: zero below n0/2, identity above n0, smooth ramp between.

    Returns the frequency representation; a field given in it makes no transform.
    """
    sym = lp_symbol(field.grid, n0 / 2.0, "high")
    fhat = field.as_frequency()
    return SpectralField(field.grid, fhat.values * sym, "frequency")


def linear_seed(
    f: SpectralField,
    partition: FrequencyPartition,
    seed: int,
    n0: float,
    times: np.ndarray,
    specs: list[CompositeNormSpec],
) -> tuple[float, list[tuple[float, dict[str, float]]]]:
    """One seed of the linear ensemble: draw f^omega, flow v(t) = e^{it Laplacian} P_{>= n0} f^omega, take each composite norm.

    Only v-hat(0) is held through the times. Each snapshot is one exact
    multiplier from it, so unitarity and frequency support hold to rounding
    error regardless of the stride, and its view, built by one inverse
    transform, serves every component of every spec. Returns
    ||v(t_0)||_{L^2}, read off the first view at no transform, and each
    spec's (total, breakdown by label). The harness's linear-stats task runs
    each of its seeds through here.
    """
    grid = f.grid
    check_cutoff(grid, n0)
    for spec in specs:
        if spec.dim != grid.dim:
            raise ConfigError(f"{spec.name} is a {spec.dim}d norm; the grid is {grid.dim}d")
    rnd = draw(f, partition, int(seed))
    v0 = high_pass(rnd.spectrum, n0)
    kept = float(np.linalg.norm(v0.values))
    had = float(np.linalg.norm(rnd.spectrum.values))
    if kept <= 1e-13 * had or had == 0.0:
        warnings.warn(
            f"high-pass at n0={n0:g} removed all frequency content; v is identically zero",
            stacklevel=2,
        )
    v0_hat = raw_spectrum(v0)
    del rnd, v0  # the time loop holds v-hat(0) alone
    norm_pass = NormPass(grid, {
        (i, label): ns
        for i, spec in enumerate(specs)
        for ns, label in zip(spec.components, spec.labels())
    })
    l2 = 0.0
    for k, t in enumerate(times):
        fhat = free_flow_into(v0_hat, grid, float(t), np.empty_like(v0_hat))
        view = norm_pass.view(ifftn(fhat), fhat)
        if k == 0:
            l2 = view.norm(2)
        norm_pass.take(view)
        del fhat, view  # release this snapshot's arrays before the next one is built
    figures = norm_pass.norms(times)
    results = []
    for i, spec in enumerate(specs):
        breakdown = {label: figures[i, label] for label in spec.labels()}
        total = 0.0
        for val in breakdown.values():  # in component order: sum() of floats is compensated from Python 3.12
            total += val
        results.append((total, breakdown))
    return l2, results
