"""Mixed space-time Lebesgue/Sobolev norms L^q_t L^r_x with optional derivative weight.

Every spatial norm is read through a FrequencyView: one snapshot of one
channel, holding its physical values and making its forward transform once,
on first use. From the view, an L^2 norm of D^s f is a Parseval sum over
|fhat|^2 with no further transform, any other L^r norm of D^s f costs one
inverse transform of symbol * fhat (cached in the view, so one D^s serves
several exponents), and a gradient costs d inverse transforms. An unstored
u = v + w is summed one snapshot at a time, so no v + w stack is built.

Spatial integrals are Riemann sums on the lattice, the time integral is a
composite trapezoid rule on g(t)^q where g is the spatial norm, and q or r
equal to inf take plain maxima. Snapshots must be dense enough in time that
the trapezoid rule is adequate; halving the snapshot stride should move
reported norms by well under a percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    FREQUENCY,
    GridSpec,
    SpectralField,
    derivative_symbol,
    gradient,
    modulus_lp_norm,
)
from .trajectory import Trajectory

__all__ = [
    "NormSpec",
    "FrequencyView",
    "is_admissible",
    "snapshot_view",
    "snapshot_norms",
    "time_norm",
    "spacetime_norm",
]


@dataclass(frozen=True)
class NormSpec:
    """Exponents for || D^s . ||_{L^q_t L^r_x}; kind 'none' skips the derivative."""

    q: float
    r: float
    s: float = 0.0
    kind: str = "none"

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError(f"exponents must be >= 1, got q={self.q}, r={self.r}")
        if self.kind not in ("none", "homogeneous", "inhomogeneous"):
            raise ValueError(f"bad derivative kind {self.kind!r}")

    def label(self) -> str:
        def fmt(e: float) -> str:
            return "inf" if math.isinf(e) else f"{e:g}"

        core = f"L{fmt(self.q)}t_L{fmt(self.r)}x"
        if self.kind == "homogeneous":
            return f"|grad|^{self.s:g}_" + core
        if self.kind == "inhomogeneous":
            return f"<grad>^{self.s:g}_" + core
        return core


def is_admissible(q: float, r: float, d: int) -> bool:
    """Schrodinger admissibility: 2/q + d/r = d/2, q,r >= 2, (q,r,d) != (2,inf,2)."""
    if q < 2 or r < 2:
        return False
    if d == 2 and q == 2 and math.isinf(r):
        return False
    lhs = (0.0 if math.isinf(q) else 2.0 / q) + (0.0 if math.isinf(r) else d / r)
    return abs(lhs - d / 2.0) < 1e-9


class FrequencyView:
    """One snapshot of one channel: physical values plus a transform made on first use.

    Norms are memoized per (r, s, kind) and D^s f per (s, kind), so a figure
    asked for twice, or a D^s f that serves two exponents, is computed once.
    Arrays handed out are the view's own and must not be written to.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self.grid = grid
        self.values = values
        self._fhat: np.ndarray | None = None
        self._modulus: np.ndarray | None = None
        self._power: np.ndarray | None = None
        self._derivatives: dict[tuple[float, str], np.ndarray] = {}
        self._norms: dict[tuple[float, float, str], float] = {}

    @property
    def fhat(self) -> np.ndarray:
        """Continuum-normalized transform of the values (one forward transform, once)."""
        if self._fhat is None:
            self._fhat = SpectralField(self.grid, self.values).as_frequency().values
        return self._fhat

    @property
    def modulus(self) -> np.ndarray:
        """|f| at each lattice point."""
        if self._modulus is None:
            self._modulus = np.abs(self.values)
        return self._modulus

    def _derivative(self, s: float, kind: str) -> np.ndarray:
        """Physical values of D^s f: one inverse transform of symbol * fhat, cached."""
        key = (s, kind)
        out = self._derivatives.get(key)
        if out is None:
            mult = derivative_symbol(self.grid, s, kind)
            out = SpectralField(self.grid, self.fhat * mult, FREQUENCY).as_physical().values
            self._derivatives[key] = out
        return out

    def gradient(self) -> list[np.ndarray]:
        """Physical values of the d spectral partial derivatives (d inverse transforms)."""
        return [c.values for c in gradient(SpectralField(self.grid, self.fhat, FREQUENCY))]

    def norm(self, r: float, s: float = 0.0, kind: str = "none") -> float:
        """Spatial ||D^s f||_{L^r}, with D^s as in NormSpec."""
        key = (r, s, kind)
        val = self._norms.get(key)
        if val is None:
            if kind == "none" or (kind == "homogeneous" and s == 0):
                val = modulus_lp_norm(self.modulus, r, self.grid)
            elif r == 2:
                val = self._parseval(s, kind)
            else:
                val = modulus_lp_norm(np.abs(self._derivative(s, kind)), r, self.grid)
            self._norms[key] = val
        return val

    def _parseval(self, s: float, kind: str) -> float:
        # sum_x |D^s f|^2 dx^d = sum_xi |xi-symbol|^2 |fhat|^2 (dxi / 2pi)^d, dxi / 2pi = 1/(2L)
        if self._power is None:
            fhat = self.fhat
            self._power = fhat.real**2 + fhat.imag**2
        weight = derivative_symbol(self.grid, 2.0 * s, kind)
        total = float(np.sum(self._power * weight))
        return math.sqrt(total / (2.0 * self.grid.half_width) ** self.grid.dim)


def snapshot_view(traj: Trajectory, channel: str, k: int) -> FrequencyView:
    """The view of one snapshot; an unstored 'u' is v + w of this snapshot only."""
    return FrequencyView(traj.grid, traj.snapshot(channel, k).values)


def snapshot_norms(traj: Trajectory, spec: NormSpec, channel: str) -> np.ndarray:
    """Spatial norm of D^s(channel) at each snapshot time."""
    return np.array(
        [
            snapshot_view(traj, channel, k).norm(spec.r, spec.s, spec.kind)
            for k in range(traj.n_snapshots)
        ]
    )


def time_norm(series: np.ndarray, times: np.ndarray, q: float) -> float:
    """L^q over time of a per-snapshot series: its max for q = inf, else the trapezoid rule on series^q."""
    if math.isinf(q):
        return float(series.max())
    if series.size < 2:
        raise ValueError("time integration needs at least two snapshots")
    return float(np.trapezoid(series**q, times) ** (1.0 / q))


def spacetime_norm(traj: Trajectory, spec: NormSpec, channel: str = "u") -> float:
    """|| D^s channel ||_{L^q_t L^r_x} over the trajectory's time window."""
    return time_norm(snapshot_norms(traj, spec, channel), traj.times, spec.q)
