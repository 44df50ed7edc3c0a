"""Mixed space-time Lebesgue/Sobolev norms L^q_t L^r_x with optional derivative weight.

Every spatial norm is read through a FrequencyView: one snapshot of one
channel, holding its physical values and its spectrum in numpy's raw
coordinates, np.fft.fftn(values). A producer that already holds that
spectrum passes it in and the view makes no forward transform; otherwise the
view makes one, on first use. A solve is such a producer: its sink receives
each snapshot's w_hat and v_hat beside w and v. From the view, an L^2 norm
of D^s f is a Parseval sum over |fhat|^2 with no further transform, any
other L^r norm of D^s f costs one in-place inverse transform of
fhat * symbol, freed once the norm is read, and a gradient costs d of them.
The view remembers no figure: a norm asked for twice is computed twice. The
raw coordinates need no weight pass: the transform weight folds into the
Parseval constant dx^d / N.

A NormPass is the one way a run's space-time norms are taken: the audit
(one pass per channel) and the linear seed feed it one view per snapshot,
in time order; take() returns that snapshot's figures and keeps only each
norm's series, which norms() folds in time. A pass's views share the
derivative symbols it owns, built once per pass.

Spatial integrals are Riemann sums on the lattice, the time integral is a
composite trapezoid rule on g(t)^q where g is the spatial norm, and q or r
equal to inf take plain maxima. Snapshots must be dense enough in time that
the trapezoid rule is adequate; halving the snapshot stride should move
reported norms by well under a percent.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, derivative_symbol, fftn, ifftn, modulus_lp_norm, xi_grids_odd

__all__ = [
    "NormSpec",
    "FrequencyView",
    "NormPass",
    "time_norm",
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


# A norm pass's derivative symbols, keyed by (order, kind) and shared by its views.
Symbols = dict[tuple[float, str], np.ndarray]


class FrequencyView:
    """One snapshot of one channel: physical values and their raw spectrum fftn(values).

    The view keeps its spectrum, |f| and |fhat|^2 once made, and no figure
    or derivative: each norm() and derivative() call computes anew. Symbols
    come from `symbols`, the dict of the norm pass the view belongs to; a
    view given none keeps its own. The arrays of its properties are the
    view's own and must not be written to. A view given its spectrum may be
    given no values (None) when only the L^2 norms of a derivative are read,
    which are Parseval sums of the spectrum.
    """

    def __init__(
        self,
        grid: GridSpec,
        values: np.ndarray | None,
        fhat: np.ndarray | None = None,
        symbols: Symbols | None = None,
    ):
        self.grid = grid
        self.values = values
        self._fhat = fhat
        self._symbols = {} if symbols is None else symbols
        self._modulus: np.ndarray | None = None
        self._power: np.ndarray | None = None

    @property
    def fhat(self) -> np.ndarray:
        """numpy's raw spectrum np.fft.fftn(values): the one given, else one forward transform, once.

        The transform writes every axis pass into one new array.
        """
        if self._fhat is None:
            self._fhat = fftn(self.values, out=np.empty(self.grid.shape, dtype=np.complex128))
        return self._fhat

    @property
    def modulus(self) -> np.ndarray:
        """|f| at each lattice point."""
        if self._modulus is None:
            self._modulus = np.abs(self.values)
        return self._modulus

    def _symbol(self, s: float, kind: str) -> np.ndarray:
        key = (s, kind)
        sym = self._symbols.get(key)
        if sym is None:
            sym = self._symbols[key] = derivative_symbol(self.grid, s, kind)
        return sym

    def derivative(self, s: float, kind: str) -> np.ndarray:
        """Physical values of D^s f in a new array: one in-place inverse transform of fhat * symbol."""
        out = self.fhat * self._symbol(s, kind)
        return ifftn(out, out=out)

    def partials(self) -> Iterator[np.ndarray]:
        """Yield the physical values of each spectral partial derivative in turn, in one reused buffer.

        Each is one in-place inverse transform of i xi_k fhat, valid until the
        next is yielded; the caller may overwrite it. The odd symbol i xi_k is
        zeroed at the unpaired Nyquist mode (grids.xi_grids_odd), so a real
        field has real partials.
        """
        fhat = self.fhat
        comp = np.empty_like(fhat)
        for c in xi_grids_odd(self.grid):
            np.multiply(fhat, 1j * c, out=comp)
            yield ifftn(comp, out=comp)

    def norm(self, r: float, s: float = 0.0, kind: str = "none") -> float:
        """Spatial ||D^s f||_{L^r}, with D^s as in NormSpec."""
        if kind == "none" or (kind == "homogeneous" and s == 0):
            return modulus_lp_norm(self.modulus, r, self.grid)
        if r == 2:
            return self._parseval(s, kind)
        return modulus_lp_norm(np.abs(self.derivative(s, kind)), r, self.grid)

    def _parseval(self, s: float, kind: str) -> float:
        # sum_x |D^s f|^2 dx^d = (dx^d / N) sum_xi |xi-symbol|^2 |fftn f|^2
        if self._power is None:
            fhat = self.fhat
            self._power = fhat.real**2 + fhat.imag**2
        total = float(np.sum(self._power * self._symbol(2.0 * s, kind)))
        return math.sqrt(total * self.grid.cell_volume / self.grid.n_points)


def time_norm(series: np.ndarray, times: np.ndarray, q: float) -> float:
    """L^q over time of a per-snapshot series: its max for q = inf, else the trapezoid rule on series^q."""
    if math.isinf(q):
        return float(series.max())
    if series.size < 2:
        raise ValueError("time integration needs at least two snapshots")
    return float(np.trapezoid(series**q, times) ** (1.0 / q))


class NormPass:
    """One streaming pass of one channel's L^q_t L^r_x norms, built from {key: NormSpec}.

    take() reads the channel's view of one snapshot, in time order, so a
    caller may drop it before it builds the next; norms() folds each series.
    """

    def __init__(self, grid: GridSpec, specs: dict[object, NormSpec]):
        self.grid = grid
        self.specs = specs
        self._symbols: Symbols = {}
        self._series: dict[object, list[float]] = {key: [] for key in specs}

    def view(self, values: np.ndarray | None, fhat: np.ndarray | None) -> FrequencyView:
        """A FrequencyView of one snapshot that shares the pass's derivative symbols."""
        return FrequencyView(self.grid, values, fhat, self._symbols)

    def take(self, view: FrequencyView) -> dict[object, float]:
        """Append every spec's spatial norm of this snapshot to its series; returns {key: norm}."""
        figures = {key: view.norm(spec.r, spec.s, spec.kind) for key, spec in self.specs.items()}
        for key, val in figures.items():
            self._series[key].append(val)
        return figures

    def norms(self, times: np.ndarray) -> dict[object, float]:
        """Each spec's L^q_t norm of its series over the snapshot times taken so far."""
        return {
            key: time_norm(np.array(self._series[key]), times, spec.q)
            for key, spec in self.specs.items()
        }
