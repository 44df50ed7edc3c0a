"""Strang split-step integrator for i u_t + Lap u = mu |u|^p u and the forced
remainder equation i w_t + Lap w = mu |u|^p u with u = v + w, v free.

The kinetic half-steps are exact Fourier multipliers and the nonlinear substep
is an exact phase rotation (|u| is invariant under i u_t = mu |u|^p u), so
without the 2/3 mask the only scheme error is the O(dt^2) splitting error.
With the mask on, projecting after a pointwise rotation is not the flow of
the projected nonlinearity, and the order can fall: measured on the 3d and
4d Morawetz set-ups (w_hat(0.4) at dt 4e-3, 2e-3, 1e-3 and 5e-4), the error
fell by 4.06 and 4.01 per halving in 3d (24^3), but by 3.80 and 3.37 in 4d
(16^4), heading to first order, against 4.14, 4.03 and 4.03, 4.01 unmasked.
Those errors are far below the lattice's. The rough channel v is never
time-stepped: every value of v (step midpoints, snapshots from t = 0 on,
series samples) is produced from v_hat(0) by the exact free propagator, and
the stepper only freezes v at the step midpoint while rotating u = w + v as a
unit. A step makes two grid transforms: one inverse transform of
K_half w_hat + v_hat(t_mid), which is u at the midpoint because the transform
is linear, and one forward transform of the rotated u, from which v_hat(t_mid)
is subtracted in frequency space. With the 2/3 mask on, that forward
transform is read only through the dealiased K_half, so on a lattice of at
least grids.SPLIT_POINTS points it finishes only the kept modes
(grids.fftn_kept); a forced step that ends at a snapshot, whose subtraction
is checked on every mode, makes the full transform. One step loop (solve_w)
serves both equations: the full equation is the remainder equation with
v = 0.

The solve carries w_hat in numpy's unnormalized coordinates, np.fft.fftn(w),
rather than the continuum-normalized transform of grids: the transform weight
is diagonal, so every multiplier of the step acts on these coordinates
unchanged, and each grid transform is an in-place grids.fftn or
grids.ifftn call, numpy's bits, with no weight pass. On a lattice large
enough to split (grids.SPLIT_POINTS) the transforms, |u|^2, the rotation,
the free flow, the step's in-place products, the guard's and the check's
maxima and the series sample's elementwise passes run in slabs on the CPUs,
with the same bits; the sums of the series do not. The solve
allocates its lattice work arrays once (w_hat, u, v_hat(t), the phase and
two float buffers) and the step and the reporting block share them: v_hat(t)
is built in place by per-axis broadcast multiplies, |u|^2 and the nonlinear
angle go into the float buffers, the forward transform writes into w_hat,
and a reported w and v are transformed into the phase and u buffers. After
set-up neither a step nor a report allocates a lattice array. Beside them
the solve holds v_hat(0) and one half-step multiplier, which no cache keeps;
it drops the physical w(0) and v(0) before it allocates its other work
arrays.

Every snapshot, t = 0 included, is handed to a consumer (a SnapshotSink;
see solve_w) as it is made; the solve keeps none. A forced solve peaks about
7.6 complex lattice fields above what its consumer keeps at 64^3, its inputs
not counted; inputs passed straight into the call are dropped before that
peak.

What reads a solve's output only for a claim is a test instrument, in
tests/instruments.py: the almost-conservation monitor of c11, which reads
the series through ConservationSeries.sup_ratios, and the scattering proxy
of c13, which reads the snapshots' w_hat.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import BlowupError, ConfigError, RepresentationError
from .grids import (
    SpectralField,
    dealias_ranges,
    fftn,
    fftn_kept,
    free_flow_into,
    free_multiplier,
    ifftn,
    on_slabs,
    xi_sq,
)
from .norms import FrequencyView, Symbols

__all__ = [
    "SnapshotSink",
    "SolverConfig",
    "ConservationSeries",
    "critical_power",
    "solve_w",
    "increment_residuals",
    "TwinReport",
    "twin_run",
]


# receives each snapshot of a solve as sink(t, w, v, w_hat, v_hat); see solve_w
SnapshotSink = Callable[[float, np.ndarray, "np.ndarray | None", np.ndarray, "np.ndarray | None"], None]


def critical_power(dim: int) -> float:
    """The energy-critical power p = 4/(d - 2) of |u|^p u: 4.0 (quintic) in 3d, 2.0 (cubic) in 4d; no other d."""
    if dim not in (3, 4):
        raise ConfigError(f"power must be given in dimension {dim}: the energy-critical 4/(d - 2) is for d = 3, 4")
    return 4.0 / (dim - 2)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; the spatial grid, and with it the dimension, travels with the fields.

    power None is critical_power of the solve's grid (quintic in 3d, cubic
    in 4d), which the config reader writes in; other dimensions are allowed
    for cheap tests but must state the power explicitly.
    """

    dt: float
    t_final: float
    snapshot_stride: int = 1
    series_stride: int | None = None
    power: float | None = None
    mu: float = 1.0
    blowup_factor: float = 1e6
    dealias: bool = True

    def __post_init__(self):
        if self.power is not None and self.power < 0:
            raise ConfigError(f"nonlinearity power must be >= 0, got {self.power}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0:
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.series_stride is None:
            object.__setattr__(self, "series_stride", self.snapshot_stride)
        if self.series_stride < 1:
            raise ConfigError(f"series_stride must be >= 1, got {self.series_stride}")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-8 * max(1.0, self.t_final):
            raise ConfigError(
                f"t_final={self.t_final} is not an integer number of steps at dt={self.dt}"
            )
        if n % self.snapshot_stride != 0:
            raise ConfigError(
                f"{n} steps do not divide into snapshots of stride {self.snapshot_stride}"
            )
        if n % self.series_stride != 0:
            raise ConfigError(
                f"{n} steps do not divide into series samples of stride {self.series_stride}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def n_snapshots(self) -> int:
        return self.n_steps // self.snapshot_stride + 1

    @property
    def n_series(self) -> int:
        return self.n_steps // self.series_stride + 1

    def provenance(self) -> dict:
        return {
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_stride": self.snapshot_stride,
            "series_stride": self.series_stride,
            "power": self.power,
            "mu": self.mu,
            "dealias": self.dealias,
        }


def _abs_sq_slab(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    re, im = values.real, values.imag
    np.multiply(re, re, out=out)
    np.multiply(im, im, out=scratch)
    out += scratch


def _abs_sq(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|values|^2 as re^2 + im^2 into out, without the square root of np.abs.

    out and scratch are float lattice buffers; scratch is overwritten. A
    large lattice is squared in slabs (grids.on_slabs), with the same bits.
    """
    on_slabs(_abs_sq_slab, values, out, scratch)
    return out


def _open_slab(what: np.ndarray, k_half: np.ndarray, *vhat: np.ndarray) -> None:
    """A step's opening in place, on one slab: w_hat <- K_half w_hat, plus v_hat(t_mid) if given."""
    np.multiply(what, k_half, out=what)
    if vhat:
        np.add(what, vhat[0], out=what)


def _close_slab(what: np.ndarray, k_half: np.ndarray, *vhat: np.ndarray) -> None:
    """A step's closing in place, on one slab: w_hat <- K_half (w_hat, less v_hat(t_mid) if given)."""
    if vhat:
        np.subtract(what, vhat[0], out=what)
    np.multiply(what, k_half, out=what)


def _guard(abs_sq: np.ndarray, threshold: float | None, t: float) -> None:
    """Raise BlowupError when max |u|^2 exceeds threshold^2 or is not a number.

    The maximum is taken in slabs (grids.on_slabs), NaN propagating.
    """
    if threshold is None:
        return
    peak = float(np.max(on_slabs(np.max, abs_sq)))
    if not peak <= threshold * threshold:
        raise BlowupError(t=t, amplitude=math.sqrt(peak), threshold=threshold)


def _rotate(
    phys: np.ndarray, abs_sq: np.ndarray, phase: np.ndarray, dt_mu: float, power: float
) -> None:
    """Exact nonlinear substep in place: u <- u e^{-i dt mu |u|^p}, |u|^p = (|u|^2)^(p/2).

    The angle is formed in abs_sq's own buffer, which is overwritten, and the
    phase is assembled in the complex buffer `phase` from cos and sin of the
    real angle, which avoids a lattice-sized complex exponential. A large
    lattice is rotated in slabs (grids.on_slabs), with the same bits.
    """

    def rotate_slab(phys: np.ndarray, abs_sq: np.ndarray, phase: np.ndarray) -> None:
        theta = np.power(abs_sq, 0.5 * power, out=abs_sq)
        theta *= -dt_mu
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        phys *= phase

    on_slabs(rotate_slab, phys, abs_sq, phase)


def _split_slab(
    uhat: np.ndarray, vhat: np.ndarray, out: np.ndarray, check: np.ndarray, modulus: np.ndarray
) -> tuple[float, float]:
    """_split_checked's pass on one slab; returns max |(u - v) + v - u| and max |u| there."""
    np.subtract(uhat, vhat, out=out)
    np.add(out, vhat, out=check)
    check -= uhat
    return np.max(np.abs(check, out=modulus)), np.max(np.abs(uhat, out=modulus))


def _split_checked(
    uhat: np.ndarray, vhat: np.ndarray, out: np.ndarray, check: np.ndarray, modulus: np.ndarray
) -> None:
    """out = uhat - vhat, checked: (u - v) + v must reproduce u to far better
    than the documented 1e-9 channel consistency budget. check (complex) and
    modulus (float) are work buffers; the check is scale-invariant, so it
    holds in any diagonally weighted frequency coordinates. A large lattice
    is split and checked in slabs (grids.on_slabs), and the maxima of the
    slabs give the same two maxima.
    """
    drift, scale = np.max(on_slabs(_split_slab, uhat, vhat, out, check, modulus), axis=0)
    drift, scale = float(drift), max(float(scale), 1e-300)
    if not drift <= 1e-9 * scale:  # a NaN drift fails too
        raise RepresentationError(
            f"channel bookkeeping drift {drift:.3e} exceeds 1e-9 x {scale:.3e}"
        )


def _kinetic_slab(
    what: np.ndarray, xi2: np.ndarray, kin: np.ndarray, scratch: np.ndarray, *vhat: np.ndarray
) -> None:
    """A series sample's first pass, on one slab: kin = |w_hat|^2 |xi|^2, and
    v_hat <- |xi|^2 v_hat if given."""
    _abs_sq_slab(what, kin, scratch)
    kin *= xi2
    if vhat:
        np.multiply(vhat[0], xi2, out=vhat[0])


def _nonlinear_slab(
    half_power: float, u: np.ndarray, w: np.ndarray, mod_sq: np.ndarray, scratch: np.ndarray
) -> None:
    """On one slab, with v in u's buffer: u <- v + w, then u <- |u|^p u, and mod_sq = |u|^{p+2}."""
    u += w
    _abs_sq_slab(u, mod_sq, scratch)
    u_pow = np.power(mod_sq, half_power, out=scratch)
    u *= u_pow
    mod_sq *= u_pow


def _potential_slab(half_power: float, w: np.ndarray, mod_sq: np.ndarray, pot: np.ndarray) -> None:
    """The unforced sample's pass on one slab: mod_sq = |w|^2 and pot = |w|^p |w|^2."""
    _abs_sq_slab(w, mod_sq, pot)
    np.power(mod_sq, half_power, out=pot)
    pot *= mod_sq


def _pairing_slab(
    lap_v: np.ndarray, nl_u: np.ndarray, w: np.ndarray, mod_sq: np.ndarray, scratch: np.ndarray
) -> None:
    """On one slab: lap_v <- conj(lap_v) nl_u, and mod_sq = |w|^2."""
    np.conjugate(lap_v, out=lap_v)
    lap_v *= nl_u
    _abs_sq_slab(w, mod_sq, scratch)


def _mass_rate_slab(
    half_power: float, out: np.ndarray, nl_u: np.ndarray, w: np.ndarray, mod_sq: np.ndarray
) -> None:
    """On one slab: out = conj(nl_u - |w|^p w) w, from mod_sq = |w|^2, which becomes |w|^p."""
    np.power(mod_sq, half_power, out=mod_sq)
    np.multiply(w, mod_sq, out=out)
    np.subtract(nl_u, out, out=out)
    np.conjugate(out, out=out)
    out *= w


@dataclass
class ConservationSeries:
    """Mass/energy samples every series_stride steps with their identity rates,
    and the centered differences and residuals that check them.

    solve_w returns it complete: it writes the samples and the identity rates
    (exactly 0 when v = 0) into the series as it runs. The difference and
    residual columns are NaN arrays, and max_rel_* NaN, until
    increment_residuals fills them in place; the two boundary samples, which
    have no centered difference, stay NaN.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    dmass_id: np.ndarray
    denergy_id: np.ndarray
    dmass_fd: np.ndarray = field(init=False)
    res_mass: np.ndarray = field(init=False)
    denergy_fd: np.ndarray = field(init=False)
    res_energy: np.ndarray = field(init=False)
    max_rel_mass: float = field(init=False, default=math.nan)
    max_rel_energy: float = field(init=False, default=math.nan)

    def __post_init__(self):
        for name in ("dmass_fd", "res_mass", "denergy_fd", "res_energy"):
            setattr(self, name, np.full(self.times.size, math.nan))

    def csv_rows(self) -> list[list[float]]:
        """One row of CSV_HEADER's columns per sample."""
        return np.column_stack([
            self.times, self.mass, self.energy,
            self.dmass_fd, self.dmass_id, self.res_mass,
            self.denergy_fd, self.denergy_id, self.res_energy,
        ]).tolist()

    CSV_HEADER = ["t", "M", "E", "dMdt_fd", "dMdt_id", "rM", "dEdt_fd", "dEdt_id", "rE"]

    def sup_ratios(self) -> tuple[float, float]:
        """The almost-conservation figures (sup M / M(0), sup E / E(0)) over the samples.

        Each is max(X / X(0)) over the series X, and 1.0 when X(0) = 0. The
        evolve task's ratio_mass/ratio_energy and c11's
        almost_conservation_monitor (tests/instruments.py) both read this one
        definition.
        """
        return _sup_ratio(self.mass), _sup_ratio(self.energy)

    def figures(self) -> dict[str, float]:
        """The evolve record's figures: the drifts max |X / X(0) - 1| (0.0 when
        X(0) = 0), sup_ratios, and max_rel_* as r_mass and r_energy, which stay
        NaN on a series increment_residuals has not filled (the record drops NaN).
        """
        ratio_mass, ratio_energy = self.sup_ratios()
        return {
            "mass_drift": _drift(self.mass),
            "ratio_mass": ratio_mass,
            "energy_drift": _drift(self.energy),
            "ratio_energy": ratio_energy,
            "r_mass": self.max_rel_mass,
            "r_energy": self.max_rel_energy,
        }


def _sup_ratio(values: np.ndarray) -> float:
    return float(np.max(values / values[0])) if values[0] != 0 else 1.0


def _drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values / values[0] - 1.0))) if values[0] != 0 else 0.0


def _finite(values: np.ndarray, channel: str) -> np.ndarray:
    """values, refused with a ConfigError naming the channel unless every value is finite."""
    if not np.isfinite(values).all():
        raise ConfigError(f"initial data {channel} has non-finite values (NaN or inf)")
    return values


def solve_w(
    w0: SpectralField,
    v0: SpectralField | None,
    cfg: SolverConfig,
    sink: SnapshotSink,
) -> ConservationSeries:
    """Integrate the forced remainder equation; snapshots of w and of the free flow v.

    The dimension is w0's grid's, which v0 must share; a None cfg.power is
    critical_power of it, so a grid that is not 3d or 4d must give one.

    The solve works in the raw coordinates and work arrays of the module
    docstring. Per step, in two grid transforms: one inverse transform of
    K_half w_hat + v_hat(t_mid) gives u = w + v at the step midpoint; the
    guard reads |u|; u is rotated in place by the exact nonlinear phase; one
    forward transform gives u_hat, from which v_hat(t_mid) is subtracted,
    and the result is multiplied by K_half with the 2/3 mask folded in, so
    with the mask on the forward transform finishes only the kept modes on
    a large lattice (module docstring), except at a forced snapshot step. The
    solve holds one multiplier, built per solve and cached nowhere: step
    0's opening half-step uses K_half as built, which is then dealiased in
    place and serves every later half-step, opening ones included, exactly,
    since w_hat leaves each closing half-step zero on the masked modes. At
    snapshot steps the subtraction is checked against u_hat for channel
    bookkeeping drift. A w_hat handed to the sink is zero on the masked
    modes; after a kept-mode step the sign of such a zero may differ from
    a full transform's. The guard refuses a non-finite or too large |u| at
    every step, and the solve refuses initial data with a non-finite value
    (a ConfigError naming w0 or v0). On a large lattice the transforms and
    the elementwise passes of a step and of a series sample run in slabs on
    the CPUs (module docstring); the snapshots and the series have the same
    bits on any number of CPUs. Every value of v, the t = 0 snapshot's
    included, is the exact free propagator applied to v_hat(0) =
    np.fft.fftn(v0), so unitarity and frequency support of the v snapshots
    are exact.

    Every reported time, t = 0 included, goes through one block: v_hat(t)
    is flowed from v_hat(0), w and v are transformed into two work arrays,
    a snapshot is handed to the sink, and a series sample forms u = v + w.
    Each snapshot is handed to sink(t, w, v, w_hat, v_hat) as it is made, in
    time order: w_hat and v_hat are the spectra the solve holds at t, in raw
    np.fft.fftn coordinates, and w and v are their inverse transforms. v and
    v_hat are None exactly when v0 is None; w then solves the full equation.
    All four are the solve's work arrays, valid only during the call and not
    to be written to; a sink that keeps a snapshot keeps copies. The solve
    itself keeps no snapshot and returns only the conservation series.

    The solve keeps w0 and v0 only until it has their spectra and the guard
    threshold; it drops them before it allocates its other work arrays. A
    caller that passes them straight into the call, as the harness does, so
    frees them for the whole step loop.

    The conservation series is sampled inline every cfg.series_stride steps,
    including the identity rates (exactly 0 when v = 0), so it can run on a
    much finer time grid than the snapshots without blowing up memory. The
    samples are written straight into the ConservationSeries the solve
    returns, complete but for the difference and residual columns, which
    increment_residuals fills. A caller that reads no series passes a
    series_stride of cfg.n_steps, so the solve samples only t = 0 and
    t_final.
    """
    grid = w0.grid
    power = critical_power(grid.dim) if cfg.power is None else cfg.power
    if v0 is not None and v0.grid != grid:
        raise ConfigError("w0 and v0 live on different grids")

    shape = grid.shape
    # w(0) and v(0) are read only for their spectra and the guard threshold,
    # max |u(0)| with u(0) = w(0) + v(0); its buffers become u and |u|^2
    w_init = _finite(np.ascontiguousarray(w0.as_physical().values, dtype=np.complex128), "w0")
    what = fftn(w_init)
    v0hat = None
    if v0 is None:
        u = np.empty(shape, dtype=np.complex128)
        abs_sq = np.abs(w_init)
    else:
        v_init = _finite(np.ascontiguousarray(v0.as_physical().values, dtype=np.complex128), "v0")
        v0hat = fftn(v_init)
        u = np.add(w_init, v_init)
        abs_sq = np.abs(u)
        del v_init
    del w0, v0, w_init
    threshold = cfg.blowup_factor * max(float(np.max(abs_sq)), 0.0)
    if threshold == 0.0:
        threshold = None

    # the solve's other work arrays, shared by the step and the reporting block
    phase = np.empty(shape, dtype=np.complex128)
    vhat = None if v0hat is None else np.empty(shape, dtype=np.complex128)
    scratch = np.empty(shape)
    xi2 = xi_sq(grid)
    # the one half-step multiplier: K_half for step 0's opening half-step, then
    # dealiased in place for every later one (see the loop)
    k_half = free_multiplier(grid, 0.5 * cfg.dt)
    dvol = grid.cell_volume
    # Parseval for the unnormalized transform: sum_x |f|^2 = sum_xi |fftn f|^2 / N
    kin_weight = 0.5 * dvol / grid.n_points
    half_power = 0.5 * power
    nonlinear = partial(_nonlinear_slab, half_power)
    potential = partial(_potential_slab, half_power)
    mass_rate = partial(_mass_rate_slab, half_power)

    n_ser = cfg.n_series
    series = ConservationSeries(np.empty(n_ser), np.empty(n_ser), np.empty(n_ser), np.zeros(n_ser), np.zeros(n_ser))

    rotate = cfg.mu != 0.0
    v_mid = () if vhat is None else (vhat,)  # v_hat(t_mid), added and subtracted by each step
    ser = 0
    for done in range(cfg.n_steps + 1):
        at_snap = done % cfg.snapshot_stride == 0
        at_ser = done % cfg.series_stride == 0
        if done:
            # the step from t = (done - 1) dt to done dt
            t_mid = (done - 0.5) * cfg.dt
            if vhat is not None:
                free_flow_into(v0hat, grid, t_mid, out=vhat)
            on_slabs(_open_slab, what, k_half, *v_mid)
            if done == 1 and cfg.dealias:
                # w_hat leaves every closing half-step zero on the masked modes, so
                # one dealiased multiplier serves it and every later opening one;
                # a mode is masked when one of its indices lies between the two
                # kept ranges of grids.dealias_ranges, one slab per axis
                low, high = dealias_ranges(grid.points)
                for axis in range(grid.dim):
                    k_half[(slice(None),) * axis + (slice(low.stop, high.start),)] = 0.0
            ifftn(what, out=u)
            if rotate or threshold is not None:
                _abs_sq(u, abs_sq, scratch)
                _guard(abs_sq, threshold, t_mid)
                if rotate:
                    _rotate(u, abs_sq, phase, cfg.dt * cfg.mu, power)
            checked = vhat is not None and at_snap
            if checked or not cfg.dealias:
                fftn(u, out=what)
            else:
                # u_hat is read only through the close's dealiased K_half,
                # zero on every mode the kept-mode transform leaves unfinished
                fftn_kept(u, out=what)
            if checked:
                # w_hat goes to u's buffer, which then carries w_hat; u_hat
                # stays in the other one for the check
                _split_checked(what, vhat, u, phase, abs_sq)
                what, u = u, what
                on_slabs(_close_slab, what, k_half)
            else:
                on_slabs(_close_slab, what, k_half, *v_mid)
        if not (at_snap or at_ser):
            continue

        # the reporting block, t = 0 included: w goes to the phase buffer and v
        # to u's buffer, both free after the step; u = v + w for the sample
        t = done * cfg.dt
        if vhat is not None:
            free_flow_into(v0hat, grid, t, out=vhat)
        w = ifftn(what, out=phase)
        v = None if vhat is None else ifftn(vhat, out=u)
        if at_snap:
            sink(t, w, v, what, vhat)
        if not at_ser:
            continue
        series.times[ser] = t
        # |w_hat|^2 |xi|^2 for the kinetic sum; v_hat(t), already transformed
        # into v, becomes |xi|^2 v_hat(t) for Lap v
        on_slabs(_kinetic_slab, what, xi2, abs_sq, scratch, *v_mid)
        kinetic = kin_weight * float(np.sum(abs_sq))
        if v is None:
            # |w|^2 and, in scratch, |w|^{p+2}
            if rotate:
                on_slabs(potential, w, abs_sq, scratch)
                kinetic += cfg.mu / (power + 2.0) * float(np.sum(scratch)) * dvol
            else:
                _abs_sq(w, abs_sq, scratch)
            series.mass[ser] = float(np.sum(abs_sq)) * dvol
            series.energy[ser] = kinetic
            ser += 1
            continue
        # u = v + w gives |u|^{p+2} and, in u's own buffer, nl_u = |u|^p u
        on_slabs(nonlinear, u, w, abs_sq, scratch)
        pot = cfg.mu / (power + 2.0) * float(np.sum(abs_sq)) * dvol if rotate else 0.0
        series.energy[ser] = kinetic + pot
        # dE/dt = mu Im int conj(Lap v) nl_u with Lap v = -ifftn(|xi|^2 v_hat);
        # the sign is folded into the sum. The same pass forms |w|^2.
        ifftn(vhat, out=vhat)
        on_slabs(_pairing_slab, vhat, u, w, abs_sq, scratch)
        series.denergy_id[ser] = -cfg.mu * float(np.sum(vhat.imag)) * dvol
        series.mass[ser] = float(np.sum(abs_sq)) * dvol
        # dM/dt = 2 mu Im int conj(w) (nl_u - |w|^p w), summed as
        # -Im w conj(nl_u - |w|^p w) so the product forms in place
        on_slabs(mass_rate, vhat, u, w, abs_sq)
        series.dmass_id[ser] = -2.0 * cfg.mu * float(np.sum(vhat.imag)) * dvol
        ser += 1

    return series


def increment_residuals(series: ConservationSeries) -> ConservationSeries:
    """Fill series' centered-difference rates and their residuals against the identity rates, in place.

    Identities: dM/dt = 2 mu Im int conj(w) (|u|^p u - |w|^p w) dx and
    dE/dt = mu Im int |u|^p u conj(Lap v) dx, sampled inline by solve_w.
    Residual columns hold the per-sample difference (fd - id); max_rel_*
    normalizes the worst interior residual by the larger of the two rate
    scales and is NaN when the identity rate vanishes identically (e.g.
    v = 0), where the absolute residual is the meaningful number. Returns
    the series it was given.
    """
    n = series.times.size
    if n < 3:
        raise ConfigError("increment residuals need at least 3 series samples")
    h = series.times[1] - series.times[0]
    series.dmass_fd[1:-1] = (series.mass[2:] - series.mass[:-2]) / (2 * h)
    series.denergy_fd[1:-1] = (series.energy[2:] - series.energy[:-2]) / (2 * h)
    np.subtract(series.dmass_fd, series.dmass_id, out=series.res_mass)
    np.subtract(series.denergy_fd, series.denergy_id, out=series.res_energy)
    inner = slice(1, n - 1)

    def rel(fd: np.ndarray, ident: np.ndarray, res: np.ndarray) -> float:
        scale = max(np.max(np.abs(ident[inner])), np.max(np.abs(fd[inner])))
        if scale == 0.0 or not np.isfinite(scale):
            return math.nan
        return float(np.max(np.abs(res[inner])) / scale)

    series.max_rel_mass = rel(series.dmass_fd, series.dmass_id, series.res_mass)
    series.max_rel_energy = rel(series.denergy_fd, series.denergy_id, series.res_energy)
    return series


@dataclass(frozen=True)
class TwinReport:
    """H^1 divergence between forced and unforced runs across a forcing ladder."""

    amplitudes: tuple[float, ...]
    divergences: tuple[float, ...]
    slopes: tuple[float, ...]  # log-log slope between consecutive nonzero rungs
    slope_smallest: float
    monotone: bool


def twin_run(
    w0: SpectralField,
    v0: SpectralField,
    cfg: SolverConfig,
    amplitudes: tuple[float, ...] = (1.0, 0.5, 0.25),
) -> TwinReport:
    """Compare solve_w(w0, alpha v0) against the unforced twin over amplitudes.

    D(alpha) = sup over snapshots of ||w_alpha - w_twin||_{H^1}; the reported
    slope is the log-log increment between the two smallest nonzero rungs and
    should sit near 1 while the first Duhamel term dominates. Only the twin's
    w_hat snapshots are held; each rung streams into a sink that keeps the H^1
    gaps, each a Parseval sum of w_hat - w_hat_twin with no transform. No
    solve's series is read, so each samples it only at t = 0 and t_final,
    whatever cfg.series_stride.
    """
    cfg = replace(cfg, series_stride=cfg.n_steps)
    ref: list[np.ndarray] = []
    solve_w(w0, None, cfg, lambda t, w, v, w_hat, v_hat: ref.append(w_hat.copy()))
    amps = tuple(sorted(set(float(a) for a in amplitudes), reverse=True))
    v0_values = v0.as_physical().values
    symbols: Symbols = {}
    diff = np.empty(w0.grid.shape, dtype=np.complex128)
    divs: list[float] = []
    for alpha in amps:
        gaps: list[float] = []

        def gap(t: float, w, v, w_hat: np.ndarray, v_hat) -> None:
            np.subtract(w_hat, ref[len(gaps)], out=diff)
            gaps.append(FrequencyView(w0.grid, None, diff, symbols).norm(2, 1.0, "inhomogeneous"))

        solve_w(w0, SpectralField(v0.grid, alpha * v0_values, "physical"), cfg, gap)
        divs.append(max(gaps))
    slopes: list[float] = []
    for (a1, d1), (a2, d2) in zip(zip(amps, divs), zip(amps[1:], divs[1:])):
        if a2 > 0 and d1 > 0 and d2 > 0:
            slopes.append(math.log(d1 / d2) / math.log(a1 / a2))
        else:
            slopes.append(math.nan)
    nz = [d for a, d in zip(amps, divs) if a > 0]
    monotone = all(x >= y * (1 - 1e-12) for x, y in zip(nz, nz[1:]))
    slope_smallest = slopes[-1] if slopes else math.nan
    return TwinReport(
        amplitudes=amps,
        divergences=tuple(divs),
        slopes=tuple(slopes),
        slope_smallest=slope_smallest,
        monotone=monotone,
    )
