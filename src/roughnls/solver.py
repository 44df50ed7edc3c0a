"""Strang split-step integrator for i u_t + Lap u = mu |u|^p u and the forced
remainder equation i w_t + Lap w = mu |u|^p u with u = v + w, v free.

The kinetic half-steps are exact Fourier multipliers and the nonlinear substep
is an exact phase rotation (|u| is invariant under i u_t = mu |u|^p u), so the
only scheme error is the O(dt^2) splitting error. The rough channel v is never
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
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BlowupError, ConfigError, RepresentationError
from .grids import (
    GridSpec,
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
    "dealias_mask",
    "solve_w",
    "increment_residuals",
    "TwinReport",
    "twin_run",
    "AlmostConservationReport",
    "almost_conservation_monitor",
    "ScatteringReport",
    "scattering_proxy",
]


# receives each snapshot of a solve as sink(t, w, v, w_hat, v_hat); see solve_w
SnapshotSink = Callable[[float, np.ndarray, "np.ndarray | None", np.ndarray, "np.ndarray | None"], None]


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; the spatial grid travels with the fields.

    power defaults to the energy-critical exponent 4/(dim - 2) in 3d and 4d
    (quintic and cubic nonlinearities); lower dimensions are allowed for
    cheap tests but must state the power explicitly.
    """

    dim: int
    dt: float
    t_final: float
    snapshot_stride: int = 1
    series_stride: int | None = None
    power: float | None = None
    mu: float = 1.0
    blowup_factor: float = 1e6
    dealias: bool = True

    def __post_init__(self):
        if self.dim not in (1, 2, 3, 4):
            raise ConfigError(f"dim must be 1..4, got {self.dim}")
        if self.power is None:
            if self.dim in (3, 4):
                object.__setattr__(self, "power", 4.0 / (self.dim - 2))
            else:
                raise ConfigError("power must be given explicitly for dim < 3")
        if self.power < 0:
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
            "dim": self.dim,
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_stride": self.snapshot_stride,
            "series_stride": self.series_stride,
            "power": self.power,
            "mu": self.mu,
            "dealias": self.dealias,
        }


@lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask: keep signed index |m| < M/3 along every axis (grids.dealias_ranges)."""
    keep1d = np.zeros(grid.points, dtype=bool)
    for kept in dealias_ranges(grid.points):
        keep1d[kept] = True
    out = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        sh = [1] * grid.dim
        sh[ax] = grid.points
        out &= keep1d.reshape(sh)
    return out


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
    """Mass/energy samples every series_stride steps plus identity-vs-difference rates.

    solve_w fills the identity rates inline; the difference and residual
    columns are NaN until increment_residuals fills them (and always NaN at
    the two boundary samples, which have no centered difference).
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    power: float
    mu: float
    dmass_fd: np.ndarray | None = None
    dmass_id: np.ndarray | None = None
    res_mass: np.ndarray | None = None
    denergy_fd: np.ndarray | None = None
    denergy_id: np.ndarray | None = None
    res_energy: np.ndarray | None = None
    max_rel_mass: float = math.nan
    max_rel_energy: float = math.nan

    def csv_rows(self) -> list[list[float]]:
        cols = [
            self.times,
            self.mass,
            self.energy,
            self.dmass_fd,
            self.dmass_id,
            self.res_mass,
            self.denergy_fd,
            self.denergy_id,
            self.res_energy,
        ]
        n = self.times.size
        nan = np.full(n, math.nan)
        cols = [c if c is not None else nan for c in cols]
        return [[float(c[k]) for c in cols] for k in range(n)]

    CSV_HEADER = ["t", "M", "E", "dMdt_fd", "dMdt_id", "rM", "dEdt_fd", "dEdt_id", "rE"]


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
    much finer time grid than the snapshots without blowing up memory.
    """
    grid = w0.grid
    if grid.dim != cfg.dim:
        raise ConfigError(f"field is {grid.dim}d but config says {cfg.dim}d")
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
    half_power = 0.5 * cfg.power
    nonlinear = partial(_nonlinear_slab, half_power)
    mass_rate = partial(_mass_rate_slab, half_power)

    n_ser = cfg.n_series
    ser_times = np.empty(n_ser)
    ser_mass = np.empty(n_ser)
    ser_energy = np.empty(n_ser)
    ser_dm_id = np.zeros(n_ser)
    ser_de_id = np.zeros(n_ser)

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
                # one dealiased multiplier serves it and every later opening one
                k_half[~dealias_mask(grid)] = 0.0
            ifftn(what, out=u)
            if rotate or threshold is not None:
                _abs_sq(u, abs_sq, scratch)
                _guard(abs_sq, threshold, t_mid)
                if rotate:
                    _rotate(u, abs_sq, phase, cfg.dt * cfg.mu, cfg.power)
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
        ser_times[ser] = t
        # |w_hat|^2 |xi|^2 for the kinetic sum; v_hat(t), already transformed
        # into v, becomes |xi|^2 v_hat(t) for Lap v
        on_slabs(_kinetic_slab, what, xi2, abs_sq, scratch, *v_mid)
        kinetic = kin_weight * float(np.sum(abs_sq))
        if v is None:
            mod_sq = _abs_sq(w, abs_sq, scratch)
            ser_mass[ser] = float(np.sum(mod_sq)) * dvol
            if rotate:
                pot = np.power(mod_sq, half_power, out=scratch)
                pot *= mod_sq
                kinetic += cfg.mu / (cfg.power + 2.0) * float(np.sum(pot)) * dvol
            ser_energy[ser] = kinetic
            ser += 1
            continue
        # u = v + w gives |u|^{p+2} and, in u's own buffer, nl_u = |u|^p u
        on_slabs(nonlinear, u, w, abs_sq, scratch)
        pot = cfg.mu / (cfg.power + 2.0) * float(np.sum(abs_sq)) * dvol if rotate else 0.0
        ser_energy[ser] = kinetic + pot
        # dE/dt = mu Im int conj(Lap v) nl_u with Lap v = -ifftn(|xi|^2 v_hat);
        # the sign is folded into the sum. The same pass forms |w|^2.
        ifftn(vhat, out=vhat)
        on_slabs(_pairing_slab, vhat, u, w, abs_sq, scratch)
        ser_de_id[ser] = -cfg.mu * float(np.sum(vhat.imag)) * dvol
        ser_mass[ser] = float(np.sum(abs_sq)) * dvol
        # dM/dt = 2 mu Im int conj(w) (nl_u - |w|^p w), summed as
        # -Im w conj(nl_u - |w|^p w) so the product forms in place
        on_slabs(mass_rate, vhat, u, w, abs_sq)
        ser_dm_id[ser] = -2.0 * cfg.mu * float(np.sum(vhat.imag)) * dvol
        ser += 1

    return ConservationSeries(
        times=ser_times,
        mass=ser_mass,
        energy=ser_energy,
        power=cfg.power,
        mu=cfg.mu,
        dmass_id=ser_dm_id,
        denergy_id=ser_de_id,
    )


def increment_residuals(series: ConservationSeries) -> ConservationSeries:
    """Fill centered-difference rates and their residuals against the identity rates.

    Identities: dM/dt = 2 mu Im int conj(w) (|u|^p u - |w|^p w) dx and
    dE/dt = mu Im int |u|^p u conj(Lap v) dx, sampled inline by solve_w.
    Residual columns hold the per-sample difference (fd - id); max_rel_*
    normalizes the worst interior residual by the larger of the two rate
    scales and is NaN when the identity rate vanishes identically (e.g.
    v = 0), where the absolute residual is the meaningful number.
    """
    n = series.times.size
    if n < 3:
        raise ConfigError("increment residuals need at least 3 series samples")
    if series.dmass_id is None or series.denergy_id is None:
        raise ConfigError("increment residuals need a series with inline identity rates")
    dm_id = np.asarray(series.dmass_id, dtype=float)
    de_id = np.asarray(series.denergy_id, dtype=float)

    h = series.times[1] - series.times[0]
    dm_fd = np.full(n, math.nan)
    de_fd = np.full(n, math.nan)
    dm_fd[1:-1] = (series.mass[2:] - series.mass[:-2]) / (2 * h)
    de_fd[1:-1] = (series.energy[2:] - series.energy[:-2]) / (2 * h)

    res_m = dm_fd - dm_id
    res_e = de_fd - de_id
    inner = slice(1, n - 1)

    def rel(fd: np.ndarray, ident: np.ndarray, res: np.ndarray) -> float:
        scale = max(np.max(np.abs(ident[inner])), np.max(np.abs(fd[inner])))
        if scale == 0.0 or not np.isfinite(scale):
            return math.nan
        return float(np.max(np.abs(res[inner])) / scale)

    return ConservationSeries(
        times=series.times,
        mass=series.mass,
        energy=series.energy,
        power=series.power,
        mu=series.mu,
        dmass_fd=dm_fd,
        dmass_id=dm_id,
        res_mass=res_m,
        denergy_fd=de_fd,
        denergy_id=de_id,
        res_energy=res_e,
        max_rel_mass=rel(dm_fd, dm_id, res_m),
        max_rel_energy=rel(de_fd, de_id, res_e),
    )


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
    gaps, each a Parseval sum of w_hat - w_hat_twin with no transform.
    """
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


@dataclass(frozen=True)
class AlmostConservationReport:
    """Whether sup M and sup E stay below twice their stated ceilings."""

    a: float
    n0: float
    s: float
    mass_bound: float
    energy_bound: float
    sup_mass: float
    sup_energy: float
    ratio_mass: float  # sup M / M(0)
    ratio_energy: float
    ok_mass: bool
    ok_energy: bool

    @property
    def ok(self) -> bool:
        return self.ok_mass and self.ok_energy


def almost_conservation_monitor(
    v0: SpectralField | None,
    series: ConservationSeries,
    a: float,
    n0: float,
    s: float,
) -> AlmostConservationReport:
    """Check sup_t M <= 2 A n0^{-2s} and sup_t E <= 2 A n0^{2(1-s)}.

    series is the solve's and v0 its forcing, None for an unforced solve.
    Preconditions (initial data below the ceilings, v supported above n0/2)
    are enforced and violations raise a configuration error naming the
    offending quantity.
    """
    mass_bound = a * n0 ** (-2.0 * s)
    energy_bound = a * n0 ** (2.0 * (1.0 - s))
    m0, e0 = float(series.mass[0]), float(series.energy[0])
    if m0 > mass_bound:
        raise ConfigError(f"initial mass {m0:.6g} exceeds A n0^(-2s) = {mass_bound:.6g}")
    if e0 > energy_bound:
        raise ConfigError(f"initial energy {e0:.6g} exceeds A n0^(2(1-s)) = {energy_bound:.6g}")
    if v0 is not None:
        # raw coordinates: the transform weight has constant modulus, so the relative leak is unchanged
        vhat0 = fftn(v0.as_physical().values)
        low = np.sqrt(xi_sq(v0.grid)) < n0 / 2.0
        leak = float(np.linalg.norm(vhat0[low]))
        total = float(np.linalg.norm(vhat0))
        if total > 0 and leak > 1e-9 * total:
            raise ConfigError(
                f"v carries frequency content below n0/2 = {n0 / 2:g} "
                f"(relative l2 leak {leak / total:.3e})"
            )
    sup_m = float(series.mass.max())
    sup_e = float(series.energy.max())
    return AlmostConservationReport(
        a=a,
        n0=n0,
        s=s,
        mass_bound=mass_bound,
        energy_bound=energy_bound,
        sup_mass=sup_m,
        sup_energy=sup_e,
        ratio_mass=sup_m / m0 if m0 > 0 else math.nan,
        ratio_energy=sup_e / e0 if e0 > 0 else math.nan,
        ok_mass=sup_m <= 2.0 * mass_bound,
        ok_energy=sup_e <= 2.0 * energy_bound,
    )


@dataclass(frozen=True)
class ScatteringReport:
    """Cauchy behavior of the free pullback w_+(t) = e^{-it Lap} w(t)."""

    times: tuple[float, ...]
    deltas: tuple[float, ...]  # consecutive H^1 differences of w_+
    decreasing: bool


def scattering_proxy(grid: GridSpec, times: Sequence[float], w_hats: Sequence[np.ndarray]) -> ScatteringReport:
    """H^1 Cauchy differences of the free pullback along a time ladder.

    times are a solve's snapshot times and w_hats[k] the raw spectrum
    np.fft.fftn of w at times[k], as a SnapshotSink receives it; they are
    only read. Picks the snapshots nearest t_final / 4, t_final / 2,
    3 t_final / 4 and t_final, pulls each w back by the free flow, and
    reports whether consecutive differences decrease (they vanish
    identically for a linear run).
    """
    times = np.asarray(times, dtype=float)
    t_final = float(times[-1])
    idx = sorted({int(np.argmin(np.abs(times - f * t_final))) for f in (0.25, 0.5, 0.75, 1.0)})
    if len(idx) < 2:
        raise ConfigError("scattering proxy needs at least two distinct ladder times")
    pulled = []
    for k in idx:
        pulled.append(free_flow_into(w_hats[k], grid, -float(times[k]), np.empty_like(w_hats[k])))
    symbols: Symbols = {}
    deltas = []
    for f1, f2 in zip(pulled, pulled[1:]):
        diff = f2 - f1
        view = FrequencyView(grid, None, diff, symbols)
        deltas.append(view.norm(2, 1.0, "inhomogeneous"))
    decreasing = all(d2 <= d1 * (1 + 1e-9) for d1, d2 in zip(deltas, deltas[1:]))
    return ScatteringReport(
        times=tuple(float(times[k]) for k in idx),
        deltas=tuple(deltas),
        decreasing=decreasing,
    )
