"""The interaction Morawetz functional M(t) and the inequality audit.

M(t) pairs the momentum density p = Im(conj(w) grad w) / 2 of the remainder
field w against a real density, in the audit its mass density m = |w|^2 / 2:

    M(t) = sum_{x,y} (x-y)/|x-y| . p(t,x) m(t,y) dx^{2d}

interaction_functional is its one implementation: the circular pairing
against the vector kernel tabulated with minimal-image displacements and
K(0) = 0, evaluated in Parseval form: one real-input transform of m and of
each component of p, formed one at a time from w's partial derivatives,
summed against cached conjugated transforms of the kernel tables over the
half spectrum, with no inverse transform. Its double-sum reference and
the main-term identity check are test instruments, in tests/instruments.py
beside c09; they read the displacement lattice of this module
(_displacements). The kernels are not periodic, so the circular sum
matches the whole-space integral only for well-localized densities; every
functional value is paired with a localization ratio (fraction of mass
inside the half-box) so the approximation stays auditable.

The audit is one pass over the snapshots, in time order, and keeps only
per-snapshot numbers (MorawetzAccumulator), so a solve can stream its
snapshots into it, spectra included, and stored_audit feeds it a stored
run's, read back one at a time. Each snapshot gets one FrequencyView
(see norms) per channel, one channel at a time, each fed to that channel's
NormPass: every spatial figure of the terms below is read from those two
views, m and M(t) from the w view, and the 4D Gagliardo-Nirenberg ratio
reads two of the figures the w pass returned and ||w||_{L3} from the view.
M(t) enters none of the terms: an accumulator built with interaction=False
skips the pairing, and with it p, w's gradient and the kernel tables (14 -> 5
transforms per 4D snapshot whose spectra are given, 10 -> 3 in 3D), and
keeps m only for the localization ratio. The harness's morawetz-audit task
audits that way unless it writes interaction.csv (save_fields).

The audit measures, per trajectory, the constant C* = LHS / (T1 + T2 + T3) in

    3D:  ||w||_{L4_tx}^4 <= C* ( ||w||_{Linf L2}^2 ||w||_{Linf Hdot(1/2)}^2
           + ||v||_{L2 Linf} (||w||_{L4}^2 + ||v||_{L4}^2)
             (||w||_{Linf L6}^3 + ||v||_{Linf L6}^3) ||w||_{Linf Hdot(1/2)}^2
           + ||grad v||_{L2 Linf} (||w||_{L4}^2 + ||v||_{L4}^2)
             (||w||_{Linf L6}^3 + ||v||_{Linf L6}^3) ||w||_{Linf L2}^2 )

    4D:  || |grad|^{-1/4} w ||_{L4_tx}^4 <= C* ( ||w||_{Linf L2}^2 ||w||_{Linf Hdot(1/2)}^2
           + ||w||_{Linf H(1/2)} || |grad|^{-1/4} w ||_{L4}^2
             ( ||v||_{L2 Linf} ||w||_{Linf Hdot(1/2)}^2
               + ||grad v||_{L2 Linf} ||w||_{Linf L2}^2 )
           + ||v||_{L2 Linf} ||w||_{Linf Hdot(1/2)}^2
             ( ||w||_{Linf L2} ||v||_{L4_tx}^2 + ||v||_{L6_t L3_x}^3 ) )

No implicit constant is ever asserted; C* is measured and its spread across an
ensemble is what gets tested. Homogeneous symbols |xi|^s drop the xi = 0 mode,
also for the negative order -1/4 used by the 4D left-hand side.

The momentum flux balance itself is not checked; that would require the time
derivative of the momentum density, which never enters the reported bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import GridSpec
from .norms import FrequencyView, NormPass, NormSpec, time_norm
from .trajectory import TrajectoryReader, write_csv, write_json

__all__ = [
    "MorawetzReport",
    "CStarSpread",
    "interaction_functional",
    "localization_ratio",
    "MorawetzAccumulator",
    "stored_audit",
    "c_star_spread",
]

def interaction_functional(w: FrequencyView, m: np.ndarray) -> float:
    """M(t) = sum_{x,y} (x-y)/|x-y| . p(x) m(y) dx^{2d} of one snapshot, with p = Im(conj(w) grad w) / 2.

    w is the snapshot's view of the remainder field and m a real density on
    its grid (the audit's is m = |w|^2 / 2). Each partial derivative of w
    comes in the one buffer of FrequencyView.partials, where conj(w) times it
    is formed; p_k, its real transform (into one half-spectrum buffer) and
    its product with the k-th kernel table follow, and the products are
    summed in component order before the one pairing with m's transform. So
    the d components of grad w, of p and of their transforms are never held
    at once. Its double-sum reference is tests/instruments.py's _pair_direct.
    """
    g = w.grid
    vec_hat = _kernel_tables_hat(g)
    conj_w = np.conj(w.values)
    p_k = np.empty(g.shape)
    spec = np.empty(vec_hat.shape[1:], dtype=np.complex128)
    prod = np.zeros_like(spec)
    for table, comp in zip(vec_hat, w.partials()):
        np.multiply(conj_w, comp, out=comp)
        np.multiply(0.5, comp.imag, out=p_k)
        np.fft.rfftn(p_k, out=spec)
        spec *= table
        prod += spec
    np.fft.rfftn(m, out=spec)
    np.conjugate(spec, out=spec)
    spec *= prod
    return float(np.sum(spec.real))


def _displacements(grid: GridSpec) -> np.ndarray:
    """The minimal-image displacement lattice along one axis: index delta holds delta*dx wrapped to [-L, L)."""
    ax = grid.dx * np.arange(grid.points)
    two_l = 2.0 * grid.half_width
    return (ax + grid.half_width) % two_l - grid.half_width


@lru_cache(maxsize=16)
def _kernel_tables_hat(grid: GridSpec) -> np.ndarray:
    """M(t)'s half-spectrum pairing tables: conj(rfftn(x_k/|x|)) with every constant folded in.

    x_k/|x| is the vector kernel on the displacement lattice (_displacements
    along each axis), with K(0) = 0. For real f and g, sum_{x,y} K(x-y) f(x)
    g(y) = (1/N) sum_xi conj(Khat) fhat conj(ghat) over the full DFT lattice.
    The summand at -xi is the conjugate of the one at xi, so the real part of
    the full sum is the half-spectrum sum with weight 2 off the planes
    k_last = 0 and k_last = M/2. That weight, 1/N and dx^{2d} are multiplied
    into the tables, d complex half-spectrum arrays. They are built one
    component at a time from the sparse axes: |x| is one real lattice array,
    and each x_k/|x| one more, transformed into its row of the result, so no
    real lattice table stays resident after an audit.
    """
    r = np.meshgrid(*([_displacements(grid)] * grid.dim), indexing="ij", sparse=True)
    rad = r[0] * r[0]
    for c in r[1:]:
        rad = rad + c * c
    np.sqrt(rad, out=rad)
    live = rad > 0.0
    half = np.full(grid.points // 2 + 1, 2.0)
    half[0] = half[-1] = 1.0
    scale = half * (grid.cell_volume**2 / grid.n_points)
    comp = np.zeros(grid.shape)
    out = np.empty((grid.dim,) + grid.shape[:-1] + (half.size,), dtype=np.complex128)
    for row, c in zip(out, r):
        np.divide(c, rad, out=comp, where=live)
        np.multiply(np.conjugate(np.fft.rfftn(comp)), scale, out=row)
    return out


def localization_ratio(density: np.ndarray, grid: GridSpec) -> float:
    """Fraction of sum |density| carried by the inner half-box (all |x_j| < L/2).

    1.0 for an identically zero density (vacuously localized). Values well
    below 1 mean the circular convolution is a poor stand-in for the
    whole-space pairing.
    """
    half = 0.5 * grid.half_width
    inner = np.abs(grid.x_axis()) < half
    mask = inner
    for _ in range(grid.dim - 1):
        mask = np.multiply.outer(mask, inner)
    mag = np.abs(density)
    total = float(mag.sum())
    if total == 0.0:
        return 1.0
    return float(mag[mask].sum()) / total


@dataclass(frozen=True)
class MorawetzReport:
    """Measured sides of the interaction Morawetz inequality for one run.

    lhs is ||w||_{L4_tx}^4 in 3D and || |grad|^{-1/4} w ||_{L4_tx}^4 in 4D;
    terms holds the three right-hand-side products T1, T2, T3; c_star is
    lhs / (T1 + T2 + T3), zero for a zero left-hand side. interaction and
    localization trace M(t) and the half-box mass fraction per snapshot;
    interaction is None for an audit that did not compute M(t), and such a
    report cannot be written.
    gn_ratios holds the 4D per-snapshot Gagliardo-Nirenberg ratios of w,
    ||w||_{L3}^3 / (||w||_{H(1/2)} || |grad|^{-1/4} w ||_{L4}^2), and is None
    in 3D; it is not part of to_dict(). A single constant should cover a
    whole ensemble, so the interesting output is their spread.
    """

    dim: int
    lhs: float
    terms: dict[str, float]
    c_star: float
    times: np.ndarray
    interaction: np.ndarray | None
    localization: np.ndarray
    gn_ratios: np.ndarray | None = None

    CSV_HEADER = ["t", "interaction", "localization"]

    @property
    def rhs(self) -> float:
        return float(sum(self.terms.values()))

    def csv_rows(self) -> list[list[float]]:
        if self.interaction is None:
            raise ValueError("this report has no interaction functional M(t) to write")
        return [
            [float(t), float(m), float(r)]
            for t, m, r in zip(self.times, self.interaction, self.localization)
        ]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "lhs": self.lhs,
            "terms": {k: float(v) for k, v in self.terms.items()},
            "rhs": self.rhs,
            "c_star": self.c_star,
            "min_localization": float(self.localization.min()),
        }

    def write(self, out: Path) -> tuple[Path, Path]:
        """Write morawetz.json (to_dict) and interaction.csv (csv_rows) into out; returns both paths."""
        rows = self.csv_rows()  # before anything is written: a report without M(t) raises
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "morawetz.json"
        write_json(report_path, self.to_dict())
        csv_path = out / "interaction.csv"
        write_csv(csv_path, self.CSV_HEADER, rows)
        return report_path, csv_path


class MorawetzAccumulator:
    """The interaction Morawetz audit, fed one snapshot at a time in time order.

    add(t, w, v, w_hat, v_hat) reads every per-snapshot figure of the audit
    from one FrequencyView of w and one of v and keeps only those numbers;
    the arrays themselves are not kept or written, so they may be buffers
    reused for the next snapshot. A view built on a given spectrum makes no
    forward transform, one built on values alone makes one. Each channel's
    view comes from its own NormPass, which takes its norms, and the views
    are built one at a time: every figure of w, then w's view is dropped,
    then every figure of v, and last sup |grad v|, one partial derivative at
    a time. report() folds both passes' series and sup |grad v| into the
    time norms, the left-hand side and the right-hand side terms T1, T2 and
    T3: the three summands of the module docstring's inequality, in order.
    C* is measured, never asserted; ensemble stability is judged separately
    by c_star_spread. No audited figure depends on the nonlinearity power. A
    solve can stream its snapshots straight into add, and stored_audit feeds
    a stored run's, so the audit holds no snapshot stack. The audit's
    dimension is the grid's, and a grid that is not 3D or 4D is a
    ConfigError.

    With both spectra given, a 4D snapshot takes 14 transforms and a 3D one
    10: d for sup |grad v|, one for |grad|^{-1/4} w in 4D (which the 4D
    Gagliardo-Nirenberg ratio reads from the w pass's take()), and for M(t) d
    for w's gradient and d + 1 real-input ones for the pairing; M(t) holds
    one component of grad w and of p at a time (interaction_functional). With
    interaction=False add() does not compute M(t): no momentum density, no
    gradient of w, no pairing and no kernel tables, so 5 transforms per 4D
    snapshot and 3 per 3D snapshot. Every other figure is taken as before,
    so the report's numbers are the same bit for bit; only its interaction
    is None.
    """

    def __init__(self, grid: GridSpec, interaction: bool = True):
        dim = grid.dim
        if dim not in (3, 4):
            raise ConfigError(f"the inequality audit is defined for dimensions 3 and 4, got {dim}")
        self.grid = grid
        self.dim = dim
        self.interaction = interaction
        inf = math.inf
        # each channel's figures: the spatial norm taken at every snapshot and its time exponent
        w_specs = {"w_mass": NormSpec(inf, 2), "w_hhalf": NormSpec(inf, 2, 0.5, "homogeneous")}
        v_specs = {"v_sup": NormSpec(2, inf), "v_l4": NormSpec(4, 4)}
        if dim == 3:
            w_specs["w_l4"] = NormSpec(4, 4)
            w_specs["w_l6"] = NormSpec(inf, 6)
            v_specs["v_l6"] = NormSpec(inf, 6)
        else:
            w_specs["w_g"] = NormSpec(4, 4, -0.25, "homogeneous")
            w_specs["w_hhalf_inh"] = NormSpec(inf, 2, 0.5, "inhomogeneous")
            v_specs["v_l6l3"] = NormSpec(6, 3)
        self._w_pass = NormPass(grid, w_specs)
        self._v_pass = NormPass(grid, v_specs)
        self._times: list[float] = []
        self._dv: list[float] = []
        self._inter: list[float] = []
        self._loc: list[float] = []
        self._gn: list[float] = []

    def add(
        self,
        t: float,
        w: np.ndarray,
        v: np.ndarray,
        w_hat: np.ndarray | None = None,
        v_hat: np.ndarray | None = None,
    ) -> None:
        """Take the audit's figures of the snapshot at time t from the physical
        values of w and v and, when given, their raw spectra np.fft.fftn."""
        view = self._w_pass.view(w, w_hat)
        figures = self._w_pass.take(view)
        m = 0.5 * view.modulus**2
        if self.interaction:
            self._inter.append(interaction_functional(view, m))
        self._loc.append(localization_ratio(m, self.grid))
        del m
        if self.dim == 4:
            self._gn.append(_gn_ratio(view.norm(3), figures["w_hhalf_inh"], figures["w_g"]))
        view = self._v_pass.view(v, v_hat)
        self._v_pass.take(view)
        self._dv.append(math.sqrt(_max_grad_sq(view)))
        self._times.append(float(t))

    def report(self) -> MorawetzReport:
        """Both sides of the inequality over the snapshots added so far."""
        times = np.array(self._times)
        norm = self._w_pass.norms(times) | self._v_pass.norms(times)
        w_mass, w_hhalf = norm["w_mass"], norm["w_hhalf"]
        v_sup, v_l4 = norm["v_sup"], norm["v_l4"]
        dv_sup = time_norm(np.array(self._dv), times, 2)
        if self.dim == 3:
            w_l4 = norm["w_l4"]
            mix4 = w_l4**2 + v_l4**2
            mix6 = norm["w_l6"] ** 3 + norm["v_l6"] ** 3
            lhs = w_l4**4
            terms = {
                "T1": w_mass**2 * w_hhalf**2,
                "T2": v_sup * mix4 * mix6 * w_hhalf**2,
                "T3": dv_sup * mix4 * mix6 * w_mass**2,
            }
        else:
            g_norm = norm["w_g"]
            lhs = g_norm**4
            terms = {
                "T1": w_mass**2 * w_hhalf**2,
                "T2": norm["w_hhalf_inh"] * g_norm**2 * (v_sup * w_hhalf**2 + dv_sup * w_mass**2),
                "T3": v_sup * w_hhalf**2 * (w_mass * v_l4**2 + norm["v_l6l3"] ** 3),
            }

        rhs = float(sum(terms.values()))
        if lhs == 0.0:
            c_star = 0.0
        elif rhs == 0.0:
            c_star = math.inf
        else:
            c_star = lhs / rhs

        return MorawetzReport(
            dim=self.dim,
            lhs=float(lhs),
            terms={k: float(v) for k, v in terms.items()},
            c_star=float(c_star),
            times=times,
            interaction=np.array(self._inter) if self.interaction else None,
            localization=np.array(self._loc),
            gn_ratios=np.array(self._gn) if self.dim == 4 else None,
        )


def stored_audit(reader: TrajectoryReader) -> MorawetzReport:
    """The audit of a stored run: its v and w snapshots fed to a MorawetzAccumulator.

    The snapshots are read in time order, one pair in memory at a time, and
    handed over as values alone, so each view makes its channel's spectrum
    with one forward transform. The audit's dimension is the stored grid's;
    a directory without channels v and w, on a grid that is not 3D or 4D,
    or with fewer than the two snapshots its time norms integrate over, is
    a ConfigError.
    """
    n = reader.times.size
    if n < 2:
        raise ConfigError(f"{reader.root}: the audit needs at least 2 snapshots, got {n}")
    audit = MorawetzAccumulator(reader.grid)
    for t, snap in reader.snapshots(("v", "w")):
        audit.add(t, snap["w"], snap["v"])
    return audit.report()


@dataclass(frozen=True)
class CStarSpread:
    """Stability summary of measured constants over an ensemble."""

    n: int
    max: float
    median: float
    ratio: float
    stable: bool


def c_star_spread(values) -> CStarSpread:
    """max/median spread of the constants C* of an ensemble's runs, given as numbers;
    stable when the ratio stays below 10.

    Degenerate runs with C* = 0 are excluded from the median so an all-linear
    ensemble does not divide by zero.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one run")
    if np.any(~np.isfinite(vals)):
        raise ValueError("ensemble contains a non-finite constant")
    live = vals[vals > 0]
    if live.size == 0:
        return CStarSpread(n=vals.size, max=0.0, median=0.0, ratio=1.0, stable=True)
    mx = float(live.max())
    med = float(np.median(live))
    ratio = mx / med
    return CStarSpread(n=vals.size, max=mx, median=med, ratio=ratio, stable=ratio < 10.0)


def _max_grad_sq(f: FrequencyView) -> float:
    """max over the lattice of |grad f|^2, one spectral partial derivative at a time.

    Each partial comes in the one buffer of FrequencyView.partials, and its
    re^2 + im^2 is summed into the total in axis order, so the result
    equals, bit for bit, the maximum of sum_k (re^2 + im^2) over the d
    partials held at once, without holding d components.
    """
    total = np.zeros(f.grid.shape)
    sq = np.empty(f.grid.shape)
    for comp in f.partials():
        np.multiply(comp.real, comp.real, out=sq)
        np.multiply(comp.imag, comp.imag, out=comp.real)
        sq += comp.real
        total += sq
    return float(total.max())


def _gn_ratio(l3: float, h_half: float, g: float) -> float:
    """||f||_{L3}^3 / (||f||_{H(1/2)} || |grad|^{-1/4} f ||_{L4}^2) from those norms; 0 when both sides vanish."""
    num = l3**3
    den = h_half * g**2
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
