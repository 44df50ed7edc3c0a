"""Interaction Morawetz functionals, inequality audits, and the main-term identity.

Local densities of the remainder field w: mass density m = |w|^2 / 2, momentum
density p = Im(conj(w) grad w) / 2, and the nonlinear defect
e = |u|^p u - |w|^p w. The pairwise functional

    M(t) = sum_{x,y} (x-y)/|x-y| . p(t,x) m(t,y) dx^{2d}

is the circular pairing against a kernel tabulated with minimal-image
displacements and K(0) = 0, evaluated in Parseval form: one real-input
transform of m and of each component of p, summed against cached conjugated
transforms of the kernel tables over the half spectrum, with no inverse
transform. A direct double sum is kept as a cross-check. The kernels are not
periodic, so the circular sum matches the whole-space integral only for
well-localized densities; every functional value is paired with a
localization ratio (fraction of mass inside the half-box) so the
approximation stays auditable.

The audit is one pass over the snapshots, in time order, and keeps only
per-snapshot numbers (MorawetzAccumulator), so a solve can stream its
snapshots into it, spectra included, and stored_audit feeds it a stored
run's, read back one at a time. Each snapshot gets one FrequencyView
(see norms) per channel, one channel at a time: every spatial figure of the
terms below is read from those two views, m and p come from the w view's
gradient, p one component at a time straight into its pairing, and the 4D
Gagliardo-Nirenberg ratio reuses figures already taken.
M(t) enters none of the terms: an accumulator built with interaction=False
skips p, w's gradient and the pairing (14 -> 5 transforms per 4D snapshot
whose spectra are given, 10 -> 3 in 3D) and keeps m only for the
localization ratio. The harness's morawetz-audit task audits that way unless
it writes interaction.csv (save_fields).

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
from .grids import GridSpec, SpectralField
from .norms import FrequencyView, NormPass, NormSpec, time_norm
from .trajectory import TrajectoryReader, write_csv, write_json

__all__ = [
    "LocalDensities",
    "MorawetzReport",
    "MainTermReport",
    "CStarSpread",
    "SCALING_DEGREES",
    "local_densities",
    "interaction_functional",
    "localization_ratio",
    "MorawetzAccumulator",
    "stored_audit",
    "c_star_spread",
    "identity_mor_mainterm",
]

# Homogeneity degree of each reported audit value under (w, v) -> (alpha w, alpha v),
# read off from the norm products above.
SCALING_DEGREES = {
    3: {"lhs": 4, "T1": 4, "T2": 8, "T3": 8},
    4: {"lhs": 4, "T1": 4, "T2": 6, "T3": 6},
}


def _critical_power(dim: int) -> float:
    """The energy-critical power 4/(d-2), defined in dimensions 3 and 4."""
    if dim in (3, 4):
        return 4.0 / (dim - 2)
    raise ConfigError(f"the energy-critical power is defined in dimensions 3 and 4, got {dim}")


@dataclass(frozen=True)
class LocalDensities:
    """Pointwise densities of one snapshot: mass m, momentum p, defect e.

    m has the grid's shape, p stacks the d components along axis 0, and e is
    complex with the grid's shape, or None where the caller did not form it
    (the audit). m >= 0 and p is real by construction; e vanishes wherever
    u = w.
    """

    grid: GridSpec
    m: np.ndarray
    p: np.ndarray
    e: np.ndarray | None = None


def _momentum_pairing(w: FrequencyView, m: np.ndarray) -> float:
    """M(t) = sum_{x,y} (x-y)/|x-y| . p(x) m(y) dx^{2d}, p formed one gradient component at a time.

    Each partial derivative of w comes in the one buffer of
    FrequencyView.partials, where conj(w) times it is formed; p_k, its real
    transform (into one half-spectrum buffer) and its product with the k-th
    kernel table follow, and the products are summed in component order. The result
    equals interaction_functional(LocalDensities(grid, m, p)) bit for bit
    without holding the d components of grad w, of p or of their transforms.
    """
    g = w.grid
    vec_hat, _ = _kernel_tables_hat(g)
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


def local_densities(w: SpectralField, u: SpectralField) -> LocalDensities:
    """Mass/momentum densities of w and the defect |u|^p u - |w|^p w.

    The gradient inside p is spectral (i xi multipliers). The power is the
    energy-critical exponent 4/(d-2), so the grid must be 3D or 4D.
    """
    if w.grid != u.grid:
        raise ConfigError("w and u must live on the same grid")
    g = w.grid
    p = _critical_power(g.dim)
    wv = FrequencyView(g, w.as_physical().values)
    up = u.as_physical().values
    m = 0.5 * wv.modulus**2
    conj_w = np.conj(wv.values)
    mom = np.stack([0.5 * np.imag(conj_w * gk) for gk in wv.gradient()])
    defect = np.abs(up) ** p * up - wv.modulus**p * wv.values
    return LocalDensities(g, m, mom, defect)


def _kernel_tables(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated kernels on the displacement lattice, minimal image, K(0) = 0.

    Index delta holds the value at displacement r = delta*dx wrapped to
    [-L, L)^d. Returns (vector table (d, *shape) with x_k/|x|, scalar table
    with 1/|x|). Not cached: the audit keeps only their half-spectrum
    transforms (_kernel_tables_hat), so (d + 1) real lattice tables do not
    stay resident after an audit.
    """
    ax = grid.dx * np.arange(grid.points)
    two_l = 2.0 * grid.half_width
    ax = (ax + grid.half_width) % two_l - grid.half_width
    comps = np.meshgrid(*([ax] * grid.dim), indexing="ij")
    r = np.stack(comps)
    rad = np.sqrt(np.sum(r * r, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = np.where(rad > 0.0, r / rad, 0.0)
        sca = np.where(rad > 0.0, 1.0 / rad, 0.0)
    return vec, sca


@lru_cache(maxsize=16)
def _kernel_tables_hat(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum pairing tables: conj(rfftn(kernel)) with every constant folded in.

    For real f and g, sum_{x,y} K(x-y) f(x) g(y) = (1/N) sum_xi conj(Khat) fhat
    conj(ghat) over the full DFT lattice. The summand at -xi is the conjugate
    of the one at xi, so the real part of the full sum is the half-spectrum sum
    with weight 2 off the planes k_last = 0 and k_last = M/2. That weight, 1/N
    and dx^{2d} are multiplied into the tables.
    """
    vec, sca = _kernel_tables(grid)
    axes = tuple(range(1, grid.dim + 1))
    half = np.full(grid.points // 2 + 1, 2.0)
    half[0] = half[-1] = 1.0
    scale = half * (grid.cell_volume**2 / grid.n_points)
    return np.conj(np.fft.rfftn(vec, axes=axes)) * scale, np.conj(np.fft.rfftn(sca)) * scale


def _pair_fft(table_hat: np.ndarray, f: np.ndarray, g: np.ndarray, grid: GridSpec) -> float:
    """sum_{x,y} K(x-y) f(x) g(y) dx^{2d} for real f, g, as one half-spectrum Parseval sum.

    f may stack components along a leading axis, paired with a matching stack
    of tables (the vector kernel); the components' products are summed before
    the single pairing with g.
    """
    axes = tuple(range(f.ndim - grid.dim, f.ndim))
    prod = np.fft.rfftn(f, axes=axes)
    prod *= table_hat
    if prod.ndim > grid.dim:
        prod = prod.sum(axis=0)
    return float(np.sum((np.conj(np.fft.rfftn(g)) * prod).real))


def _pair_direct(kind: str, f: np.ndarray, g: np.ndarray, grid: GridSpec) -> float:
    """Reference evaluator: explicit double sum over all point pairs.

    f carries the stacked components (d, *shape) for the vector kernel and a
    plain scalar array for the 1/|x-y| kernel. Quadratic in the point count;
    meant for small cross-check grids only.
    """
    d = grid.dim
    ax = grid.x_axis()
    coords = np.meshgrid(*([ax] * d), indexing="ij")
    pts = np.stack([c.ravel() for c in coords], axis=1)
    two_l = 2.0 * grid.half_width
    diff = pts[:, None, :] - pts[None, :, :]
    diff = (diff + grid.half_width) % two_l - grid.half_width
    rad = np.sqrt(np.sum(diff * diff, axis=2))
    ok = rad > 0.0
    gv = g.ravel()
    if kind == "vector":
        fv = f.reshape(d, -1)
        total = 0.0
        for k in range(d):
            with np.errstate(divide="ignore", invalid="ignore"):
                kern = np.where(ok, diff[:, :, k] / rad, 0.0)
            total += float(fv[k] @ kern @ gv)
        return total * grid.cell_volume**2
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.where(ok, 1.0 / rad, 0.0)
    return float(f.ravel() @ kern @ gv) * grid.cell_volume**2


def interaction_functional(
    dens: LocalDensities,
    kind: str = "vector",
    scalar_field: np.ndarray | None = None,
    method: str = "fft",
) -> float:
    """Pairwise kernel functional of one snapshot's densities.

    kind 'vector' evaluates sum (x-y)/|x-y| . p(x) m(y) dx^{2d}; kind 'scalar'
    pairs a caller-supplied real field f(x) against m(y) under the weight
    1/|x-y|. method 'fft' (the default) is the half-spectrum Parseval sum:
    d + 1 (vector) or 2 (scalar) real-input transforms and no inverse
    transform. method 'direct' switches to the double-sum reference path.
    """
    g = dens.grid
    if kind == "vector":
        f: np.ndarray = dens.p
    elif kind == "scalar":
        if scalar_field is None:
            raise ConfigError("scalar kind needs the field to pair against m")
        if scalar_field.shape != g.shape:
            raise ConfigError(
                f"scalar field shape {scalar_field.shape} does not match grid {g.shape}"
            )
        f = scalar_field
    else:
        raise ConfigError(f"kernel kind must be 'vector' or 'scalar', got {kind!r}")

    if method == "direct":
        return _pair_direct(kind, f, dens.m, g)
    if method != "fft":
        raise ConfigError(f"method must be 'fft' or 'direct', got {method!r}")

    vec_hat, sca_hat = _kernel_tables_hat(g)
    if kind == "scalar":
        return _pair_fft(sca_hat, np.real(f), dens.m, g)
    return _pair_fft(vec_hat, dens.p, dens.m, g)


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
    forward transform, one built on values alone makes one. The views come
    from the audit's NormPass, which takes their norms, and are built one at
    a time: every figure of w, then w's view is dropped, then every figure
    of v, and last sup |grad v|, one partial derivative at a time. report()
    folds the pass's series and sup |grad v| into the time norms, the
    left-hand side and the right-hand side terms T1, T2 and T3: the three
    summands of the module docstring's inequality, in order. C* is
    measured, never asserted; ensemble stability is judged separately by
    c_star_spread. No audited figure depends on the nonlinearity power,
    since the defect field is not part of the audit. A solve can stream its
    snapshots straight into add, and stored_audit feeds a stored run's, so
    the audit holds no snapshot stack. The audit's dimension is the grid's,
    and a grid that is not 3D or 4D is a ConfigError.

    With both spectra given, a 4D snapshot takes 14 transforms and a 3D one
    10: d for sup |grad v|, one for |grad|^{-1/4} w in 4D, and for M(t) d
    for w's gradient and d + 1 real-input ones for the pairing; M(t) holds
    one component of grad w and of p at a time (_momentum_pairing). With
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
        # each figure's channel, the spatial norm taken at every snapshot and its time exponent
        specs = {
            "w_mass": ("w", NormSpec(inf, 2)),
            "w_hhalf": ("w", NormSpec(inf, 2, 0.5, "homogeneous")),
            "v_sup": ("v", NormSpec(2, inf)),
            "v_l4": ("v", NormSpec(4, 4)),
        }
        if dim == 3:
            specs["w_l4"] = ("w", NormSpec(4, 4))
            specs["w_l6"] = ("w", NormSpec(inf, 6))
            specs["v_l6"] = ("v", NormSpec(inf, 6))
        else:
            specs["w_g"] = ("w", NormSpec(4, 4, -0.25, "homogeneous"))
            specs["w_hhalf_inh"] = ("w", NormSpec(inf, 2, 0.5, "inhomogeneous"))
            specs["v_l6l3"] = ("v", NormSpec(6, 3))
        self._pass = NormPass(grid, specs)
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
        view = self._pass.view(w, w_hat)
        self._pass.take("w", view)
        m = 0.5 * view.modulus**2
        if self.interaction:
            self._inter.append(_momentum_pairing(view, m))
        self._loc.append(localization_ratio(m, self.grid))
        del m
        if self.dim == 4:
            self._gn.append(_gn_ratio(view))
        view = self._pass.view(v, v_hat)
        self._pass.take("v", view)
        self._dv.append(math.sqrt(_max_grad_sq(view)))
        self._times.append(float(t))

    def report(self) -> MorawetzReport:
        """Both sides of the inequality over the snapshots added so far."""
        times = np.array(self._times)
        norm = self._pass.norms(times)
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
    a directory without channels v and w, or on a grid that is not 3D or
    4D, is a ConfigError.
    """
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
    """max/median spread of C* across runs; stable when the ratio stays below 10.

    Accepts MorawetzReport instances or bare numbers. Degenerate runs with
    C* = 0 are excluded from the median so an all-linear ensemble does not
    divide by zero.
    """
    vals = np.asarray(
        [v.c_star if isinstance(v, MorawetzReport) else float(v) for v in values], dtype=float
    )
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


@dataclass(frozen=True)
class MainTermReport:
    """Both sides of the defect main-term identity at each sampled center y.

    lhs(y) = sum_x (x-y)/|x-y| . Re[(|u|^p u - |w|^p w) grad conj(w)] dx^d and
    rhs(y) = hardy(y) + cross(y) with
    hardy(y) = -(d-1)/(p+2) sum_x (|u|^{p+2} - |w|^{p+2}) / |x-y| dx^d,
    cross(y) = -sum_x (x-y)/|x-y| . Re[|u|^p u grad conj(v)] dx^d.
    max_rel normalizes by the largest constituent integral, so degenerate
    cancellations (w identically zero) still report the small quadrature error
    rather than 100 percent.
    """

    y_indices: tuple[tuple[int, ...], ...]
    lhs: np.ndarray
    hardy: np.ndarray
    cross: np.ndarray
    max_rel: float

    @property
    def rhs(self) -> np.ndarray:
        return self.hardy + self.cross


def _y_lattice_indices(
    grid: GridSpec,
    y_points,
    n_points: int,
    seed: int,
) -> list[tuple[int, ...]]:
    if y_points is None:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x4D59], dtype=np.uint64)))
        raw = rng.integers(0, grid.points, size=(n_points, grid.dim))
        return [tuple(int(j) for j in row) for row in raw]
    out = []
    for pt in y_points:
        pt = np.atleast_1d(np.asarray(pt, dtype=float))
        if pt.shape != (grid.dim,):
            raise ConfigError(f"sample point {pt} is not a {grid.dim}-vector")
        idx = np.rint((pt + grid.half_width) / grid.dx).astype(int) % grid.points
        out.append(tuple(int(j) for j in idx))
    return out


def identity_mor_mainterm(
    w: SpectralField,
    u: SpectralField,
    v: SpectralField,
    y_points=None,
    n_points: int = 8,
    seed: int = 0,
) -> MainTermReport:
    """Check the integration-by-parts identity behind the defect main term.

    At each center y both sides are evaluated by lattice quadrature with
    spectral gradients; the identity holds exactly in the continuum, so the
    residual is pure discretization error and must shrink under grid
    refinement. The power is the energy-critical 4/(d-2). y_points are
    physical coordinates snapped to the nearest lattice point; by default
    n_points centers are drawn from a seeded counter-based generator.
    """
    g = w.grid
    if u.grid != g or v.grid != g:
        raise ConfigError("w, u, v must live on the same grid")
    p = _critical_power(g.dim)
    coeff = (g.dim - 1) / (p + 2.0)

    wp = w.as_physical().values
    up = u.as_physical().values
    nl_u = np.abs(up) ** p * up
    nl_w = np.abs(wp) ** p * wp
    grad_w = np.stack(FrequencyView(g, wp).gradient())
    grad_v = np.stack(FrequencyView(g, v.as_physical().values).gradient())
    f_main = np.real((nl_u - nl_w)[None] * np.conj(grad_w))
    g_hardy = np.abs(up) ** (p + 2.0) - np.abs(wp) ** (p + 2.0)
    h_cross = np.real(nl_u[None] * np.conj(grad_v))

    vec, sca = _kernel_tables(g)
    centers = _y_lattice_indices(g, y_points, n_points, seed)
    axes = tuple(range(g.dim))
    dvol = g.cell_volume
    lhs = np.empty(len(centers))
    hardy = np.empty(len(centers))
    cross = np.empty(len(centers))
    for i, j in enumerate(centers):
        vec_y = np.roll(vec, shift=j, axis=tuple(a + 1 for a in axes))
        sca_y = np.roll(sca, shift=j, axis=axes)
        lhs[i] = float(np.sum(vec_y * f_main)) * dvol
        hardy[i] = -coeff * float(np.sum(sca_y * g_hardy)) * dvol
        cross[i] = -float(np.sum(vec_y * h_cross)) * dvol

    scale = max(np.abs(lhs).max(), np.abs(hardy).max(), np.abs(cross).max())
    if scale == 0.0:
        max_rel = 0.0
    else:
        max_rel = float(np.abs(lhs - hardy - cross).max() / scale)
    return MainTermReport(
        y_indices=tuple(centers),
        lhs=lhs,
        hardy=hardy,
        cross=cross,
        max_rel=max_rel,
    )


def _max_grad_sq(f: FrequencyView) -> float:
    """max over the lattice of |grad f|^2, one spectral partial derivative at a time.

    Each partial comes in the one buffer of FrequencyView.partials, and its
    re^2 + im^2 is summed into the total in axis order, so the result
    equals sum(c.real**2 + c.imag**2 for c in f.gradient()).max() bit for
    bit without holding d components.
    """
    total = np.zeros(f.grid.shape)
    sq = np.empty(f.grid.shape)
    for comp in f.partials():
        np.multiply(comp.real, comp.real, out=sq)
        np.multiply(comp.imag, comp.imag, out=comp.real)
        sq += comp.real
        total += sq
    return float(total.max())


def _gn_ratio(f: FrequencyView) -> float:
    """||f||_{L3}^3 / (||f||_{H(1/2)} || |grad|^{-1/4} f ||_{L4}^2); 0 when both sides vanish."""
    num = f.norm(3) ** 3
    den = f.norm(2, 0.5, "inhomogeneous") * f.norm(4, -0.25, "homogeneous") ** 2
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
