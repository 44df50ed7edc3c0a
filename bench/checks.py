"""Output checks for the benchmark workloads, computed apart from the program.

Each check reads what one CLI invocation left in its output directory and
either returns or raises CheckFailure. Values are recomputed here with plain
numpy and the standard library (the snapshot reader included), or tested
against a property the method must have, so a check never trusts the code it
is checking. Every workload runs the same fixed list of checks on every
invocation, so the number of operations per invocation never varies.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import struct
from pathlib import Path

import numpy as np

RNLS_HEADER = struct.Struct("<4sIIIddB")
RNLS_TAGS = {0: "u", 1: "v", 2: "w"}

# Free-flow snapshots are one FFT pair away from v(0): rounding is ~1e-15, and a
# perturbation of 1e-9 must still be caught.
V_EXACT_TOL = 1e-12
# The harness and this module sum the same squares in different orders.
MASS_TOL = 1e-10
# Closed-form identities between reported metrics (sums and quotients).
IDENTITY_TOL = 1e-12
# Acceptance criterion c10's bound on the ensemble spread of C* and of the GN ratio.
SPREAD_BOUND = 10.0


class CheckFailure(Exception):
    """An output that a correct run cannot produce."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def read_records(out: Path) -> list[dict]:
    """records.jsonl as a list of dicts, in file order."""
    lines = (out / "records.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def read_rnls(path: Path) -> tuple[np.ndarray, float, str, float]:
    """One .rnls snapshot: (values, t, channel, half_width), header validated."""
    raw = path.read_bytes()
    _require(len(raw) >= RNLS_HEADER.size, f"{path.name}: truncated header")
    magic, version, dim, points, half_width, t, tag = RNLS_HEADER.unpack_from(raw)
    _require(magic == b"RNLS", f"{path.name}: bad magic {magic!r}")
    _require(version == 1, f"{path.name}: version {version}")
    count = points**dim
    _require(len(raw) == RNLS_HEADER.size + 16 * count, f"{path.name}: payload is not {count} complex values")
    values = np.frombuffer(raw, dtype="<c16", offset=RNLS_HEADER.size).reshape((points,) * dim)
    return values, t, RNLS_TAGS.get(tag, "other"), half_width


def xi_squared(dim: int, points: int, half_width: float) -> np.ndarray:
    """|xi|^2 on the FFT lattice of [-L, L)^d with `points` samples per axis."""
    ax = 2.0 * math.pi * np.fft.fftfreq(points, d=2.0 * half_width / points)
    out = np.zeros((points,) * dim)
    for mesh in np.meshgrid(*([ax] * dim), indexing="ij", sparse=True):
        out = out + mesh**2
    return out


def check_records(out: Path, seeds: list[int], keys: tuple[str, ...]) -> list[dict]:
    """One record per seed, each with the given keys and only finite metrics."""
    recs = read_records(out)
    got = sorted(r["seed"] for r in recs)
    _require(got == sorted(seeds), f"records for seeds {got}, expected {sorted(seeds)}")
    for r in recs:
        m = r["metrics"]
        missing = [k for k in keys if k not in m]
        _require(not missing, f"seed {r['seed']}: missing metrics {missing}")
        bad = [k for k, v in m.items() if not (isinstance(v, (int, float)) and math.isfinite(v))]
        _require(not bad, f"seed {r['seed']}: non-finite metrics {bad}")
    return recs


# ---------------------------------------------------------------------------
# linear-stats


def _ls_records(out, cfg, seeds):
    return check_records(out, seeds, ("L2", "Y", "Z"))


def _ls_sums(out, cfg, seeds):
    for r in read_records(out):
        m = r["metrics"]
        for family in ("Y", "Z"):
            parts = [v for k, v in m.items() if k.startswith(family + ":")]
            _require(parts, f"seed {r['seed']}: no {family} components")
            err = _rel(m[family], math.fsum(parts))
            _require(err <= IDENTITY_TOL, f"seed {r['seed']}: {family} differs from its components by {err:.2e}")


def _ls_z_band(out, cfg, seeds):
    # The free flow is unitary and v has no content below n0/2, so for s < 0
    # <xi_max>^s ||v||_2 <= ||<grad>^s v||_{Linf L2} <= <n0/2>^s ||v||_2.
    g, s, n0 = cfg["grid"], cfg["partition"]["s"], cfg["forcing"]["n0"]
    xi_max = math.sqrt(float(xi_squared(g["dim"], g["points"], g["half_width"]).max()))
    bracket = lambda xi: (1.0 + xi * xi) ** (s / 2.0)
    lo_f, hi_f = sorted((bracket(xi_max), bracket(n0 / 2.0)))
    key = f"Z:<grad>^{s:g}_Linft_L2x[v]"
    for r in read_records(out):
        m = r["metrics"]
        _require(key in m, f"seed {r['seed']}: no {key}")
        lo, hi, val = lo_f * m["L2"], hi_f * m["L2"], m[key]
        _require(
            lo * (1 - IDENTITY_TOL) <= val <= hi * (1 + IDENTITY_TOL),
            f"seed {r['seed']}: {key} = {val:.6e} outside [{lo:.6e}, {hi:.6e}]",
        )


LINEAR_STATS_CHECKS = (("records", _ls_records), ("sums", _ls_sums), ("z_band", _ls_z_band))


# ---------------------------------------------------------------------------
# evolve (forced, one seed per invocation)


def _steps(solver: dict) -> int:
    return round(solver["t_final"] / solver["dt"])


def _ev_run_dir(out: Path, seeds: list[int]) -> Path:
    _require(len(seeds) == 1, "evolve checks expect one seed per invocation")
    return out / f"run_{seeds[0]:04d}"


def _ev_snapshots(out: Path, cfg: dict, seeds: list[int], channel: str) -> list[tuple[np.ndarray, float]]:
    g, sv = cfg["grid"], cfg["solver"]
    want = _steps(sv) // sv["snapshot_stride"] + 1
    files = sorted((_ev_run_dir(out, seeds) / "traj").glob(f"{channel}_*.rnls"))
    _require(len(files) == want, f"{len(files)} {channel} snapshots, expected {want}")
    snaps = []
    for k, path in enumerate(files):
        values, t, tag, half_width = read_rnls(path)
        _require(tag == channel, f"{path.name}: channel tag {tag!r}")
        _require(values.shape == (g["points"],) * g["dim"], f"{path.name}: shape {values.shape}")
        _require(half_width == g["half_width"], f"{path.name}: half width {half_width}")
        t_want = k * sv["snapshot_stride"] * sv["dt"]
        _require(abs(t - t_want) <= 1e-9, f"{path.name}: t = {t}, expected {t_want}")
        snaps.append((values, t))
    return snaps


def _read_series(out: Path, seeds: list[int]) -> list[dict]:
    with open(_ev_run_dir(out, seeds) / "series.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _ev_records(out, cfg, seeds):
    # r_mass and r_energy are required finite but not held to c08's 1e-2: at
    # 64^3 and dt 1e-3 they exceed it on some seeds (see bench/README.md).
    check_records(out, seeds, ("r_mass", "r_energy", "mass_drift", "energy_drift"))


def _ev_files(out, cfg, seeds):
    for channel in ("v", "w"):
        _ev_snapshots(out, cfg, seeds, channel)


def _ev_v_exact(out, cfg, seeds):
    g = cfg["grid"]
    snaps = _ev_snapshots(out, cfg, seeds, "v")
    v0hat = np.fft.fftn(snaps[0][0])
    xi2 = xi_squared(g["dim"], g["points"], g["half_width"])
    scale = float(np.abs(snaps[0][0]).max())
    _require(scale > 0, "v(0) is identically zero")
    for k, (values, t) in enumerate(snaps):
        ref = np.fft.ifftn(v0hat * np.exp(-1j * t * xi2))
        err = float(np.abs(values - ref).max()) / scale
        _require(err <= V_EXACT_TOL, f"v snapshot {k} (t={t:g}) off the free flow by {err:.2e}")


def _ev_w_mass(out, cfg, seeds):
    g = cfg["grid"]
    dvol = (2.0 * g["half_width"] / g["points"]) ** g["dim"]
    series = _read_series(out, seeds)
    for k, (values, t) in enumerate(_ev_snapshots(out, cfg, seeds, "w")):
        rows = [row for row in series if abs(row["t"] - t) <= 1e-9]
        _require(len(rows) == 1, f"series.csv has {len(rows)} rows at snapshot time {t:g}")
        mass = float(np.sum(np.abs(values) ** 2)) * dvol
        err = _rel(mass, rows[0]["M"])
        _require(err <= MASS_TOL, f"w snapshot {k}: mass {mass:.12e} vs series M {rows[0]['M']:.12e}")


def _ev_series_rows(out, cfg, seeds):
    sv = cfg["solver"]
    want = 1 + _steps(sv) // sv["series_stride"]
    got = len(_read_series(out, seeds))
    _require(got == want, f"series.csv has {got} rows, expected {want}")


EVOLVE_CHECKS = (
    ("records", _ev_records),
    ("snapshot_files", _ev_files),
    ("v_exact", _ev_v_exact),
    ("w_mass", _ev_w_mass),
    ("series_rows", _ev_series_rows),
)


# ---------------------------------------------------------------------------
# morawetz-audit (4D)


def _mo_records(out, cfg, seeds):
    check_records(out, seeds, ("lhs", "T1", "T2", "T3", "rhs", "c_star", "loc_min", "gn_max", "gn_median"))


def _mo_identities(out, cfg, seeds):
    for r in read_records(out):
        m = r["metrics"]
        err = _rel(m["rhs"], math.fsum((m["T1"], m["T2"], m["T3"])))
        _require(err <= IDENTITY_TOL, f"seed {r['seed']}: rhs differs from T1+T2+T3 by {err:.2e}")
        err = _rel(m["c_star"], m["lhs"] / m["rhs"])
        _require(err <= IDENTITY_TOL, f"seed {r['seed']}: c_star differs from lhs/rhs by {err:.2e}")


def _mo_spread(out, cfg, seeds):
    recs = read_records(out)
    c = [r["metrics"]["c_star"] for r in recs]
    ratio = max(c) / statistics.median(c)
    _require(ratio < SPREAD_BOUND, f"c_star max/median {ratio:.3f} >= {SPREAD_BOUND:g}")
    gn_max = max(r["metrics"]["gn_max"] for r in recs)
    ratio = gn_max / statistics.median(r["metrics"]["gn_median"] for r in recs)
    _require(ratio < SPREAD_BOUND, f"gn_max/gn_median {ratio:.3f} >= {SPREAD_BOUND:g}")


def _mo_localization(out, cfg, seeds):
    for r in read_records(out):
        val = r["metrics"]["loc_min"]
        _require(0.0 < val <= 1.0, f"seed {r['seed']}: loc_min {val} outside (0, 1]")


MORAWETZ_CHECKS = (
    ("records", _mo_records),
    ("identities", _mo_identities),
    ("spread", _mo_spread),
    ("localization", _mo_localization),
)


def run_checks(checks, out: Path, cfg: dict, seeds: list[int]) -> dict[str, str | None]:
    """Run every check; map its name to None when it passed, else the reason."""
    results: dict[str, str | None] = {}
    for name, fn in checks:
        try:
            fn(out, cfg, seeds)
            results[name] = None
        except CheckFailure as exc:
            results[name] = str(exc)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, statistics.StatisticsError) as exc:
            # a missing file or malformed output fails the check, not the benchmark
            results[name] = f"{type(exc).__name__}: {exc}"
    return results
