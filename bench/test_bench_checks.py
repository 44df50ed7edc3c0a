"""Each benchmark output check passes on consistent outputs and fails on a small defect.

The outputs are written here in the program's documented layout (records.jsonl,
series.csv, .rnls snapshots) on tiny grids, then broken one way at a time.
"""

import json
import math

import numpy as np
import pytest

from checks import (
    EVOLVE_CHECKS,
    LINEAR_STATS_CHECKS,
    MORAWETZ_CHECKS,
    RNLS_HEADER,
    run_checks,
    xi_squared,
)

SEEDS = [7000, 7001, 7002]


def _write_records(out, metrics_by_seed):
    out.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"seed": s, "metrics": m, "wall_clock": 0.1}) for s, m in metrics_by_seed.items()]
    (out / "records.jsonl").write_text("\n".join(lines) + "\n")


def _failed(results):
    return {name for name, why in results.items() if why is not None}


# ---------------------------------------------------------------------------
# evolve

EV_CFG = {
    "grid": {"dim": 3, "points": 8, "half_width": math.pi},
    "solver": {"dt": 1e-2, "t_final": 0.04, "snapshot_stride": 2, "series_stride": 1},
}


def _write_rnls(path, values, t, tag, half_width=math.pi, magic=b"RNLS"):
    dim, points = values.ndim, values.shape[0]
    header = RNLS_HEADER.pack(magic, 1, dim, points, half_width, t, tag)
    path.write_bytes(header + np.ascontiguousarray(values, dtype="<c16").tobytes())


def _evolve_output(out, seed=SEEDS[0]):
    g, sv = EV_CFG["grid"], EV_CFG["solver"]
    rng = np.random.default_rng(0)
    shape = (g["points"],) * g["dim"]
    v0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    xi2 = xi_squared(g["dim"], g["points"], g["half_width"])
    dvol = (2 * g["half_width"] / g["points"]) ** g["dim"]
    traj = out / f"run_{seed:04d}" / "traj"
    traj.mkdir(parents=True)
    n_steps = round(sv["t_final"] / sv["dt"])
    mass = {}
    for k in range(n_steps // sv["snapshot_stride"] + 1):
        t = k * sv["snapshot_stride"] * sv["dt"]
        v = np.fft.ifftn(np.fft.fftn(v0) * np.exp(-1j * t * xi2))
        w = (1 + k) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        _write_rnls(traj / f"v_{k:06d}.rnls", v, t, 1)
        _write_rnls(traj / f"w_{k:06d}.rnls", w, t, 2)
        mass[round(t, 9)] = float(np.sum(np.abs(w) ** 2)) * dvol
    rows = ["t,M,E,dMdt_fd,dMdt_id,rM,dEdt_fd,dEdt_id,rE"]
    for j in range(n_steps // sv["series_stride"] + 1):
        t = j * sv["series_stride"] * sv["dt"]
        rows.append(f"{t!r},{mass.get(round(t, 9), 1.0)!r},1.0,nan,0.0,nan,nan,0.0,nan")
    (traj.parent / "series.csv").write_text("\n".join(rows) + "\n")
    metrics = {"r_mass": 1e-4, "r_energy": 1e-3, "mass_drift": 1e-6, "energy_drift": 1e-5}
    _write_records(out, {seed: metrics})
    return traj


def _perturb_v(traj):
    path = traj / "v_000001.rnls"
    raw = bytearray(path.read_bytes())
    vals = np.frombuffer(bytes(raw[RNLS_HEADER.size:]), dtype="<c16").copy()
    vals[3] += 1e-9 * np.abs(vals).max()
    path.write_bytes(bytes(raw[: RNLS_HEADER.size]) + vals.tobytes())


def _drop_series_row(traj):
    series = traj.parent / "series.csv"
    lines = series.read_text().splitlines()
    series.write_text("\n".join(lines[:2] + lines[3:]) + "\n")  # t = 0.01, between snapshots


def _scale_w(traj):
    path = traj / "w_000002.rnls"
    raw = path.read_bytes()
    vals = np.frombuffer(raw[RNLS_HEADER.size:], dtype="<c16") * (1 + 1e-8)
    path.write_bytes(raw[: RNLS_HEADER.size] + vals.tobytes())


def _bad_magic(traj):
    path = traj / "w_000001.rnls"
    path.write_bytes(b"RNLX" + path.read_bytes()[4:])


def _drop_metric(traj):
    out = traj.parent.parent
    rec = json.loads((out / "records.jsonl").read_text())
    del rec["metrics"]["r_energy"]
    (out / "records.jsonl").write_text(json.dumps(rec) + "\n")


def test_evolve_checks_pass_on_consistent_output(tmp_path):
    _evolve_output(tmp_path)
    assert _failed(run_checks(EVOLVE_CHECKS, tmp_path, EV_CFG, SEEDS[:1])) == set()


@pytest.mark.parametrize(
    "breakage, check",
    [
        (_perturb_v, "v_exact"),
        (_drop_series_row, "series_rows"),
        (_scale_w, "w_mass"),
        (_bad_magic, "snapshot_files"),
        (_drop_metric, "records"),
    ],
)
def test_evolve_check_catches(tmp_path, breakage, check):
    breakage(_evolve_output(tmp_path))
    assert check in _failed(run_checks(EVOLVE_CHECKS, tmp_path, EV_CFG, SEEDS[:1]))


# ---------------------------------------------------------------------------
# linear-stats

LS_CFG = {
    "grid": {"dim": 3, "points": 32, "half_width": math.pi},
    "partition": {"s": -0.1},
    "forcing": {"n0": 4.0},
}
Z_KEY = "Z:<grad>^-0.1_Linft_L2x[v]"


def _ls_metrics(l2=0.08):
    y = [0.016, 0.018, 0.012, 0.013]
    z = [0.85 * l2, 0.2]
    m = {"L2": l2, "Y": math.fsum(y), "Z": math.fsum(z), Z_KEY: z[0], "Z:<grad>^1.39_Linft_Linfx[v]": z[1]}
    m.update({f"Y:part{i}": v for i, v in enumerate(y)})
    return m


def _ls_output(out, mutate=None):
    recs = {s: _ls_metrics() for s in SEEDS}
    if mutate is not None:
        mutate(recs)
    _write_records(out, recs)


def _bump_y(recs):
    recs[SEEDS[1]]["Y"] *= 1 + 1e-9


def _z_above_band(recs):
    m = recs[SEEDS[2]]
    m[Z_KEY] = 0.99 * m["L2"]  # <n0/2>^s = 5^-0.05 ~ 0.923 is the most the high-passed flow allows
    m["Z"] = m[Z_KEY] + m["Z:<grad>^1.39_Linft_Linfx[v]"]


def _drop_seed(recs):
    del recs[SEEDS[0]]


def test_linear_stats_checks_pass_on_consistent_output(tmp_path):
    _ls_output(tmp_path)
    assert _failed(run_checks(LINEAR_STATS_CHECKS, tmp_path, LS_CFG, SEEDS)) == set()


@pytest.mark.parametrize("mutate, check", [(_bump_y, "sums"), (_z_above_band, "z_band"), (_drop_seed, "records")])
def test_linear_stats_check_catches(tmp_path, mutate, check):
    _ls_output(tmp_path, mutate)
    assert _failed(run_checks(LINEAR_STATS_CHECKS, tmp_path, LS_CFG, SEEDS)) == {check}


# ---------------------------------------------------------------------------
# morawetz-audit


def _mo_metrics(lhs=5.5e-5, terms=(0.011, 0.00025, 0.025), loc_min=0.42, gn=(0.9, 0.83)):
    rhs = math.fsum(terms)
    return {
        "lhs": lhs,
        "T1": terms[0],
        "T2": terms[1],
        "T3": terms[2],
        "rhs": rhs,
        "c_star": lhs / rhs,
        "loc_min": loc_min,
        "gn_max": gn[0],
        "gn_median": gn[1],
    }


def _mo_output(out, mutate=None):
    recs = {s: _mo_metrics() for s in SEEDS}
    if mutate is not None:
        mutate(recs)
    _write_records(out, recs)


def _wrong_c_star(recs):
    recs[SEEDS[0]]["c_star"] *= 1 + 1e-9


def _c_star_outlier(recs):
    recs[SEEDS[1]] = _mo_metrics(lhs=20 * 5.5e-5)


def _loc_zero(recs):
    recs[SEEDS[2]]["loc_min"] = 0.0


def test_morawetz_checks_pass_on_consistent_output(tmp_path):
    _mo_output(tmp_path)
    assert _failed(run_checks(MORAWETZ_CHECKS, tmp_path, {}, SEEDS)) == set()


@pytest.mark.parametrize(
    "mutate, check", [(_wrong_c_star, "identities"), (_c_star_outlier, "spread"), (_loc_zero, "localization")]
)
def test_morawetz_check_catches(tmp_path, mutate, check):
    _mo_output(tmp_path, mutate)
    assert _failed(run_checks(MORAWETZ_CHECKS, tmp_path, {}, SEEDS)) == {check}
