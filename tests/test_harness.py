"""Batch runner: validation, hashing, resume, determinism, sweeps, CLI."""

import filecmp
import json
import tracemalloc

import numpy as np
import pytest

from roughnls import (
    BlowupError,
    ConfigError,
    GridSpec,
    RepresentationError,
    ResourceLimitError,
    ResultRecord,
    config_hash,
    initial_field,
    load_trajectory,
    morawetz_audit,
    parse_config,
    run,
    save_trajectory,
    solve_w,
    summarize,
)
from roughnls import harness, solver
from roughnls.cli import _write_morawetz_outputs, main as cli_main
from roughnls.harness import InitialSpec, _set_axis

GRID = {"dim": 3, "points": 12, "half_width": float(np.pi)}
PART = {"a": 1, "n_max": 2, "s": -0.1}
FORCING = {"field_seed": 11, "decay": 2.0, "n0": 2.0, "amplitude": 0.2}
SOLVER = {"dt": 0.02, "t_final": 0.1}
INITIAL = {"kind": "bump", "amplitude": 0.3, "width": 1.5}


def evolve_config(out_dir, **over):
    cfg = {
        "kind": "evolve",
        "out_dir": str(out_dir),
        "n_samples": 2,
        "grid": dict(GRID),
        "partition": dict(PART),
        "forcing": dict(FORCING),
        "solver": dict(SOLVER),
        "initial": dict(INITIAL),
        "save_fields": False,
    }
    cfg.update(over)
    return cfg


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        parse_config({"kind": "evolve", "out_dir": "/tmp/x", "grud": {}})
    bad = evolve_config("/tmp/x")
    bad["solver"]["dtt"] = 1.0
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_kind_section_requirements():
    with pytest.raises(ConfigError):
        parse_config({"kind": "evolve", "out_dir": "/tmp/x", "grid": dict(GRID)})
    cfg = evolve_config("/tmp/x")
    cfg["ladder"] = {"amplitudes": [1.0, 0.5]}
    with pytest.raises(ConfigError):
        parse_config(cfg)
    cfg2 = evolve_config("/tmp/x")
    del cfg2["partition"]
    with pytest.raises(ConfigError):
        parse_config(cfg2)  # forcing needs partition


def test_config_hash_ignores_operational_keys():
    a = parse_config(evolve_config("/tmp/a", n_samples=2, workers=1))
    b = parse_config(evolve_config("/tmp/b", n_samples=50, workers=8, seed=0,
                                   memory_limit_mb=1024.0, notes="later"))
    assert a.hash == b.hash
    c = parse_config(evolve_config("/tmp/a", solver={"dt": 0.01, "t_final": 0.1}))
    assert c.hash != a.hash


def test_run_resume_skips_completed(tmp_path):
    cfg = parse_config(evolve_config(tmp_path))
    first = run(cfg)
    stamp = (tmp_path / "records.jsonl").read_text()
    again = run(cfg)
    assert (tmp_path / "records.jsonl").read_text() == stamp
    assert [r.metrics for r in again] == [r.metrics for r in first]
    # growing the ensemble reuses the finished seeds
    bigger = parse_config(evolve_config(tmp_path, n_samples=3))
    more = run(bigger)
    assert len(more) == 3
    assert [r.metrics for r in more[:2]] == [r.metrics for r in first]


def test_worker_count_does_not_change_metrics(tmp_path):
    r1 = run(parse_config(evolve_config(tmp_path / "w1", n_samples=3)))
    r2 = run(parse_config(evolve_config(tmp_path / "w2", n_samples=3)), workers=3)
    assert [r.metrics for r in r1] == [r.metrics for r in r2]


def test_summary_recomputable_from_records(tmp_path):
    cfg = parse_config(evolve_config(tmp_path, n_samples=3))
    recs = run(cfg)
    disk = json.load(open(tmp_path / "summary.json"))
    again = summarize(recs)
    assert disk["metrics"] == again["metrics"]
    assert disk["seeds"] == again["seeds"]


def test_records_survive_corrupt_tail(tmp_path):
    cfg = parse_config(evolve_config(tmp_path))
    run(cfg)
    with open(tmp_path / "records.jsonl", "a") as fh:
        fh.write('{"config_hash": "zz", "seed"')  # truncated line
    with pytest.warns(UserWarning):
        recs = run(cfg)
    assert len(recs) == 2


def test_zero_samples_valid(tmp_path):
    cfg = parse_config(evolve_config(tmp_path, n_samples=0))
    recs = run(cfg)
    assert recs == []
    assert json.load(open(tmp_path / "summary.json"))["n_records"] == 0


def test_unforced_evolve_builds_no_partition(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("unforced evolve must not build the partition")

    monkeypatch.setattr("roughnls.harness.build_partition", refuse)
    raw = evolve_config(tmp_path, n_samples=1)
    del raw["forcing"]
    recs = run(parse_config(raw))
    assert len(recs) == 1 and "r_mass" not in recs[0].metrics


@pytest.mark.parametrize("workers", [1, 3])
def test_failed_seed_keeps_finished_records(tmp_path, monkeypatch, workers):
    cfg = parse_config(evolve_config(tmp_path, n_samples=5))
    seeds = [cfg.seed + i for i in range(5)]
    evolve = harness._TASKS["evolve"]
    ran = []

    def task(config, part, task_seed, run_dir):
        ran.append(task_seed)
        if failing and task_seed == seeds[2]:
            raise RuntimeError("third seed fails")
        return evolve(config, part, task_seed, run_dir)

    monkeypatch.setitem(harness._TASKS, "evolve", task)
    failing = True
    with pytest.raises(RuntimeError):
        run(cfg, workers=workers)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert [ResultRecord.from_line(line).seed for line in lines] == seeds[:2]

    failing = False
    ran.clear()
    recs = run(cfg, workers=workers)
    assert sorted(ran) == seeds[2:]
    assert [r.seed for r in recs] == seeds


def _same_files(a, b):
    """Both directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


def test_streamed_evolve_writes_what_save_trajectory_writes(tmp_path):
    # The evolve task streams its snapshots into traj/ during the solve; the
    # files are those that saving the stacked trajectory makes, byte for byte.
    cfg = parse_config(evolve_config(tmp_path / "run", n_samples=1, save_fields=True))
    run(cfg)
    part = harness.build_partition(cfg.partition, cfg.grid)
    v0 = harness.forcing_field(cfg.grid, part, cfg.forcing, cfg.seed)
    w0 = initial_field(cfg.initial, cfg.grid)
    traj, _ = solve_w(w0, v0, cfg.solver)
    save_trajectory(traj, tmp_path / "saved")
    _same_files(tmp_path / "run" / "run_0000" / "traj", tmp_path / "saved")

    raw = evolve_config(tmp_path / "unforced", n_samples=1, save_fields=True)
    del raw["forcing"]
    unforced = parse_config(raw)
    run(unforced)
    full, _ = solver.evolve_full(initial_field(unforced.initial, unforced.grid), unforced.solver)
    save_trajectory(full, tmp_path / "saved_unforced")
    _same_files(tmp_path / "unforced" / "run_0000" / "traj", tmp_path / "saved_unforced")


def test_failed_forced_evolve_leaves_no_manifest(tmp_path, monkeypatch):
    # A seed that raises mid-solve has written some snapshot files but no
    # manifest.json; the rerun that resume makes completes the directory,
    # byte for byte as a clean run writes it.
    cfg = parse_config(evolve_config(tmp_path / "failed", n_samples=1, save_fields=True))
    guard = solver._guard
    calls = []

    def blow_up(abs_sq, threshold, t):
        calls.append(t)
        if len(calls) == 3:
            raise BlowupError(t=t, amplitude=1.0, threshold=0.5)
        guard(abs_sq, threshold, t)

    monkeypatch.setattr(solver, "_guard", blow_up)
    with pytest.raises(BlowupError):
        run(cfg)
    traj_dir = tmp_path / "failed" / "run_0000" / "traj"
    # the guard fires in the third step, after the snapshots at t = 0, dt, 2 dt
    written = {p.name for p in traj_dir.iterdir()}
    assert written == {f"{ch}_{k:06d}.rnls" for ch in "vw" for k in range(3)}
    assert not (tmp_path / "failed" / "records.jsonl").read_text()

    monkeypatch.setattr(solver, "_guard", guard)
    (rec,) = run(cfg)
    assert "run_0000/traj" in rec.artifacts
    clean = parse_config(evolve_config(tmp_path / "clean", n_samples=1, save_fields=True))
    run(clean)
    _same_files(traj_dir, tmp_path / "clean" / "run_0000" / "traj")
    assert load_trajectory(traj_dir).n_snapshots == cfg.solver.n_snapshots


def test_streamed_evolve_memory_does_not_grow_with_snapshots(tmp_path):
    # A streamed forced evolve task holds no snapshot stack: with 3 snapshots
    # or 21 its traced peak is the same to within one lattice field.
    def config(stride):
        solver_sec = {"dt": 1e-3, "t_final": 0.02, "snapshot_stride": stride, "series_stride": 5}
        return parse_config(evolve_config(
            tmp_path / f"s{stride}", n_samples=1, save_fields=True,
            grid={"dim": 3, "points": 16, "half_width": 2.25}, solver=solver_sec,
        ))

    few, many = config(10), config(1)
    assert (few.solver.n_snapshots, many.solver.n_snapshots) == (3, 21)
    part = harness.build_partition(few.partition, few.grid)
    task = harness._TASKS["evolve"]
    task(few, part, 1, tmp_path / "warm")  # first-call caches are not per-task memory
    peaks = []
    for cfg in (few, many):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            task(cfg, part, 1, tmp_path / f"run{cfg.solver.n_snapshots}")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    field = 16 * few.grid.n_points
    assert abs(peaks[1] - peaks[0]) < field, [p / field for p in peaks]
    # and the memory guard charges the streamed task no stack either
    assert harness._estimate_bytes(few) == harness._estimate_bytes(many)


def test_memory_guard_refuses(tmp_path):
    cfg = parse_config(evolve_config(
        tmp_path,
        grid={"dim": 3, "points": 64, "half_width": 3.14},
        memory_limit_mb=1,
    ))
    with pytest.raises(ResourceLimitError):
        run(cfg)
    assert not (tmp_path / "records.jsonl").exists()


def test_sweep_writes_long_table(tmp_path):
    cfg = parse_config(evolve_config(
        tmp_path,
        kind="sweep",
        sweep={"axis": "forcing.n0", "values": [1.0, 2.0], "kind": "evolve"},
    ))
    recs = run(cfg)
    assert len(recs) == 4  # 2 values x 2 seeds
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,seed,metric,value"
    summary = json.load(open(tmp_path / "sweep_summary.json"))
    assert set(summary["medians"]) == {"1", "2"}
    assert "nonincreasing_ratio_mass" in summary["flags"]


def test_sweep_unknown_axis_rejected(tmp_path):
    cfg = evolve_config(
        tmp_path,
        kind="sweep",
        sweep={"axis": "solver.dq", "values": [1.0], "kind": "evolve"},
    )
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_set_axis_preserves_integer_fields():
    raw = {"grid": {"points": 12}}
    _set_axis(raw, "grid.points", 24.0)
    assert raw["grid"]["points"] == 24 and isinstance(raw["grid"]["points"], int)
    raw2 = {"solver": {"dt": 0.01}}
    _set_axis(raw2, "solver.dt", 0.005)
    assert raw2["solver"]["dt"] == 0.005


def test_initial_field_shapes():
    g = GridSpec(3, 8, np.pi)
    z = initial_field(InitialSpec(kind="zero"), g)
    assert z.l2_norm() == 0.0
    b = initial_field(InitialSpec(kind="bump", amplitude=0.5, width=1.0, wave=(1, 0, 0)), g)
    assert np.abs(b.values).max() == pytest.approx(0.5, rel=1e-12)


def test_result_record_round_trip():
    rec = ResultRecord("abc", 7, {"x": 1.5, "flag": True}, 0.25, ("run_0007/series.csv",))
    back = ResultRecord.from_line(rec.to_line())
    assert back == rec


def test_cli_exit_codes(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(evolve_config(tmp_path / "out", n_samples=1)))
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "records.jsonl").exists()
    assert cli_main(["evolve", "--config", str(tmp_path / "missing.json")]) == 2
    bad = evolve_config(tmp_path / "out2", n_samples=1)
    bad["grid"]["oops"] = 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli_main(["evolve", "--config", str(bad_path)]) == 2
    small = evolve_config(tmp_path / "out3", n_samples=1, memory_limit_mb=1,
                          grid={"dim": 3, "points": 64, "half_width": 3.14})
    small_path = tmp_path / "small.json"
    small_path.write_text(json.dumps(small))
    assert cli_main(["evolve", "--config", str(small_path)]) == 4

    def drifting(*args):
        raise RepresentationError("channel bookkeeping drift")

    monkeypatch.setattr("roughnls.harness.solve_w", drifting)
    assert cli_main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "out4")]) == 5


def test_cli_partition_and_morawetz(tmp_path):
    part_cfg = {
        "kind": "partition-report",
        "out_dir": str(tmp_path / "part"),
        "n_samples": 0,
        "grid": dict(GRID),
        "partition": dict(PART),
    }
    p = tmp_path / "part.json"
    p.write_text(json.dumps(part_cfg))
    assert cli_main(["partition", "--config", str(p)]) == 0
    rep = json.load(open(tmp_path / "part" / "partition.json"))
    assert rep["kappa"] <= rep["kappa_bound"]

    ev = evolve_config(tmp_path / "ev", n_samples=1, save_fields=True)
    e = tmp_path / "ev.json"
    e.write_text(json.dumps(ev))
    assert cli_main(["evolve", "--config", str(e)]) == 0
    traj_dir = tmp_path / "ev" / "run_0000" / "traj"
    assert cli_main(["morawetz", "--traj", str(traj_dir), "--out", str(tmp_path / "mor")]) == 0
    rows = (tmp_path / "mor" / "interaction.csv").read_text().splitlines()
    assert rows[0] == "t,interaction,localization"
    doc = json.load(open(tmp_path / "mor" / "morawetz.json"))
    assert "c_star" in doc
    # the CLI streams the snapshots from the files; auditing the loaded
    # trajectory writes the same two files
    _write_morawetz_outputs(morawetz_audit(load_trajectory(traj_dir)), tmp_path / "loaded")
    for name in ("morawetz.json", "interaction.csv"):
        assert (tmp_path / "mor" / name).read_bytes() == (tmp_path / "loaded" / name).read_bytes()
