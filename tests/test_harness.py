"""Batch runner: validation, hashing, resume, determinism, sweeps, CLI."""

import filecmp
import json
import os
import re
import signal
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import roughnls
from roughnls import (
    BlowupError,
    ConfigError,
    GridSpec,
    TrajectoryReader,
    build_partition,
    RepresentationError,
    ResourceLimitError,
    ResultRecord,
    initial_field,
    parse_config,
    run,
    stored_audit,
    summarize,
)
from roughnls import grids, harness, morawetz, solver
from roughnls.cli import main as cli_main
from roughnls.harness import ForcingSpec, InitialSpec, _set_axis

from conftest import kept_snapshots, traced_peak, write_trajectory

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


def test_evolve_refuses_a_partition_without_forcing():
    # An unforced evolve draws nothing, so a partition section would be
    # ignored and yet enter the config hash; it is refused like any other
    # section a kind does not use.
    raw = evolve_config("/tmp/x")
    del raw["forcing"]
    with pytest.raises(ConfigError, match="partition"):
        parse_config(raw)
    del raw["partition"]
    assert parse_config(raw).partition is None


def test_forced_evolve_with_too_few_series_samples_is_refused_before_any_seed(tmp_path):
    # Its increment residuals need 3 series samples; a run of one step has 2.
    # The config is refused before the solve: the CLI exits 2 and writes no
    # run directory, records or snapshot files. An unforced run needs none.
    raw = evolve_config(tmp_path / "out", n_samples=1, save_fields=True, solver={"dt": 0.02, "t_final": 0.02})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="n_series = 2"):
        parse_config(raw)
    del raw["forcing"], raw["partition"]
    assert parse_config(raw).solver.n_series == 2


def _config_using(section: str) -> dict:
    """A valid config whose kind reads the given section."""
    if section == "times":
        return {"kind": "linear-stats", "out_dir": "/tmp/x", "grid": dict(GRID), "partition": dict(PART),
                "forcing": dict(FORCING), "times": {"t_final": 0.3, "n_times": 4}}
    if section == "sweep":
        sweep = {"axis": "forcing.n0", "values": [1.0], "kind": "evolve"}
        return evolve_config("/tmp/x", kind="sweep", sweep=sweep)
    return evolve_config("/tmp/x", kind="twin-ladder", ladder={"amplitudes": [1.0, 0.5]})


SCHEMA_KEYS = [(where, key) for where, keys in harness._SCHEMA.items() for key in keys]


@pytest.mark.parametrize("where, key", SCHEMA_KEYS)
def test_every_schema_key_is_type_checked(where, key):
    cfg = _config_using(where)
    parse_config(cfg)
    (cfg if where == "config" else cfg[where])[key] = [{}]  # no config type admits it
    with pytest.raises(ConfigError, match=f"^{where}.{key} must be "):
        parse_config(cfg)


@pytest.mark.parametrize("where, key", [
    (where, key) for where, key in SCHEMA_KEYS if harness._SCHEMA[where][key][1] is harness._REQ
])
def test_every_required_schema_key_is_demanded(where, key):
    cfg = _config_using(where)
    del (cfg if where == "config" else cfg[where])[key]
    with pytest.raises(ConfigError, match=f"^{where}.{key} is required$"):
        parse_config(cfg)


@pytest.mark.parametrize("section, spec, kwargs", [
    ("forcing", ForcingSpec, dict(FORCING, n0=0.0)),
    ("forcing", ForcingSpec, dict(FORCING, amplitude=-0.2)),
    ("initial", InitialSpec, dict(INITIAL, kind="ring")),
    ("initial", InitialSpec, dict(INITIAL, width=0.0)),
])
def test_specs_check_their_own_invariants(section, spec, kwargs):
    with pytest.raises(ConfigError):
        spec(**kwargs)
    with pytest.raises(ConfigError, match=f"^{section}: "):
        parse_config(evolve_config("/tmp/x", **{section: kwargs}))


def test_readme_names_every_config_key():
    # every key of the schema appears in its section's bullet under "Config
    # schema", and every top-level key in the operational-keys paragraph
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    doc = readme.split("\n## Config schema\n")[1].split("\n## ")[0]
    bullets = doc.split("Sections:\n\n")[1].split("\n\n")[0]
    by_section = {b.split("`")[1]: b for b in re.split(r"^- ", bullets, flags=re.M) if b}
    operational = next(par for par in doc.split("\n\n") if par.startswith("Operational keys"))
    missing = []
    for where, keys in harness._SCHEMA.items():
        # `kind` is documented by the table of kinds above the sections
        keys = [k for k in keys if k not in harness._SCHEMA and k != "kind"] if where == "config" else keys
        text = operational if where == "config" else by_section.get(where, "")
        missing += [f"{where}.{k}" for k in keys if not re.search(f'[`"]{k}[`"]', text)]
    assert not missing, f"config keys the README does not document: {missing}"


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
    r2 = run(parse_config(evolve_config(tmp_path / "w2", n_samples=3, workers=3)))
    assert [r.metrics for r in r1] == [r.metrics for r in r2]


def test_seed_threads_share_the_slab_pool(tmp_path, monkeypatch):
    # 0.7 s. Two 64^3 seeds on two seed threads split their transforms and
    # rotations on the one slab pool, and give the metrics of one thread.
    monkeypatch.setattr(grids, "_CPUS", max(grids._CPUS, 2))
    base = evolve_config(tmp_path, grid=dict(GRID, points=64), solver={"dt": 1e-3, "t_final": 2e-3})
    r1 = run(parse_config(dict(base, out_dir=str(tmp_path / "w1"), workers=1)))
    r2 = run(parse_config(dict(base, out_dir=str(tmp_path / "w2"), workers=2)))
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


def test_record_after_torn_line_survives(tmp_path, monkeypatch):
    # A run killed mid-write leaves a torn last line; the resumed seed's
    # record must land on a line of its own, not be fused into the torn one.
    cfg = parse_config(evolve_config(tmp_path, n_samples=3))
    run(cfg)
    path = tmp_path / "records.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    with pytest.warns(UserWarning):
        recs = run(cfg)
    assert len(recs) == 3
    valid = [ResultRecord.from_line(line) for line in path.read_text().splitlines()]
    assert sorted(r.seed for r in valid) == [r.seed for r in recs]
    assert json.load(open(tmp_path / "summary.json"))["n_records"] == 3

    def refuse(*args):
        raise AssertionError("a second resume must run nothing")

    monkeypatch.setitem(harness._TASKS, "evolve", refuse)
    assert run(cfg) == recs


def test_failed_summary_write_keeps_the_old_summary(tmp_path, monkeypatch):
    # summary.json is written to a temporary name and moved over the old one;
    # a resumed run whose move fails leaves the earlier summary whole and no
    # temporary file behind. The new seed's series.csv is moved into place as usual.
    run(parse_config(evolve_config(tmp_path, n_samples=1)))
    before = (tmp_path / "summary.json").read_text()
    replace_file = os.replace

    def refuse(src, dst):
        if Path(dst).name == "summary.json":
            raise OSError(f"cannot replace {dst}")
        replace_file(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="summary.json"):
        run(parse_config(evolve_config(tmp_path, n_samples=2)))
    assert (tmp_path / "summary.json").read_text() == before
    assert json.loads(before)["n_records"] == 1
    assert not list(tmp_path.glob("*.tmp"))
    assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 2


def test_records_do_not_depend_on_blas_threads(tmp_path):
    # One process per OPENBLAS_NUM_THREADS value runs a 12^3 linear-stats, a
    # 12^3 forced evolve and an 8^4 morawetz-audit config; their records are
    # equal apart from wall_clock.
    lin = {"kind": "linear-stats", "n_samples": 2, "grid": dict(GRID), "partition": dict(PART),
           "forcing": dict(FORCING), "times": {"t_final": 0.3, "n_times": 4}}
    evo = {k: v for k, v in evolve_config("").items() if k != "out_dir"}
    mor = dict(evo, kind="morawetz-audit", grid={"dim": 4, "points": 8, "half_width": float(np.pi)},
               partition=dict(PART, n_max=1))
    script = (
        "import json, sys\n"
        "from roughnls import parse_config, run\n"
        "for raw in json.loads(sys.argv[1]):\n"
        "    run(parse_config(raw))\n"
    )
    src = str(Path(roughnls.__file__).parents[1])
    records = []
    for threads in ("1", "2"):
        raws = [dict(c, out_dir=str(tmp_path / threads / c["kind"])) for c in (lin, evo, mor)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", script, json.dumps(raws)], env=env, check=True)
        lines = [line for raw in raws for line in (Path(raw["out_dir"]) / "records.jsonl").read_text().splitlines()]
        records.append([{k: v for k, v in json.loads(line).items() if k != "wall_clock"} for line in lines])
    assert len(records[0]) == 6
    assert records[0] == records[1]


def test_resume_after_a_killed_seed_matches_a_clean_run(tmp_path):
    # The child process SIGKILLs itself as seed 2 of 4 starts; a fresh process
    # resumes the batch, and every output file then matches a clean run's,
    # wall_clock aside.
    lin = {"kind": "linear-stats", "n_samples": 4, "workers": 1, "grid": dict(GRID), "partition": dict(PART),
           "forcing": dict(FORCING), "times": {"t_final": 0.3, "n_times": 4}}
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps(lin))
    child = (
        "import os, signal, sys\n"
        "from roughnls import harness\n"
        "from roughnls.cli import main\n"
        "task = harness._TASKS['linear-stats']\n"
        "def dying(config, part, task_seed, run_dir):\n"
        "    if task_seed == 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return task(config, part, task_seed, run_dir)\n"
        "harness._TASKS['linear-stats'] = dying\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(roughnls.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    killed, clean = tmp_path / "killed", tmp_path / "clean"

    def cli(program, out):
        args = [sys.executable, *program, "linear-stats", "--config", str(cfg_path), "--out", str(out)]
        return subprocess.run(args, env=env, timeout=120).returncode

    assert cli(("-c", child), killed) == -signal.SIGKILL
    assert len((killed / "records.jsonl").read_text().splitlines()) == 2
    assert cli(("-m", "roughnls.cli"), killed) == 0
    assert cli(("-m", "roughnls.cli"), clean) == 0

    def records(out):
        lines = (out / "records.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "wall_clock"} for line in lines]

    assert [r["seed"] for r in records(killed)] == [0, 1, 2, 3]
    assert records(killed) == records(clean)
    names = sorted(path.name for path in clean.iterdir())
    assert sorted(path.name for path in killed.iterdir()) == names
    assert {"summary.json", "metrics.csv", "norms.csv", "tail.json"} <= set(names)
    for name in set(names) - {"records.jsonl"}:
        assert (killed / name).read_bytes() == (clean / name).read_bytes(), name


def test_failed_tail_write_keeps_the_old_tail(tmp_path, monkeypatch):
    # tail.json is moved over the old one once whole: a re-run whose move
    # fails leaves the earlier report intact and no temporary file behind.
    lin = {"kind": "linear-stats", "out_dir": str(tmp_path / "lin"), "n_samples": 3, "grid": dict(GRID),
           "partition": dict(PART), "forcing": dict(FORCING), "times": {"t_final": 0.3, "n_times": 4}}
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps(lin))
    assert cli_main(["linear-stats", "--config", str(cfg_path)]) == 0
    tail = tmp_path / "lin" / "tail.json"
    before = tail.read_text()
    replace_file = os.replace

    def refuse(src, dst):
        if Path(dst).name == "tail.json":
            raise OSError(f"cannot replace {dst}")
        replace_file(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="tail.json"):
        cli_main(["linear-stats", "--config", str(cfg_path), "--samples", "4"])
    assert tail.read_text() == before
    assert json.loads(before)["n_samples"] == 3
    assert not list((tmp_path / "lin").glob("*.tmp"))


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
    del raw["forcing"], raw["partition"]
    recs = run(parse_config(raw))
    assert len(recs) == 1 and "r_mass" not in recs[0].metrics


@pytest.mark.parametrize("workers", [1, 3])
def test_failed_seed_keeps_finished_records(tmp_path, monkeypatch, workers):
    cfg = parse_config(evolve_config(tmp_path, n_samples=5, workers=workers))
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
        run(cfg)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert [ResultRecord.from_line(line).seed for line in lines] == seeds[:2]

    failing = False
    ran.clear()
    recs = run(cfg)
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
    # files are those that writing the same solve's kept snapshot values
    # after it makes, byte for byte. A forced run's manifest also records
    # its forcing cutoff.
    def saved(cfg, w0, v0, out):
        snapshots, _ = kept_snapshots(w0, v0, cfg.solver)
        kept = lambda i: [snap[i] for snap in snapshots]
        # the harness writes an unforced run's field as channel 'u'
        channels = {"u": kept(1)} if v0 is None else {"v": kept(2), "w": kept(1)}
        meta = cfg.solver.provenance()
        if v0 is not None:
            meta["n0"] = cfg.forcing.n0
        return write_trajectory(out, cfg.grid, kept(0), channels, meta)

    cfg = parse_config(evolve_config(tmp_path / "run", n_samples=1, save_fields=True))
    run(cfg)
    part = harness.build_partition(cfg.partition, cfg.grid)
    v0 = harness.forcing_field(cfg.grid, part, cfg.forcing, cfg.seed)
    w0 = initial_field(cfg.initial, cfg.grid)
    _same_files(tmp_path / "run" / "run_0000" / "traj", saved(cfg, w0, v0, tmp_path / "saved"))

    raw = evolve_config(tmp_path / "unforced", n_samples=1, save_fields=True)
    del raw["forcing"], raw["partition"]
    unforced = parse_config(raw)
    run(unforced)
    w0 = initial_field(unforced.initial, unforced.grid)
    _same_files(tmp_path / "unforced" / "run_0000" / "traj", saved(unforced, w0, None, tmp_path / "saved_unforced"))


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
    assert TrajectoryReader(traj_dir).times.size == cfg.solver.n_snapshots


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
        peaks.append(traced_peak(lambda: task(cfg, part, 1, tmp_path / f"run{cfg.solver.n_snapshots}"))[1])
    field = 16 * few.grid.n_points
    assert abs(peaks[1] - peaks[0]) < field, [p / field for p in peaks]
    # and the memory guard charges the streamed task no stack either
    assert harness._estimate_bytes(few) == harness._estimate_bytes(many)


def _count_fft(monkeypatch) -> dict:
    """Count np.fft.fftn and np.fft.ifftn calls from here on."""
    calls = {"fftn": 0, "ifftn": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    return calls


def linear_stats_config(out_dir, points=12, n_times=4):
    return parse_config({
        "kind": "linear-stats",
        "out_dir": str(out_dir),
        "n_samples": 1,
        "grid": dict(GRID, points=points),
        "partition": dict(PART),
        "forcing": dict(FORCING),
        "times": {"t_final": 0.3, "n_times": n_times},
    })


def test_forcing_field_reads_the_profile_spectrum(tmp_path, monkeypatch):
    # v(0) is the old physical round trip's to rounding: shaped noise made
    # physical, drawn, transformed back and high-passed. The draw reads the
    # unscaled noise spectrum, so every seed's v(0), a run's first included,
    # is one inverse transform. The forcing spec is this test's own, so no
    # other test has warmed a cache for it.
    cfg = parse_config(evolve_config(tmp_path, forcing=dict(FORCING, field_seed=23)))
    grid, forcing = cfg.grid, cfg.forcing
    part = harness.build_partition(cfg.partition, grid)
    noise = harness._shaped_noise(grid, forcing.field_seed, forcing.decay).as_physical()
    hp = harness.high_pass(harness.draw(noise, part, 5).field, forcing.n0).as_physical().values
    want = forcing.amplitude / np.abs(hp).max() * hp
    calls = _count_fft(monkeypatch)
    harness.forcing_field(grid, part, forcing, 4)
    assert calls == {"fftn": 0, "ifftn": 1}
    got = harness.forcing_field(grid, part, forcing, 5).values
    assert calls == {"fftn": 0, "ifftn": 2}
    assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()


def test_profile_spectrum_is_shared_and_read_only(tmp_path):
    cfg = linear_stats_config(tmp_path)
    f = harness._profile_spectrum(cfg.grid, cfg.forcing)
    assert f is harness._profile_spectrum(cfg.grid, cfg.forcing)
    assert f.rep == "frequency" and not f.values.flags.writeable
    sup = np.abs(f.as_physical().values).max()
    assert sup == pytest.approx(cfg.forcing.amplitude, rel=1e-12)
    fc = cfg.forcing
    assert np.array_equal(harness.shaped_profile(cfg.grid, fc.field_seed, fc.decay, fc.amplitude).values, f.values)


def test_linear_stats_seed_makes_no_forward_transform(tmp_path, monkeypatch):
    # At 4 times: one inverse transform per snapshot for the stack and one per
    # derivative symbol read outside L2 (Y3's and Z3's L^inf components),
    # 12 in all, and no forward transform once the profile spectrum exists.
    cfg = linear_stats_config(tmp_path)
    part = harness.build_partition(cfg.partition, cfg.grid)
    task = harness._TASKS["linear-stats"]
    task(cfg, part, 1, tmp_path / "warm")
    calls = _count_fft(monkeypatch)
    task(cfg, part, 2, tmp_path / "run")
    assert calls == {"fftn": 0, "ifftn": 12}


def _traced_peak(cfg, part, run_dir) -> int:
    """Traced peak of one seed of cfg's task, its caches warmed by an earlier seed."""
    task = harness._TASKS[cfg.kind]
    task(cfg, part, 1, run_dir / "warm")
    return traced_peak(lambda: task(cfg, part, 2, run_dir / "run"))[1]


def _charge(cfg) -> int:
    """The memory guard's charge for one task of cfg."""
    return harness._estimate_bytes(replace(cfg, workers=2)) - harness._estimate_bytes(cfg)


def test_linear_stats_seed_peaks_within_its_charge(tmp_path):
    # One 32^3 seed's traced peak stays under the guard's per-task charge,
    # and the charge is no more than twice the peak.
    cfg = linear_stats_config(tmp_path, points=32)
    part = harness.build_partition(cfg.partition, cfg.grid)
    peak, charge = _traced_peak(cfg, part, tmp_path), _charge(cfg)
    assert charge / 2 <= peak < charge, (peak / (16 * cfg.grid.n_points), charge / (16 * cfg.grid.n_points))


def morawetz_config(out_dir, dim, points, save_fields):
    part = dict(PART, n_max=1) if dim == 4 else dict(PART)
    return parse_config(evolve_config(out_dir, kind="morawetz-audit", n_samples=1, save_fields=save_fields,
                                      grid={"dim": dim, "points": points, "half_width": float(np.pi)},
                                      partition=part))


@pytest.mark.parametrize("save_fields", [False, True])
@pytest.mark.parametrize("dim,points", [(3, 16), (4, 8)])
def test_morawetz_seed_peaks_within_its_charge(tmp_path, dim, points, save_fields):
    # One audited seed's traced peak stays under the guard's per-task charge,
    # and the charge is no more than twice the peak; M(t) and its kernel
    # tables are charged only when save_fields writes interaction.csv.
    cfg = morawetz_config(tmp_path, dim, points, save_fields)
    part = harness.build_partition(cfg.partition, cfg.grid)
    peak, charge = _traced_peak(cfg, part, tmp_path), _charge(cfg)
    assert charge / 2 <= peak < charge, (peak / (16 * cfg.grid.n_points), charge / (16 * cfg.grid.n_points))


def test_forced_seed_leaves_no_lattice_array_behind(tmp_path):
    # A forced seed's draw (its profile spectrum, the transform weight and the
    # high-pass symbol) lives only while v(0) is made. A first seed on another
    # 12^3 grid warms what is not per grid; then on a grid no other test
    # uses, so no per-grid cache is warm, one audited seed leaves less than
    # one complex field traced, the caches the step loop reads (|xi|^2 half a
    # field, the dealiasing mask) included. About 0.1 s.
    def config(half_width):
        return parse_config(evolve_config(tmp_path, kind="morawetz-audit", n_samples=1,
                                          grid=dict(GRID, half_width=half_width)))

    task = harness._TASKS["morawetz-audit"]
    warm, fresh = config(GRID["half_width"]), config(2.85)
    task(warm, harness.build_partition(warm.partition, warm.grid), 1, tmp_path / "warm")
    part = harness.build_partition(fresh.partition, fresh.grid)
    retained = traced_peak(lambda: task(fresh, part, 1, tmp_path / "run"))[2]
    assert retained < 16 * fresh.grid.n_points, retained / (16 * fresh.grid.n_points)


@pytest.mark.parametrize("dim,points", [(3, 12), (4, 8)])
def test_morawetz_metrics_do_not_depend_on_save_fields(tmp_path, monkeypatch, dim, points):
    # M(t) is computed only for the interaction.csv that save_fields writes;
    # every metric is the same bit for bit without it, and a run without it
    # never builds the kernel tables.
    with_fields = run(morawetz_config(tmp_path / "saved", dim, points, True))

    def unbuilt(grid):
        raise AssertionError("kernel tables built for an audit that writes no interaction.csv")

    monkeypatch.setattr(morawetz, "_kernel_tables_hat", unbuilt)
    without = run(morawetz_config(tmp_path / "bare", dim, points, False))
    assert [r.metrics for r in without] == [r.metrics for r in with_fields]
    assert [tuple(r.artifacts) for r in without] == [()]
    assert tuple(with_fields[0].artifacts) == ("run_0000/morawetz.json", "run_0000/interaction.csv")


def test_linear_stats_seed_peak_does_not_grow_with_times(tmp_path):
    # A seed holds v-hat(0) and one snapshot at a time, not a stack: at 4
    # times or 16 its traced peak is the same to within one lattice field,
    # and so is its charge.
    few, many = (linear_stats_config(tmp_path / f"t{n}", points=32, n_times=n) for n in (4, 16))
    part = harness.build_partition(few.partition, few.grid)
    peaks = [_traced_peak(cfg, part, tmp_path / f"t{cfg.times.size}") for cfg in (few, many)]
    field = 16 * few.grid.n_points
    assert abs(peaks[1] - peaks[0]) < field, [p / field for p in peaks]
    assert _charge(few) == _charge(many)


def test_twin_ladder_holds_one_stack(tmp_path):
    # The twin-ladder task keeps the unforced twin's w_hat stack and streams each
    # rung into its H^1 gap: with 3 snapshots or 21 its traced peak lies in
    # [charge / 2, charge), and grows by about one field per added snapshot.
    def config(stride):
        solver_sec = {"dt": 1e-3, "t_final": 0.02, "snapshot_stride": stride, "series_stride": 5}
        return parse_config(evolve_config(
            tmp_path / f"s{stride}", kind="twin-ladder", n_samples=1, solver=solver_sec,
            grid={"dim": 3, "points": 16, "half_width": 2.25}, ladder={"amplitudes": [1.0, 0.5, 0.25]},
        ))

    few, many = config(10), config(1)
    added = many.solver.n_snapshots - few.solver.n_snapshots
    assert added == 18
    part = harness.build_partition(few.partition, few.grid)
    field = 16 * few.grid.n_points
    peaks = []
    for cfg in (few, many):
        peak, charge = _traced_peak(cfg, part, tmp_path / f"run{cfg.solver.n_snapshots}"), _charge(cfg)
        assert charge / 2 <= peak < charge, (peak / field, charge / field)
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= (added + 0.5) * field, (peaks[1] - peaks[0]) / field


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


def test_sweep_of_evolve_saves_fields_by_default(tmp_path):
    # save_fields defaults from the swept kind: an evolve sweep with no
    # save_fields key writes traj/ under every value's run directory, as an
    # evolve run does.
    raw = evolve_config(
        tmp_path, kind="sweep", n_samples=1,
        sweep={"axis": "forcing.n0", "values": [1.0, 2.0], "kind": "evolve"},
    )
    del raw["save_fields"]
    cfg = parse_config(raw)
    assert cfg.save_fields
    run(cfg)
    n_snapshots = parse_config(evolve_config(tmp_path)).solver.n_snapshots
    for value in ("1", "2"):
        traj = TrajectoryReader(tmp_path / f"forcing-n0_{value}" / "run_0000" / "traj")
        assert list(traj.files) == ["v", "w"] and traj.times.size == n_snapshots


def test_sweep_unknown_axis_rejected(tmp_path):
    cfg = evolve_config(
        tmp_path,
        kind="sweep",
        sweep={"axis": "solver.dq", "values": [1.0], "kind": "evolve"},
    )
    with pytest.raises(ConfigError):
        parse_config(cfg)


@pytest.mark.parametrize("kind, axis, values, code", [
    # 0.1 is no whole number of steps of 0.03
    pytest.param("evolve", "solver.dt", [0.02, 0.03], 2, id="solver.dt-values0-2"),
    # 64^3 is over the 20 MB limit
    pytest.param("evolve", "grid.points", [12, 64], 4, id="grid.points-values1-4"),
    # both would run into forcing-n0_2/
    pytest.param("evolve", "forcing.n0", [2.0000001, 2.0000002], 2, id="forcing.n0-values2-2"),
    # a linear-stats cutoff must be dyadic; rung 2 would run in full before it
    pytest.param("linear-stats", "forcing.n0", [2, 3], 2, id="linear-stats-forcing.n0-values3-2"),
])
def test_cli_sweep_refuses_a_bad_later_value_before_running(tmp_path, kind, axis, values, code):
    raw = evolve_config(tmp_path / "unused", kind="sweep", n_samples=1, memory_limit_mb=20,
                        sweep={"axis": axis, "values": values, "kind": kind})
    if kind == "linear-stats":
        del raw["solver"], raw["initial"]
        raw["times"] = {"t_final": 0.3, "n_times": 4}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert not (tmp_path / "out").exists()


def test_sweep_values_sharing_a_rung_name_are_refused(tmp_path):
    # A rung's directory and medians key are named by f"{value:g}"; values
    # that differ only past 6 significant digits are refused, naming both,
    # while close values with distinct names still make one rung each.
    raw = evolve_config(tmp_path, kind="sweep", sweep={"axis": "forcing.n0", "values": [2.0000001, 2.0000002],
                                                        "kind": "evolve"})
    with pytest.raises(ConfigError, match=r"2\.0000001 and 2\.0000002 share the rung name '2'"):
        parse_config(raw)
    raw["sweep"]["values"] = [2.0, 2.00001]
    cfg = parse_config(raw)
    assert [Path(rung.out_dir).name for _, rung in cfg.rungs] == ["forcing-n0_2", "forcing-n0_2.00001"]


def test_sweep_rungs_are_parsed_configs(tmp_path):
    cfg = parse_config(evolve_config(
        tmp_path, kind="sweep", sweep={"axis": "grid.points", "values": [12, 16.0], "kind": "evolve"}))
    assert [value for value, _ in cfg.rungs] == [12, 16.0]
    assert [rung.grid.points for _, rung in cfg.rungs] == [12, 16]
    assert [rung.out_dir for _, rung in cfg.rungs] == [str(tmp_path / "grid-points_12"),
                                                      str(tmp_path / "grid-points_16")]
    assert all(rung.kind == "evolve" and rung.n_samples == cfg.n_samples for _, rung in cfg.rungs)


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

    def blowing_up(*args):
        raise BlowupError(t=0.05, amplitude=1.0, threshold=0.5)

    monkeypatch.setattr("roughnls.harness.solve_w", blowing_up)
    assert cli_main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "out5")]) == 3

    # a trajectory directory whose manifest is unreadable or names a missing file
    traj = tmp_path / "traj"
    shape = (2, 4, 4, 4)
    write_trajectory(traj, GridSpec(3, 4, np.pi), [0.0, 0.1], {
        "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
    assert cli_main(["morawetz", "--traj", str(traj), "--out", str(tmp_path / "mor")]) == 0
    manifest = json.loads((traj / "manifest.json").read_text())
    (traj / manifest["channels"]["w"][1]).unlink()
    assert cli_main(["morawetz", "--traj", str(traj)]) == 2
    (traj / "manifest.json").write_text("{not json")
    assert cli_main(["morawetz", "--traj", str(traj)]) == 2
    del manifest["times"]
    (traj / "manifest.json").write_text(json.dumps(manifest))
    assert cli_main(["morawetz", "--traj", str(traj)]) == 2

    # a snapshot file whose header claims 7 points per axis, which no grid has
    bad = write_trajectory(tmp_path / "bad", GridSpec(3, 4, np.pi), [0.0, 0.1], {
        "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
    snap = bad / manifest["channels"]["w"][1]
    header = bytearray(snap.read_bytes())
    struct.pack_into("<I", header, 12, 7)  # magic, version and dim come first
    snap.write_bytes(bytes(header))
    assert cli_main(["morawetz", "--traj", str(bad)]) == 2


def test_cli_rejects_worker_counts_below_one(tmp_path, monkeypatch, capsys):
    # the flag and the environment variable are held to config.workers' rule
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(evolve_config(tmp_path / "out", n_samples=1)))
    args = ["evolve", "--config", str(cfg_path)]
    assert cli_main(args + ["--workers", "0"]) == 2
    for env in ("0", "-3", "abc"):
        monkeypatch.setenv(harness.ENV_WORKERS, env)
        assert cli_main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "config error: workers must be at least 1, got 0",
        "config error: ROUGH_NLS_WORKERS must be at least 1, got 0",
        "config error: ROUGH_NLS_WORKERS must be at least 1, got -3",
        "config error: ROUGH_NLS_WORKERS='abc' is not an integer",
    ]
    assert not (tmp_path / "out").exists()


def test_cli_worker_count_reaches_the_memory_guard(tmp_path, monkeypatch):
    # The guard charges the worker count the run starts, wherever it comes
    # from: a 1.71 MiB limit admits this config's one worker and refuses
    # eight from the flag or from the environment variable.
    lin = {
        "kind": "linear-stats",
        "out_dir": str(tmp_path / "lin"),
        "workers": 1,
        "memory_limit_mb": 1.71,
        "grid": dict(GRID),
        "partition": dict(PART),
        "forcing": dict(FORCING),
        "times": {"t_final": 0.3, "n_times": 4},
    }
    one = parse_config(lin)
    assert harness._estimate_bytes(one) < 1.71 * 2**20 < harness._estimate_bytes(replace(one, workers=8))
    lin_path = tmp_path / "lin.json"
    lin_path.write_text(json.dumps(lin))
    args = ["linear-stats", "--config", str(lin_path)]
    assert cli_main(args + ["--workers", "8"]) == 4
    monkeypatch.setenv(harness.ENV_WORKERS, "8")
    assert cli_main(args) == 4
    assert not (tmp_path / "lin").exists()
    monkeypatch.delenv(harness.ENV_WORKERS)
    assert cli_main(args) == 0
    assert len((tmp_path / "lin" / "records.jsonl").read_text().splitlines()) == 1


def test_cli_partition_report_checks_the_worker_count(tmp_path, capsys):
    # with n_samples 0 the report is built without run(), and the flag is still checked
    part_cfg = {
        "kind": "partition-report",
        "out_dir": str(tmp_path / "part"),
        "n_samples": 0,
        "grid": dict(GRID),
        "partition": dict(PART),
    }
    p = tmp_path / "part.json"
    p.write_text(json.dumps(part_cfg))
    assert cli_main(["partition", "--config", str(p), "--workers", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: workers must be at least 1, got 0"]
    assert not (tmp_path / "part").exists()


def test_cli_refuses_channel_lists_that_miss_the_times(tmp_path):
    # A manifest whose channel lists one file fewer or one more than it has
    # times is not a trajectory: `morawetz --traj` exits 2 rather than read
    # past a list's end or ignore its tail.
    shape = (3, 4, 4, 4)
    for n_files in (2, 4):
        traj = write_trajectory(tmp_path / f"traj{n_files}", GridSpec(3, 4, np.pi), [0.0, 0.1, 0.2], {
            "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
        manifest = json.loads((traj / "manifest.json").read_text())
        files = manifest["channels"]["w"]
        manifest["channels"]["w"] = (files + files)[:n_files]
        (traj / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="channel 'w' lists"):
            TrajectoryReader(traj)
        assert cli_main(["morawetz", "--traj", str(traj), "--out", str(tmp_path / "mor")]) == 2
    assert not (tmp_path / "mor").exists()


@pytest.mark.parametrize(
    "times", [[0.2, 0.1, 0.0], [0.0, 0.1, 0.1], [0.0, np.nan, 0.2], []],
    ids=["reversed", "repeated", "nan", "empty"],
)
def test_cli_refuses_times_that_do_not_increase(tmp_path, times):
    # A manifest whose times run backwards, repeat one, are not finite or are
    # none is not a trajectory: `morawetz --traj` exits 2 and writes nothing,
    # rather than fold the snapshots into a NaN constant or die on an empty
    # time series.
    shape = (3, 4, 4, 4)
    traj = write_trajectory(tmp_path / "traj", GridSpec(3, 4, np.pi), times, {
        "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
    with pytest.raises(ConfigError, match="strictly increasing"):
        TrajectoryReader(traj)
    assert cli_main(["morawetz", "--traj", str(traj), "--out", str(tmp_path / "mor")]) == 2
    assert not (tmp_path / "mor").exists()


def test_cli_refuses_a_one_snapshot_trajectory(tmp_path, capsys):
    # The audit's time norms integrate over at least two snapshots: a
    # directory TrajectoryWriter wrote with one is refused with exit 2 and a
    # message that names the count, and no report is written.
    traj = write_trajectory(tmp_path / "traj", GridSpec(3, 4, np.pi), [0.0], {
        "v": np.zeros((1, 4, 4, 4), dtype=complex), "w": np.ones((1, 4, 4, 4), dtype=complex)})
    assert cli_main(["morawetz", "--traj", str(traj), "--out", str(tmp_path / "mor")]) == 2
    assert "at least 2 snapshots, got 1" in capsys.readouterr().err
    assert not (tmp_path / "mor").exists()
    assert cli_main(["morawetz", "--traj", str(traj)]) == 2
    assert sorted(p.name for p in traj.iterdir()) == ["manifest.json", "v_000000.rnls", "w_000000.rnls"]


@pytest.mark.parametrize("channels", [["v", "w"], {"v": [1, 2, 3]}], ids=["list", "non-string-file"])
def test_cli_refuses_channels_that_are_not_lists_of_file_names(tmp_path, channels):
    # channels must map each channel to a list of file names; anything else
    # is a bad manifest, which exits 2 rather than escape as a traceback.
    shape = (3, 4, 4, 4)
    traj = write_trajectory(tmp_path / "traj", GridSpec(3, 4, np.pi), [0.0, 0.1, 0.2], {
        "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
    manifest = json.loads((traj / "manifest.json").read_text())
    manifest["channels"] = channels
    (traj / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="channels must map"):
        TrajectoryReader(traj)
    assert cli_main(["morawetz", "--traj", str(traj), "--out", str(tmp_path / "mor")]) == 2
    assert not (tmp_path / "mor").exists()


def test_cli_dim_mismatch_exits_2(tmp_path):
    traj = tmp_path / "traj"
    shape = (2, 4, 4, 4)
    write_trajectory(traj, GridSpec(3, 4, np.pi), [0.0, 0.1], {
        "v": np.zeros(shape, dtype=complex), "w": np.ones(shape, dtype=complex)})
    assert cli_main(["morawetz", "--traj", str(traj), "--dim", "4", "--out", str(tmp_path / "mor4")]) == 2
    assert not (tmp_path / "mor4").exists()
    assert cli_main(["morawetz", "--traj", str(traj), "--dim", "3", "--out", str(tmp_path / "mor3")]) == 0

    lin = {
        "kind": "linear-stats",
        "out_dir": str(tmp_path / "lin"),
        "grid": dict(GRID),
        "partition": dict(PART),
        "forcing": dict(FORCING),
        "times": {"t_final": 0.3, "n_times": 4},
    }
    lin_path = tmp_path / "lin.json"
    lin_path.write_text(json.dumps(lin))
    assert cli_main(["linear-stats", "--config", str(lin_path), "--dim", "4"]) == 2
    assert not (tmp_path / "lin").exists()
    assert cli_main(["linear-stats", "--config", str(lin_path), "--dim", "3"]) == 0


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
    # the CLI writes the report of the library's stored audit, byte for byte
    stored_audit(TrajectoryReader(traj_dir)).write(tmp_path / "loaded")
    for name in ("morawetz.json", "interaction.csv"):
        assert (tmp_path / "mor" / name).read_bytes() == (tmp_path / "loaded" / name).read_bytes()


def test_cli_partition_builds_once(tmp_path, monkeypatch):
    # with samples, partition.json comes from run()'s own build, byte for byte
    # the report of a fresh build
    part_cfg = {
        "kind": "partition-report",
        "out_dir": str(tmp_path / "part"),
        "n_samples": 2,
        "grid": dict(GRID),
        "partition": dict(PART),
    }
    p = tmp_path / "part.json"
    p.write_text(json.dumps(part_cfg))
    expected = json.dumps(build_partition(parse_config(part_cfg).partition, GridSpec(**GRID)).report(),
                          indent=2, sort_keys=True)
    builds = []

    def counting(*args):
        builds.append(args)
        return build_partition(*args)

    monkeypatch.setattr("roughnls.cli.build_partition", counting)
    monkeypatch.setattr("roughnls.harness.build_partition", counting)
    assert cli_main(["partition", "--config", str(p)]) == 0
    assert len(builds) == 1
    assert (tmp_path / "part" / "partition.json").read_text() == expected
    assert len((tmp_path / "part" / "records.jsonl").read_text().splitlines()) == 2
