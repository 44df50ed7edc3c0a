"""The package is what the command line runs: every public function, method
and property of src/ is entered by some rough-nls subcommand.

A fresh interpreter installs a profile hook on its threads before it first
imports roughnls, then runs every subcommand once on tiny configs; the
hook records the file and first line of each Python function it enters.
Those are matched to the definitions read from the AST of each module. A
definition is public when no part of its dotted name starts with "_";
dunders are exempt, and a function defined inside another function counts
as part of it. Reference instruments that only the tier-1 claims read live
in tests/instruments.py, not in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import roughnls

SRC = Path(roughnls.__file__).resolve().parent

# the public callables no subcommand enters, each with the reason it stays
EXEMPT = {
    "grids.SpectralField.l2_norm": "a convenience of a public type that the convention tests use",
    "grids.GridSpec.dxi": "a convenience of a public type that the convention tests use",
    "randomize.RandomizationDraw.field": "a convenience of a public type that the convention tests use",
    "randomize.RandomizationDraw.n_cubes": "the benchmark's traced launcher reads it for a draw's cube count",
    "trajectory.write_snapshot": "the snapshot format's writer, which the format tests need",
}

# Run in a fresh interpreter: hooks first, then the first roughnls import.
# argv[1] holds the subcommands' arguments, and argv[2] names the file that
# receives the entered (file, first line) pairs.
RUNNER = """
import json
import sys
import threading

entered = set()


def hook(frame, event, arg):
    if event == "call" and "roughnls" in frame.f_code.co_filename:
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


threading.setprofile(hook)
sys.setprofile(hook)
from roughnls.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"rough-nls {' '.join(argv)} exited {code}")
sys.setprofile(None)
threading.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump(sorted(entered), fh)
"""


def public_definitions() -> dict[tuple[str, int], str]:
    """{(file, first line): dotted name} of every public function, method and property of src/.

    The first line is a code object's co_firstlineno: the first decorator's
    line for a decorated definition, else the def line.
    """
    found = {}

    def visit(path: Path, body, prefix: list[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(path, node.body, prefix + [node.name])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts = prefix + [node.name]
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not any(part.startswith("_") for part in parts):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path), first)] = ".".join([path.stem] + parts)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text()).body, [])
    return found


def _configs(tmp: Path) -> list[list[str]]:
    """Write the tiny configs into tmp; returns each subcommand's arguments, in run order."""
    grid3 = {"dim": 3, "points": 12, "half_width": float(np.pi)}
    grid4 = {"dim": 4, "points": 8, "half_width": float(np.pi)}
    part = {"a": 1, "n_max": 2, "s": -0.1}
    forcing = {"field_seed": 11, "decay": 2.0, "n0": 2.0, "amplitude": 0.2}
    solver = {"dt": 0.02, "t_final": 0.04}
    initial = {"kind": "bump", "amplitude": 0.3, "width": 1.5}
    forced = {"grid": grid3, "partition": part, "forcing": forcing, "solver": solver, "initial": initial}
    configs = {
        "partition": ("partition", {"kind": "partition-report", "grid": grid3, "partition": part}),
        "linear": ("linear-stats", {"kind": "linear-stats", "grid": grid3, "partition": part, "forcing": forcing,
                                    "times": {"t_final": 0.1, "n_times": 2}}),
        "forced": ("evolve", {"kind": "evolve", **forced}),
        "unforced": ("evolve", {"kind": "evolve", "grid": grid3, "solver": solver, "initial": initial}),
        "audit3": ("morawetz-audit", {"kind": "morawetz-audit", "save_fields": True, **forced}),
        "audit4": ("morawetz-audit", {"kind": "morawetz-audit", "save_fields": True,
                                      **dict(forced, grid=grid4, partition=dict(part, n_max=1))}),
        "twin": ("twin-ladder", {"kind": "twin-ladder", "ladder": {"amplitudes": [1.0, 0.5]}, **forced}),
        "sweep": ("sweep", {"kind": "sweep", **forced,
                            "sweep": {"kind": "evolve", "axis": "forcing.n0", "values": [2.0, 4.0]}}),
    }
    runs = []
    for name, (command, cfg) in configs.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, out_dir=str(tmp / name))))
        runs.append([command, "--config", str(path)])
    # the forced evolve runs twice into one directory, so that its resume reads the records back
    runs.insert(3, runs[2])
    runs.append(["morawetz", "--traj", str(tmp / "forced" / "run_0000" / "traj"), "--out", str(tmp / "stored")])
    return runs


def test_every_public_callable_is_entered_by_a_subcommand(tmp_path):
    # 0.4 s: one interpreter runs all ten invocations
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(_configs(tmp_path)), str(tmp_path / "entered.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads((tmp_path / "entered.json").read_text())}
    public = public_definitions()
    never = sorted(name for key, name in public.items() if key not in entered)
    undefined = sorted(set(EXEMPT) - set(public.values()))
    assert not undefined, f"exempt, yet not a public callable of src/: {undefined}"
    stale = sorted(set(EXEMPT) - set(never))
    assert not stale, f"exempt, yet entered by a subcommand: {stale}"
    unreached = [name for name in never if name not in EXEMPT]
    assert not unreached, f"public callables of src/ that no subcommand enters: {unreached}"
