"""Export hygiene: __all__ lists resolve, the package root re-exports only listed names,
no module reaches into another module's private names, no module in src/ or
tests/ imports a name it never uses, and only the trajectory module reads or
writes snapshot files or a trajectory manifest."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import roughnls

MODULES = ["roughnls"] + [f"roughnls.{m.name}" for m in pkgutil.iter_modules(roughnls.__path__)]
SRC = Path(roughnls.__file__).parent


def test_exported_names_resolve():
    checked = 0
    for name in MODULES:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", ())
        missing = [n for n in exported if not hasattr(mod, n)]
        assert not missing, f"{name}.__all__ names {missing} that do not exist"
        checked += len(exported)
    assert checked > 0


def test_root_imports_are_listed_in_their_module():
    missing = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = getattr(importlib.import_module(f"roughnls.{node.module}"), "__all__", ())
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not missing, f"the package root imports names its modules do not export: {missing}"


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_only_the_trajectory_module_touches_snapshot_files():
    # TrajectoryWriter and TrajectoryReader are the one writer and the one
    # reader of a trajectory directory, so a change of its layout stays in
    # trajectory.py: no other module calls the snapshot file functions or
    # names the manifest's file.
    file_functions = {"read_snapshot", "write_snapshot", "_write_values"}
    touched = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in file_functions:
                    touched.setdefault(path.name, []).append(f"{node.lineno}: {name}()")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.search(r"(^|/)manifest\.json$", node.value):
                    touched.setdefault(path.name, []).append(f"{node.lineno}: {node.value!r}")
    assert "trajectory.py" in touched  # the check sees the module that does touch them
    del touched["trajectory.py"]
    assert not touched, f"snapshot files or the manifest touched outside trajectory.py: {touched}"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; names listed in its __all__ count as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    tests = Path(__file__).parent
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"] + sorted(tests.rglob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"
