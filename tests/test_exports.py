"""Export hygiene: __all__ lists resolve, the package root re-exports only listed names,
and no module reaches into another module's private names."""

import ast
import importlib
import pkgutil
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
