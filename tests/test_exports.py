"""Every name a module exports in __all__ resolves, so deletions leave no dangling exports."""

import importlib
import pkgutil

import roughnls

MODULES = ["roughnls"] + [f"roughnls.{m.name}" for m in pkgutil.iter_modules(roughnls.__path__)]


def test_exported_names_resolve():
    checked = 0
    for name in MODULES:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", ())
        missing = [n for n in exported if not hasattr(mod, n)]
        assert not missing, f"{name}.__all__ names {missing} that do not exist"
        checked += len(exported)
    assert checked > 0
