"""The package's module-level name lists stay in step with the code."""

import importlib
import pkgutil

import banach_sgd


def test_every_name_in_each_module_all_resolves():
    listed = {}
    for info in pkgutil.iter_modules(banach_sgd.__path__, "banach_sgd."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            listed[info.name] = [name for name in module.__all__ if not hasattr(module, name)]
    assert set(listed) >= {f"banach_sgd.{m}" for m in ("diagnostics", "noise", "operators", "solver", "spaces")}
    assert {module: missing for module, missing in listed.items() if missing} == {}
