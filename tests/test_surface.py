"""The names other code reaches into the package by."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rlvrlab

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_targets() -> list[str]:
    """The TARGETS tuple of benchmarks/tracer.py, read without importing the bench."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/tracer.py defines no TARGETS")


def test_every_traced_benchmark_target_resolves():
    """`bench.py --trace 1` wraps each "<module>.<function>" by getattr, so
    deleting or renaming one of them breaks the traced benchmark."""
    targets = _tracer_targets()
    assert targets
    for target in targets:
        module, function = target.split(".")
        assert callable(getattr(importlib.import_module(f"rlvrlab.{module}"), function, None)), target


def test_every_exported_name_resolves():
    """Every `__all__` entry of every rlvrlab module, and every name the
    package's __init__ imports, is bound: a deleted function leaves no stale
    export behind."""
    for module in pkgutil.iter_modules(rlvrlab.__path__):
        mod = importlib.import_module(f"rlvrlab.{module.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"rlvrlab.{module.name}.{name}"
    init = ast.parse(Path(rlvrlab.__file__).read_text())
    imported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(rlvrlab, name), name


IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
before = {name.split(".")[0] for name in sys.modules}
import rlvrlab
for module in pkgutil.iter_modules(rlvrlab.__path__):
    importlib.import_module("rlvrlab." + module.name)
print(" ".join(sorted(name for name in sys.modules if name.startswith("rlvrlab."))))
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - before)))
"""


def test_importing_every_module_loads_only_numpy_and_the_standard_library():
    """A fresh interpreter that imports every rlvrlab module (cli, verify and
    oracle included) loads no third-party package but numpy.  Names already
    loaded at start-up (site hooks) are not rlvrlab's doing and are left out."""
    src = str(Path(rlvrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    modules, loaded = set(out[0].split()), set(out[1].split())
    assert {"rlvrlab.cli", "rlvrlab.verify", "rlvrlab.oracle", "rlvrlab.scenarios"} <= modules
    assert {"numpy", "rlvrlab"} <= loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "rlvrlab"}) == []
