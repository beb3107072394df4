"""The names other code reaches into the package by."""

import ast
import importlib
from pathlib import Path

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
