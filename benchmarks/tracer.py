"""Spans around the public functions of rlvrlab, installed from outside.

The package binds its functions by name (`from .policy import prompt_stats`),
so wrapping `policy.prompt_stats` alone would miss the calls made through
`trainers.prompt_stats`, `diagnostics.prompt_stats` and `runner.prompt_stats`.
`Tracer.install` therefore replaces every binding of each target function in
every loaded rlvrlab module, and `uninstall` puts the originals back.

Each span is a name, a start, an end and the index of its parent span; the
spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The public functions the benchmark times, as "<module>.<function>".
TARGETS = (
    "policy.prompt_stats",
    "policy.policy_gradient",
    "policy.hessian_matrix",
    "policy.spectral_norm",
    "rng.stream_rng",
    "trainers.select_prompt",
    "trainers.run_trajectory",
    "trainers.cumulative_bound_check",
    "diagnostics.pairwise_grad_cosines",
    "diagnostics.m_bound",
    "diagnostics.scale_regularity",
    "diagnostics.lemma_bound_report",
    "diagnostics.fisher_diag_proxy",
    "diagnostics.exact_fisher_diag",
    "config.parse_config_dict",
    "config.build_instance",
    "scenarios.orthogonal_blocks",
    "scenarios.random_features",
    "scenarios.difficulty_preset",
    "scenarios.difficulty_profile",
    "runner.run_experiment",
    "runner.run_sweep",
    "runner.diagnose_report",
    "svgplot.line_plot",
)

# policy.spectral_norm switched from a dense eigensolve to power iteration
# above this dimension when the benchmark was defined; calls are counted on
# each side of it from the argument's shape.
POWER_DIM = 64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # (root span index, tag) -> count, for call properties read from arguments
        self.tags: dict[tuple[int, str], int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """Record one span around the enclosed block."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        stack, names, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        # The body of span() inlined: prompt_stats alone is called 170k times
        # per train_long op, and a generator-based context manager per call
        # would multiply the tracing overhead.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name == "policy.spectral_norm":
            @functools.wraps(fn)
            def counted(m, *args, **kwargs):
                key = (stack[1] if len(stack) > 1 else -1,
                       "power_calls" if np.shape(m)[0] > POWER_DIM else "dense_calls")
                self.tags[key] = self.tags.get(key, 0) + 1
                return traced(m, *args, **kwargs)

            return counted
        return traced

    def install(self, package: str = "rlvrlab") -> None:
        """Wrap every TARGETS function in every loaded module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations can simply be subtracted.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def nearest_ancestor(parent: np.ndarray, name_id: np.ndarray, wanted: set[int]) -> np.ndarray:
    """Index of the closest enclosing span (itself included) whose name id is
    in `wanted`, or -1.  Parents are recorded before their children."""
    out = [-1] * len(parent)
    for i, (p, name) in enumerate(zip(parent.tolist(), name_id.tolist())):
        if name in wanted:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return np.array(out, dtype=np.int64)
