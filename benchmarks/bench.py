"""rlvrlab benchmark: one closed-loop client, one process, one workload per run.

    python3 benchmarks/bench.py --workload train_long --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Each operation starts only after the previous one returned, and every
operation's output is checked outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time, median op time, work
per second and peak memory, each with its sample count.  The CPU speed of a
shared host drifts by up to 2x over seconds to minutes, and CPU time drifts
with it.  So every timed interval is scaled to a nominal speed: a short
calibration loop (numpy only, no rlvrlab code) runs before and after it and,
every SAMPLE_EVERY_S, inside it, and the interval is multiplied by
NOMINAL_REP_S over the mean calibration time.  The end-to-end times are
therefore seconds at a fixed nominal speed; the raw wall-clock figures are
printed next to them and kept in the result file.

--trace 1 spends half the time on untraced ops and half on ops traced from
outside (see tracer.py), and prints the per-layer metrics: calls per op of
each public function, self times, the exact counts named in the workload
table, and the tracing overhead (normalised traced minus untraced median op
time).  Self times are wall time and include the speed samples taken inside
the span, about 2% of it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report with the environment and provenance.  Artifacts, the full
result and the spans go to `.bench_out/<workload>/`.

Self-tests: python3 -m pytest benchmarks/bench_selftest.py
"""

from __future__ import annotations

import os

# One BLAS thread: OpenBLAS splits the 128-wide matrix-vector products of
# power iteration across both cores of a 2-core host, which made op time
# follow the load on the other core.  Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import TARGETS, Tracer, nearest_ancestor, self_times
from workloads import LAYER_PREDICTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("config", "diagnostics", "policy", "rng", "runner", "scenarios", "svgplot", "trainers")
SETUP_REPEATS = 9
TAIL_BEYOND = 10

# Calibration loop: the small-array softmax/gradient pattern of the trainers
# and the 128-wide matrix-vector products of power iteration.  Its speed
# depends on where its arrays sit by up to ~10%, so every sample moves them
# to the next of CAL_LAYOUTS offsets in one buffer, and no process keeps a
# lucky or unlucky placement for all its samples.
CAL_LAYOUTS = 8
CAL_REPS = 400           # between timed intervals, spread over every layout
SAMPLE_REPS = 60         # inside a timed interval, every SAMPLE_EVERY_S
SAMPLE_EVERY_S = 0.1
# Median time of one calibration repetition on a 2-core Xeon host
# (Python 3.11, numpy 2.4, one BLAS thread); the scale of the normalised times.
NOMINAL_REP_S = 2.5e-5


def _calibration_layouts() -> list[tuple[np.ndarray, ...]]:
    sizes = (4 * 32, 32, 128 * 128, 128)
    buf = np.empty(sum(sizes) + CAL_LAYOUTS)
    layouts = []
    for offset in range(CAL_LAYOUTS):
        parts, start = [], offset
        for size in sizes:
            parts.append(buf[start:start + size])
            start += size
        small, v, wide, u = parts
        small[:] = np.linspace(-1.0, 1.0, small.size)
        v[:] = np.linspace(0.0, 0.1, v.size)
        wide[:] = np.outer(np.linspace(-1.0, 1.0, 128), np.linspace(0.5, 1.5, 128)).ravel() / 128
        u[:] = 1.0
        layouts.append((small.reshape(4, 32), v, wide.reshape(128, 128), u))
    return layouts


_CAL = _calibration_layouts()
_cal_next = 0


def calibration_rep_s(reps: int) -> float:
    """Mean time of one repetition of the calibration loop."""
    global _cal_next
    small, v, wide, u = _CAL[_cal_next]
    _cal_next = (_cal_next + 1) % CAL_LAYOUTS
    t0 = time.perf_counter()
    for _ in range(reps):
        z = small @ v
        e = np.exp(z - z.max())
        g = small.T @ (e / e.sum())
        w = wide @ u
        w /= np.linalg.norm(w)
        float(g @ g + w @ (wide @ w))
    return (time.perf_counter() - t0) / reps


class SpeedClock:
    """Times intervals and scales them to the nominal speed.

    The speed is sampled just before and just after each interval and, for
    long intervals, every SAMPLE_EVERY_S inside it from a SIGALRM handler;
    the handler's own time is taken out of the interval.
    """

    def __init__(self):
        self.refresh()

    def refresh(self) -> None:
        self._last = statistics.fmean(calibration_rep_s(CAL_REPS // CAL_LAYOUTS) for _ in range(CAL_LAYOUTS))

    @contextmanager
    def interval(self):
        """Yields a dict that holds `wall` and `norm` seconds on exit."""
        out: dict = {}
        samples = [self._last]
        spent = 0.0

        def sample(_signum, _frame):
            nonlocal spent
            t0 = time.perf_counter()
            samples.append(calibration_rep_s(SAMPLE_REPS))
            spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.refresh()
            samples.append(self._last)
            out["wall"] = wall - spent
            out["norm"] = out["wall"] * NOMINAL_REP_S / statistics.fmean(samples)


def import_fresh() -> SimpleNamespace:
    """Import rlvrlab afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "rlvrlab" or m.startswith("rlvrlab.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"rlvrlab.{m}") for m in MODULES})
    if not Path(mods.config.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rlvrlab was imported from {mods.config.__file__}, not from {SRC}")
    return mods


def tail(times: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return {"value": None, "percentile": None, "beyond": 0, "samples": n}
    rank = n - TAIL_BEYOND
    return {"value": sorted(times)[rank - 1], "percentile": 100.0 * rank / n,
            "beyond": TAIL_BEYOND, "samples": n}


def _blas_threads():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Run:
    """One benchmark process: set-up, a checked reference op, timed ops."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.clock = SpeedClock()

    def setup(self) -> tuple[list[float], list[float]]:
        """Repeated set-ups; returns (wall times, normalised times)."""
        wall, norm = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            with self.clock.interval() as t:
                self.mods = import_fresh()
                self.wl = self.cls(self.mods, self.seed, self.out)
            wall.append(t["wall"])
            norm.append(t["norm"])
        return wall, norm

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def reference(self) -> int:
        """Untimed first op; returns the bytes its artifacts take."""
        try:
            problems, nbytes = self.wl.reference()
        except Exception:
            traceback.print_exc()
            problems, nbytes = ["reference op raised"], 0
        self._record(problems)
        return nbytes

    def ops(self, seconds: float, tracer: Tracer | None = None):
        """Closed loop: ops back to back until their summed wall time reaches
        `seconds`.  Returns (wall times, normalised times, work per op)."""
        times, norm, works = [], [], []
        k = 0
        self.clock.refresh()
        while sum(times) < seconds:
            gc.collect()
            output = None
            with self.clock.interval() as t:
                try:
                    if tracer is None:
                        work, output = self.wl.op(k)
                    else:
                        with tracer.span("bench.op"):
                            work, output = self.wl.op(k)
                    problems = []
                except Exception:
                    traceback.print_exc()
                    work, problems = 0, [f"op {k} raised"]
            times.append(t["wall"])
            norm.append(t["norm"])
            works.append(work)
            if not problems:
                problems = self.wl.check(k, output)
            self._record(problems)
            k += 1
        return times, norm, works


def layer_metrics(tracer: Tracer, works: list[int], iterations: bool) -> tuple[dict, dict]:
    """Per-op calls and self time of each traced function, plus exact counts."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    op_id = ids["bench.op"]
    selfs = self_times(a["parent"], a["start"], a["end"])
    root = nearest_ancestor(a["parent"], a["name_id"], {op_id, ids["bench.setup"]})
    in_op = (root >= 0) & (a["name_id"][np.maximum(root, 0)] == op_id)
    op_spans = np.flatnonzero(a["name_id"] == op_id)
    n_ops = len(op_spans)

    table = {}
    for target in TARGETS:
        mask = in_op & (a["name_id"] == ids[target])
        table[target] = {"calls": int(mask.sum()) / n_ops, "self_s": float(selfs[mask].sum()) / n_ops}
    metrics = {}
    for target, row in table.items():
        metrics[f"{target}.calls"] = (row["calls"], "count")
    # Self times are reported only where they are non-zero on every workload;
    # the full per-function table goes to the report and the result file.
    metrics["policy.prompt_stats.self_s"] = (table["policy.prompt_stats"]["self_s"], "s")
    for module in ("policy", "diagnostics"):
        metrics[f"{module}.self_s"] = (
            sum(row["self_s"] for t, row in table.items() if t.startswith(module + ".")), "s")
    metrics["bench.op.self_s"] = (float(selfs[op_spans].sum()) / n_ops, "s")

    traj = nearest_ancestor(a["parent"], a["name_id"], {ids["trainers.run_trajectory"]})
    in_traj = in_op & (traj >= 0)
    iters = sum(works) if iterations else 0
    for target in ("policy.prompt_stats", "rng.stream_rng"):
        count = int((in_traj & (a["name_id"] == ids[target])).sum())
        metrics[f"{target}.per_iter"] = (count / iters if iters else 0.0, "count")
    for tag in ("power_calls", "dense_calls"):
        count = sum(tracer.tags.get((int(i), tag), 0) for i in op_spans)
        metrics[f"policy.spectral_norm.{tag}"] = (count / n_ops, "count")
    metrics["diagnostics.fisher_diag_proxy.draws"] = (table["diagnostics.fisher_diag_proxy"]["calls"], "count")
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rlvrlab" / "__init__.py").is_file():
        print(f"error: no rlvrlab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, args.seed, out)
    setup_wall, setup_norm = run.setup()
    artifact_bytes = run.reference()

    wl = run.wl
    result: dict = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "environment": environment(args.seed),
        "layer_predictions": LAYER_PREDICTIONS,
        "setup_wall_s": setup_wall,
    }
    if not args.trace:
        wall, norm, works = run.ops(args.seconds)
        metrics = {
            "setup_s": (statistics.median(setup_norm), "s"),
            "op_s_p50": (statistics.median(norm), "s"),
            "work_per_s": (sum(works) / sum(norm), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result.update(op_wall_s=wall, op_s=norm, op_s_tail=tail(norm), op_wall_s_tail=tail(wall),
                      work_per_wall_s=sum(works) / sum(wall),
                      samples={"setup_s": f"{len(setup_norm)} set-ups", "op_s_p50": f"{len(norm)} ops",
                               "work_per_s": f"{len(norm)} ops", "peak_rss_mb": "1 process"})
    else:
        _, untraced, _ = run.ops(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                run.cls(run.mods, args.seed, out)
            _, traced, works = run.ops(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, table = layer_metrics(tracer, works, wl.work_unit == "iterations")
        metrics["runner.artifact_bytes"] = (artifact_bytes, "count")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        result.update(layers_per_op=table, untraced_op_s=untraced, traced_op_s=traced,
                      spans=len(tracer.start))
        tracer.save(out / "spans.npz")

    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out / f"result_trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    print_report(result)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result["metrics"]}))
    return 0


def _tail_text(t: dict) -> str:
    if t["value"] is None:
        return f"undefined: {t['samples']} ops, needs more than {TAIL_BEYOND}"
    return f"{t['value']:.6g} s at p{t['percentile']:.1f} ({t['beyond']} of {t['samples']} ops above)"


def print_report(result: dict) -> None:
    wl = WORKLOADS[result["workload"]]
    print(f"workload {wl.name} seed {result['seed']} trace {result['trace']}: {wl.why}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']:6s} {samples.get(name, '')}")
    setup = result["setup_wall_s"]
    print(f"  setup: {len(setup)} set-ups, wall median {statistics.median(setup):.6g} s, first {setup[0]:.6g} s")
    if result["trace"]:
        print(f"  per op over {len(result['traced_op_s'])} traced ops "
              f"({len(result['untraced_op_s'])} untraced, {result['spans']} spans):")
        for name, row in result["layers_per_op"].items():
            if row["calls"]:
                print(f"    {name:38s} calls {row['calls']:<12.6g} self_s {row['self_s']:.6g}")
    else:
        wall = result["op_wall_s"]
        print(f"  ops: {len(wall)}, wall median {statistics.median(wall):.6g} s")
        print(f"  op_s_tail {_tail_text(result['op_s_tail'])}; wall {_tail_text(result['op_wall_s_tail'])}")
        print(f"  work_per_s is {wl.work_metric} ({wl.work_unit} per second); "
              f"wall {result['work_per_wall_s']:.6g} 1/s")
    print(f"  fail_frac {result['failed']}/{result['attempted']} ratio")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


if __name__ == "__main__":
    sys.exit(main())
