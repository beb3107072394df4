"""Experiment orchestration: materialize a config, run it, and write the
artifacts (per-iteration CSV, run-summary JSON, optional SVG plots).

Every output byte is a function of the effective config: floats are written
with shortest round-trip repr, JSON keys are sorted, and nothing
environment-dependent (timestamps, paths, host names) enters the files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_instance
from .diagnostics import (
    _cosines, _lemma_rows, _m_bound, _scales, c_constant, pairwise_grad_cosines, phase_classify,
)
from .policy import FeatureSet, batch_stats
from .svgplot import line_plot
from .trainers import (
    ALGORITHMS,
    BoundReport,
    NumericalAbort,
    TrajectoryLog,
    _replayed,
    cumulative_bound_check,
    run_trajectory,
)

__all__ = [
    "RunResult",
    "SweepResult",
    "run_experiment",
    "run_sweep",
    "diagnose_report",
    "output_root",
]

CSV_HEADER = (
    "t,selected,eta_eff,J_mean,J_min,grad_sq_selected,V_selected,"
    "improvement,bound_slack,variance_flag"
)

ENV_OUT_ROOT = "RLVRLAB_OUT_ROOT"


def output_root() -> Path:
    return Path(os.environ.get(ENV_OUT_ROOT, "."))


def _resolve_out_dir(out) -> Path:
    """An output directory, with a relative one placed under output_root()."""
    out = Path(out)
    if not out.is_absolute():
        out = output_root() / out
    return out


def _f(x: float) -> str:
    """Shortest round-trip decimal for a float (deterministic)."""
    return repr(float(x))


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n", encoding="ascii")


def _write_csv(path: Path, log: TrajectoryLog, n: int, per_prompt: bool) -> None:
    T = len(log)
    floats = (
        log.eta_effective, log.j_mean, log.j_min, log.grad_sq_selected,
        log.v_selected, log.improvement, log.bound_slack,
    )
    rows = [
        ",".join(cells)
        for cells in zip(
            map(str, range(1, T + 1)),
            map(str, log.selected.tolist()),
            *(map(repr, col.tolist()) for col in floats),
            map(str, log.variance_flag.astype(int).tolist()),
        )
    ]
    header = CSV_HEADER
    if per_prompt:
        header += "".join(f",J_{i}" for i in range(n)) + "".join(f",V_{i}" for i in range(n))
        c = log.snapshot_cadence
        wide = ["," * (2 * n)] * T
        snapshots = np.hstack([log.objectives[c - 1 :: c], log.variance[c - 1 :: c]]).tolist()
        for row, values in zip(range(c - 1, T, c), snapshots):
            wide[row] = "," + ",".join(map(repr, values))
        rows = [a + b for a, b in zip(rows, wide)]
    path.write_text("\n".join([header] + rows) + "\n", encoding="ascii")


def _bound_report_dict(report: BoundReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "all_passed": report.all_passed,
        "c_of_t": report.c_of_t,
        "variants_all_passed": {
            name: report.variant_all_passed(name) for name in report.prompts[0].checks
        },
        "per_prompt": [
            {
                "prompt": p.prompt,
                "grad_sq_sum": p.grad_sq_sum,
                "grad_sq_min": p.grad_sq_min,
                "c_i": p.c_i,
                "primary": p.primary,
                "passed": p.passed,
                "checks": {
                    name: {"lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
                    for name, c in p.checks.items()
                },
            }
            for p in report.prompts
        ],
    }


def _iterations_to_threshold(log: TrajectoryLog, final_mean: float, threshold: float) -> Optional[int]:
    """Smallest state index t (0..T) whose mean objective reaches the threshold;
    final_mean is the mean objective at the final state T."""
    reached = np.flatnonzero(log.j_mean >= threshold)
    if reached.size:
        return int(reached[0])
    if final_mean >= threshold:
        return len(log)
    return None


def _phase_timeline(log: TrajectoryLog, fs: FeatureSet, theta0: np.ndarray) -> list[dict]:
    if fs.n < 2:
        return []
    points = [(0, theta0)] + list(log.theta_checkpoints)
    if not log.theta_checkpoints or log.theta_checkpoints[-1][0] != len(log):
        points.append((len(log), log.final_theta))
    timeline = []
    for t, theta in points:
        rep = pairwise_grad_cosines(fs, theta)
        if rep.empty:
            timeline.append({"t": t, "cos_std": None, "phase": "I"})
        else:
            timeline.append({"t": t, "cos_std": rep.std, "phase": phase_classify(rep.std)})
    return timeline


@dataclass
class RunResult:
    out_dir: Path
    summary: dict
    log: TrajectoryLog
    fs: FeatureSet
    artifacts: list[Path]


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=None,
    seed_override: Optional[int] = None,
    formats_override=None,
) -> RunResult:
    """Run one configured experiment and write its artifacts.

    On a numerical abort the last-good-iteration report is written to
    abort.json in the output directory and the NumericalAbort re-raised.
    """
    if seed_override is not None:
        cfg = replace(cfg, trainer=replace(cfg.trainer, seed=seed_override))
    formats = tuple(formats_override) if formats_override is not None else cfg.formats
    # built first, so that a config error leaves no output directory behind
    fs, theta0 = build_instance(cfg)
    out = _writable(_resolve_out_dir(cfg.output_dir if out_dir is None else out_dir))
    return _run_instance(cfg, fs, theta0, out, formats)


def _writable(out: Path) -> Path:
    """Create an already resolved output directory and check it is writable."""
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise PermissionError(f"output directory {out} is not writable")
    return out


def _run_instance(
    cfg: ExperimentConfig,
    fs: FeatureSet,
    theta0: np.ndarray,
    out: Path,
    formats,
    log: Optional[TrajectoryLog] = None,
) -> RunResult:
    """The run and artifacts of run_experiment on a built instance (neither
    fs nor theta0 is mutated, so a sweep shares one build); `log`, when
    given, is the finished run's, which a sweep may have already."""
    if log is None:
        try:
            log = run_trajectory(
                cfg.trainer,
                fs,
                theta0,
                snapshot_cadence=cfg.snapshot_cadence,
                checkpoint_cadence=cfg.phase_cadence,
            )
        except NumericalAbort as abort:
            _write_json(
                out / "abort.json",
                {
                    "error": "numerical_abort",
                    "last_good_iteration": abort.t,
                    "message": str(abort),
                    "config": cfg.echo,
                    "config_hash": cfg.content_hash,
                },
            )
            raise

    bound_report = cumulative_bound_check(log, fs)
    final_mean = float(batch_stats(fs, log.final_theta).success.mean())
    reached = _iterations_to_threshold(log, final_mean, cfg.threshold)
    summary = {
        "config": cfg.echo,
        "config_hash": cfg.content_hash,
        "instance": {"n": fs.n, "K": fs.K, "d": fs.d, "x_max": fs.x_max},
        "eta": log.eta,
        "final_mean_objective": final_mean,
        "threshold": cfg.threshold,
        "iterations_to_threshold": reached,
        "threshold_reached": reached is not None,
        "c_of_t": bound_report.c_of_t,
        "c_per_prompt": [p.c_i for p in bound_report.prompts],
        "cumulative_bounds": _bound_report_dict(bound_report),
        "variance_flag_count": int(log.variance_flag.sum()),
        "phase_timeline": _phase_timeline(log, fs, theta0),
    }

    artifacts = []
    if "csv" in formats:
        csv_path = out / "trajectory.csv"
        _write_csv(csv_path, log, fs.n, cfg.per_prompt_columns)
        artifacts.append(csv_path)
    if "json" in formats:
        json_path = out / "summary.json"
        _write_json(json_path, summary)
        artifacts.append(json_path)
    if "svg" in formats:
        ts = range(1, len(log) + 1)
        j_path = out / "j_mean.svg"
        line_plot(ts, log.j_mean.tolist(), "mean objective vs iteration", j_path)
        s_path = out / "bound_slack.svg"
        line_plot(ts, log.bound_slack.tolist(), "per-step bound slack vs iteration", s_path)
        artifacts.extend([j_path, s_path])
    return RunResult(out_dir=out, summary=summary, log=log, fs=fs, artifacts=artifacts)


def _prefix_c_of_t(log: TrajectoryLog, upto: int) -> Optional[float]:
    """Aggregate C over the pre-step states 0..upto-1."""
    if upto < 1:
        return None
    acc = np.sqrt(log.variance[:upto]).cumsum(axis=0)[-1]
    return float(np.mean(8.0 / (3.0 * upto) * acc))


@dataclass
class SweepResult:
    out_dir: Path
    table: list[dict]
    summary: dict
    artifacts: list[Path]


def run_sweep(cfg: ExperimentConfig, seeds, algorithms=ALGORITHMS, out_dir=None) -> SweepResult:
    """Cross product of seeds x algorithms with a paired comparison table.

    Reports per-algorithm median iterations-to-threshold, realized C(T) at
    each run's threshold time, and (when both algorithms run) the fraction of
    paired seeds where GRPO reaches the threshold strictly first.  The
    near-solved regime where both medians are tiny is flagged low-signal.
    Seeds and algorithms must be distinct, with at least two seeds and one
    algorithm; anything else raises ValueError.
    """
    seeds = list(seeds)
    algorithms = list(algorithms)
    if len(seeds) < 2:
        raise ValueError("sweep needs at least two seeds")
    if not algorithms:
        raise ValueError("sweep needs at least one algorithm")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
    # each (algorithm, seed) run owns one directory and one table cell
    for what, values in (("seed", seeds), ("algorithm", algorithms)):
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ValueError(f"sweep {what} {value!r} is repeated")
    # the sub-configs differ only in trainer and snapshot cadence; built
    # first, so that a config error leaves no output directory behind
    fs, theta0 = build_instance(cfg)
    out = _resolve_out_dir(cfg.output_dir if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[tuple[str, int], RunResult] = {}
    for alg in algorithms:
        sub_cfgs = [
            replace(cfg, trainer=replace(cfg.trainer, algorithm=alg, seed=seed), snapshot_cadence=1)
            for seed in seeds
        ]
        # On a block-orthogonal instance one round history gives every seed's
        # log.  Otherwise each run goes through run_trajectory, so a run that
        # aborts stops the sweep there, after the earlier runs' artifacts.
        logs = _replayed([c.trainer for c in sub_cfgs], fs, theta0, 1, cfg.phase_cadence)
        for seed, sub_cfg, log in zip(seeds, sub_cfgs, logs or [None] * len(seeds)):
            # out is resolved already: resolving a relative root again would nest it twice
            sub_out = _writable(out / f"{alg}_seed{seed}")
            runs[(alg, seed)] = _run_instance(sub_cfg, fs, theta0, sub_out, ("csv", "json"), log)

    table = []
    for seed in seeds:
        row = {"seed": seed}
        for alg in algorithms:
            res = runs[(alg, seed)]
            reached = res.summary["iterations_to_threshold"]
            row[f"{alg}_iters"] = reached
            row[f"{alg}_c_at_threshold"] = (
                _prefix_c_of_t(res.log, reached) if reached else res.summary["c_of_t"]
            )
        if "reinforce" in algorithms and "grpo" in algorithms:
            ri, gi = row["reinforce_iters"], row["grpo_iters"]
            row["grpo_wins"] = (gi is not None) and (ri is None or gi < ri)
        table.append(row)

    T = cfg.trainer.horizon
    summary = {
        "config": cfg.echo,
        "config_hash": cfg.content_hash,
        "seeds": seeds,
        "algorithms": algorithms,
        "threshold": cfg.threshold,
        "medians": {},
        "unreached_counts": {},
    }
    for alg in algorithms:
        iters = [row[f"{alg}_iters"] for row in table]
        summary["unreached_counts"][alg] = sum(1 for v in iters if v is None)
        effective = [v if v is not None else T + 1 for v in iters]
        summary["medians"][alg] = float(np.median(effective))
        cs = [row[f"{alg}_c_at_threshold"] for row in table if row[f"{alg}_c_at_threshold"] is not None]
        summary.setdefault("median_c_at_threshold", {})[alg] = (
            float(np.median(cs)) if cs else None
        )
    if "reinforce" in algorithms and "grpo" in algorithms:
        wins = sum(1 for row in table if row["grpo_wins"])
        summary["grpo_win_fraction"] = wins / len(seeds)
        n = runs[(algorithms[0], seeds[0])].fs.n
        summary["low_signal"] = all(summary["medians"][a] <= 10 * n for a in ("reinforce", "grpo"))

    artifacts = []
    summary_path = out / "sweep_summary.json"
    _write_json(summary_path, {**summary, "table": table})
    artifacts.append(summary_path)

    cols = ["seed"]
    for alg in algorithms:
        cols += [f"{alg}_iters", f"{alg}_c_at_threshold"]
    if "grpo_wins" in (table[0] if table else {}):
        cols.append("grpo_wins")
    lines = [",".join(cols)]
    for row in table:
        cells = []
        for c in cols:
            v = row.get(c)
            if v is None:
                cells.append("unreached" if c.endswith("_iters") else "")
            elif isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, float):
                cells.append(_f(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    csv_path = out / "sweep_table.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    artifacts.append(csv_path)
    return SweepResult(out_dir=out, table=table, summary=summary, artifacts=artifacts)


def diagnose_report(fs: FeatureSet, theta: np.ndarray, log: Optional[TrajectoryLog] = None) -> dict:
    """Full assumption audit plus the per-prompt lemma-bound slack table.

    The realized C(T) needs a finished trajectory and stays None without one.
    Every part reads one batch_stats evaluation at theta.
    """
    stats = batch_stats(fs, theta)
    cosines = _cosines(fs, stats)
    mb = _m_bound(fs, stats)
    scales = _scales(stats)
    c_of_t = None if log is None else c_constant(log)[1]
    rows = _lemma_rows(fs, theta, stats)
    return {
        "assumptions": {
            "cos_mean": cosines.mean,
            "cos_std": cosines.std,
            "frac_abs_below_0p1": cosines.frac_abs_below_0p1,
            "frac_positive": cosines.frac_positive,
            "n_pairs": cosines.n_pairs,
            "n_excluded": cosines.n_excluded,
            "m_status": mb.status,
            "m_hat": mb.m_hat,
            "m_worst_pair": list(mb.worst_pair) if mb.worst_pair else None,
            "m_violations": [list(v) for v in mb.violations],
            "r1_hat": scales.r1_hat if math.isfinite(scales.r1_hat) else None,
            "r2_hat": scales.r2_hat if math.isfinite(scales.r2_hat) else None,
            "scale_degenerate": scales.degenerate,
            "phase": "I" if cosines.empty else phase_classify(cosines.std),
            "c_of_t": c_of_t,
        },
        "lemma_bounds": [{**vars(row), "min_slack": row.min_slack} for row in rows],
    }
