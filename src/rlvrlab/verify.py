"""Acceptance battery: every claim the artifact makes about itself, checked.

Each criterion is a function returning a CriterionResult with a pass flag,
its runtime against the stated budget, and a one-line numeric detail.  The
`verify` CLI prints one line per criterion and exits non-zero if any fail;
the test suite asserts them individually.

Known expected failure: criterion 8's GRPO sum-form bound with the
realized-variance estimate.  The telescoping argument behind it yields a
bound on T * min_t of the squared gradient norms, not on their sum; once
variances decay, the sum-form right-hand side shrinks while the left-hand
side saturates, so the stated inequality must eventually fail on any
learning run.  The checker demonstrates all of this: the sum-form holds on
the early-run prefix, the T*min form and the worst-case-variance sum form
hold at every horizon, and the realized sum-form fails at the full horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .config import parse_config_dict
from .diagnostics import (
    curvature_variance_correlation,
    exact_fisher_diag,
    fisher_diag_proxy,
    pairwise_grad_cosines,
    _permutation_test,
)
from .oracle import _success_objective, fd_gradient, fd_hessian, grid_max_f, local_smoothness_envelope
from .policy import (
    FeatureSet,
    batch_stats,
    hessian_matrix,
    hessian_norms,
    hessian_quadratic_form,
    policy_gradient,
    prompt_stats,
)
from .rng import PERMUTATION_STREAM, SCENARIO_STREAM, stream_rng
from .runner import run_experiment, run_sweep
from .scenarios import difficulty_preset, orthogonal_blocks, random_features
from .trainers import (
    TrainerConfig,
    TrajectoryLog,
    _loop_trajectory,
    cumulative_bound_check,
    run_trajectory,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

# Bound comparisons allow this much floating-point headroom; the bounds are
# exact-arithmetic statements evaluated in doubles.
_REL_EPS = 1e-9
_ABS_EPS = 1e-15

_ORTHO_INSTANCE_SEED = 7
_TRAINER_SEED = 11
_PRESET_SEED = 2


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed_s: float
    limit_s: Optional[float]
    detail: str
    expected_failure: bool = False

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.expected_failure = bool(self.expected_failure)

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL (expected)" if self.expected_failure else "FAIL"


def _within(value: float, bound: float) -> bool:
    return value <= bound * (1.0 + _REL_EPS) + _ABS_EPS


def _normalized_instance(rng, n_max=4, k_max=8, d_max=32) -> FeatureSet:
    """A random_features instance whose feature matrices have spectral norm
    at most 1."""
    n = int(rng.integers(1, n_max + 1))
    K = int(rng.integers(2, k_max + 1))
    d = int(rng.integers(2, d_max + 1))
    fs = random_features(n, K, d, overlap=float(rng.uniform(0, 1)), rng=rng)
    return FeatureSet(
        features=tuple(X / max(1.0, np.linalg.norm(X, 2)) for X in fs.features),
        correct=fs.correct,
    )


def c1_gradient_oracle(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    rng = stream_rng(101, SCENARIO_STREAM)
    worst = 0.0
    for _ in range(100):
        fs = _normalized_instance(rng)
        theta = rng.uniform(-3.0, 3.0, size=fs.d)
        for i in range(fs.n):
            g = policy_gradient(fs, theta, i)
            gf = fd_gradient(_success_objective(fs, i), theta)
            rel = float(np.abs(g - gf).max() / max(np.abs(g).max(), 1e-12))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        1, "gradient oracle (100 instances, rel err <= 1e-6)",
        worst <= 1e-6 and elapsed < 10.0, elapsed, 10.0,
        f"max rel err {worst:.3e}",
    )


def c2_hessian_consistency(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    rng = stream_rng(102, SCENARIO_STREAM)
    worst_quad = worst_fd = 0.0
    for _ in range(100):
        fs = _normalized_instance(rng)
        theta = rng.uniform(-3.0, 3.0, size=fs.d)
        for i in range(fs.n):
            H = hessian_matrix(fs, theta, i)
            for _ in range(200):
                y = rng.standard_normal(fs.d)
                q_mat = float(y @ H @ y)
                q_form = hessian_quadratic_form(fs, theta, i, y)
                worst_quad = max(worst_quad, abs(q_mat - q_form) / max(1.0, abs(q_form)))
            H_fd = fd_hessian(_success_objective(fs, i), theta)
            worst_fd = max(worst_fd, float(np.abs(H - H_fd).max()))
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        2, "hessian consistency (quadratic form 1e-12, FD 1e-5)",
        worst_quad <= 1e-12 and worst_fd <= 1e-5 and elapsed < 30.0, elapsed, 30.0,
        f"quad err {worst_quad:.3e}, FD err {worst_fd:.3e}",
    )


def _lemma_sweep(seed: int, check, judge=None) -> tuple[int, int]:
    """Failures among 1e4 random (instance, theta) samples, ten per instance.
    `check(fs, theta, rng)` makes a sample's draws and returns its pass flag,
    or a value that `judge(fs, values)` maps, per instance, to pass flags."""
    rng = stream_rng(seed, SCENARIO_STREAM)
    violations = samples = 0
    while samples < 10_000:
        fs = _normalized_instance(rng, 3, 6, 16)
        values = [check(fs, rng.uniform(-3.0, 3.0, size=fs.d), rng) for _ in range(min(10, 10_000 - samples))]
        violations += sum(not ok for ok in (judge(fs, values) if judge else values))
        samples += len(values)
    return violations, samples


def c3_lemma_curvature_bound(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    sharp = 2.0 * math.sqrt(2.0) + 1.0

    def check(fs, theta, _rng):
        variances = batch_stats(fs, theta).variance.tolist()
        norms = hessian_norms(fs, [theta] * fs.n, np.arange(fs.n)).tolist()
        return all(
            _within(hn, 4.0 * fs.x_max**2 * v) and _within(hn, sharp * fs.x_max**2 * v)
            for hn, v in zip(norms, variances)
        )

    violations, samples = _lemma_sweep(103, check)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        3, "curvature bound sweep (4 x_max^2 V and (2 sqrt 2 + 1) x_max^2 V)",
        violations == 0 and elapsed < 60.0, elapsed, 60.0,
        f"{violations} violations / {samples} samples",
    )


def c4_lipschitz_bound(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()

    def check(fs, theta, _rng):
        stats = batch_stats(fs, theta)
        norms = np.sqrt(stats.grad_sq).tolist()
        return all(
            _within(gn, 0.5 * fs.x_max) and _within(gn, 2.0 * x_norm * v)
            for gn, x_norm, v in zip(norms, fs.x_norms.tolist(), stats.variance.tolist())
        )

    violations, samples = _lemma_sweep(104, check)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        4, "gradient bound sweep (x_max / 2 and 2 |X_i| V)",
        violations == 0, elapsed, None,
        f"{violations} violations / {samples} samples",
    )


def c5_local_smoothness_ball(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()

    def check(fs, theta, rng):
        i = int(rng.integers(0, fs.n))
        v = prompt_stats(fs, theta, i).variance
        radius = math.sqrt(v) / fs.x_max
        u = rng.standard_normal(fs.d)
        u *= radius * rng.uniform() ** (1.0 / fs.d) / np.linalg.norm(u)
        return i, theta + u, 2.5 * fs.x_max**2 * math.sqrt(v)

    def judge(fs, values):
        # no draw depends on a norm, so one call evaluates an instance's ball points
        prompts, points, bounds = zip(*values)
        return map(_within, hessian_norms(fs, points, prompts).tolist(), bounds)

    violations, samples = _lemma_sweep(105, check, judge)
    a_star, f_max = grid_max_f(100_000)
    f_case = local_smoothness_envelope(0.5 - math.sqrt(5.0) / 10.0)
    envelope_ok = (
        abs(f_max - 2.5) <= 1e-3
        and abs(a_star - 0.1) <= 1e-3
        and abs(f_case - math.sqrt(5.0)) <= 1e-6
    )
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        5, "local smoothness ball sweep and envelope maximum",
        violations == 0 and envelope_ok, elapsed, None,
        f"{violations} violations / {samples} pairs; grid max {f_max:.6f} at {a_star:.4f}, "
        f"f(1/2 - sqrt5/10) = {f_case:.9f}",
    )


_ORTHO_RUNS: dict[str, tuple] = {}


def _orthogonal_runs():
    """Two T=1e4 runs (one per algorithm) on the shared orthogonal instance."""
    if not _ORTHO_RUNS:
        fs = orthogonal_blocks(
            n=8, K=4, block_dim=4, scale=1.0, rng=stream_rng(_ORTHO_INSTANCE_SEED, SCENARIO_STREAM)
        )
        theta0 = np.zeros(fs.d)
        for alg in ("reinforce", "grpo"):
            cfg = TrainerConfig(algorithm=alg, horizon=10_000, seed=_TRAINER_SEED)
            _ORTHO_RUNS[alg] = (fs, run_trajectory(cfg, fs, theta0))
    return _ORTHO_RUNS


def _logs_equal(a: TrajectoryLog, b: TrajectoryLog) -> bool:
    """Every column of two logs byte for byte, and equal final parameters."""
    columns = [
        f.name for f in fields(TrajectoryLog)
        if f.name != "final_theta" and isinstance(getattr(a, f.name), np.ndarray)
    ]
    return all(getattr(a, c).tobytes() == getattr(b, c).tobytes() for c in columns) and np.array_equal(
        a.final_theta, b.final_theta
    )


def c6_decoupling(_work: Path) -> CriterionResult:
    # Read off the general loop, which does not assume the decoupling that
    # run_trajectory's round replay relies on; the replayed runs of criteria
    # 7 and 8 must equal these.
    t0 = time.perf_counter()
    worst = 0.0
    replay_equal = True
    for alg in ("reinforce", "grpo"):
        fs, replayed = _orthogonal_runs()[alg]
        log = _loop_trajectory(replayed.config, fs, np.zeros(fs.d))
        deltas = np.abs(np.diff(log.objectives, axis=0))
        deltas[np.arange(len(log) - 1), log.selected[:-1]] = 0.0
        worst = max(worst, float(deltas.max()))
        replay_equal &= _logs_equal(log, replayed)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        6, "decoupling on orthogonal blocks (|dJ| <= 1e-12 for non-selected)",
        worst <= 1e-12 and replay_equal, elapsed, None,
        f"max |dJ_nonselected| = {worst:.3e} over 2 x 1e4 iterations; "
        f"round replay {'equals' if replay_equal else 'DIFFERS FROM'} the loop",
    )


def c7_per_step_improvement(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ok = True
    for alg in ("reinforce", "grpo"):
        _, log = _orthogonal_runs()[alg]
        min_slack = float(log.bound_slack.min())
        ok &= min_slack >= 0.0
        details.append(f"{alg} min slack {min_slack:.3e}")
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        7, "per-step improvement inequalities (slack >= 0 at every step)",
        ok, elapsed, None, "; ".join(details),
    )


def c8_cumulative_bounds(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    fs, r_log = _orthogonal_runs()["reinforce"]
    _, g_log = _orthogonal_runs()["grpo"]
    r_rep = cumulative_bound_check(r_log, fs)
    g_rep = cumulative_bound_check(g_log, fs)
    reinforce_ok = r_rep.all_passed
    grpo_sum_ok = g_rep.all_passed
    tmin_ok = g_rep.variant_all_passed("grpo_theorem_tmin")
    half_ok = g_rep.variant_all_passed("grpo_half_c_sum")

    # Demonstrate the sum-form does hold before variances decay: replay the
    # prefix of the same GRPO run at a short horizon.
    cfg = TrainerConfig(algorithm="grpo", horizon=500, seed=_TRAINER_SEED)
    prefix_rep = cumulative_bound_check(run_trajectory(cfg, fs, np.zeros(fs.d)), fs)
    prefix_ok = prefix_rep.all_passed

    passed = reinforce_ok and grpo_sum_ok
    expected_failure = (not grpo_sum_ok) and reinforce_ok and tmin_ok and half_ok and prefix_ok
    worst_ratio = max(p.grad_sq_sum / p.rhs for p in g_rep.prompts)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        8, "cumulative gradient-norm bounds at run end",
        passed, elapsed, 120.0,
        f"REINFORCE sum-form {'PASS' if reinforce_ok else 'FAIL'}; "
        f"GRPO sum-form (realized C) {'PASS' if grpo_sum_ok else 'FAIL'} "
        f"(worst lhs/rhs {worst_ratio:.2f} at T=1e4); "
        f"derivable variants: T*min {'PASS' if tmin_ok else 'FAIL'}, "
        f"worst-case-C sum {'PASS' if half_ok else 'FAIL'}, "
        f"prefix T=500 sum {'PASS' if prefix_ok else 'FAIL'}",
        expected_failure=expected_failure,
    )


def _preset_sweep_config(horizon: int) -> dict:
    return {
        "scenario": {
            "generator": "difficulty_preset",
            "params": {"n": 6, "K": 4, "block_dim": 4, "scale": 1.0},
            "seed": _PRESET_SEED,
        },
        "trainer": {"algorithm": "grpo", "horizon": horizon, "seed": 0},
        "diagnostics": {"snapshot_cadence": 1, "threshold": 0.9},
        "output": {"dir": "sweep", "formats": ["csv", "json"]},
    }


def c9_rate_separation(work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    cfg = parse_config_dict(_preset_sweep_config(horizon=1500))
    sweep = run_sweep(cfg, seeds=range(10), algorithms=("reinforce", "grpo"), out_dir=work / "c9_sweep")
    med_r = sweep.summary["medians"]["reinforce"]
    med_g = sweep.summary["medians"]["grpo"]
    wins = sweep.summary["grpo_win_fraction"]
    c_values = [row["grpo_c_at_threshold"] for row in sweep.table]
    c_ok = all(c is not None and c < 1.0 for c in c_values)
    unreached = sweep.summary["unreached_counts"]["reinforce"] + sweep.summary["unreached_counts"]["grpo"]
    elapsed = time.perf_counter() - t0
    passed = med_g < med_r and wins >= 0.8 and c_ok and unreached == 0 and elapsed < 300.0
    return CriterionResult(
        9, "rate separation on the difficulty preset (10 paired seeds)",
        passed, elapsed, 300.0,
        f"median iters reinforce {med_r:.0f} vs grpo {med_g:.0f}; grpo wins {wins:.0%}; "
        f"max C at threshold {max(c_values):.3f}",
    )


def c10_fisher_unbiasedness(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    rng = stream_rng(110, SCENARIO_STREAM)
    fs = random_features(n=3, K=4, d=8, overlap=0.3, rng=rng)
    theta = rng.uniform(-1.0, 1.0, size=8)
    exact = exact_fisher_diag(fs, theta)
    draws, B = 100_000, 4
    frng = stream_rng(110, 1)
    acc = np.zeros(fs.d)
    acc_sq = np.zeros(fs.d)
    for _ in range(draws):
        h = fisher_diag_proxy(fs, theta, B, frng)
        acc += h
        acc_sq += h * h
    mean = acc / draws
    se = np.sqrt((acc_sq / draws - mean**2) / draws)
    z = float(np.abs((mean - exact) / se).max())
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        10, "Fisher diagonal proxy unbiasedness (1e5 draws, 3 SE per coordinate)",
        z <= 3.0, elapsed, None, f"max |z| = {z:.2f} over {fs.d} coordinates",
    )


def c11_curvature_variance_link(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    fs, theta0, _ = difficulty_preset(n=6, K=4, block_dim=4, scale=1.0, seed=_PRESET_SEED)
    rng = stream_rng(111, PERMUTATION_STREAM)
    rep = curvature_variance_correlation(fs, theta0, B=8, rng=rng, n_permutations=10_000)
    main_ok = rep.pearson_r > 0 and rep.p_value < 0.05

    control_hits = 0
    for s in range(10):
        crng = stream_rng(200 + s, PERMUTATION_STREAM)
        shuffled = crng.permutation(rep.variances)
        _, p = _permutation_test(rep.curvature, shuffled, crng, 10_000)
        control_hits += p > 0.05
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        11, "curvature-variance correlation (positive, permutation p < 0.05)",
        main_ok and control_hits >= 9, elapsed, None,
        f"r = {rep.pearson_r:.3f}, p = {rep.p_value:.4f}; control p > 0.05 in {control_hits}/10 seeds",
    )


def c12_near_orthogonality(_work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    fracs = []
    for s in range(10):
        rng = stream_rng(112 + s, SCENARIO_STREAM)
        fs = random_features(n=32, K=2, d=512, overlap=0.0, rng=rng)
        theta = rng.standard_normal(512) / math.sqrt(512)
        rep = pairwise_grad_cosines(fs, theta)
        fracs.append(float((np.abs(rep.cosines) < 0.15).mean()))
    mean_frac = float(np.mean(fracs))
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        12, "near-orthogonality of random features (90% of |cos| < 0.15)",
        mean_frac >= 0.9, elapsed, None,
        f"mean fraction {mean_frac:.4f} (min over seeds {min(fracs):.4f})",
    )


def c13_reproducibility(work: Path) -> CriterionResult:
    t0 = time.perf_counter()
    cfg_dict = {
        "scenario": {
            "generator": "orthogonal_blocks",
            "params": {"n": 4, "K": 3, "block_dim": 3, "scale": 1.0},
            "seed": 5,
        },
        "trainer": {"algorithm": "grpo", "horizon": 200, "seed": 3},
        "diagnostics": {"snapshot_cadence": 1, "phase_cadence": 100},
        "output": {"dir": "repro", "formats": ["csv", "json", "svg"]},
    }
    results = []
    for tag in ("a", "b"):
        cfg = parse_config_dict(cfg_dict)
        results.append(run_experiment(cfg, out_dir=work / f"c13_{tag}"))
    identical = all(
        p1.read_bytes() == p2.read_bytes()
        for p1, p2 in zip(results[0].artifacts, results[1].artifacts)
    )
    elapsed = time.perf_counter() - t0
    names = ", ".join(p.name for p in results[0].artifacts)
    return CriterionResult(
        13, "byte-identical artifacts on repeated runs",
        identical, elapsed, None, f"compared {names}",
    )


CRITERIA = [
    c1_gradient_oracle,
    c2_hessian_consistency,
    c3_lemma_curvature_bound,
    c4_lipschitz_bound,
    c5_local_smoothness_ball,
    c6_decoupling,
    c7_per_step_improvement,
    c8_cumulative_bounds,
    c9_rate_separation,
    c10_fisher_unbiasedness,
    c11_curvature_variance_link,
    c12_near_orthogonality,
    c13_reproducibility,
]


def run_all(work_dir) -> list[CriterionResult]:
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    _ORTHO_RUNS.clear()
    return [fn(work) for fn in CRITERIA]
