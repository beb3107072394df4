"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (config parse and
instance build), whose `op(k)` is one closed-loop operation against the
public API of rlvrlab, and whose `check(k, output)` verifies that operation's
output outside the timed region.  `reference()` runs one checked op before
timing starts, which also warms the caches.  Where the artifacts are meant
to be byte-stable (train_long, sweep_short) it runs on the default seed and
compares them with the digests recorded in digests.json; elsewhere it runs
the first op of the run.

Inputs come only from the workload seed.  The program is handed the
generated configs, instances and parameter vectors, never the seed itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())

# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any optimisation is measured.
LAYER_PREDICTIONS = {
    "policy (stats/gradient)": {
        "metrics": ["policy.prompt_stats", "policy.policy_gradient", "policy.prompt_stats.per_iter"],
        "moves": ["iters_per_s", "fisher_draws_per_s"],
        "on": "train_long (most), sweep_short, fisher_draws",
    },
    "policy (curvature)": {
        "metrics": ["policy.hessian_matrix", "policy.spectral_norm", "policy.spectral_norm.power_calls"],
        "moves": ["audited_prompts_per_s", "op_s_p50"],
        "on": "audit_wide only; no change predicted on train_long and sweep_short",
    },
    "rng / trainers selection": {
        "metrics": ["rng.stream_rng", "trainers.select_prompt", "rng.stream_rng.per_iter"],
        "moves": ["iters_per_s"],
        "on": "train_long; fisher_draws as the contrast",
    },
    "trainers loop": {
        "metrics": ["trainers.run_trajectory", "trainers.cumulative_bound_check"],
        "moves": ["iters_per_s", "peak_rss_mb"],
        "on": "train_long",
    },
    "diagnostics geometry": {
        "metrics": ["diagnostics.pairwise_grad_cosines", "diagnostics.m_bound",
                    "diagnostics.scale_regularity", "diagnostics.lemma_bound_report"],
        "moves": ["op_s_p50"],
        "on": "audit_wide; train_long via phase checkpoints (small)",
    },
    "diagnostics Fisher": {
        "metrics": ["diagnostics.fisher_diag_proxy", "diagnostics.exact_fisher_diag",
                    "diagnostics.fisher_diag_proxy.draws"],
        "moves": ["fisher_draws_per_s"],
        "on": "fisher_draws only",
    },
    "config / scenarios": {
        "metrics": ["config.parse_config_dict", "config.build_instance", "scenarios.orthogonal_blocks",
                    "scenarios.random_features", "scenarios.difficulty_preset", "scenarios.difficulty_profile"],
        "moves": ["setup_s", "op_s_p50"],
        "on": "sweep_short (one build per run); setup_s everywhere",
    },
    "runner / svgplot": {
        "metrics": ["runner.run_experiment", "runner.run_sweep", "runner.diagnose_report",
                    "svgplot.line_plot", "runner.artifact_bytes"],
        "moves": ["op_s_p50"],
        "on": "sweep_short (largest share), train_long",
    },
}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): file_digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _digest_problems(got: dict, want: dict, what: str) -> list[str]:
    if got == want:
        return []
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"{what}: artifacts differ in {', '.join(changed)}"]


class Workload:
    name: str
    why: str
    work_unit: str        # what one unit of work is: "iterations", "prompts" or "draws"
    work_metric: str      # the report's name for work per second on this workload

    def __init__(self, mods, seed: int, out: Path):
        self.mods = mods
        self.seed = seed
        self.out = out
        self._first: dict = {}

    def _same_as_first(self, key, value, what: str) -> list[str]:
        """Identical inputs must give identical outputs within one run."""
        first = self._first.setdefault(key, value)
        return [] if first == value else [f"{what} differs from the first op with the same inputs"]


def _train_config(algorithm: str, seed: int) -> dict:
    # The orthogonal instance of acceptance criteria 6-8; only the
    # prompt-selection seed comes from the workload seed.
    return {
        "scenario": {"generator": "orthogonal_blocks",
                     "params": {"n": 8, "K": 4, "block_dim": 4, "scale": 1.0}, "seed": 7},
        "trainer": {"algorithm": algorithm, "horizon": 10_000, "seed": seed},
        "diagnostics": {"snapshot_cadence": 1, "phase_cadence": 1000},
        "output": {"dir": "runs", "formats": ["csv", "json", "svg"]},
    }


class TrainLong(Workload):
    name = "train_long"
    why = ("one T=1e4 run per op on the orthogonal n=8 instance: the per-iteration path "
           "(prompt stats, selection, records) does nearly all the work")
    work_unit = "iterations"
    work_metric = "iters_per_s"
    ALGORITHMS = ("reinforce", "grpo")

    def __init__(self, mods, seed, out):
        super().__init__(mods, seed, out)
        parse = mods.config.parse_config_dict
        self.cfgs = {alg: parse(_train_config(alg, seed)) for alg in self.ALGORITHMS}
        self.ref_cfg = parse(_train_config("grpo", DEFAULT_SEED))
        mods.config.build_instance(self.ref_cfg)   # set-up cost only: each op builds its own

    def op(self, k: int):
        cfg = self.cfgs[self.ALGORITHMS[k % 2]]
        res = self.mods.runner.run_experiment(cfg, out_dir=self.out / "op")
        return cfg.trainer.horizon, res

    def _problems(self, res, algorithm: str, seed: int) -> tuple[list[str], dict]:
        digests = {p.name: file_digest(p) for p in res.artifacts}
        problems = []
        if seed == DEFAULT_SEED:
            problems += _digest_problems(digests, DIGESTS[self.name][algorithm], f"{algorithm} seed {seed}")
        slack = min(rec.bound_slack for rec in res.log.records)
        if not slack >= 0.0:
            problems.append(f"{algorithm}: per-step bound_slack {slack!r} < 0 on the orthogonal instance")
        return problems, digests

    def check(self, k: int, res) -> list[str]:
        algorithm = self.ALGORITHMS[k % 2]
        problems, digests = self._problems(res, algorithm, self.seed)
        return problems + self._same_as_first(algorithm, digests, f"{algorithm} artifacts")

    def reference(self) -> tuple[list[str], int]:
        res = self.mods.runner.run_experiment(self.ref_cfg, out_dir=self.out / "reference")
        problems, _ = self._problems(res, "grpo", DEFAULT_SEED)
        return problems, tree_bytes(self.out / "reference")


def _sweep_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(range(1_000_000), 6)


class SweepShort(Workload):
    name = "sweep_short"
    why = ("a 6-seed x 2-algorithm sweep at T=200 per op on the difficulty preset: many short "
           "runs, each paying for its config echo, instance build, bound check and writing")
    work_unit = "iterations"
    work_metric = "iters_per_s"
    CONFIG = {
        "scenario": {"generator": "difficulty_preset",
                     "params": {"n": 6, "K": 4, "block_dim": 4, "scale": 1.0}, "seed": 2},
        "trainer": {"algorithm": "grpo", "horizon": 200, "seed": 0},
        "diagnostics": {"snapshot_cadence": 1, "threshold": 0.9},
        "output": {"dir": "sweep", "formats": ["csv", "json"]},
    }

    def __init__(self, mods, seed, out):
        super().__init__(mods, seed, out)
        self.cfg = mods.config.parse_config_dict(self.CONFIG)
        mods.config.build_instance(self.cfg)   # set-up cost only: each run of the sweep builds its own
        self.seeds = _sweep_seeds(seed)

    def _sweep(self, seeds, out: Path):
        self.mods.runner.run_sweep(self.cfg, seeds, ("reinforce", "grpo"), out_dir=out)
        return 2 * len(seeds) * self.cfg.trainer.horizon

    def _problems(self, out: Path, seed: int) -> tuple[list[str], dict]:
        digests = tree_digests(out)
        problems = []
        if seed == DEFAULT_SEED:
            problems += _digest_problems(digests, DIGESTS[self.name], f"sweep seed {seed}")
        for path in sorted(out.rglob("trajectory.csv")):
            with path.open(newline="") as f:
                slack = min(float(row["bound_slack"]) for row in csv.DictReader(f))
            if not slack >= 0.0:
                problems.append(f"{path.parent.name}: per-step bound_slack {slack!r} < 0")
        return problems, digests

    def op(self, k: int):
        return self._sweep(self.seeds, self.out / "op"), None

    def check(self, k: int, _output) -> list[str]:
        problems, digests = self._problems(self.out / "op", self.seed)
        return problems + self._same_as_first("sweep", digests, "sweep artifacts")

    def reference(self) -> tuple[list[str], int]:
        out = self.out / "reference"
        self._sweep(_sweep_seeds(DEFAULT_SEED), out)
        problems, _ = self._problems(out, DEFAULT_SEED)
        return problems, tree_bytes(out)


# Curvature norms may change in their last bits (a closed-form norm would
# replace power iteration), so they are compared with a dense reference
# within this relative tolerance instead of by digest.
HESS_RTOL = 1e-6
GRAD_RTOL = 1e-9


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _reference_geometry(fs, theta: np.ndarray):
    """Gradient norms, Hessian norms and the gradient matrix, computed from
    the features alone: grad p_a = p_a u and
    Hess p_a = p_a (u u^T - X^T (diag p - p p^T) X) with u = X^T (e_a - p),
    the Hessian norm by a dense LAPACK eigensolve."""
    grads, hess_norms = [], []
    for X, a in zip(fs.features, fs.correct):
        p = _softmax(X @ theta)
        e = -p.copy()
        e[a] += 1.0
        u = X.T @ e
        cov = X.T @ (np.diag(p) - np.outer(p, p)) @ X
        hess = p[a] * (np.outer(u, u) - cov)
        grads.append(p[a] * u)
        hess_norms.append(float(np.abs(np.linalg.eigvalsh((hess + hess.T) / 2)).max()))
    return np.array(grads), np.array(hess_norms)


def _reference_m_status(fs, grads: np.ndarray, tol: float) -> str:
    X = np.stack(fs.features)                                  # (n, K, d)
    proj = np.einsum("ikd,jd->ijk", X, grads)                  # X_i g_j
    rhs = (proj**2).sum(axis=2) / (fs.x_norms**2)[:, None]
    inner = grads @ grads.T
    off = ~np.eye(fs.n, dtype=bool)
    live = off & (rhs > tol)
    if np.any(live & (inner <= 0.0)):
        return "violated"
    return "ok" if np.any(live) else "vacuous"


def _reference_phase(grads: np.ndarray, thresholds) -> str:
    norms = np.linalg.norm(grads, axis=1)
    cos = (grads @ grads.T) / np.outer(norms, norms)
    iu = np.triu_indices(len(grads), 1)
    keep = (norms[iu[0]] * norms[iu[1]]) != 0.0
    if not np.any(keep):
        return "I"
    std = float(cos[iu][keep].std())
    t1, t2 = thresholds
    return "I" if std < t1 else ("II" if std < t2 else "III")


class AuditWide(Workload):
    name = "audit_wide"
    why = ("diagnose_report at three thetas on a random-features instance with d=128, above the "
           "64-dimension dense/power switch: Hessian spectral norms dominate; trainers and selection idle")
    work_unit = "prompts"
    work_metric = "audited_prompts_per_s"
    N, K, D = 16, 4, 128
    THETA_SCALES = (0.5, 1.0, 2.0)
    # Power iteration's cost depends on each Hessian's spectrum, and on
    # random instances it is heavy-tailed: a few near-degenerate spectra take
    # 10-60x the median.  So the base instance and thetas are fixed and the
    # seed draws an orthogonal Q: features X_i Q and parameters Q^T theta give
    # the same probabilities, cosines and Hessian spectra in a new basis.
    BASE_SEED = 0

    def __init__(self, mods, seed, out):
        super().__init__(mods, seed, out)
        cfg = mods.config.parse_config_dict({
            "scenario": {"generator": "random_features",
                         "params": {"n": self.N, "K": self.K, "d": self.D, "overlap": 0.0},
                         "seed": self.BASE_SEED},
            "trainer": {"algorithm": "reinforce", "horizon": 1, "seed": 0},
        })
        base, _ = mods.config.build_instance(cfg)
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((self.D, self.D)))
        q *= np.sign(np.diag(r))
        self.fs = mods.policy.FeatureSet(features=tuple(X @ q for X in base.features), correct=base.correct)
        rng = np.random.default_rng(self.BASE_SEED)
        self.thetas = [q.T @ (s * rng.standard_normal(self.D) / math.sqrt(self.D)) for s in self.THETA_SCALES]

    def op(self, k: int):
        reports = [self.mods.runner.diagnose_report(self.fs, theta) for theta in self.thetas]
        return self.fs.n * len(self.thetas), reports

    def check(self, k: int, reports) -> list[str]:
        text = json.dumps(reports, sort_keys=True)
        if self._first:
            return self._same_as_first("reports", text, "diagnose reports")
        self._first["reports"] = text
        problems = []
        for j, (theta, report) in enumerate(zip(self.thetas, reports)):
            problems += self._reference_problems(j, theta, report)
        return problems

    def _reference_problems(self, j: int, theta: np.ndarray, report: dict) -> list[str]:
        diag = self.mods.diagnostics
        grads, hess_norms = _reference_geometry(self.fs, theta)
        grad_norms = np.linalg.norm(grads, axis=1)
        rows = report["lemma_bounds"]
        h_err = float(np.max(np.abs(np.array([r["hess_norm"] for r in rows]) - hess_norms) / hess_norms))
        g_err = float(np.max(np.abs(np.array([r["grad_norm"] for r in rows]) - grad_norms) / grad_norms))
        problems = []
        if not h_err <= HESS_RTOL:
            problems.append(f"theta {j}: Hessian norm relative error {h_err:.3e} > {HESS_RTOL}")
        if not g_err <= GRAD_RTOL:
            problems.append(f"theta {j}: gradient norm relative error {g_err:.3e} > {GRAD_RTOL}")
        want_m = _reference_m_status(self.fs, grads, diag.M_VACUOUS_TOL)
        want_phase = _reference_phase(grads, diag.PHASE_THRESHOLDS)
        a = report["assumptions"]
        if a["m_status"] != want_m:
            problems.append(f"theta {j}: m_status {a['m_status']!r}, reference {want_m!r}")
        if a["phase"] != want_phase:
            problems.append(f"theta {j}: phase {a['phase']!r}, reference {want_phase!r}")
        return problems

    def reference(self) -> tuple[list[str], int]:
        _, reports = self.op(0)
        return self.check(0, reports), 0


# Per-op bound on max |z| of the Fisher-proxy mean against the exact
# expectation over all d coordinates.  z uses the exact standard error: the
# proxy is heavily skewed (one coordinate had skewness 11.5), and with the
# sample standard error a run of 1000 draws that misses its upper tail
# reached |z| = 6.5 although 1e5 draws of the same inputs gave 2.0.
Z_MAX = 5.0
FISHER_RTOL = 1e-12


def _score_moments(fs, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second and fourth moments of the score over a uniform prompt and an
    on-policy output, by enumeration."""
    m2 = np.zeros(fs.d)
    m4 = np.zeros(fs.d)
    for X in fs.features:
        p = _softmax(X @ theta)
        scores = X - p @ X
        m2 += p @ scores**2
        m4 += p @ scores**4
    return m2 / fs.n, m4 / fs.n


class FisherDraws(Workload):
    name = "fisher_draws"
    why = ("1000 Fisher-proxy draws (B=4) per op from one generator on criterion 10's shape "
           "(n=3, K=4, d=8), plus the exact Fisher diagonal and a z-check")
    work_unit = "draws"
    work_metric = "fisher_draws_per_s"
    DRAWS, B = 1000, 4

    def __init__(self, mods, seed, out):
        super().__init__(mods, seed, out)
        cfg = mods.config.parse_config_dict({
            "scenario": {"generator": "random_features",
                         "params": {"n": 3, "K": 4, "d": 8, "overlap": 0.3}, "seed": seed},
            "trainer": {"algorithm": "reinforce", "horizon": 1, "seed": 0},
        })
        self.fs, _ = mods.config.build_instance(cfg)
        self.theta = np.random.default_rng(seed).uniform(-1.0, 1.0, self.fs.d)
        # The score has mean zero under the policy, so a draw h has mean m2
        # and variance m4 / B + (2B - 3) / B * m2^2.
        self.want, m4 = _score_moments(self.fs, self.theta)
        self.se = np.sqrt((m4 / self.B + (2 * self.B - 3) / self.B * self.want**2) / self.DRAWS)

    def op(self, k: int):
        diag, rng = self.mods.diagnostics, self.mods.rng
        gen = rng.stream_rng(self.seed, rng.FISHER_STREAM)
        acc = np.zeros(self.fs.d)
        h_min = math.inf
        for _ in range(self.DRAWS):
            h = diag.fisher_diag_proxy(self.fs, self.theta, self.B, gen)
            acc += h
            h_min = min(h_min, float(h.min()))
        exact = diag.exact_fisher_diag(self.fs, self.theta)
        mean = acc / self.DRAWS
        z = float(np.max(np.abs(mean - exact) / self.se))
        return self.DRAWS, (z, h_min, exact, mean)

    def check(self, k: int, output) -> list[str]:
        z, h_min, exact, mean = output
        problems = []
        if not z <= Z_MAX:
            problems.append(f"Fisher proxy max |z| = {z:.2f} > {Z_MAX}")
        if h_min < 0.0:
            problems.append(f"Fisher proxy draw has a negative entry {h_min!r}")
        err = float(np.max(np.abs(exact - self.want) / self.want))
        if not err <= FISHER_RTOL:
            problems.append(f"exact_fisher_diag relative error {err:.3e} > {FISHER_RTOL}")
        return problems + self._same_as_first("draws", (z, mean.tobytes()), "Fisher draws")

    def reference(self) -> tuple[list[str], int]:
        _, output = self.op(0)
        return self.check(0, output), 0


WORKLOADS = {w.name: w for w in (TrainLong, SweepShort, AuditWide, FisherDraws)}
