"""Measurement of the assumption constants and empirical quantities the
convergence analysis depends on: pairwise gradient geometry, the
cross-prompt interaction bound, scale-regularity ratios, the realized
average reward-std factor, the diagonal Fisher proxy, the curvature-variance
correlation, and per-prompt slack against the smoothness bounds.

Violations are data here, not exceptions: the auditor's job is to report
how far an instance is from the assumptions, including "not at all".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .policy import FeatureSet, _batch_probs, batch_stats, hessian_norm
from .trainers import TrajectoryLog

__all__ = [
    "CosineReport",
    "MBoundReport",
    "ScaleReport",
    "FisherReport",
    "LemmaBoundRow",
    "AssumptionReport",
    "pairwise_grad_cosines",
    "m_bound",
    "scale_regularity",
    "c_constant",
    "phase_classify",
    "fisher_diag_proxy",
    "exact_fisher_diag",
    "curvature_variance_correlation",
    "lagged_curvature_variance",
    "lemma_bound_report",
    "assumption_report",
]

PHASE_THRESHOLDS = (0.055, 0.10)
M_VACUOUS_TOL = 1e-12
_PERMUTATION_TIE_TOL = 1e-12


@dataclass
class CosineReport:
    """Statistics of cos(grad_i, grad_j) over prompt pairs i < j."""

    mean: float
    std: float
    frac_positive: float
    frac_abs_below_0p1: float
    n_pairs: int
    n_excluded: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    cosines: np.ndarray
    empty: bool = False


def pairwise_grad_cosines(fs: FeatureSet, theta: np.ndarray) -> CosineReport:
    """Cosine similarity between the gradients of every prompt pair.

    Pairs where either gradient has zero norm are excluded from the
    statistics and counted.  When no pair survives, the report is flagged
    empty and the statistics are NaN.
    """
    if fs.n < 2:
        raise ValueError("need at least two prompts for pairwise cosines")
    stats = batch_stats(fs, theta)
    grads = stats.grads
    norms = np.sqrt(stats.grad_sq)
    pair_i, pair_j, cos = [], [], []
    excluded = 0
    for i in range(fs.n):
        for j in range(i + 1, fs.n):
            denom = norms[i] * norms[j]
            if denom == 0.0:
                excluded += 1
                continue
            pair_i.append(i)
            pair_j.append(j)
            cos.append(float(grads[i] @ grads[j]) / denom)
    cos = np.array(cos)
    if cos.size == 0:
        return CosineReport(
            mean=math.nan, std=math.nan, frac_positive=math.nan,
            frac_abs_below_0p1=math.nan, n_pairs=0, n_excluded=excluded,
            pair_i=np.array(pair_i, dtype=int), pair_j=np.array(pair_j, dtype=int),
            cosines=cos, empty=True,
        )
    return CosineReport(
        mean=float(cos.mean()),
        std=float(cos.std()),
        frac_positive=float((cos > 0).mean()),
        frac_abs_below_0p1=float((np.abs(cos) < 0.1).mean()),
        n_pairs=cos.size,
        n_excluded=excluded,
        pair_i=np.array(pair_i, dtype=int),
        pair_j=np.array(pair_j, dtype=int),
        cosines=cos,
    )


@dataclass
class MBoundReport:
    """Tightest feasible cross-prompt interaction constant.

    For each ordered pair (i, j) the requirement is
    m * <grad_i, grad_j> >= |X_i grad_j|^2 / |X_i|^2.  Pairs whose right-hand
    side is below tolerance, or whose X_i is zero, are vacuous; pairs with a
    non-positive inner product and a non-vacuous right-hand side violate the
    assumption outright.
    status is "vacuous" (m_hat = 0), "ok" (m_hat = max ratio) or "violated"
    (m_hat undefined).
    """

    status: str
    m_hat: float
    worst_pair: Optional[tuple[int, int]]
    violations: list[tuple[int, int]] = field(default_factory=list)
    n_candidates: int = 0
    n_vacuous: int = 0


# |X_i grad_j|^2 grows like x_max^4: an overflow is a numerical abort, not an
# infinite m_hat.
@np.errstate(over="raise")
def m_bound(fs: FeatureSet, theta: np.ndarray, tol: float = M_VACUOUS_TOL) -> MBoundReport:
    if fs.n < 2:
        raise ValueError("need at least two prompts")
    grads = batch_stats(fs, theta).grads
    best = 0.0
    worst_pair = None
    violations = []
    n_candidates = 0
    n_vacuous = 0
    for i in range(fs.n):
        norm = fs.x_norms[i]
        if norm == 0.0:
            # an all-zero prompt: X_i grad_j = 0, so each of its requirements is vacuous
            n_vacuous += fs.n - 1
            continue
        norm_sq = norm**2
        for j in range(fs.n):
            if i == j:
                continue
            proj = fs.features[i] @ grads[j]
            if norm_sq > 0.0:
                rhs = float(proj @ proj) / norm_sq
            else:
                # the square of a tiny nonzero norm underflows: scale first
                scaled = proj / norm
                rhs = float(scaled @ scaled)
            if rhs <= tol:
                n_vacuous += 1
                continue
            inner = float(grads[i] @ grads[j])
            if inner <= 0.0:
                violations.append((i, j))
                continue
            n_candidates += 1
            candidate = rhs / inner
            if candidate > best:
                best = candidate
                worst_pair = (i, j)
    if violations:
        return MBoundReport(
            status="violated", m_hat=math.nan, worst_pair=worst_pair,
            violations=violations, n_candidates=n_candidates, n_vacuous=n_vacuous,
        )
    if n_candidates == 0:
        return MBoundReport(
            status="vacuous", m_hat=0.0, worst_pair=None,
            n_candidates=0, n_vacuous=n_vacuous,
        )
    return MBoundReport(
        status="ok", m_hat=best, worst_pair=worst_pair,
        n_candidates=n_candidates, n_vacuous=n_vacuous,
    )


@dataclass
class ScaleReport:
    r1_hat: float
    r2_hat: float
    zero_grad_prompts: list[int] = field(default_factory=list)
    zero_var_prompts: list[int] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return bool(self.zero_grad_prompts or self.zero_var_prompts)


def scale_regularity(fs: FeatureSet, theta: np.ndarray) -> ScaleReport:
    """Heterogeneity ratios: max/min gradient norm and max/min reward std.

    Prompts with a zero denominator are flagged and make the affected ratio
    infinite instead of raising.
    """
    stats = batch_stats(fs, theta)
    grad_norms = np.sqrt(stats.grad_sq)
    sds = np.sqrt(stats.variance)
    zero_grad = [int(i) for i in np.flatnonzero(grad_norms == 0.0)]
    zero_var = [int(i) for i in np.flatnonzero(sds == 0.0)]
    r1 = math.inf if zero_grad else float(grad_norms.max() / grad_norms.min())
    r2 = math.inf if zero_var else float(sds.max() / sds.min())
    return ScaleReport(r1_hat=r1, r2_hat=r2, zero_grad_prompts=zero_grad, zero_var_prompts=zero_var)


def c_constant(log: TrajectoryLog) -> tuple[np.ndarray, float]:
    """Realized per-prompt C(i, T) and the aggregate C(T).

    C(i, T) = (8 / 3T) * sum over pre-step states of sqrt(V_i); the aggregate
    averages over prompts.  Bounded by 4/3 since sqrt(p(1-p)) <= 1/2.
    """
    if len(log) == 0:
        raise ValueError("empty trajectory log")
    T = len(log)
    per_prompt = (8.0 / (3.0 * T)) * log.sqrt_v_sums
    return per_prompt, float(per_prompt.mean())


def phase_classify(cos_std: float, thresholds: tuple[float, float] = PHASE_THRESHOLDS) -> str:
    """Training-regime label from the std of pairwise gradient cosines.

    Below the first threshold the geometry is near-orthogonal (phase I),
    below the second it is a low-variance transition (phase II), above it a
    high-variance regime (phase III).
    """
    if cos_std < 0:
        raise ValueError("cos_std must be nonnegative")
    t1, t2 = thresholds
    if not t1 < t2:
        raise ValueError("thresholds must be increasing")
    if cos_std < t1:
        return "I"
    if cos_std < t2:
        return "II"
    return "III"


def fisher_diag_proxy(fs: FeatureSet, theta: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the diagonal Fisher estimator B * mean-score (.) mean-score.

    Samples B prompts uniformly with replacement, one output per prompt from
    the current policy, and squares the averaged score vector componentwise.
    Entrywise nonnegative by construction.

    The outputs are those of rng.choice(K, p=probs[i]) drawn in turn for each
    sampled prompt: choice normalizes the cumulative sum of p by its last
    entry and returns the number of entries <= one uniform draw.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    probs = _batch_probs(fs, theta)
    prompts = rng.integers(0, fs.n, size=B)
    cdf = probs.cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]
    outputs = (cdf[prompts] <= rng.random(B)[:, None]).sum(axis=1)
    pbar = np.matmul(probs[:, None, :], fs.stacked)[:, 0, :]
    scores = fs.stacked[prompts, outputs] - pbar[prompts]
    # Summed in draw order: scores.sum(axis=0) sums pairwise and rounds differently.
    mean_score = scores.cumsum(axis=0)[-1] / B
    return B * mean_score * mean_score


def exact_fisher_diag(fs: FeatureSet, theta: np.ndarray) -> np.ndarray:
    """Enumeration-exact expectation of the diagonal Fisher proxy.

    Averages sum_j pi_j * score_j^2 over prompts; this is what the sampled
    proxy estimates without bias.
    """
    probs = _batch_probs(fs, theta)
    s = fs.stacked - np.matmul(probs[:, None, :], fs.stacked)
    return np.matmul(probs[:, None, :], s * s)[:, 0, :].cumsum(axis=0)[-1] / fs.n


@dataclass
class FisherReport:
    h: np.ndarray
    batch_size: int
    pearson_r: float
    p_value: float
    curvature: np.ndarray
    variances: np.ndarray
    constant_variance: bool = False


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    return float(xc @ yc) / denom


def _permutation_test(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_permutations: int
) -> tuple[float, float]:
    """Pearson r of (x, y) and its one-sided p-value over n_permutations shuffles of y.

    A shuffle counts as a hit when its r reaches r_obs within _PERMUTATION_TIE_TOL,
    so a shuffle that only swaps equal (or last-bit different) y values counts
    whatever the rounding of its r.
    """
    r_obs = _pearson(x, y)
    hits = sum(
        _pearson(x, rng.permutation(y)) >= r_obs - _PERMUTATION_TIE_TOL for _ in range(n_permutations)
    )
    return r_obs, (1 + hits) / (n_permutations + 1)


def curvature_variance_correlation(
    fs: FeatureSet,
    theta: np.ndarray,
    B: int,
    rng: np.random.Generator,
    n_permutations: int = 10_000,
) -> FisherReport:
    """Pearson correlation between per-prompt curvature and reward variance.

    The curvature summary is the exact Hessian spectral norm (available at
    desk scale, unlike in large-model training where the Fisher proxy stands
    in for it); a single Fisher-proxy draw is attached to the report for
    reference.  Significance comes from a one-sided permutation test over
    label shuffles.  A constant variance vector makes the correlation
    undefined and is flagged.
    """
    if fs.n < 3:
        raise ValueError("need at least three prompts with non-identical variances")
    curvature = np.array([hessian_norm(fs, theta, i) for i in range(fs.n)])
    variances = batch_stats(fs, theta).variance
    h = fisher_diag_proxy(fs, theta, B, rng)
    if np.ptp(variances) == 0.0 or np.ptp(curvature) == 0.0:
        return FisherReport(
            h=h, batch_size=B, pearson_r=math.nan, p_value=math.nan,
            curvature=curvature, variances=variances, constant_variance=True,
        )
    r_obs, p = _permutation_test(curvature, variances, rng, n_permutations)
    return FisherReport(
        h=h, batch_size=B, pearson_r=r_obs, p_value=p,
        curvature=curvature, variances=variances,
    )


def lagged_curvature_variance(
    fs: FeatureSet,
    thetas,
    lag: int = 1,
    rng: Optional[np.random.Generator] = None,
    n_permutations: int = 10_000,
) -> tuple[float, float, int]:
    """Correlation between curvature at one checkpoint and reward variance
    `lag` checkpoints later, pooled over prompts.

    The same-iteration correlation uses lag 0.  Returns (pearson_r, p_value,
    n_pairs).  Note that with exact quantities and nearby checkpoints the
    lagged pairs stay correlated; decorrelation needs checkpoints far enough
    apart for the policy to have moved.
    """
    thetas = list(thetas)
    if lag < 0 or len(thetas) <= lag:
        raise ValueError("need more checkpoints than the lag")
    rng = rng or np.random.default_rng(0)
    pairs = range(len(thetas) - lag)
    curv = np.array([hessian_norm(fs, thetas[k], i) for k in pairs for i in range(fs.n)])
    var = np.concatenate([batch_stats(fs, thetas[k + lag]).variance for k in pairs])
    if np.ptp(curv) == 0.0 or np.ptp(var) == 0.0:
        return math.nan, math.nan, curv.size
    return (*_permutation_test(curv, var, rng, n_permutations), curv.size)


@dataclass
class LemmaBoundRow:
    prompt: int
    grad_norm: float
    hess_norm: float
    bound_hess_4v: float
    bound_hess_sharp: float
    bound_grad_local: float
    bound_grad_global: float
    ball_hess_max: float
    bound_ball: float

    @property
    def min_slack(self) -> float:
        return min(
            self.bound_hess_4v - self.hess_norm,
            self.bound_hess_sharp - self.hess_norm,
            self.bound_grad_local - self.grad_norm,
            self.bound_grad_global - self.grad_norm,
            self.bound_ball - self.ball_hess_max,
        )


def lemma_bound_report(
    fs: FeatureSet,
    theta: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    ball_samples: int = 16,
) -> list[LemmaBoundRow]:
    """Measured gradient/Hessian norms against the smoothness bounds.

    Per prompt: |Hess| against 4 x_max^2 V and the sharper
    (2 sqrt(2) + 1) x_max^2 V, |grad| against 2 |X_i| V and x_max / 2, and the
    max |Hess| over parameters sampled uniformly in the ball of radius
    sqrt(V)/x_max against (5/2) x_max^2 sqrt(V).
    """
    rng = rng or np.random.default_rng(0)
    xsq = fs.x_max**2
    stats = batch_stats(fs, theta)
    rows = []
    for i in range(fs.n):
        v = float(stats.variance[i])
        grad_norm = float(np.sqrt(stats.grad_sq[i]))
        hess_norm = hessian_norm(fs, theta, i)
        radius = math.sqrt(v) / fs.x_max
        ball_max = hess_norm
        for _ in range(ball_samples):
            u = rng.standard_normal(fs.d)
            u *= radius * rng.uniform() ** (1.0 / fs.d) / np.linalg.norm(u)
            ball_max = max(ball_max, hessian_norm(fs, theta + u, i))
        rows.append(
            LemmaBoundRow(
                prompt=i,
                grad_norm=grad_norm,
                hess_norm=hess_norm,
                # xsq times the variance factor first: 4 xsq alone overflows
                # for x_max near 1e154, and would give inf * 0 at v = 0
                bound_hess_4v=4.0 * (xsq * v),
                bound_hess_sharp=(2.0 * math.sqrt(2.0) + 1.0) * (xsq * v),
                bound_grad_local=2.0 * float(fs.x_norms[i]) * v,
                bound_grad_global=0.5 * fs.x_max,
                ball_hess_max=ball_max,
                bound_ball=2.5 * (xsq * math.sqrt(v)),
            )
        )
    return rows


@dataclass
class AssumptionReport:
    """Everything the relaxed analysis asks of an instance, measured."""

    cos_mean: float
    cos_std: float
    frac_abs_below_0p1: float
    frac_positive: float
    m_status: str
    m_hat: float
    r1_hat: float
    r2_hat: float
    phase: str
    c_of_t: Optional[float] = None
    n_pairs: int = 0
    n_excluded: int = 0
    m_violations: list[tuple[int, int]] = field(default_factory=list)
    m_worst_pair: Optional[tuple[int, int]] = None
    scale_degenerate: bool = False


def assumption_report(
    fs: FeatureSet,
    theta: np.ndarray,
    log: Optional[TrajectoryLog] = None,
    phase_thresholds: tuple[float, float] = PHASE_THRESHOLDS,
) -> AssumptionReport:
    """Assemble the full assumption audit at a parameter vector.

    The realized C(T) needs a finished trajectory and stays None without one.
    """
    cosines = pairwise_grad_cosines(fs, theta)
    mb = m_bound(fs, theta)
    scales = scale_regularity(fs, theta)
    c_of_t = None
    if log is not None:
        _, c_of_t = c_constant(log)
    phase = phase_classify(cosines.std, phase_thresholds) if not cosines.empty else "I"
    return AssumptionReport(
        cos_mean=cosines.mean,
        cos_std=cosines.std,
        frac_abs_below_0p1=cosines.frac_abs_below_0p1,
        frac_positive=cosines.frac_positive,
        m_status=mb.status,
        m_hat=mb.m_hat,
        r1_hat=scales.r1_hat,
        r2_hat=scales.r2_hat,
        phase=phase,
        c_of_t=c_of_t,
        n_pairs=cosines.n_pairs,
        n_excluded=cosines.n_excluded,
        m_violations=mb.violations,
        m_worst_pair=mb.worst_pair,
        scale_degenerate=scales.degenerate,
    )
