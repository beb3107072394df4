"""Critic-free policy gradient (REINFORCE) and on-policy GRPO training loops.

Both algorithms pick a prompt uniformly at random each iteration and ascend
its exact gradient; GRPO divides the step by the prompt's reward standard
deviation.  The loop records enough per-iteration state to check the
per-step improvement inequalities and the cumulative gradient-norm bounds
afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .policy import (
    DEFAULT_EPS_FLOOR,
    FeatureSet,
    PromptStats,
    batch_stats,
    policy_gradient,
    prompt_stats,
)
from .rng import PROMPT_STREAM, StreamCursor

__all__ = [
    "ALGORITHMS",
    "STEP_RULES",
    "RelaxedConstants",
    "TrainerConfig",
    "IterationRecord",
    "TrajectoryLog",
    "NumericalAbort",
    "step_size",
    "per_step_bound",
    "PromptSelector",
    "select_prompt",
    "reinforce_step",
    "grpo_step",
    "run_trajectory",
    "cumulative_bound_check",
    "PromptBound",
    "BoundReport",
]

ALGORITHMS = ("reinforce", "grpo")
STEP_RULES = ("theorem_default", "relaxed", "manual")


class RelaxedConstants(NamedTuple):
    """Constants of the relaxed assumptions: cross-prompt interaction bound m,
    gradient-norm ratio bound r1, reward-std ratio bound r2."""

    m: float
    r1: float
    r2: float


@dataclass(frozen=True)
class TrainerConfig:
    algorithm: str
    horizon: int
    seed: int
    step_rule: str = "theorem_default"
    eta: Optional[float] = None
    eps_floor: float = DEFAULT_EPS_FLOOR
    relaxed_constants: Optional[RelaxedConstants] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step_rule {self.step_rule!r}; expected one of {STEP_RULES}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.step_rule == "manual":
            if self.eta is None or self.eta <= 0:
                raise ValueError("manual step rule requires eta > 0")
        if self.step_rule == "relaxed" and self.relaxed_constants is None:
            raise ValueError("relaxed step rule requires relaxed_constants")
        # r1 and r2 bound max/min ratios, m is a nonnegative interaction constant
        m, r1, r2 = self.relaxed_constants or (0.0, 1.0, 1.0)
        if not (0.0 <= m < math.inf and 1.0 <= r1 < math.inf and 1.0 <= r2 < math.inf):
            raise ValueError("relaxed_constants need finite m >= 0, r1 >= 1 and r2 >= 1")
        if self.eps_floor <= 0:
            raise ValueError("eps_floor must be positive")


@dataclass
class IterationRecord:
    """State of iteration t (1-based).  Per-prompt snapshot arrays describe the
    pre-step parameters theta_{t-1}; improvement and bound_slack describe the
    selected prompt across the step."""

    t: int
    selected: int
    eta_effective: float
    j_mean: float
    j_min: float
    grad_sq_selected: float
    v_selected: float
    improvement: float
    bound_slack: float
    variance_flag: bool
    objectives: Optional[np.ndarray] = None
    grad_sq: Optional[np.ndarray] = None
    success: Optional[np.ndarray] = None
    variance: Optional[np.ndarray] = None


@dataclass
class TrajectoryLog:
    config: TrainerConfig
    eta: float
    x_max: float
    initial_stats: list[PromptStats]
    records: list[IterationRecord]
    final_theta: np.ndarray
    # Exact accumulations over t = 0 .. T-1 (pre-step states), kept at every
    # iteration regardless of snapshot cadence.
    grad_sq_sums: np.ndarray = field(default=None)
    grad_sq_mins: np.ndarray = field(default=None)
    sqrt_v_sums: np.ndarray = field(default=None)
    theta_checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def __len__(self):
        return len(self.records)


class NumericalAbort(RuntimeError):
    """Parameters went non-finite; carries the last good iteration."""

    def __init__(self, t: int, theta: np.ndarray):
        self.t = t
        self.theta = theta
        super().__init__(f"non-finite parameters after iteration {t}")


def step_size(cfg: TrainerConfig, fs: FeatureSet) -> float:
    """Prescribed learning rate for (algorithm, step_rule).

    theorem_default: 1/x_max^2 for REINFORCE, 1/(2 x_max^2) for GRPO.
    relaxed: 1/(max(1, m/2) x_max^2) for REINFORCE,
             1/(2 max(r1, 5m/8) r2 x_max^2) for GRPO.
    """
    if fs.x_max <= 0:
        raise ValueError("x_max must be positive to prescribe a step size")
    xsq = fs.x_max**2
    if cfg.step_rule == "manual":
        return float(cfg.eta)
    if cfg.step_rule == "theorem_default":
        return 1.0 / xsq if cfg.algorithm == "reinforce" else 1.0 / (2.0 * xsq)
    m, r1, r2 = cfg.relaxed_constants
    if cfg.algorithm == "reinforce":
        return 1.0 / (max(1.0, m / 2.0) * xsq)
    return 1.0 / (2.0 * max(r1, 5.0 * m / 8.0) * r2 * xsq)


def per_step_bound(
    cfg: TrainerConfig, eta: float, x_max: float, grad_sq: float, divisor: float = 1.0
) -> float:
    """Guaranteed one-step improvement for the selected prompt.

    REINFORCE: (eta - eta^2 x_max^2 / 2) * |grad|^2 from global smoothness;
    GRPO: (eta - (5/4) eta^2 x_max^2) * |grad|^2 / sd from the local
    smoothness constant valid on the ball the normalized update stays in
    (requires eta <= 1/(2 x_max^2) to be a guarantee).  For the relaxed rule
    the looser constants stated with the relaxed-assumption theorems are used.
    `divisor` is the realized GRPO divisor max(sd, eps_floor).
    """
    xsq = x_max * x_max
    # eta * eta instead of eta ** 2: IEEE overflow to inf instead of an
    # OverflowError for absurd manual step sizes (the run aborts on its own)
    if cfg.algorithm == "reinforce":
        if cfg.step_rule == "relaxed":
            m = cfg.relaxed_constants.m
            return grad_sq / (2.0 * max(1.0, m / 2.0) * xsq)
        return (eta - 0.5 * eta * eta * xsq) * grad_sq
    if cfg.step_rule == "relaxed":
        m, r1, r2 = cfg.relaxed_constants
        return 3.0 * grad_sq / (16.0 * max(r1, 5.0 * m / 8.0) * r2 * xsq * divisor)
    return (eta - 1.25 * eta * eta * xsq) * grad_sq / divisor


class PromptSelector:
    """Uniform prompt indices for one seed: iteration t draws from counter t
    of the seed's prompt stream, through one reused generator."""

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError("need at least one prompt")
        self.n = n
        self._cursor = StreamCursor(seed, PROMPT_STREAM)

    def __call__(self, t: int) -> int:
        return int(self._cursor.at(t).integers(0, self.n))


def select_prompt(seed: int, t: int, n: int) -> int:
    """Uniform prompt index for iteration t, addressed by (seed, t)."""
    return PromptSelector(seed, n)(t)


def _step(
    algorithm: str,
    theta: np.ndarray,
    grad: np.ndarray,
    eta: float,
    variance: float = 0.0,
    eps_floor: float = DEFAULT_EPS_FLOOR,
) -> tuple[np.ndarray, float, float, bool]:
    """The update rule of both algorithms: theta + (eta / divisor) * grad.

    The divisor is 1 for REINFORCE and the reward std sqrt(variance), clamped
    below at eps_floor, for GRPO; REINFORCE ignores variance and eps_floor.
    Returns (new theta, eta / divisor, divisor, whether the clamp fired).
    """
    if algorithm == "reinforce":
        divisor, clamped = 1.0, False
    else:
        sd = math.sqrt(variance)
        divisor, clamped = max(sd, eps_floor), sd < eps_floor
    eta_eff = eta / divisor
    return theta + eta_eff * grad, eta_eff, divisor, clamped


def reinforce_step(theta: np.ndarray, fs: FeatureSet, i: int, eta: float) -> np.ndarray:
    """One ascent step along the exact gradient of the selected prompt."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return _step("reinforce", theta, policy_gradient(fs, theta, i), eta)[0]


def grpo_step(
    theta: np.ndarray, fs: FeatureSet, i: int, eta: float, eps_floor: float = DEFAULT_EPS_FLOOR
) -> np.ndarray:
    """One ascent step along the variance-normalized gradient."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eps_floor <= 0:
        raise ValueError("eps_floor must be positive")
    variance = prompt_stats(fs, theta, i).variance
    return _step("grpo", theta, policy_gradient(fs, theta, i), eta, variance, eps_floor)[0]


def run_trajectory(
    cfg: TrainerConfig,
    fs: FeatureSet,
    theta0: np.ndarray,
    snapshot_cadence: int = 1,
    checkpoint_cadence: int = 0,
) -> TrajectoryLog:
    """Run the configured algorithm for `horizon` iterations from theta0.

    Per-prompt objectives, squared gradient norms, success probabilities and
    variances are computed at every pre-step state; the wide arrays are stored
    on records every `snapshot_cadence` iterations (1 = always).  Non-zero
    `checkpoint_cadence` stores parameter copies at that cadence for offline
    diagnostics.  The instance is never mutated.  Parameters that go
    non-finite, or whose logits overflow, abort with a NumericalAbort
    carrying the last good iteration.
    """
    if snapshot_cadence < 1:
        raise ValueError("snapshot_cadence must be >= 1")
    theta = np.array(theta0, dtype=np.float64, copy=True)
    if theta.shape != (fs.d,):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({fs.d},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 contains non-finite entries")

    eta = step_size(cfg, fs)
    n = fs.n
    select = PromptSelector(cfg.seed, n)
    # Finite parameters can still overflow the logits: batch_stats then raises
    # FloatingPointError, and the run aborts at the last completed iteration.
    try:
        stats = batch_stats(fs, theta)
    except FloatingPointError:
        raise NumericalAbort(0, theta) from None
    initial = [stats.prompt(i) for i in range(n)]
    records: list[IterationRecord] = []
    grad_sq_sums = np.zeros(n)
    grad_sq_mins = np.full(n, np.inf)
    sqrt_v_sums = np.zeros(n)
    checkpoints: list[tuple[int, np.ndarray]] = []

    for t in range(1, cfg.horizon + 1):
        objectives, grad_sq, variance = stats.success, stats.grad_sq, stats.variance
        grad_sq_sums += grad_sq
        np.minimum(grad_sq_mins, grad_sq, out=grad_sq_mins)
        sqrt_v_sums += np.sqrt(variance)

        i_t = select(t)
        # IEEE overflow in the update is detected by the isfinite check below,
        # not treated as an arithmetic error
        with np.errstate(over="ignore", invalid="ignore"):
            theta_new, eta_eff, divisor, clamped = _step(
                cfg.algorithm, theta, stats.grads[i_t], eta, variance[i_t], cfg.eps_floor
            )
        if not np.all(np.isfinite(theta_new)):
            raise NumericalAbort(t - 1, theta)
        # The stats at the new iterate give both the selected prompt's
        # objective after the step and the next iteration's pre-step state.
        try:
            stats = batch_stats(fs, theta_new)
        except FloatingPointError:
            raise NumericalAbort(t - 1, theta) from None

        improvement = stats.success[i_t] - objectives[i_t]
        bound = per_step_bound(cfg, eta, fs.x_max, grad_sq[i_t], divisor)
        keep_arrays = snapshot_cadence == 1 or t % snapshot_cadence == 0
        records.append(
            IterationRecord(
                t=t,
                selected=i_t,
                eta_effective=eta_eff,
                j_mean=float(objectives.mean()),
                j_min=float(objectives.min()),
                grad_sq_selected=float(grad_sq[i_t]),
                v_selected=float(variance[i_t]),
                improvement=float(improvement),
                bound_slack=float(improvement - bound),
                variance_flag=clamped,
                objectives=objectives if keep_arrays else None,
                grad_sq=grad_sq if keep_arrays else None,
                success=objectives if keep_arrays else None,
                variance=variance if keep_arrays else None,
            )
        )
        if checkpoint_cadence and t % checkpoint_cadence == 0:
            checkpoints.append((t, theta_new.copy()))
        theta = theta_new

    return TrajectoryLog(
        config=cfg,
        eta=eta,
        x_max=fs.x_max,
        initial_stats=initial,
        records=records,
        final_theta=theta,
        grad_sq_sums=grad_sq_sums,
        grad_sq_mins=grad_sq_mins,
        sqrt_v_sums=sqrt_v_sums,
        theta_checkpoints=checkpoints,
    )


@dataclass
class BoundCheck:
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


@dataclass
class PromptBound:
    prompt: int
    grad_sq_sum: float
    grad_sq_min: float
    c_i: float
    primary: str
    checks: dict[str, BoundCheck]

    @property
    def rhs(self) -> float:
        return self.checks[self.primary].rhs

    @property
    def passed(self) -> bool:
        return self.checks[self.primary].passed


@dataclass
class BoundReport:
    algorithm: str
    prompts: list[PromptBound]
    all_passed: bool
    c_of_t: float

    def variant_all_passed(self, name: str) -> bool:
        return all(p.checks[name].passed for p in self.prompts if name in p.checks)


def cumulative_bound_check(log: TrajectoryLog, fs: FeatureSet) -> BoundReport:
    """Check the cumulative gradient-norm bounds realized by a finished run.

    The primary check compares, per prompt, the accumulated sum of squared
    gradient norms over the pre-step states against
    2 n (1 - success_0) x_max^2, scaled for GRPO by the realized
    C(i, T) = (8 / 3T) * sum_t sqrt(V_i at t).

    Caveat on the GRPO sum-form: with the realized-variance estimate it only
    holds while variances have not yet decayed (its right-hand side shrinks
    like the average reward std while the left-hand side saturates), so the
    report also carries the variants that hold at any horizon: the
    T * min_t form the telescoping derivation actually yields, and the
    sum-form with the worst-case bound 1/2 in place of the realized reward
    std (C(i, T) = 4/3).  Under the relaxed step rule both the constant from
    the theorem statement (max(r1, 5m/8) r2) and the one from its derivation
    (max(r1 r2, m/2)) are reported rather than adjudicated.
    """
    if not log.records:
        raise ValueError("empty trajectory log")
    cfg = log.config
    T = len(log.records)
    n = fs.n
    xsq = log.x_max**2
    prompts = []
    c_values = []
    for i in range(n):
        base = 2.0 * n * (1.0 - log.initial_stats[i].success) * xsq
        c_i = (8.0 / (3.0 * T)) * float(log.sqrt_v_sums[i])
        c_values.append(c_i)
        lhs_sum = float(log.grad_sq_sums[i])
        lhs_tmin = T * float(log.grad_sq_mins[i])
        checks = {
            "reinforce_theorem_sum": BoundCheck(lhs_sum, base),
            "grpo_theorem_sum": BoundCheck(lhs_sum, base * c_i),
            "grpo_theorem_tmin": BoundCheck(lhs_tmin, base * c_i),
            "grpo_half_c_sum": BoundCheck(lhs_sum, base * 4.0 / 3.0),
        }
        if cfg.relaxed_constants is not None:
            m, r1, r2 = cfg.relaxed_constants
            checks["reinforce_relaxed_sum"] = BoundCheck(lhs_sum, base * max(1.0, m / 2.0))
            checks["grpo_relaxed_theorem_sum"] = BoundCheck(
                lhs_sum, base * max(r1, 5.0 * m / 8.0) * r2 * c_i
            )
            checks["grpo_relaxed_appendix_sum"] = BoundCheck(
                lhs_sum, base * max(r1 * r2, m / 2.0) * c_i
            )
        relaxed = cfg.step_rule == "relaxed"
        if cfg.algorithm == "reinforce":
            primary = "reinforce_relaxed_sum" if relaxed else "reinforce_theorem_sum"
        else:
            primary = "grpo_relaxed_theorem_sum" if relaxed else "grpo_theorem_sum"
        prompts.append(
            PromptBound(
                prompt=i,
                grad_sq_sum=lhs_sum,
                grad_sq_min=float(log.grad_sq_mins[i]),
                c_i=c_i,
                primary=primary,
                checks=checks,
            )
        )
    return BoundReport(
        algorithm=cfg.algorithm,
        prompts=prompts,
        all_passed=all(p.passed for p in prompts),
        c_of_t=float(np.mean(c_values)),
    )
