"""Critic-free policy gradient (REINFORCE) and on-policy GRPO training loops.

Both algorithms pick a prompt uniformly at random each iteration and ascend
its exact gradient; GRPO divides the step by the prompt's reward standard
deviation.  The loop fills a columnar log with enough per-iteration state to
check the per-step improvement inequalities and the cumulative
gradient-norm bounds afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .policy import (
    DEFAULT_EPS_FLOOR,
    FeatureSet,
    PromptStats,
    _batch_stats,
    policy_gradient,
    prompt_stats,
)
from .rng import PROMPT_STREAM, _counter, _key, stream_rng

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
    """Row t (1-based) of a TrajectoryLog.  Per-prompt snapshot arrays describe
    the pre-step parameters theta_{t-1}; improvement and bound_slack describe
    the selected prompt across the step."""

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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Column sums of a, added row by row as a loop accumulates them
    (a.sum(axis=0) adds pairwise when a has one column)."""
    return a.cumsum(axis=0)[-1] if len(a) else np.zeros(a.shape[1])


@dataclass
class TrajectoryLog:
    """A finished run in columns; row t - 1 describes iteration t = 1..T.

    The loop fills the (T, n) per-prompt objectives, squared gradient norms
    and reward variances at the pre-step state theta_{t-1}, and per step the
    selected prompt, eta / divisor, the divisor, whether the GRPO variance
    floor fired, and the selected prompt's objective after the step.  The
    rest is computed from them at construction: the per-row mean and minimum
    objective, the selected prompt's grad_sq, variance, improvement,
    guaranteed improvement (per_step_bound) and bound slack, and the
    per-prompt sums and minima over the pre-step states t = 0..T-1.
    `records` is a read-only per-iteration view built on access; its wide
    arrays are present every `snapshot_cadence` iterations.
    """

    config: TrainerConfig
    eta: float
    x_max: float
    initial_stats: list[PromptStats]
    final_theta: np.ndarray
    objectives: np.ndarray
    grad_sq: np.ndarray
    variance: np.ndarray
    selected: np.ndarray
    eta_effective: np.ndarray
    divisor: np.ndarray
    variance_flag: np.ndarray
    objective_after: np.ndarray
    snapshot_cadence: int = 1
    theta_checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)
    j_mean: np.ndarray = field(init=False, repr=False)
    j_min: np.ndarray = field(init=False, repr=False)
    grad_sq_selected: np.ndarray = field(init=False, repr=False)
    v_selected: np.ndarray = field(init=False, repr=False)
    improvement: np.ndarray = field(init=False, repr=False)
    bound: np.ndarray = field(init=False, repr=False)
    bound_slack: np.ndarray = field(init=False, repr=False)
    grad_sq_sums: np.ndarray = field(init=False, repr=False)
    grad_sq_mins: np.ndarray = field(init=False, repr=False)
    sqrt_v_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.arange(len(self))
        self.j_mean = self.objectives.mean(axis=1)
        self.j_min = self.objectives.min(axis=1)
        self.grad_sq_selected = self.grad_sq[rows, self.selected]
        self.v_selected = self.variance[rows, self.selected]
        self.improvement = self.objective_after - self.objectives[rows, self.selected]
        self.bound = per_step_bound(self.config, self.eta, self.x_max, self.grad_sq_selected, self.divisor)
        self.bound_slack = self.improvement - self.bound
        self.grad_sq_sums = _row_sums(self.grad_sq)
        self.grad_sq_mins = self.grad_sq.min(axis=0, initial=np.inf)
        self.sqrt_v_sums = _row_sums(np.sqrt(self.variance))

    def __len__(self):
        return len(self.selected)

    @property
    def records(self) -> Sequence[IterationRecord]:
        """Read-only per-iteration view of the columns."""
        return _Records(self)

    def _record(self, row: int) -> IterationRecord:
        t = row + 1
        keep = t % self.snapshot_cadence == 0
        objectives = self.objectives[row] if keep else None
        return IterationRecord(
            t=t,
            selected=int(self.selected[row]),
            eta_effective=float(self.eta_effective[row]),
            j_mean=float(self.j_mean[row]),
            j_min=float(self.j_min[row]),
            grad_sq_selected=float(self.grad_sq_selected[row]),
            v_selected=float(self.v_selected[row]),
            improvement=float(self.improvement[row]),
            bound_slack=float(self.bound_slack[row]),
            variance_flag=bool(self.variance_flag[row]),
            objectives=objectives,
            grad_sq=self.grad_sq[row] if keep else None,
            success=objectives,
            variance=self.variance[row] if keep else None,
        )


class _Records(Sequence):
    """The rows of a TrajectoryLog as IterationRecords, each built when read."""

    def __init__(self, log: TrajectoryLog):
        self._log = log

    def __len__(self):
        return len(self._log)

    def __getitem__(self, k):
        rows = range(len(self._log))[k]
        if isinstance(rows, range):
            return [self._log._record(row) for row in rows]
        return self._log._record(rows)


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


# Absurd manual step sizes overflow eta^2 x_max^2 to inf: the bound is then
# -inf, which the slack reports, except at a zero gradient (below).
@np.errstate(over="ignore", invalid="ignore")
def per_step_bound(
    cfg: TrainerConfig, eta: float, x_max: float, grad_sq, divisor=1.0
) -> np.ndarray:
    """Guaranteed one-step improvement for the selected prompt, elementwise
    over arrays of grad_sq and divisor.

    REINFORCE: (eta - eta^2 x_max^2 / 2) * |grad|^2 from global smoothness;
    GRPO: (eta - (5/4) eta^2 x_max^2) * |grad|^2 / sd from the local
    smoothness constant valid on the ball the normalized update stays in
    (requires eta <= 1/(2 x_max^2) to be a guarantee).  For the relaxed rule
    the looser constants stated with the relaxed-assumption theorems are used.
    `divisor` is the realized GRPO divisor max(sd, eps_floor).  A zero
    gradient guarantees no improvement: its bound is 0, also where the
    expression would read -inf * 0.
    """
    xsq = x_max * x_max
    # eta * eta instead of eta ** 2: IEEE overflow to inf instead of an
    # OverflowError
    if cfg.algorithm == "reinforce":
        if cfg.step_rule == "relaxed":
            m = cfg.relaxed_constants.m
            bound = grad_sq / (2.0 * max(1.0, m / 2.0) * xsq)
        else:
            bound = (eta - 0.5 * eta * eta * xsq) * grad_sq
    elif cfg.step_rule == "relaxed":
        m, r1, r2 = cfg.relaxed_constants
        bound = 3.0 * grad_sq / (16.0 * max(r1, 5.0 * m / 8.0) * r2 * xsq * divisor)
    else:
        bound = (eta - 1.25 * eta * eta * xsq) * grad_sq / divisor
    return np.where(grad_sq == 0.0, 0.0, bound)


def select_prompt(seed: int, t: int, n: int) -> int:
    """Uniform prompt index for iteration t, addressed by (seed, t)."""
    return int(stream_rng(seed, PROMPT_STREAM, t).integers(0, n))


def _prompt_draws(seed: int, n: int, count: int, first_t: int = 1) -> np.ndarray:
    """select_prompt(seed, t, n) for t = first_t .. first_t + count - 1, from
    one Philox call (1 <= n <= 2**32, and first_t + count - 1 < 2**64).

    integers(0, n) on a fresh stream_rng(seed, PROMPT_STREAM, t) reads the low
    32 bits of word 0 of Philox block t + 1 (the counter steps before the
    first block) and applies Lemire's multiply-shift: m = word * n, index
    m >> 32, rejected when the low half of m is below (2**32 - n) % n.  One
    generator started at counter first_t produces those blocks in turn, its
    counter carrying into the second word as a per-t counter would.  A
    rejected draw reads on into its block, so select_prompt replays it;
    n = 1 draws nothing.
    """
    if n == 1:
        return np.zeros(count, dtype=np.intp)
    bitgen = np.random.Philox(key=_key(seed, PROMPT_STREAM), counter=_counter(first_t))
    m = (bitgen.random_raw(4 * count)[::4] & 0xFFFFFFFF) * np.uint64(n)
    draws = (m >> 32).astype(np.intp)
    for k in np.flatnonzero((m & 0xFFFFFFFF) < (2**32 - n) % n).tolist():
        draws[k] = select_prompt(seed, first_t + k, n)
    return draws


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

    The prompt indices of the whole horizon are drawn before the loop.
    Per-prompt objectives, squared gradient norms, success probabilities and
    variances are logged at every pre-step state; the records view shows the
    wide arrays every `snapshot_cadence` iterations (1 = always).  Non-zero
    `checkpoint_cadence` stores parameter copies at that cadence for offline
    diagnostics.  The instance is never mutated.  Parameters that go
    non-finite, or whose logits overflow, abort with a NumericalAbort
    carrying the last good iteration.

    When no two prompts' features share a coordinate, the run is replayed in
    rounds of updates (see _replay) and gives the general loop's log bit for
    bit; any other instance runs the loop.
    """
    return _trajectory(cfg, fs, theta0, snapshot_cadence, checkpoint_cadence, replay=True)


def _loop_trajectory(
    cfg: TrainerConfig,
    fs: FeatureSet,
    theta0: np.ndarray,
    snapshot_cadence: int = 1,
    checkpoint_cadence: int = 0,
) -> TrajectoryLog:
    """run_trajectory through the general loop on any instance: the oracle
    the round replay is checked against."""
    return _trajectory(cfg, fs, theta0, snapshot_cadence, checkpoint_cadence, replay=False)


def _trajectory(
    cfg: TrainerConfig,
    fs: FeatureSet,
    theta0: np.ndarray,
    snapshot_cadence: int,
    checkpoint_cadence: int,
    replay: bool,
) -> TrajectoryLog:
    if snapshot_cadence < 1:
        raise ValueError("snapshot_cadence must be >= 1")
    theta = np.array(theta0, dtype=np.float64, copy=True)
    if theta.shape != (fs.d,):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({fs.d},)")
    if not np.isfinite(theta).all():
        raise ValueError("theta0 contains non-finite entries")

    eta = step_size(cfg, fs)
    selected = _prompt_draws(cfg.seed, fs.n, cfg.horizon)
    run = None
    if replay:
        owner = _coordinate_owners(fs)
        if owner is not None:
            run = _replay(cfg, fs, theta, eta, selected, owner, checkpoint_cadence)
    if run is None:
        run = _loop(cfg, fs, theta, eta, selected, checkpoint_cadence)
    initial, final_theta, columns, checkpoints = run
    return TrajectoryLog(
        config=cfg,
        eta=eta,
        x_max=fs.x_max,
        initial_stats=initial,
        final_theta=final_theta,
        selected=selected,
        **columns,
        snapshot_cadence=snapshot_cadence,
        theta_checkpoints=checkpoints,
    )


def _loop(cfg, fs, theta, eta, selected, checkpoint_cadence):
    """The general training loop: one _batch_stats call per iteration.
    Returns (initial stats, final theta, the logged columns, checkpoints)."""
    T, n = len(selected), fs.n
    objectives, grad_sq, variance = np.empty((T, n)), np.empty((T, n)), np.empty((T, n))
    eta_effective, divisor, objective_after = np.empty(T), np.empty(T), np.empty(T)
    variance_flag = np.empty(T, dtype=bool)
    checkpoints: list[tuple[int, np.ndarray]] = []

    # Every iterate is checked once: the isfinite check below catches IEEE
    # overflow in the update, and _batch_stats raises FloatingPointError on
    # logits that overflow from finite parameters; the run then aborts at the
    # last completed iteration.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            stats = _batch_stats(fs, theta)
        except FloatingPointError:
            raise NumericalAbort(0, theta) from None
        initial = [stats.prompt(i) for i in range(n)]
        for row, i_t in enumerate(selected.tolist()):
            objectives[row] = stats.success
            grad_sq[row] = stats.grad_sq
            variance[row] = stats.variance
            theta_new, eta_effective[row], divisor[row], variance_flag[row] = _step(
                cfg.algorithm, theta, stats.grads[i_t], eta, stats.variance[i_t], cfg.eps_floor
            )
            if not np.isfinite(theta_new).all():
                raise NumericalAbort(row, theta)
            # The stats at the new iterate give both the selected prompt's
            # objective after the step and the next iteration's pre-step state.
            try:
                stats = _batch_stats(fs, theta_new)
            except FloatingPointError:
                raise NumericalAbort(row, theta) from None
            objective_after[row] = stats.success[i_t]
            if checkpoint_cadence and (row + 1) % checkpoint_cadence == 0:
                checkpoints.append((row + 1, theta_new.copy()))
            theta = theta_new

    columns = dict(
        objectives=objectives, grad_sq=grad_sq, variance=variance, eta_effective=eta_effective,
        divisor=divisor, variance_flag=variance_flag, objective_after=objective_after,
    )
    return initial, theta, columns, checkpoints


def _coordinate_owners(fs: FeatureSet) -> Optional[np.ndarray]:
    """The prompt whose features use each coordinate, -1 where none does, or
    None when two prompts' features share a coordinate.  Exact: a coordinate
    is used where some entry of its column is nonzero."""
    support = (fs.stacked != 0).any(axis=1)
    if (support.sum(axis=0) > 1).any():
        return None
    return np.where(support.any(axis=0), support.argmax(axis=0), -1)


def _replay(cfg, fs, theta, eta, selected, owner, checkpoint_cadence):
    """The general loop's result on an instance whose prompts use disjoint
    coordinates, from one _batch_stats call per round of updates; None when
    an iterate or its logits go non-finite, so the loop reports the abort.

    With disjoint supports, prompt i's logits and gradient read only its own
    coordinates (the others meet exact zeros), and its gradient is exactly
    zero elsewhere.  So prompt i's stats after its k-th update do not depend
    on when the other prompts were updated, and round k (k = 0 .. the largest
    selection count) evaluates every prompt after its own k-th update at one
    theta and applies every pending next update at once.  Each coordinate of
    the summed update is its owner's term plus exact zeros, which equals the
    loop's x + a in value (only the sign of a zero may differ, and a zero
    meets only zeros on its way into a logit).  The per-iteration columns are
    read back from the per-prompt histories by each row's selection counts.
    """
    T, n, d = len(selected), fs.n, fs.d
    counts = np.bincount(selected, minlength=n)
    rounds = int(counts.max())
    success, grad_sq, variance = (np.empty((rounds + 1, n)) for _ in range(3))
    eta_eff, divisor = np.empty((rounds, n)), np.ones((rounds, n))
    clamped = np.zeros((rounds, n), dtype=bool)
    thetas = np.empty((rounds + 1, d)) if checkpoint_cadence else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rounds + 1):
            try:
                stats = _batch_stats(fs, theta)
            except FloatingPointError:
                return None
            if k == 0:
                initial = [stats.prompt(i) for i in range(n)]
            success[k], grad_sq[k], variance[k] = stats.success, stats.grad_sq, stats.variance
            if thetas is not None:
                thetas[k] = theta
            if k == rounds:
                break
            if cfg.algorithm == "grpo":
                sd = np.sqrt(stats.variance)
                divisor[k] = np.maximum(sd, cfg.eps_floor)
                clamped[k] = sd < cfg.eps_floor
            eta_eff[k] = eta / divisor[k]
            update = eta_eff[k][:, None] * stats.grads
            update[counts <= k] = 0.0
            theta = theta + update.sum(axis=0)
            if not np.isfinite(theta).all():
                return None

    # before[row, i]: prompt i's updates in rows 0 .. row - 1, i.e. which of
    # its states the loop's pre-step theta of that row holds.
    taken = selected[:, None] == np.arange(n)
    after = taken.cumsum(axis=0)
    before = after - taken
    k_sel = before[np.arange(T), selected]
    columns = dict(
        objectives=success[before, np.arange(n)],
        grad_sq=grad_sq[before, np.arange(n)],
        variance=variance[before, np.arange(n)],
        eta_effective=eta_eff[k_sel, selected],
        divisor=divisor[k_sel, selected],
        variance_flag=clamped[k_sel, selected],
        objective_after=success[k_sel + 1, selected],
    )
    checkpoints = []
    if checkpoint_cadence:
        # a coordinate holds its owner's state; an unowned one never moves,
        # so any round's value will do
        rows = np.arange(checkpoint_cadence - 1, T, checkpoint_cadence)
        ks = after[rows][:, np.maximum(owner, 0)]
        checkpoints = list(zip((rows + 1).tolist(), thetas[ks, np.arange(d)]))
    return initial, theta, columns, checkpoints


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
    if len(log) == 0:
        raise ValueError("empty trajectory log")
    cfg = log.config
    T = len(log)
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
