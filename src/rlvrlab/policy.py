"""Exact probabilities, objectives, gradients and Hessians for log-linear
softmax policies with a one-hot reward per prompt.

Every quantity here is closed-form: the per-prompt objective is the success
probability of the unique correct output, so gradients and Hessians are
small exact expressions in the softmax vector and the feature matrix.  The
Hessian is X_i^T M X_i with a K x K inner matrix M, so its spectral norm is
a K x K symmetric eigenproblem whatever the feature dimension d is.
All functions are pure; a FeatureSet is frozen after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "FeatureSet",
    "PromptStats",
    "BatchStats",
    "GrpoGradient",
    "batch_stats",
    "prompt_stats",
    "policy_gradient",
    "grpo_gradient",
    "hessian_quadratic_form",
    "hessian_matrix",
    "hessian_norm",
    "spectral_norm",
]

DEFAULT_EPS_FLOOR = 1e-8


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeatureSet:
    """A problem instance: per-prompt feature matrices and correct-answer indices.

    features[i] is the K x d matrix whose rows are the feature vectors of the
    K candidate outputs for prompt i; correct[i] is the index of the unique
    correct output.  The matrices are stored once, as the read-only n x K x d
    array `stacked`, and features[i] is a view of stacked[i].  x_max is the
    largest spectral norm among the feature matrices, computed once at
    construction.
    """

    features: tuple[np.ndarray, ...]
    correct: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False)
    K: int = field(init=False)
    d: int = field(init=False)
    x_max: float = field(init=False)
    x_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = [np.asarray(X, dtype=np.float64) for X in self.features]
        if not feats:
            raise ValueError("FeatureSet needs at least one prompt")
        K, d = feats[0].shape
        if K < 2:
            raise ValueError(f"need at least 2 outputs per prompt, got K={K}")
        if d < 1:
            raise ValueError("need at least 1 feature dimension, got d=0")
        for i, X in enumerate(feats):
            if X.ndim != 2 or X.shape != (K, d):
                raise ValueError(f"features[{i}] has shape {X.shape}, expected {(K, d)}")
            if not np.isfinite(X).all():
                raise ValueError(f"features[{i}] contains non-finite entries")
        correct = np.array(self.correct, dtype=np.intp, copy=True)
        if correct.shape != (len(feats),):
            raise ValueError("correct must hold one index per prompt")
        if np.any(correct < 0) or np.any(correct >= K):
            raise ValueError(f"correct indices must lie in [0, {K})")
        correct.flags.writeable = False
        stacked = np.stack(feats)
        stacked.flags.writeable = False
        x_norms = _frozen([np.linalg.norm(X, 2) for X in stacked])
        object.__setattr__(self, "features", tuple(stacked))
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "n", len(feats))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x_norms", x_norms)
        object.__setattr__(self, "x_max", float(x_norms.max()))


@dataclass(frozen=True)
class PromptStats:
    """Derived per-prompt quantities at a parameter vector.

    probs is the softmax output distribution, success the probability of the
    correct output, variance the Bernoulli reward variance success*(1-success),
    and objective the expected reward (equal to success under a one-hot reward).
    """

    probs: np.ndarray
    success: float
    variance: float
    objective: float


class BatchStats(NamedTuple):
    """PromptStats and exact gradients of every prompt at one parameter vector.

    probs is n x K; success, variance (success*(1-success)) and grad_sq (the
    squared gradient norms) have one entry per prompt; grads is n x d, row i
    the gradient of prompt i.  Under the one-hot reward the objective is the
    success probability.
    """

    probs: np.ndarray
    success: np.ndarray
    variance: np.ndarray
    grads: np.ndarray
    grad_sq: np.ndarray

    def prompt(self, i: int) -> PromptStats:
        success = float(self.success[i])
        return PromptStats(
            probs=self.probs[i], success=success, variance=float(self.variance[i]), objective=success
        )


class GrpoGradient(NamedTuple):
    """(vector, clamped) pair; clamped marks that the variance floor fired."""

    vector: np.ndarray
    clamped: bool


def _check_theta(theta: np.ndarray, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    return theta


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax: the max logit is subtracted before exponentiation."""
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    z = np.exp(logits - logits.max())
    return z / z.sum()


def prompt_stats(fs: FeatureSet, theta: np.ndarray, i: int) -> PromptStats:
    """Probability vector, success probability, reward variance and objective
    for prompt i at theta."""
    if not 0 <= i < fs.n:
        raise IndexError(f"prompt index {i} out of range [0, {fs.n})")
    theta = _check_theta(theta, fs.d)
    probs = softmax_probs(fs.features[i] @ theta)
    success = float(probs[fs.correct[i]])
    return PromptStats(
        probs=probs,
        success=success,
        variance=success * (1.0 - success),
        objective=success,
    )


def _probs(fs: FeatureSet, theta: np.ndarray) -> np.ndarray:
    """The n x K softmax probabilities of every prompt at a checked theta.

    Raises FloatingPointError when the logits overflow.  Callers hold
    np.errstate(over="ignore"): this finite check reports the overflow, so
    numpy need not warn first.
    """
    logits = np.matmul(fs.stacked, theta)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _batch_probs(fs: FeatureSet, theta: np.ndarray) -> np.ndarray:
    """The n x K softmax probabilities of every prompt at theta (the head of batch_stats)."""
    theta = _check_theta(theta, fs.d)
    with np.errstate(over="ignore"):
        return _probs(fs, theta)


def _batch_stats(fs: FeatureSet, theta: np.ndarray) -> BatchStats:
    """batch_stats at a theta the caller has checked, under the caller's
    np.errstate(over="ignore"); the training loop's per-iterate kernel."""
    probs = _probs(fs, theta)
    rows = np.arange(fs.n)
    success = probs[rows, fs.correct]
    variance = success * (1.0 - success)
    hr = -success[:, None] * probs
    hr[rows, fs.correct] = variance
    grads = np.matmul(fs.stacked.transpose(0, 2, 1), hr[:, :, None])[:, :, 0]
    grad_sq = np.matmul(grads[:, None, :], grads[:, :, None])[:, 0, 0]
    return BatchStats(probs=probs, success=success, variance=variance, grads=grads, grad_sq=grad_sq)


def batch_stats(fs: FeatureSet, theta: np.ndarray) -> BatchStats:
    """prompt_stats, policy_gradient and the squared gradient norm g @ g of
    every prompt at theta, in stacked form.

    Each stacked operation is one that reproduces the per-prompt functions
    bit for bit: matmul over the stack for the logits and for X_i^T (H r),
    max/exp/sum softmax reductions along the output axis, and a stacked
    (1 x d) @ (d x 1) matmul for the squared norms (einsum and (g * g).sum()
    round differently).
    """
    theta = _check_theta(theta, fs.d)
    with np.errstate(over="ignore"):
        return _batch_stats(fs, theta)


def _covariance_times_reward(probs: np.ndarray, a: int) -> np.ndarray:
    """H(pi) r for the one-hot reward at index a, where H(pi) = diag(pi) - pi pi^T.

    Componentwise: success*(1-success) at a, -success*pi_j elsewhere.
    """
    success = probs[a]
    hr = -success * probs
    hr[a] = success * (1.0 - success)
    return hr


def policy_gradient(fs: FeatureSet, theta: np.ndarray, i: int) -> np.ndarray:
    """Exact gradient of the expected reward of prompt i at theta.

    Equals X_i^T (diag(pi) - pi pi^T) r_i, i.e. the success-weighted feature
    of the correct output minus the probability-weighted features of the
    wrong ones.
    """
    stats = prompt_stats(fs, theta, i)
    hr = _covariance_times_reward(stats.probs, fs.correct[i])
    return fs.features[i].T @ hr


def grpo_gradient(
    fs: FeatureSet, theta: np.ndarray, i: int, eps_floor: float = DEFAULT_EPS_FLOOR
) -> GrpoGradient:
    """Variance-normalized gradient: policy_gradient / sqrt(reward variance).

    The divisor is clamped at eps_floor (and the result flagged) when the
    reward variance degenerates; since the raw gradient norm is bounded by
    2*X_max*variance the clamped update still vanishes as variance -> 0.
    """
    if eps_floor <= 0:
        raise ValueError("eps_floor must be positive")
    stats = prompt_stats(fs, theta, i)
    hr = _covariance_times_reward(stats.probs, fs.correct[i])
    grad = fs.features[i].T @ hr
    sd = np.sqrt(stats.variance)
    return GrpoGradient(grad / max(sd, eps_floor), bool(sd < eps_floor))


def hessian_quadratic_form(fs: FeatureSet, theta: np.ndarray, i: int, y: np.ndarray) -> float:
    """y^T Hess(J_i)(theta) y via the closed form

        (H r)^T (X y . X y) - 2 (H r)^T (X y) (pi^T X y)

    where . is the componentwise product and H r is the reward-covariance
    vector of prompt i.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (fs.d,):
        raise ValueError(f"y has shape {y.shape}, expected ({fs.d},)")
    stats = prompt_stats(fs, theta, i)
    hr = _covariance_times_reward(stats.probs, fs.correct[i])
    u = fs.features[i] @ y
    return float(hr @ (u * u) - 2.0 * (hr @ u) * (stats.probs @ u))


def _hessian_inner(fs: FeatureSet, theta: np.ndarray, i: int) -> np.ndarray:
    """M = diag(Hr) - (Hr) pi^T - pi (Hr)^T, the K x K factor of Hess(J_i) = X_i^T M X_i."""
    stats = prompt_stats(fs, theta, i)
    hr = _covariance_times_reward(stats.probs, fs.correct[i])
    return np.diag(hr) - np.outer(hr, stats.probs) - np.outer(stats.probs, hr)


def hessian_matrix(fs: FeatureSet, theta: np.ndarray, i: int) -> np.ndarray:
    """Dense symmetric Hessian of J_i at theta.

    Polarizing the quadratic form gives
    X^T [diag(Hr) - (Hr) pi^T - pi (Hr)^T] X, which is symmetric by
    construction.
    """
    inner = _hessian_inner(fs, theta, i)
    X = fs.features[i]
    return X.T @ inner @ X


def hessian_norm(fs: FeatureSet, theta: np.ndarray, i: int) -> float:
    """Spectral norm of Hess(J_i) at theta, without forming the d x d matrix.

    With the QR factorization X_i^T = Q R (Q with orthonormal columns, R of
    shape min(d, K) x K), Hess = Q (R M R^T) Q^T, so its nonzero eigenvalues
    are those of the small symmetric matrix R M R^T.
    """
    inner = _hessian_inner(fs, theta, i)
    r = np.linalg.qr(fs.features[i].T, mode="r")
    return float(np.abs(np.linalg.eigvalsh(r @ inner @ r.T)).max())


def spectral_norm(m: np.ndarray, sym_tol: float = 1e-12) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, by a dense
    symmetric eigensolve.  Raises on asymmetric input.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if float(np.abs(m - m.T).max()) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return float(np.abs(np.linalg.eigvalsh(m)).max())
