"""Exact probabilities, objectives, gradients and Hessians for log-linear
softmax policies with a one-hot reward per prompt.

Every quantity here is closed-form: the per-prompt objective is the success
probability of the unique correct output, so gradients and Hessians are
small exact expressions in the softmax vector and the feature matrix.  The
Hessian is X_i^T M X_i with a K x K inner matrix M, so its spectral norm is
a K x K symmetric eigenproblem whatever the feature dimension d is, and any
number of (parameter, prompt) pairs share one stacked eigensolve.
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
    "batch_stats",
    "prompt_stats",
    "policy_gradient",
    "hessian_quadratic_form",
    "hessian_matrix",
    "hessian_norms",
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


def _check_theta(theta: np.ndarray, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    return theta


def _probs(fs: FeatureSet, theta: np.ndarray) -> np.ndarray:
    """The n x K softmax probabilities of every prompt at a checked theta.

    Raises FloatingPointError when the logits overflow.  Callers hold
    np.errstate(over="ignore"): this finite check reports the overflow, so
    numpy need not warn first.
    """
    return _softmax_rows(np.matmul(fs.stacked, theta))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax of each row of an m x K logit array: the row's max
    logit is subtracted before exponentiation."""
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _reward_covariance(probs: np.ndarray, correct: np.ndarray):
    """(success, variance, H r) of m probability rows with correct-output
    indices `correct`, where H(pi) = diag(pi) - pi pi^T and r is one-hot at
    the correct output: H r is success*(1-success) there and -success*pi_j
    elsewhere."""
    rows = np.arange(len(correct))
    success = probs[rows, correct]
    variance = success * (1.0 - success)
    hr = -success[:, None] * probs
    hr[rows, correct] = variance
    return success, variance, hr


def _batch_probs(fs: FeatureSet, theta: np.ndarray) -> np.ndarray:
    """The n x K softmax probabilities of every prompt at theta (the head of batch_stats)."""
    theta = _check_theta(theta, fs.d)
    with np.errstate(over="ignore"):
        return _probs(fs, theta)


def _batch_stats(fs: FeatureSet, theta: np.ndarray) -> BatchStats:
    """batch_stats at a theta the caller has checked, under the caller's
    np.errstate(over="ignore"); the training loop's per-iterate kernel."""
    probs = _probs(fs, theta)
    success, variance, hr = _reward_covariance(probs, fs.correct)
    grads = np.matmul(fs.stacked.transpose(0, 2, 1), hr[:, :, None])[:, :, 0]
    grad_sq = np.matmul(grads[:, None, :], grads[:, :, None])[:, 0, 0]
    return BatchStats(probs=probs, success=success, variance=variance, grads=grads, grad_sq=grad_sq)


def batch_stats(fs: FeatureSet, theta: np.ndarray) -> BatchStats:
    """prompt_stats, policy_gradient and the squared gradient norm g @ g of
    every prompt at theta, in stacked form; the per-prompt functions are its
    one-row case.

    Each stacked operation is one that reproduces the one-vector computation
    bit for bit: matmul over the stack for the logits and for X_i^T (H r),
    max/exp/sum softmax reductions along the output axis, and a stacked
    (1 x d) @ (d x 1) matmul for the squared norms (einsum and (g * g).sum()
    round differently).
    """
    theta = _check_theta(theta, fs.d)
    with np.errstate(over="ignore"):
        return _batch_stats(fs, theta)


def _prompt_row(fs: FeatureSet, theta: np.ndarray, i: int):
    """Prompt i at theta as the one-row case of the stacked kernel: the 1 x K
    probabilities of _softmax_rows and the (success, variance, H r) rows of
    _reward_covariance.  Raises FloatingPointError when the logits overflow."""
    if not 0 <= i < fs.n:
        raise IndexError(f"prompt index {i} out of range [0, {fs.n})")
    theta = _check_theta(theta, fs.d)
    with np.errstate(over="ignore"):
        probs = _softmax_rows(np.matmul(fs.stacked[i : i + 1], theta))
    return (probs, *_reward_covariance(probs, fs.correct[i : i + 1]))


def prompt_stats(fs: FeatureSet, theta: np.ndarray, i: int) -> PromptStats:
    """Probability vector, success probability, reward variance and objective
    for prompt i at theta."""
    probs, success, variance, _ = _prompt_row(fs, theta, i)
    success = float(success[0])
    return PromptStats(probs=probs[0], success=success, variance=float(variance[0]), objective=success)


def policy_gradient(fs: FeatureSet, theta: np.ndarray, i: int) -> np.ndarray:
    """Exact gradient of the expected reward of prompt i at theta.

    Equals X_i^T (diag(pi) - pi pi^T) r_i, i.e. the success-weighted feature
    of the correct output minus the probability-weighted features of the
    wrong ones.
    """
    hr = _prompt_row(fs, theta, i)[3]
    return fs.features[i].T @ hr[0]


def hessian_quadratic_form(fs: FeatureSet, theta: np.ndarray, i: int, y: np.ndarray) -> float:
    """y^T Hess(J_i)(theta) y via the closed form

        (H r)^T (X y . X y) - 2 (H r)^T (X y) (pi^T X y)

    where . is the componentwise product and H r is the reward-covariance
    vector of prompt i.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (fs.d,):
        raise ValueError(f"y has shape {y.shape}, expected ({fs.d},)")
    probs, _, _, hr = _prompt_row(fs, theta, i)
    u = fs.features[i] @ y
    return float(hr[0] @ (u * u) - 2.0 * (hr[0] @ u) * (probs[0] @ u))


def _hessian_inners(probs: np.ndarray, hr: np.ndarray) -> np.ndarray:
    """M = diag(Hr) - (Hr) pi^T - pi (Hr)^T of each of m (probs, H r) rows:
    the m x K x K factors of Hess(J_i) = X_i^T M X_i."""
    m, K = probs.shape
    diag = np.arange(K)
    inner = np.zeros((m, K, K))
    inner[:, diag, diag] = hr
    return inner - hr[:, :, None] * probs[:, None, :] - probs[:, :, None] * hr[:, None, :]


def hessian_matrix(fs: FeatureSet, theta: np.ndarray, i: int) -> np.ndarray:
    """Dense symmetric Hessian of J_i at theta.

    Polarizing the quadratic form gives
    X^T [diag(Hr) - (Hr) pi^T - pi (Hr)^T] X, which is symmetric by
    construction.
    """
    probs, _, _, hr = _prompt_row(fs, theta, i)
    X = fs.features[i]
    return X.T @ _hessian_inners(probs, hr)[0] @ X


def hessian_norms(fs: FeatureSet, thetas: np.ndarray, prompts) -> np.ndarray:
    """Spectral norms of Hess(J_prompts[k]) at thetas[k] for every k, without
    forming any d x d matrix.

    With the QR factorization X_i^T = Q R (Q with orthonormal columns, R of
    shape min(d, K) x K), Hess = Q (R M R^T) Q^T, so its nonzero eigenvalues
    are those of the small symmetric matrix R M R^T.  thetas is m x d and
    prompts holds m indices (repeats and any order allowed).  The m pairs go
    through stacked operations that each reproduce the one-pair computation
    bit for bit: the row softmax of _softmax_rows, M from _hessian_inners,
    one QR per distinct prompt (R does not depend on theta), matmuls over
    the stack and one stacked eigensolve.
    """
    prompts = np.asarray(prompts)
    if prompts.ndim != 1 or (prompts.size and prompts.dtype.kind not in "iu"):
        raise ValueError("prompts must be a 1-D array of prompt indices")
    out_of_range = (prompts < 0) | (prompts >= fs.n)
    if out_of_range.any():
        raise IndexError(f"prompt index {prompts[out_of_range][0]} out of range [0, {fs.n})")
    prompts = prompts.astype(np.intp, copy=False)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (prompts.size, fs.d):
        raise ValueError(f"thetas has shape {thetas.shape}, expected ({prompts.size}, {fs.d})")
    if not np.isfinite(thetas).all():
        raise ValueError("thetas contains non-finite entries")
    with np.errstate(over="ignore"):
        probs = _softmax_rows(np.matmul(fs.stacked[prompts], thetas[:, :, None])[:, :, 0])
    inner = _hessian_inners(probs, _reward_covariance(probs, fs.correct[prompts])[2])
    distinct, which = np.unique(prompts, return_inverse=True)
    r = np.linalg.qr(fs.stacked[distinct].transpose(0, 2, 1), mode="r")[which]
    small = np.matmul(np.matmul(r, inner), r.transpose(0, 2, 1))
    return np.abs(np.linalg.eigvalsh(small)).max(axis=1)


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
