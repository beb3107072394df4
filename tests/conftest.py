import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rlvrlab.policy import FeatureSet
from rlvrlab.rng import SCENARIO_STREAM, stream_rng
from rlvrlab.scenarios import orthogonal_blocks, random_features


@pytest.fixture
def identity_pair() -> FeatureSet:
    """K=2 instance with rows (1,0) and (0,1), correct output first.

    The success probability is the logistic of theta_0 - theta_1, which makes
    every derivative checkable by hand.
    """
    return FeatureSet(features=(np.eye(2),), correct=[0])


@pytest.fixture
def theta_ln3() -> np.ndarray:
    return np.array([np.log(3.0), 0.0])


@pytest.fixture
def ortho_instance() -> FeatureSet:
    return orthogonal_blocks(n=4, K=3, block_dim=3, scale=1.0, rng=stream_rng(42, SCENARIO_STREAM))


def make_random_instance(rng, n_max=4, k_max=8, d_max=32, normalize=True):
    """Random instance plus a theta with entries in [-3, 3]."""
    n = int(rng.integers(1, n_max + 1))
    K = int(rng.integers(2, k_max + 1))
    d = int(rng.integers(2, d_max + 1))
    fs = random_features(n, K, d, overlap=float(rng.uniform(0.0, 1.0)), rng=rng)
    if normalize:
        fs = FeatureSet(
            features=tuple(X / max(1.0, np.linalg.norm(X, 2)) for X in fs.features),
            correct=fs.correct,
        )
    theta = rng.uniform(-3.0, 3.0, size=d)
    return fs, theta


def reference_stats(fs, theta, i):
    """The per-prompt computation that policy's stacked kernel reproduces bit
    for bit: (probs, success, variance, H r, gradient) of prompt i at theta,
    from a one-vector softmax and H(pi) r = diag(pi) r - pi pi^T r for the
    one-hot reward at the correct output a."""
    logits = fs.features[i] @ theta
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    z = np.exp(logits - logits.max())
    probs = z / z.sum()
    a = fs.correct[i]
    success = float(probs[a])
    hr = -probs[a] * probs
    hr[a] = probs[a] * (1.0 - probs[a])
    return probs, success, success * (1.0 - success), hr, fs.features[i].T @ hr


def reference_hessian_inner(fs, theta, i):
    """M = diag(Hr) - (Hr) pi^T - pi (Hr)^T, the K x K factor of Hess(J_i) = X_i^T M X_i."""
    probs, _, _, hr, _ = reference_stats(fs, theta, i)
    return np.diag(hr) - np.outer(hr, probs) - np.outer(probs, hr)


def reference_quadratic_form(fs, theta, i, y):
    """y^T Hess(J_i) y as (H r)^T (X y . X y) - 2 (H r)^T (X y) (pi^T X y)."""
    probs, _, _, hr, _ = reference_stats(fs, theta, i)
    u = fs.features[i] @ y
    return float(hr @ (u * u) - 2.0 * (hr @ u) * (probs @ u))


def reference_hessian_norm(fs, theta, i):
    """The per-call spectral norm that policy.hessian_norms reproduces bit for
    bit: its own QR of X_i^T, the K x K inner matrix and one eigensolve."""
    inner = reference_hessian_inner(fs, theta, i)
    r = np.linalg.qr(fs.features[i].T, mode="r")
    return float(np.abs(np.linalg.eigvalsh(r @ inner @ r.T)).max())


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def tree_digests(root) -> dict:
    """The sha256 of every file under root, keyed by its relative path."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
