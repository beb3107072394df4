"""Problem-instance constructors.

Three families: block-orthogonal features (cross-prompt feature products are
structurally zero, so per-prompt updates decouple to machine precision),
random features with a tunable shared component, and an initializer that
pins each prompt's starting success probability to a requested difficulty.
"""

from __future__ import annotations

import math

import numpy as np

from .policy import FeatureSet, prompt_stats
from .rng import SCENARIO_STREAM, stream_rng

__all__ = [
    "orthogonal_blocks",
    "random_features",
    "difficulty_profile",
    "difficulty_preset",
    "ProfileError",
    "DIFFICULTY_TARGETS",
]

# Targets for the heterogeneous-difficulty preset, assigned cyclically.
# Spread so the average reward standard deviation drops below the GRPO
# speedup threshold early in training.
DIFFICULTY_TARGETS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)

_BRACKET_LIMIT = 1e6


class ProfileError(ValueError):
    """Raised when requested success probabilities cannot be realized."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        detail = "; ".join(f"prompt {i}: {why}" for i, why in self.failures)
        super().__init__(f"unreachable difficulty targets: {detail}")


def orthogonal_blocks(
    n: int, K: int, block_dim: int, scale: float, rng: np.random.Generator
) -> FeatureSet:
    """Instance with disjoint coordinate blocks: prompt i only touches columns
    [i*block_dim, (i+1)*block_dim), so X_i X_j^T = 0 holds bit-exactly.

    Block entries are uniform on [-1, 1], then rescaled so every X_i has
    spectral norm equal to `scale` (hence x_max == scale).
    """
    if n < 1 or K < 2 or block_dim < 1:
        raise ValueError("need n >= 1, K >= 2, block_dim >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = n * block_dim
    features = []
    for i in range(n):
        block = rng.uniform(-1.0, 1.0, size=(K, block_dim))
        block *= scale / np.linalg.norm(block, 2)
        X = np.zeros((K, d))
        X[:, i * block_dim : (i + 1) * block_dim] = block
        features.append(X)
    correct = rng.integers(0, K, size=n)
    return FeatureSet(features=tuple(features), correct=correct)


def random_features(
    n: int, K: int, d: int, overlap: float, rng: np.random.Generator
) -> FeatureSet:
    """Isotropic Gaussian features with a shared per-output component.

    Row (i, j) is sqrt(1-overlap) * g_ij + sqrt(overlap) * s_j with g_ij
    independent across prompts and s_j shared, so overlap=0 gives independent
    prompts (gradient cosines concentrate near zero as d grows) and overlap=1
    makes all prompts identical.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    shared = rng.standard_normal((K, d))
    features = tuple(
        np.sqrt(1.0 - overlap) * rng.standard_normal((K, d)) + np.sqrt(overlap) * shared
        for _ in range(n)
    )
    correct = rng.integers(0, K, size=n)
    return FeatureSet(features=features, correct=correct)


def _is_block_orthogonal(fs: FeatureSet) -> bool:
    for i in range(fs.n):
        for j in range(i + 1, fs.n):
            if np.any(fs.features[i] @ fs.features[j].T != 0.0):
                return False
    return True


_BRENTQ_ITERATIONS = 100


def _ieee_div(a: float, b: float) -> float:
    """a / b as C computes it: a zero divisor gives +-inf or nan, not ZeroDivisionError."""
    if b == 0.0:
        return math.nan if a == 0.0 or math.isnan(a) else math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _brentq(f, xa, xb, xtol, rtol):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's Zeros/brentq.c behind
    scipy.optimize.brentq, so it returns the same float: the same bracket
    swap, interpolation and extrapolation steps, acceptance test and minimum
    step of delta = (xtol + rtol*|xcur|)/2.  A NaN function value raises
    scipy's ValueError, and so does a bracket whose ends share a sign; no
    convergence within _BRENTQ_ITERATIONS steps raises RuntimeError.
    """

    def fx(x):
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_ITERATIONS} iterations.")


# On huge-scale instances the steering norm and X @ direction overflow and the
# bracket's softmax meets inf - inf; _brentq's NaN check and the residual check
# refuse those targets, so numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def difficulty_profile(fs: FeatureSet, targets) -> np.ndarray:
    """Parameter vector realizing the requested per-prompt success probabilities.

    Requires a block-orthogonal instance.  For each prompt the success
    probability is driven along the direction x_correct - mean(x_wrong) by a
    scalar coefficient found with bracketed root-finding; disjoint supports
    keep the prompts independent.  Realized probabilities match the targets
    to 1e-9; unreachable targets are collected and reported per prompt.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (fs.n,):
        raise ValueError(f"need one target per prompt, got shape {targets.shape}")
    if np.any(targets <= 0.0) or np.any(targets >= 1.0):
        raise ValueError("targets must lie strictly inside (0, 1)")
    if not _is_block_orthogonal(fs):
        raise ValueError("difficulty_profile requires a block-orthogonal instance")

    theta = np.zeros(fs.d)
    failures = []
    for i in range(fs.n):
        X = fs.features[i]
        a = fs.correct[i]
        others = np.delete(np.arange(fs.K), a)
        direction = X[a] - X[others].mean(axis=0)
        if np.linalg.norm(direction) < 1e-12 * max(1.0, fs.x_norms[i]):
            failures.append((i, "degenerate steering direction"))
            continue
        logits_rate = X @ direction

        def success_at(c):
            z = np.exp(c * logits_rate - np.max(c * logits_rate))
            return z[a] / z.sum()

        def gap(c):
            return success_at(c) - targets[i]

        lo, hi = -1.0, 1.0
        while gap(lo) > 0.0 and lo > -_BRACKET_LIMIT:
            lo *= 2.0
        while gap(hi) < 0.0 and hi < _BRACKET_LIMIT:
            hi *= 2.0
        if gap(lo) > 0.0 or gap(hi) < 0.0:
            failures.append((i, f"target {targets[i]} not bracketed"))
            continue
        c = _brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16)
        if abs(success_at(c) - targets[i]) > 1e-9:
            failures.append((i, f"root-finder residual {abs(success_at(c) - targets[i]):.3e}"))
            continue
        theta += c * direction
    if failures:
        raise ProfileError(failures)
    return theta


def difficulty_preset(
    n: int = 6, K: int = 3, block_dim: int = 4, scale: float = 1.0, seed: int = 0
) -> tuple[FeatureSet, np.ndarray, np.ndarray]:
    """Heterogeneous-difficulty instance: congruent orthogonal blocks (every
    prompt carries a copy of the same block, in its own coordinate range) with
    the cyclic DIFFICULTY_TARGETS as starting success probabilities.

    Congruent blocks make the prompts differ only in difficulty, which is what
    the curvature-variance comparisons need.  Returns (instance, theta0,
    targets).
    """
    rng = stream_rng(seed, SCENARIO_STREAM)
    block = rng.uniform(-1.0, 1.0, size=(K, block_dim))
    block *= scale / np.linalg.norm(block, 2)
    d = n * block_dim
    features = []
    for i in range(n):
        X = np.zeros((K, d))
        X[:, i * block_dim : (i + 1) * block_dim] = block
        features.append(X)
    fs = FeatureSet(features=tuple(features), correct=np.zeros(n, dtype=np.intp))
    targets = np.array([DIFFICULTY_TARGETS[i % len(DIFFICULTY_TARGETS)] for i in range(n)])
    theta0 = difficulty_profile(fs, targets)
    for i in range(n):
        assert abs(prompt_stats(fs, theta0, i).success - targets[i]) <= 1e-9
    return fs, theta0, targets
