"""Independent brute-force reference implementations.

Nothing here shares code with the closed-form routines it checks: derivatives
come from central differences, expectations from full enumeration over the K
outputs, and eigenvalues from a hand-rolled cyclic Jacobi sweep.  These are
the oracles the test suite and the `verify` subcommand measure the fast paths
against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "fd_gradient",
    "fd_hessian",
    "enumerate_expectation",
    "eig_spectral_norm",
    "local_smoothness_envelope",
    "grid_max_f",
]

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


def fd_gradient(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = FD_GRAD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar field, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    e = np.zeros_like(theta)
    for k in range(theta.size):
        e[k] = h
        fp = f(theta + e)
        fm = f(theta - e)
        e[k] = 0.0
        grad[k] = (fp - fm) / (2.0 * h)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite finite-difference evaluation")
    return grad


def fd_hessian(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = FD_HESS_STEP) -> np.ndarray:
    """Second-order central-stencil Hessian, symmetrized as (M + M^T)/2."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    hess = np.empty((d, d))
    f0 = f(theta)
    ei = np.zeros(d)
    ej = np.zeros(d)
    for i in range(d):
        ei[i] = h
        hess[i, i] = (f(theta + 2 * ei) - 2.0 * f0 + f(theta - 2 * ei)) / (4.0 * h * h)
        for j in range(i + 1, d):
            ej[j] = h
            val = (
                f(theta + ei + ej)
                - f(theta + ei - ej)
                - f(theta - ei + ej)
                + f(theta - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = val
            hess[j, i] = val
            ej[j] = 0.0
        ei[i] = 0.0
    if not np.isfinite(hess).all():
        raise FloatingPointError("non-finite finite-difference evaluation")
    return 0.5 * (hess + hess.T)


def enumerate_expectation(fs, theta: np.ndarray, i: int, g: Callable[[int], float]) -> float:
    """Exact expectation sum_j pi_j g(j) over the K outputs of prompt i."""
    from .policy import prompt_stats

    probs = prompt_stats(fs, theta, i).probs
    return float(sum(p * g(j) for j, p in enumerate(probs)))


def eig_spectral_norm(m: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> float:
    """Largest |eigenvalue| of a symmetric matrix via cyclic Jacobi rotations.

    Deliberately independent of LAPACK; used as the reference eigensolve.
    """
    a = np.array(m, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    d = a.shape[0]
    # Exact power-of-two scaling keeps the sums of squares below in range.
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    norm = np.linalg.norm(a, "fro") or 1.0
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= tol * norm:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Standard stable rotation angle choice; the large-|tau|
                # branch avoids overflow in tau * tau.
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                elif abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
    return float(np.ldexp(np.abs(np.diag(a)).max(), exponent))


def local_smoothness_envelope(a: float) -> float:
    """Worst-case curvature factor reachable from success probability a.

    max of 4 l (1 - l) / sqrt(a (1 - a)) over l within sqrt(a(1-a))/2 of a,
    with the range clipped to [0, 1].  4 l (1 - l) peaks at l = 1/2, so the
    maximizer is 1/2 when reachable and the nearest endpoint otherwise.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly between 0 and 1")
    sd = np.sqrt(a * (1.0 - a))
    lo = max(0.0, a - sd / 2.0)
    hi = min(1.0, a + sd / 2.0)
    l_star = min(max(0.5, lo), hi)
    return 4.0 * l_star * (1.0 - l_star) / sd


def grid_max_f(resolution: int = 100_000) -> tuple[float, float]:
    """Grid maximum of the local-smoothness envelope over a in (0, 1/2].

    Returns (argmax a, max value); the analytic maximum is 5/2 at a = 1/10.
    """
    if resolution < 1_000:
        raise ValueError("resolution must be at least 1000")
    grid = np.linspace(0.0, 0.5, resolution + 1)[1:]
    values = np.array([local_smoothness_envelope(a) for a in grid])
    k = int(np.argmax(values))
    return float(grid[k]), float(values[k])
