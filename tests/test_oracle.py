"""The brute-force references themselves: polynomial exactness of the
stencils, enumeration identities, the Jacobi eigensolve, and the scalar
curvature envelope."""

import math

import numpy as np
import pytest

from rlvrlab.oracle import (
    eig_spectral_norm,
    enumerate_expectation,
    fd_gradient,
    fd_hessian,
    grid_max_f,
    local_smoothness_envelope,
)
from rlvrlab.policy import prompt_stats
from rlvrlab.rng import stream_rng


class TestFdGradient:
    def test_exact_on_quadratics(self):
        rng = stream_rng(20, 2)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            A = rng.standard_normal((d, d))
            A = 0.5 * (A + A.T)
            theta = rng.standard_normal(d)
            theta /= max(1.0, np.linalg.norm(theta))
            grad = fd_gradient(lambda th: float(th @ A @ th), theta)
            np.testing.assert_allclose(grad, 2.0 * A @ theta, atol=1e-9)

    def test_constant_field(self):
        np.testing.assert_allclose(fd_gradient(lambda th: 3.5, np.zeros(4)), 0.0)

    def test_objective_gradient(self, identity_pair, theta_ln3):
        g = fd_gradient(lambda th: prompt_stats(identity_pair, th, 0).objective, theta_ln3)
        np.testing.assert_allclose(g, [0.1875, -0.1875], atol=1e-6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda th: 0.0, np.zeros(2), h=0.0)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(FloatingPointError):
            fd_gradient(lambda th: float("nan"), np.zeros(2))


class TestFdHessian:
    def test_exact_on_quadratics(self):
        # Unit-scale field: the stencil's roundoff is eps |f| / h^2, so the
        # 1e-8 tolerance presumes |f| below one.
        rng = stream_rng(21, 2)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            A = 0.5 * (A + A.T)
            theta = rng.standard_normal(d)
            theta *= 0.3 / np.linalg.norm(theta)
            hess = fd_hessian(lambda th: float(th @ A @ th), theta)
            np.testing.assert_allclose(hess, 2.0 * A, atol=1e-8)

    def test_objective_hessian(self, identity_pair, theta_ln3):
        f = lambda th: prompt_stats(identity_pair, th, 0).objective
        expected = -0.09375 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(fd_hessian(f, theta_ln3), expected, atol=1e-5)
        np.testing.assert_allclose(fd_hessian(f, np.zeros(2)), 0.0, atol=1e-6)

    def test_output_is_symmetric(self):
        rng = stream_rng(22, 2)
        hess = fd_hessian(lambda th: float(np.sin(th).sum() * th[0]), rng.standard_normal(5))
        np.testing.assert_allclose(hess, hess.T, atol=0.0)


class TestEnumerateExpectation:
    def test_reward_expectation_equals_objective(self, identity_pair, theta_ln3):
        val = enumerate_expectation(identity_pair, theta_ln3, 0, lambda j: float(j == 0))
        assert val == pytest.approx(prompt_stats(identity_pair, theta_ln3, 0).objective, abs=1e-15)

    def test_normalization(self, identity_pair, theta_ln3):
        assert enumerate_expectation(identity_pair, theta_ln3, 0, lambda j: 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_score_second_moment(self, identity_pair):
        # E[score_k^2] at theta=0 for the identity pair: score is +-(0.5, -0.5).
        theta = np.zeros(2)
        probs = prompt_stats(identity_pair, theta, 0).probs
        scores = identity_pair.features[0] - probs @ identity_pair.features[0]
        val = enumerate_expectation(identity_pair, theta, 0, lambda j: float(scores[j, 0] ** 2))
        assert val == pytest.approx(0.25, abs=1e-15)


class TestJacobiEigensolve:
    def test_diagonal(self):
        assert eig_spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_exchange_matrix(self):
        assert eig_spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_logistic_hessian(self):
        m = 0.09375 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert eig_spectral_norm(m) == pytest.approx(0.1875, abs=1e-12)

    def test_matches_lapack_on_random_matrices(self):
        rng = stream_rng(23, 2)
        for _ in range(20):
            d = int(rng.integers(1, 30))
            m = rng.standard_normal((d, d))
            m = 0.5 * (m + m.T)
            # sums of squares of entries this small or large underflow or overflow
            for scale in (1.0, 1e-200, 1e200):
                expected = float(np.abs(np.linalg.eigvalsh(scale * m)).max())
                assert eig_spectral_norm(scale * m) == pytest.approx(expected, rel=1e-10, abs=1e-12 * scale)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestSmoothnessEnvelope:
    def test_grid_maximum_location_and_value(self):
        a_star, f_max = grid_max_f(100_000)
        assert f_max == pytest.approx(2.5, abs=1e-3)
        assert a_star == pytest.approx(0.1, abs=1e-3)

    def test_boundary_case_value(self):
        a = 0.5 - math.sqrt(5.0) / 10.0
        assert local_smoothness_envelope(a) == pytest.approx(math.sqrt(5.0), abs=1e-6)

    def test_midpoint_value(self):
        assert local_smoothness_envelope(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_never_exceeds_five_halves(self):
        grid = np.linspace(1e-6, 0.5, 20_001)
        values = [local_smoothness_envelope(a) for a in grid]
        assert max(values) <= 2.5 + 1e-9
        # symmetric in a <-> 1 - a
        assert local_smoothness_envelope(0.9) == pytest.approx(local_smoothness_envelope(0.1), abs=1e-12)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_max_f(10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            local_smoothness_envelope(0.0)
