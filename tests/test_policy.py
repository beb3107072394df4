"""Closed-form probabilities, gradients and Hessians against hand values,
finite differences, and the curvature/gradient bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvrlab.oracle import _success_objective as objective, eig_spectral_norm, fd_gradient, fd_hessian
from rlvrlab.policy import (
    DEFAULT_EPS_FLOOR,
    FeatureSet,
    batch_stats,
    hessian_matrix,
    hessian_norms,
    hessian_quadratic_form,
    policy_gradient,
    prompt_stats,
    spectral_norm,
)
from rlvrlab.rng import stream_rng
from rlvrlab.trainers import TrainerConfig, _step

from conftest import (
    make_random_instance,
    reference_hessian_inner,
    reference_hessian_norm,
    reference_quadratic_form,
    reference_stats,
)

# The per-prompt functions as f(fs, theta, i) -> array: prompt_stats gives its
# probabilities and hessian_quadratic_form takes y = ones(d).
ONE_ROW = (
    lambda fs, theta, i: prompt_stats(fs, theta, i).probs,
    policy_gradient,
    hessian_matrix,
    lambda fs, theta, i: hessian_quadratic_form(fs, theta, i, np.ones(fs.d)),
)


class TestFeatureSet:
    def test_dimensions_and_x_max(self, identity_pair):
        assert (identity_pair.n, identity_pair.K, identity_pair.d) == (1, 2, 2)
        assert identity_pair.x_max == pytest.approx(1.0, rel=1e-12)

    def test_x_max_matches_oracle_eigensolve(self):
        rng = stream_rng(0, 2)
        fs, _ = make_random_instance(rng, normalize=False)
        for i, X in enumerate(fs.features):
            gram = X @ X.T
            oracle = math.sqrt(eig_spectral_norm(gram))
            assert fs.x_norms[i] == pytest.approx(oracle, rel=1e-10)
        assert fs.x_max == pytest.approx(max(fs.x_norms), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FeatureSet(features=(np.eye(2), np.eye(3)), correct=[0, 0])
        with pytest.raises(ValueError):
            FeatureSet(features=(np.eye(2),), correct=[2])
        with pytest.raises(ValueError):
            FeatureSet(features=(np.ones((1, 3)),), correct=[0])
        with pytest.raises(ValueError):
            FeatureSet(features=(np.full((2, 2), np.nan),), correct=[0])

    def test_rejects_zero_feature_dimension(self):
        with pytest.raises(ValueError, match="feature dimension"):
            FeatureSet(features=(np.zeros((2, 0)), np.zeros((2, 0))), correct=[0, 1])

    def test_features_frozen(self, identity_pair):
        with pytest.raises(ValueError):
            identity_pair.features[0][0, 0] = 5.0

    def test_features_are_views_of_the_stacked_array(self, ortho_instance):
        fs = ortho_instance
        assert fs.stacked.shape == (fs.n, fs.K, fs.d)
        assert not fs.stacked.flags.writeable
        for i, X in enumerate(fs.features):
            assert np.shares_memory(X, fs.stacked)
            np.testing.assert_array_equal(X, fs.stacked[i])


class TestBatchStats:
    """The stacked kernel and its one-row cases against the per-prompt
    reference, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 9),
        K=st.integers(2, 20),
        d=st.integers(1, 40),
        log_scale=st.floats(-2.0, 2.0),
    )
    def test_bit_equal_to_per_prompt_functions(self, seed, n, K, d, log_scale):
        rng = stream_rng(seed, 2)
        fs = FeatureSet(
            features=tuple(rng.standard_normal((K, d)) for _ in range(n)),
            correct=rng.integers(0, K, size=n),
        )
        theta = rng.standard_normal(d) * 10.0**log_scale
        y = rng.standard_normal(d)
        b = batch_stats(fs, theta)
        for i in range(n):
            probs, success, variance, _, g = reference_stats(fs, theta, i)
            assert np.array_equal(b.probs[i], probs)
            assert b.success[i] == success and b.variance[i] == variance
            assert np.array_equal(b.grads[i], g)
            assert b.grad_sq[i] == float(g @ g)
            s = prompt_stats(fs, theta, i)
            assert np.array_equal(s.probs, probs)
            assert (s.success, s.variance, s.objective) == (success, variance, success)
            assert np.array_equal(policy_gradient(fs, theta, i), g)
            X = fs.features[i]
            assert np.array_equal(hessian_matrix(fs, theta, i), X.T @ reference_hessian_inner(fs, theta, i) @ X)
            assert hessian_quadratic_form(fs, theta, i, y) == reference_quadratic_form(fs, theta, i, y)

    def test_rejects_overflowing_logits_and_bad_theta(self, identity_pair):
        huge = FeatureSet(features=(np.array([[1e300], [0.0]]),), correct=[0])
        for f in (lambda fs, theta, i: batch_stats(fs, theta),) + ONE_ROW:
            # the finite check reports the overflow; numpy must not warn first
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError):
                    f(huge, np.array([1e10]), 0)
            with pytest.raises(ValueError):
                f(identity_pair, np.array([np.nan, 0.0]), 0)
            with pytest.raises(ValueError):
                f(identity_pair, np.zeros(3), 0)


class TestPromptStats:
    def test_uniform_at_zero(self, identity_pair):
        s = prompt_stats(identity_pair, np.zeros(2), 0)
        np.testing.assert_allclose(s.probs, [0.5, 0.5])
        assert s.success == 0.5
        assert s.variance == 0.25
        assert s.objective == 0.5

    def test_logistic_point(self, identity_pair, theta_ln3):
        s = prompt_stats(identity_pair, theta_ln3, 0)
        assert s.success == pytest.approx(0.75, abs=1e-15)
        assert s.variance == pytest.approx(0.1875, abs=1e-15)

    def test_uniform_for_any_features_at_zero(self):
        rng = stream_rng(1, 2)
        fs = FeatureSet(features=(rng.standard_normal((4, 5)),), correct=[2])
        s = prompt_stats(fs, np.zeros(5), 0)
        np.testing.assert_allclose(s.probs, 0.25)
        assert s.variance == pytest.approx(0.1875)

    def test_extreme_logits_stay_finite(self, identity_pair):
        s = prompt_stats(identity_pair, np.array([800.0, -800.0]), 0)
        assert s.success == 1.0
        assert s.variance == 0.0

    def test_index_out_of_range(self, ortho_instance):
        fs = ortho_instance
        theta = np.linspace(-1.0, 1.0, fs.d)
        for f in ONE_ROW:
            # -1 must not wrap round: stacked[-1:0] would be an empty row
            for i in (-1, fs.n, fs.n + 5, -fs.n):
                with pytest.raises(IndexError):
                    f(fs, theta, i)
            assert np.array_equal(f(fs, theta, np.int64(fs.n - 1)), f(fs, theta, fs.n - 1))

    def test_nonfinite_theta_rejected(self, identity_pair):
        with pytest.raises(ValueError):
            prompt_stats(identity_pair, np.array([np.inf, 0.0]), 0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_probim_normalization(self, seed):
        rng = stream_rng(seed, 2)
        fs, theta = make_random_instance(rng, n_max=2, k_max=6, d_max=8)
        for i in range(fs.n):
            s = prompt_stats(fs, theta, i)
            assert abs(s.probs.sum() - 1.0) <= 1e-12
            assert np.all(s.probs >= 0.0)
            assert s.success == s.probs[fs.correct[i]]
            assert abs(s.variance - s.success * (1.0 - s.success)) <= 1e-15


class TestPolicyGradient:
    def test_hand_value_at_zero(self, identity_pair):
        np.testing.assert_allclose(policy_gradient(identity_pair, np.zeros(2), 0), [0.25, -0.25])

    def test_hand_value_at_ln3(self, identity_pair, theta_ln3):
        g = policy_gradient(identity_pair, theta_ln3, 0)
        np.testing.assert_allclose(g, [0.1875, -0.1875], atol=1e-15)
        assert np.linalg.norm(g) <= 2.0 * identity_pair.x_max * 0.1875

    def test_matches_finite_differences(self, identity_pair, theta_ln3):
        g_fd = fd_gradient(objective(identity_pair, 0), theta_ln3)
        np.testing.assert_allclose(g_fd, [0.1875, -0.1875], atol=1e-6)

    def test_constant_rows_give_zero_gradient(self):
        fs = FeatureSet(features=(np.tile([1.5, -2.0, 0.5], (4, 1)),), correct=[1])
        rng = stream_rng(2, 2)
        for _ in range(5):
            g = policy_gradient(fs, rng.uniform(-3, 3, size=3), 0)
            np.testing.assert_allclose(g, 0.0, atol=1e-16)

    def test_matches_general_matrix_form(self):
        rng = stream_rng(3, 2)
        for _ in range(20):
            fs, theta = make_random_instance(rng, n_max=3, k_max=6, d_max=10)
            for i in range(fs.n):
                s = prompt_stats(fs, theta, i)
                r = np.zeros(fs.K)
                r[fs.correct[i]] = 1.0
                H = np.diag(s.probs) - np.outer(s.probs, s.probs)
                reference = fs.features[i].T @ (H @ r)
                np.testing.assert_allclose(policy_gradient(fs, theta, i), reference, atol=1e-14)

    def test_gradient_oracle_sweep(self):
        rng = stream_rng(4, 2)
        worst = 0.0
        for _ in range(100):
            fs, theta = make_random_instance(rng)
            for i in range(fs.n):
                g = policy_gradient(fs, theta, i)
                g_fd = fd_gradient(objective(fs, i), theta)
                worst = max(worst, np.abs(g - g_fd).max() / max(np.abs(g).max(), 1e-12))
        assert worst <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shift_invariance(self, seed):
        rng = stream_rng(seed, 3)
        fs, theta = make_random_instance(rng, n_max=1, k_max=5, d_max=6)
        c = rng.standard_normal(fs.d)
        shifted = FeatureSet(features=(fs.features[0] + c,), correct=fs.correct)
        np.testing.assert_allclose(
            policy_gradient(fs, theta, 0), policy_gradient(shifted, theta, 0), atol=1e-12
        )
        np.testing.assert_allclose(
            hessian_matrix(fs, theta, 0), hessian_matrix(shifted, theta, 0), atol=1e-12
        )


class TestGrpoGradient:
    """The variance-normalized gradient that a GRPO step ascends, and the
    clamp flag of trainers._step."""

    @staticmethod
    def normalized(fs, theta, i, eps_floor=DEFAULT_EPS_FLOOR):
        """(the GRPO step's direction at eta = 1, whether _step's clamp fired)."""
        grad = policy_gradient(fs, theta, i)
        variance = prompt_stats(fs, theta, i).variance
        theta_new, eta_eff, _, clamped = _step("grpo", theta, grad, 1.0, variance, eps_floor)
        assert np.array_equal(theta_new, theta + eta_eff * grad)
        return eta_eff * grad, clamped

    def test_doubles_gradient_at_uniform(self, identity_pair):
        vector, clamped = self.normalized(identity_pair, np.zeros(2), 0)
        np.testing.assert_allclose(vector, [0.5, -0.5])
        assert not clamped

    def test_normalized_value_at_ln3(self, identity_pair, theta_ln3):
        vector, _ = self.normalized(identity_pair, theta_ln3, 0)
        np.testing.assert_allclose(vector, [0.4330, -0.4330], atol=1e-4)

    def test_degenerate_variance_clamps_and_flags(self, identity_pair):
        theta = np.array([60.0, 0.0])
        vector, clamped = self.normalized(identity_pair, theta, 0, eps_floor=1e-8)
        assert clamped
        raw = policy_gradient(identity_pair, theta, 0)
        np.testing.assert_allclose(vector, raw / 1e-8)
        # The variance rounds to 0 here while the gradient is tiny-nonzero;
        # the 2 x_max V bound must be evaluated without the 1 - success
        # cancellation to stay meaningful.
        probs = prompt_stats(identity_pair, theta, 0).probs
        v_exact = probs[0] * probs[1:].sum()
        assert np.linalg.norm(vector) <= 2.0 * identity_pair.x_max * v_exact / 1e-8 * (1 + 1e-12)

    def test_positive_multiple_of_gradient(self):
        rng = stream_rng(5, 2)
        for _ in range(20):
            fs, theta = make_random_instance(rng, n_max=2, k_max=6, d_max=8)
            for i in range(fs.n):
                raw = policy_gradient(fs, theta, i)
                if np.linalg.norm(raw) == 0.0:
                    continue
                vector, _ = self.normalized(fs, theta, i)
                scale = np.linalg.norm(vector) / np.linalg.norm(raw)
                assert scale > 0
                np.testing.assert_allclose(vector, scale * raw, rtol=1e-12)

    def test_eps_floor_must_be_positive(self):
        for eps_floor in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps_floor must be finite and positive"):
                TrainerConfig(algorithm="grpo", horizon=1, seed=0, eps_floor=eps_floor)


class TestHessian:
    def test_quadratic_form_zero_cases(self, identity_pair, theta_ln3):
        assert hessian_quadratic_form(identity_pair, theta_ln3, 0, np.zeros(2)) == 0.0
        for y in (np.array([1.0, -1.0]), np.array([0.3, 2.0])):
            assert hessian_quadratic_form(identity_pair, np.zeros(2), 0, y) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_form_hand_value(self, identity_pair, theta_ln3):
        q = hessian_quadratic_form(identity_pair, theta_ln3, 0, np.array([1.0, -1.0]))
        assert q == pytest.approx(-0.375, abs=1e-6)

    def test_matrix_hand_values(self, identity_pair, theta_ln3):
        np.testing.assert_allclose(hessian_matrix(identity_pair, np.zeros(2), 0), 0.0, atol=1e-16)
        expected = -0.09375 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(hessian_matrix(identity_pair, theta_ln3, 0), expected, atol=1e-15)

    def test_matrix_agrees_with_quadratic_form_and_fd(self):
        rng = stream_rng(6, 2)
        for _ in range(20):
            fs, theta = make_random_instance(rng, n_max=2, k_max=6, d_max=10)
            for i in range(fs.n):
                H = hessian_matrix(fs, theta, i)
                np.testing.assert_allclose(H, H.T, atol=1e-15)
                for _ in range(20):
                    y = rng.standard_normal(fs.d)
                    assert float(y @ H @ y) == pytest.approx(
                        hessian_quadratic_form(fs, theta, i, y), abs=1e-12, rel=1e-12
                    )
                np.testing.assert_allclose(
                    H, fd_hessian(objective(fs, i), theta), atol=1e-5
                )

    def test_dimension_mismatch(self, identity_pair):
        for y in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.zeros((1, 2)), 0.0):
            with pytest.raises(ValueError):
                hessian_quadratic_form(identity_pair, np.zeros(2), 0, y)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 4),
        K=st.integers(2, 20),
        d=st.one_of(st.integers(1, 20), st.integers(1, 200)),
        log_scale=st.floats(-2.0, 1.5),
        zero_prompt=st.booleans(),
    )
    def test_norm_matches_dense_eigensolve_and_jacobi_oracle(self, seed, n, K, d, log_scale, zero_prompt):
        """The K x K closed form covers d < K, d > 64 and all-zero features."""
        rng = stream_rng(seed, 2)
        features = [rng.standard_normal((K, d)) for _ in range(n)]
        if zero_prompt:
            features[0] = np.zeros((K, d))
        fs = FeatureSet(features=tuple(features), correct=rng.integers(0, K, size=n))
        theta = rng.standard_normal(d) * 10.0**log_scale
        for i in range(n):
            hn = hessian_norms(fs, [theta], [i])[0]
            H = hessian_matrix(fs, theta, i)
            # abs: doubles below ~1e-300 keep too few significant bits for rel
            assert hn == pytest.approx(spectral_norm(H), rel=1e-12, abs=1e-300)
            if d <= 20:
                assert hn == pytest.approx(eig_spectral_norm(H), rel=1e-10, abs=1e-300)
        if zero_prompt:
            assert hessian_norms(fs, [theta], [0])[0] == 0.0


class TestHessianNorms:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        K=st.integers(2, 6),
        d=st.sampled_from([1, 2, 3, 5, 32, 128]),
        log_scale=st.floats(-3.0, math.log10(30.0)),
        zero_prompt=st.booleans(),
        m=st.integers(1, 40),
    )
    def test_matches_per_call_reference_bit_for_bit(self, seed, n, K, d, log_scale, zero_prompt, m):
        """Repeated, unsorted prompt indices; d < K; an all-zero prompt; m = 1."""
        rng = stream_rng(seed, 2)
        features = [10.0**log_scale * rng.standard_normal((K, d)) for _ in range(n)]
        if zero_prompt:
            features[0] = np.zeros((K, d))
        fs = FeatureSet(features=tuple(features), correct=rng.integers(0, K, size=n))
        prompts = rng.integers(0, n, size=m)
        thetas = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-2.0, 1.0)
        want = np.array([reference_hessian_norm(fs, thetas[k], int(prompts[k])) for k in range(m)])
        assert np.array_equal(hessian_norms(fs, thetas, prompts), want)
        assert np.array_equal(hessian_norms(fs, thetas[:1], prompts[:1]), want[:1])

    def test_one_qr_per_distinct_prompt(self, monkeypatch):
        fs = FeatureSet(features=(np.eye(3), 2.0 * np.eye(3), np.ones((3, 3))), correct=[0, 1, 2])
        calls = []
        real_qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: calls.append(a.shape) or real_qr(a, mode=mode))
        hessian_norms(fs, np.zeros((5, 3)), [2, 0, 2, 2, 0])
        assert calls == [(2, 3, 3)]

    def test_no_pairs(self, identity_pair):
        assert hessian_norms(identity_pair, np.zeros((0, 2)), []).shape == (0,)

    def test_error_paths(self, identity_pair):
        fs = identity_pair
        for prompts in ([1], [0, -1]):
            with pytest.raises(IndexError):
                hessian_norms(fs, np.zeros((len(prompts), 2)), prompts)
            with pytest.raises(IndexError):
                hessian_norms(fs, [np.zeros(2)], [prompts[-1]])
        for prompts in ([0.0], [[0]]):
            with pytest.raises(ValueError):
                hessian_norms(fs, np.zeros((1, 2)), prompts)
        for thetas in (np.zeros(2), np.zeros((1, 3)), np.zeros((2, 2)), [np.zeros(2), np.zeros(3)]):
            with pytest.raises(ValueError):
                hessian_norms(fs, thetas, [0])
        with pytest.raises(ValueError):
            hessian_norms(fs, [np.zeros(3)], [0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                hessian_norms(fs, np.array([[0.0, bad]]), [0])
            with pytest.raises(ValueError):
                hessian_norms(fs, [np.array([bad, 0.0])], [0])
        huge = FeatureSet(features=(np.array([[1e300], [0.0]]), np.ones((2, 1))), correct=[0, 1])
        with pytest.raises(FloatingPointError):
            hessian_norms(huge, np.array([[0.0], [1e10]]), [1, 0])
        with pytest.raises(FloatingPointError):
            hessian_norms(huge, [np.array([1e10])], [0])


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_logistic_hessian_norm(self):
        m = 0.09375 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert spectral_norm(m) == pytest.approx(0.1875, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_dominant_eigenvalue_above_direct_cutoff(self):
        d = 70
        m = np.zeros((d, d))
        m[0, 0] = -5.0
        m[1, 1] = 3.0
        assert spectral_norm(m) == pytest.approx(5.0, rel=1e-9)

    def test_agrees_with_jacobi_oracle(self):
        rng = stream_rng(8, 2)
        for _ in range(10):
            d = int(rng.integers(2, 20))
            m = rng.standard_normal((d, d))
            m = 0.5 * (m + m.T)
            assert spectral_norm(m) == pytest.approx(eig_spectral_norm(m), rel=1e-10)


class TestLemmaBounds:
    """Randomized sweeps of the curvature and Lipschitz bounds (small scale;
    the acceptance suite runs the full 1e4-sample versions)."""

    def test_curvature_bounds(self):
        rng = stream_rng(9, 2)
        sharp = 2.0 * math.sqrt(2.0) + 1.0
        for _ in range(200):
            fs, theta = make_random_instance(rng, n_max=2, k_max=6, d_max=10)
            for i in range(fs.n):
                v = prompt_stats(fs, theta, i).variance
                hn = spectral_norm(hessian_matrix(fs, theta, i))
                assert hn <= 4.0 * fs.x_max**2 * v * (1 + 1e-9) + 1e-15
                assert hn <= sharp * fs.x_max**2 * v * (1 + 1e-9) + 1e-15
                assert hn <= fs.x_max**2 * (1 + 1e-9)

    def test_gradient_bounds(self):
        rng = stream_rng(10, 2)
        for _ in range(200):
            fs, theta = make_random_instance(rng, n_max=2, k_max=6, d_max=10)
            for i in range(fs.n):
                v = prompt_stats(fs, theta, i).variance
                gn = float(np.linalg.norm(policy_gradient(fs, theta, i)))
                assert gn <= 0.5 * fs.x_max * (1 + 1e-9) + 1e-15
                assert gn <= 2.0 * float(fs.x_norms[i]) * v * (1 + 1e-9) + 1e-15

    def test_local_smoothness_ball(self):
        rng = stream_rng(11, 2)
        for _ in range(200):
            fs, theta = make_random_instance(rng, n_max=1, k_max=5, d_max=8)
            v = prompt_stats(fs, theta, 0).variance
            radius = math.sqrt(v) / fs.x_max
            u = rng.standard_normal(fs.d)
            u *= radius * rng.uniform() ** (1.0 / fs.d) / np.linalg.norm(u)
            hn = spectral_norm(hessian_matrix(fs, theta + u, 0))
            assert hn <= 2.5 * fs.x_max**2 * math.sqrt(v) * (1 + 1e-9) + 1e-15
