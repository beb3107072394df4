"""The assumption auditor: cosine statistics, interaction and scale
constants, the realized reward-std factor, the Fisher proxy, the
curvature-variance correlation, and lemma-bound slack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvrlab.diagnostics import (
    _pearson,
    _permutation_test,
    assumption_report,
    c_constant,
    curvature_variance_correlation,
    exact_fisher_diag,
    fisher_diag_proxy,
    lagged_curvature_variance,
    lemma_bound_report,
    m_bound,
    pairwise_grad_cosines,
    phase_classify,
    scale_regularity,
)
from rlvrlab.oracle import enumerate_expectation
from rlvrlab.policy import FeatureSet, prompt_stats
from rlvrlab.rng import FISHER_STREAM, SCENARIO_STREAM, stream_rng
from rlvrlab.scenarios import difficulty_preset, difficulty_profile, orthogonal_blocks, random_features
from rlvrlab.trainers import TrainerConfig, run_trajectory


def anti_aligned_pair() -> FeatureSet:
    """Two prompts sharing identity features with opposite correct answers;
    their gradients are exactly anti-parallel."""
    return FeatureSet(features=(np.eye(2), np.eye(2)), correct=[0, 1])


@pytest.fixture
def ortho_fs():
    return orthogonal_blocks(n=4, K=3, block_dim=3, scale=1.0, rng=stream_rng(70, SCENARIO_STREAM))


class TestPairwiseCosines:
    def test_orthogonal_instance_all_zero(self, ortho_fs):
        rep = pairwise_grad_cosines(ortho_fs, np.full(ortho_fs.d, 0.3))
        assert rep.n_pairs == 6
        assert np.all(np.abs(rep.cosines) <= 1e-10)
        assert rep.frac_abs_below_0p1 == 1.0
        assert rep.std == pytest.approx(0.0, abs=1e-10)

    def test_duplicated_prompt_gives_cosine_one(self):
        rng = stream_rng(71, SCENARIO_STREAM)
        X = rng.standard_normal((3, 5))
        fs = FeatureSet(features=(X, X.copy()), correct=[1, 1])
        rep = pairwise_grad_cosines(fs, rng.standard_normal(5))
        assert rep.cosines[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradient_pairs_excluded_and_counted(self):
        dead = np.zeros((3, 3))  # no features: exactly zero gradient
        fs = FeatureSet(features=(np.eye(3), dead, np.eye(3)[::-1]), correct=[0, 0, 0])
        rep = pairwise_grad_cosines(fs, np.zeros(3))
        assert rep.n_excluded == 2
        assert rep.n_pairs == 1

    def test_all_zero_gradients_flags_empty(self):
        dead = np.zeros((2, 2))
        fs = FeatureSet(features=(dead, dead.copy()), correct=[0, 1])
        rep = pairwise_grad_cosines(fs, np.zeros(2))
        assert rep.empty
        assert rep.n_pairs == 0
        assert math.isnan(rep.mean)

    def test_needs_two_prompts(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        with pytest.raises(ValueError):
            pairwise_grad_cosines(fs, np.zeros(2))


class TestMBound:
    def test_orthogonal_instance_vacuous(self, ortho_fs):
        rep = m_bound(ortho_fs, np.full(ortho_fs.d, -0.2))
        assert rep.status == "vacuous"
        assert rep.m_hat == 0.0
        assert rep.n_candidates == 0

    def test_duplicated_prompt_candidate_below_one(self):
        rng = stream_rng(72, SCENARIO_STREAM)
        X = rng.standard_normal((4, 6))
        fs = FeatureSet(features=(X, X.copy()), correct=[2, 2])
        rep = m_bound(fs, rng.uniform(-1.0, 1.0, 6))
        assert rep.status == "ok"
        assert 0.0 < rep.m_hat <= 1.0 + 1e-12

    def test_anti_aligned_pair_violates(self):
        rep = m_bound(anti_aligned_pair(), np.array([0.4, -0.1]))
        assert rep.status == "violated"
        assert math.isnan(rep.m_hat)
        assert (0, 1) in rep.violations and (1, 0) in rep.violations

    def test_violations_are_data_not_exceptions(self):
        rep = m_bound(anti_aligned_pair(), np.zeros(2))
        assert rep.status == "violated"

    @pytest.mark.filterwarnings("error")
    def test_all_zero_prompt_is_vacuous(self):
        # X_1 = 0 makes X_1 grad_0 = 0 and grad_1 = 0: both pairs are vacuous,
        # not a violation with an undefined m_hat
        fs = FeatureSet(features=(np.eye(2), np.zeros((2, 2))), correct=[0, 0])
        rep = m_bound(fs, np.zeros(2))
        assert rep.status == "vacuous" and rep.m_hat == 0.0
        assert rep.n_vacuous == 2 and rep.violations == []

    @pytest.mark.filterwarnings("error")
    def test_tiny_prompt_scaled_before_squaring(self):
        # |X_1|^2 = 1e-340 underflows to 0 while |X_1 grad_0|^2 does not; pair
        # (1, 0) asks m >= |grad_0|^2 / <grad_1, grad_0> = 1.25e23 / 1.25e-159
        fs = FeatureSet(features=(1e12 * np.eye(2), 1e-170 * np.eye(2)), correct=[0, 0])
        rep = m_bound(fs, np.zeros(2))
        assert rep.status == "ok" and rep.worst_pair == (1, 0)
        assert rep.m_hat == pytest.approx(1e182, rel=1e-12)


class TestScaleRegularity:
    def test_symmetric_instance_gives_unit_ratios(self):
        # two congruent blocks at the uniform point
        block = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        X1 = np.hstack([block, np.zeros((3, 2))])
        X2 = np.hstack([np.zeros((3, 2)), block])
        fs = FeatureSet(features=(X1, X2), correct=[0, 0])
        rep = scale_regularity(fs, np.zeros(4))
        assert rep.r1_hat == pytest.approx(1.0, rel=1e-12)
        assert rep.r2_hat == pytest.approx(1.0, rel=1e-12)

    def test_variance_ratio_hand_value(self):
        fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(73, SCENARIO_STREAM))
        theta = difficulty_profile(fs, [0.5, 0.9])
        rep = scale_regularity(fs, theta)
        assert rep.r2_hat == pytest.approx(0.5 / 0.3, rel=1e-9)

    def test_ratios_at_least_one(self):
        rng = stream_rng(74, SCENARIO_STREAM)
        fs = random_features(n=5, K=3, d=8, overlap=0.2, rng=rng)
        rep = scale_regularity(fs, rng.uniform(-2, 2, 8))
        assert rep.r1_hat >= 1.0
        assert rep.r2_hat >= 1.0

    def test_zero_denominators_flagged_infinite(self):
        fs = FeatureSet(features=(np.eye(2), np.eye(2)), correct=[0, 1])
        theta = np.array([90.0, -90.0])  # prompt 0 solved to certainty
        rep = scale_regularity(fs, theta)
        assert rep.degenerate
        assert rep.r2_hat == math.inf
        assert 0 in rep.zero_var_prompts


class TestCConstant:
    def test_pinned_maximum_variance(self):
        fs = FeatureSet(features=(np.eye(2), np.eye(2)[::-1]), correct=[0, 0])
        # theta = 0 keeps V = 1/4 for both prompts; zero gradients never move it
        shared = np.tile([0.3, 0.3], (2, 1))
        fs = FeatureSet(features=(shared, shared.copy()), correct=[0, 1])
        cfg = TrainerConfig(algorithm="reinforce", horizon=64, seed=0)
        log = run_trajectory(cfg, fs, np.zeros(2))
        per_prompt, aggregate = c_constant(log)
        np.testing.assert_allclose(per_prompt, 4.0 / 3.0, rtol=1e-12)
        assert aggregate == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_solved_prompts_give_zero(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        cfg = TrainerConfig(algorithm="reinforce", horizon=16, seed=0)
        log = run_trajectory(cfg, fs, np.array([60.0, -60.0]))
        per_prompt, aggregate = c_constant(log)
        assert aggregate == 0.0
        np.testing.assert_array_equal(per_prompt, 0.0)

    def test_never_exceeds_four_thirds(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=200, seed=9)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        per_prompt, aggregate = c_constant(log)
        assert np.all(per_prompt <= 4.0 / 3.0 + 1e-12)
        assert aggregate <= 4.0 / 3.0 + 1e-12


class TestPhaseClassify:
    @pytest.mark.parametrize(
        "std,phase", [(0.045, "I"), (0.066, "II"), (0.130, "III")]
    )
    def test_observed_stage_stds(self, std, phase):
        assert phase_classify(std) == phase

    def test_monotone_in_std(self):
        order = {"I": 0, "II": 1, "III": 2}
        labels = [order[phase_classify(s)] for s in np.linspace(0.0, 0.3, 200)]
        assert all(b >= a for a, b in zip(labels, labels[1:]))

    def test_custom_thresholds(self):
        assert phase_classify(0.08, thresholds=(0.02, 0.05)) == "III"

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_classify(-0.1)
        with pytest.raises(ValueError):
            phase_classify(0.1, thresholds=(0.2, 0.1))


def reference_fisher_proxy(fs, theta, B, rng):
    """The per-draw loop the stacked proxy replaces: prompt_stats and rng.choice per draw."""
    total = np.zeros(fs.d)
    for i in rng.integers(0, fs.n, size=B):
        probs = prompt_stats(fs, theta, int(i)).probs
        j = int(rng.choice(fs.K, p=probs))
        X = fs.features[int(i)]
        total += (X - probs @ X)[j]
    mean_score = total / B
    return B * mean_score * mean_score


def reference_exact_fisher(fs, theta):
    """The per-prompt loop the stacked exact diagonal replaces."""
    acc = np.zeros(fs.d)
    for i in range(fs.n):
        probs = prompt_stats(fs, theta, i).probs
        s = fs.features[i] - probs @ fs.features[i]
        acc += probs @ (s * s)
    return acc / fs.n


def gaussian_instance(seed, n, K, d, log_scale):
    rng = stream_rng(seed, SCENARIO_STREAM)
    fs = FeatureSet(
        features=tuple(rng.standard_normal((K, d)) for _ in range(n)),
        correct=rng.integers(0, K, size=n),
    )
    return fs, rng.standard_normal(d) * 10.0**log_scale


def assert_same_draws(fs, theta, B, seed, calls):
    fast_rng, ref_rng = stream_rng(seed, FISHER_STREAM), stream_rng(seed, FISHER_STREAM)
    for _ in range(calls):
        assert np.array_equal(
            fisher_diag_proxy(fs, theta, B, fast_rng), reference_fisher_proxy(fs, theta, B, ref_rng)
        )
    np.testing.assert_equal(fast_rng.bit_generator.state, ref_rng.bit_generator.state)


class TestFisherStackedAgainstLoops:
    """The stacked proxy and exact diagonal against the per-prompt loops, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 9),
        K=st.integers(2, 20),
        d=st.integers(1, 40),
        B=st.integers(1, 16),
        log_scale=st.floats(-2.0, 1.5),
    )
    def test_proxy_draws_bit_equal(self, seed, n, K, d, B, log_scale):
        fs, theta = gaussian_instance(seed, n, K, d, log_scale)
        assert_same_draws(fs, theta, B, seed, calls=20)

    @pytest.mark.parametrize("B", range(8, 17))
    def test_proxy_draws_bit_equal_one_feature(self, B):
        # With d = 1 a pairwise sum over the draws rounds differently from
        # the loop's running sum once B >= 8.
        for seed in range(4):
            fs, theta = gaussian_instance(seed, 5, 6, 1, 0.5)
            assert_same_draws(fs, theta, B, seed, calls=50)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 9),
        K=st.integers(2, 20),
        d=st.integers(1, 40),
        log_scale=st.floats(-2.0, 1.5),
    )
    def test_exact_diagonal_bit_equal(self, seed, n, K, d, log_scale):
        fs, theta = gaussian_instance(seed, n, K, d, log_scale)
        assert np.array_equal(exact_fisher_diag(fs, theta), reference_exact_fisher(fs, theta))


class TestFisherProxy:
    def test_single_draw_hand_value(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        # any sampled output gives score (+-0.5, -+0.5) at theta = 0
        h = fisher_diag_proxy(fs, np.zeros(2), B=1, rng=stream_rng(75, 1))
        np.testing.assert_allclose(h, [0.25, 0.25], atol=1e-15)

    def test_entrywise_nonnegative(self):
        rng = stream_rng(76, SCENARIO_STREAM)
        fs = random_features(n=3, K=4, d=6, overlap=0.4, rng=rng)
        draw_rng = stream_rng(76, 1)
        for _ in range(50):
            h = fisher_diag_proxy(fs, rng.uniform(-2, 2, 6), B=3, rng=draw_rng)
            assert np.all(h >= 0.0)

    def test_unbiased_against_enumeration(self):
        rng = stream_rng(77, SCENARIO_STREAM)
        fs = random_features(n=2, K=3, d=4, overlap=0.0, rng=rng)
        theta = rng.uniform(-1, 1, 4)
        exact = exact_fisher_diag(fs, theta)
        draw_rng = stream_rng(77, 1)
        draws = 20_000
        acc = np.zeros(4)
        acc_sq = np.zeros(4)
        for _ in range(draws):
            h = fisher_diag_proxy(fs, theta, B=2, rng=draw_rng)
            acc += h
            acc_sq += h * h
        mean = acc / draws
        se = np.sqrt((acc_sq / draws - mean**2) / draws)
        assert np.all(np.abs(mean - exact) <= 4.0 * se)

    def test_exact_fisher_matches_enumeration_oracle(self):
        rng = stream_rng(78, SCENARIO_STREAM)
        fs = random_features(n=2, K=4, d=5, overlap=0.1, rng=rng)
        theta = rng.uniform(-1, 1, 5)
        exact = exact_fisher_diag(fs, theta)
        for k in range(fs.d):
            per_prompt = []
            for i in range(fs.n):
                probs = prompt_stats(fs, theta, i).probs
                scores = fs.features[i] - probs @ fs.features[i]
                per_prompt.append(
                    enumerate_expectation(fs, theta, i, lambda j: float(scores[j, k] ** 2))
                )
            assert exact[k] == pytest.approx(np.mean(per_prompt), abs=1e-15)

    def test_near_deterministic_policy_gives_tiny_proxy(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        theta = np.array([60.0, 0.0])
        h = fisher_diag_proxy(fs, theta, B=1, rng=stream_rng(79, 1))
        assert np.all(h <= 1e-20)

    def test_b_validation(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        with pytest.raises(ValueError):
            fisher_diag_proxy(fs, np.zeros(2), B=0, rng=stream_rng(80, 1))


class TestCurvatureVarianceCorrelation:
    def test_positive_on_difficulty_preset(self):
        fs, theta0, _ = difficulty_preset(n=6, K=4, block_dim=4, scale=1.0, seed=2)
        rep = curvature_variance_correlation(fs, theta0, B=4, rng=stream_rng(81, 3), n_permutations=2000)
        assert rep.pearson_r > 0
        assert rep.p_value < 0.05

    def test_perfect_linear_relation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert _pearson(x, 2.5 * x) == pytest.approx(1.0, abs=1e-12)
        assert _pearson(x, -x + 7.0) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_variance_flagged(self):
        block = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.3]])
        features = []
        for i in range(3):
            X = np.zeros((3, 6))
            X[:, 2 * i : 2 * i + 2] = block
            features.append(X)
        fs = FeatureSet(features=tuple(features), correct=[0, 0, 0])
        rep = curvature_variance_correlation(fs, np.zeros(6), B=2, rng=stream_rng(82, 3), n_permutations=100)
        assert rep.constant_variance
        assert math.isnan(rep.pearson_r)

    def test_p_value_stable_under_one_ulp_curvature_change(self):
        fs, theta0, _ = difficulty_preset(n=6, K=4, block_dim=4, scale=1.0, seed=2)
        rep = curvature_variance_correlation(fs, theta0, B=4, rng=stream_rng(89, 3), n_permutations=10)
        # Two variance pairs (near 0.09 and 0.21) differ only in the last bits,
        # so shuffles that swap them reach r_obs up to rounding.
        _, p = _permutation_test(rep.curvature, rep.variances, stream_rng(90, 3), 2000)
        for k in range(fs.n):
            for toward in (-np.inf, np.inf):
                curvature = rep.curvature.copy()
                curvature[k] = np.nextafter(curvature[k], toward)
                assert _permutation_test(curvature, rep.variances, stream_rng(90, 3), 2000)[1] == p

    def test_shuffled_labels_not_significant(self):
        fs, theta0, _ = difficulty_preset(n=6, K=4, block_dim=4, scale=1.0, seed=2)
        rep = curvature_variance_correlation(fs, theta0, B=4, rng=stream_rng(83, 3), n_permutations=1000)
        hits = 0
        for s in range(10):
            rng = stream_rng(300 + s, 3)
            shuffled = rng.permutation(rep.variances)
            r_obs = _pearson(rep.curvature, shuffled)
            count = sum(_pearson(rep.curvature, rng.permutation(shuffled)) >= r_obs for _ in range(1000))
            hits += (1 + count) / 1001 > 0.05
        assert hits >= 9


class TestLaggedCurvatureVariance:
    def test_lag_zero_matches_pooled_same_iteration_pairing(self):
        fs, theta0, _ = difficulty_preset(n=6, K=4, block_dim=4, scale=1.0, seed=2)
        r0, p0, n_pairs = lagged_curvature_variance(
            fs, [theta0], lag=0, rng=stream_rng(87, 3), n_permutations=500
        )
        assert n_pairs == fs.n
        rep = curvature_variance_correlation(fs, theta0, B=2, rng=stream_rng(87, 3), n_permutations=500)
        assert r0 == pytest.approx(rep.pearson_r, abs=1e-12)

    def test_lagged_pairs_across_checkpoints(self):
        fs, theta0, _ = difficulty_preset(n=4, K=4, block_dim=4, scale=1.0, seed=2)
        cfg = TrainerConfig(algorithm="grpo", horizon=60, seed=1)
        log = run_trajectory(cfg, fs, theta0, checkpoint_cadence=20)
        thetas = [theta0] + [th for _, th in log.theta_checkpoints]
        r, p, n_pairs = lagged_curvature_variance(fs, thetas, lag=1, rng=stream_rng(88, 3), n_permutations=500)
        assert n_pairs == fs.n * (len(thetas) - 1)
        assert -1.0 <= r <= 1.0
        assert 0.0 < p <= 1.0

    def test_lag_validation(self):
        fs, theta0, _ = difficulty_preset(n=4, K=4, block_dim=4, scale=1.0, seed=2)
        with pytest.raises(ValueError):
            lagged_curvature_variance(fs, [theta0], lag=1)


class TestLemmaBoundReport:
    def test_hand_values_identity_pair(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        rows = lemma_bound_report(fs, np.array([math.log(3.0), 0.0]), rng=stream_rng(84, 3))
        row = rows[0]
        assert row.hess_norm == pytest.approx(0.1875, rel=1e-9)
        assert row.bound_hess_4v == pytest.approx(0.75, rel=1e-12)
        assert row.grad_norm == pytest.approx(0.2652, abs=1e-4)
        assert row.bound_grad_global == 0.5
        assert row.min_slack >= 0.0

    def test_zero_curvature_at_uniform(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        rows = lemma_bound_report(fs, np.zeros(2), rng=stream_rng(85, 3))
        assert rows[0].hess_norm == pytest.approx(0.0, abs=1e-15)
        assert rows[0].bound_hess_4v == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_bounds_finite_near_largest_accepted_scale(self):
        # x_max = 9e153: 4 x_max^2 overflows, x_max^2 V does not; a solved
        # prompt (V = 0) has bounds 0, not inf * 0
        X = 9e153 * np.eye(2)
        fs = FeatureSet(features=(X, X.copy()), correct=[0, 0])
        for row in lemma_bound_report(fs, np.array([600 / 9e153, 0.0]), ball_samples=2):
            assert row.bound_hess_4v == row.bound_hess_sharp == row.bound_ball == 0.0
        for row in lemma_bound_report(fs, np.zeros(2), ball_samples=2):
            assert row.bound_hess_4v == pytest.approx(9e153**2, rel=1e-12)
            assert row.bound_hess_sharp == pytest.approx((2 * math.sqrt(2) + 1) / 4 * 9e153**2, rel=1e-12)
            assert row.bound_ball == pytest.approx(1.25 * 9e153**2, rel=1e-12)

    def test_slack_nonnegative_across_instances(self):
        rng = stream_rng(86, SCENARIO_STREAM)
        for _ in range(10):
            fs = random_features(
                n=int(rng.integers(1, 4)), K=int(rng.integers(2, 5)), d=int(rng.integers(2, 8)),
                overlap=float(rng.uniform(0, 1)), rng=rng,
            )
            fs = FeatureSet(
                features=tuple(X / max(1.0, np.linalg.norm(X, 2)) for X in fs.features),
                correct=fs.correct,
            )
            rows = lemma_bound_report(fs, rng.uniform(-3, 3, fs.d), rng=rng, ball_samples=4)
            for row in rows:
                assert row.min_slack >= -1e-12


class TestAssumptionReport:
    def test_orthogonal_instance_summary(self, ortho_fs):
        rep = assumption_report(ortho_fs, np.full(ortho_fs.d, 0.1))
        assert rep.m_status == "vacuous"
        assert rep.phase == "I"
        assert rep.cos_mean == pytest.approx(0.0, abs=1e-10)
        assert rep.c_of_t is None

    def test_c_of_t_populated_with_log(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=50, seed=0)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        rep = assumption_report(ortho_fs, np.zeros(ortho_fs.d), log=log)
        assert rep.c_of_t is not None
        assert 0.0 <= rep.c_of_t <= 4.0 / 3.0 + 1e-12
