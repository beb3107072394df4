"""Training loops: step-size prescriptions, uniform selection, the update
rules against their spelled-out forms, per-step instrumentation, and the
cumulative bound checker."""

import math

import numpy as np
import pytest

from rlvrlab.policy import FeatureSet, policy_gradient, prompt_stats
from rlvrlab.rng import PROMPT_STREAM, SCENARIO_STREAM, stream_rng
from rlvrlab.scenarios import difficulty_profile, orthogonal_blocks
from rlvrlab.trainers import (
    NumericalAbort,
    PromptSelector,
    RelaxedConstants,
    TrainerConfig,
    cumulative_bound_check,
    grpo_step,
    per_step_bound,
    reinforce_step,
    run_trajectory,
    select_prompt,
    step_size,
)


@pytest.fixture
def identity_fs():
    return FeatureSet(features=(np.eye(2),), correct=[0])


@pytest.fixture
def ortho_fs():
    return orthogonal_blocks(n=4, K=3, block_dim=3, scale=1.0, rng=stream_rng(50, SCENARIO_STREAM))


def scaled_features(fs, x_max):
    scaled = tuple(X * x_max / fs.x_max for X in fs.features)
    return FeatureSet(features=scaled, correct=fs.correct)


class TestStepSize:
    def test_reinforce_default(self, identity_fs):
        cfg = TrainerConfig(algorithm="reinforce", horizon=1, seed=0)
        assert step_size(cfg, identity_fs) == pytest.approx(1.0)

    def test_grpo_default_scales_with_x_max(self, identity_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=1, seed=0)
        fs2 = scaled_features(identity_fs, 2.0)
        assert step_size(cfg, fs2) == pytest.approx(0.125)

    def test_reinforce_relaxed(self, identity_fs):
        cfg = TrainerConfig(
            algorithm="reinforce", horizon=1, seed=0, step_rule="relaxed",
            relaxed_constants=RelaxedConstants(m=4.0, r1=1.0, r2=1.0),
        )
        assert step_size(cfg, identity_fs) == pytest.approx(0.5)

    def test_grpo_relaxed(self, identity_fs):
        cfg = TrainerConfig(
            algorithm="grpo", horizon=1, seed=0, step_rule="relaxed",
            relaxed_constants=RelaxedConstants(m=8.0, r1=2.0, r2=1.5),
        )
        # 1 / (2 max(r1, 5m/8) r2 x^2) = 1 / (2 * 5 * 1.5)
        assert step_size(cfg, identity_fs) == pytest.approx(1.0 / 15.0)

    def test_manual(self, identity_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=1, seed=0, step_rule="manual", eta=0.01)
        assert step_size(cfg, identity_fs) == 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="sgd", horizon=1, seed=0)
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="grpo", horizon=0, seed=0)
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="grpo", horizon=1, seed=0, step_rule="manual", eta=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="grpo", horizon=1, seed=0, step_rule="relaxed")

    def test_zero_x_max_rejected(self):
        fs = FeatureSet(features=(np.zeros((2, 2)),), correct=[0])
        cfg = TrainerConfig(algorithm="reinforce", horizon=1, seed=0)
        with pytest.raises(ValueError):
            step_size(cfg, fs)


class TestSelectPrompt:
    def test_single_prompt(self):
        assert all(select_prompt(seed=9, t=t, n=1) == 0 for t in range(20))

    def test_deterministic_replay(self):
        seq1 = [select_prompt(seed=123, t=t, n=5) for t in range(200)]
        seq2 = [select_prompt(seed=123, t=t, n=5) for t in range(200)]
        assert seq1 == seq2
        assert seq1 != [select_prompt(seed=124, t=t, n=5) for t in range(200)]

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_reused_generator_matches_fresh_stream(self, n):
        # counters out of order, so every draw needs the counter reset
        ts = [0, 2**64 - 1, 1, 2**63, 7, 2**64 - 2, 3] + list(range(100, 140))
        for seed in (0, 11, 2**63 + 5):
            select = PromptSelector(seed, n)
            for t in ts:
                expected = int(stream_rng(seed, PROMPT_STREAM, t).integers(0, n))
                assert select(t) == expected
                assert select_prompt(seed, t, n) == expected

    def test_uniformity_binomial(self):
        # 1e6 draws, each frequency within 3 sigma of 1/4
        draws = 1_000_000
        counts = np.zeros(4, dtype=int)
        for t in range(draws):
            counts[select_prompt(seed=7, t=t, n=4)] += 1
        sigma = math.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - draws * 0.25) <= 3.0 * sigma)


class TestSteps:
    def test_reinforce_hand_step(self, identity_fs):
        theta = reinforce_step(np.zeros(2), identity_fs, 0, eta=1.0)
        np.testing.assert_allclose(theta, [0.25, -0.25])

    def test_reinforce_fixed_point_at_zero_gradient(self):
        # identical rows annihilate the gradient up to one ulp of the
        # probability sums
        fs = FeatureSet(features=(np.tile([1.0, 2.0], (3, 1)),), correct=[0])
        theta0 = np.array([0.3, -0.7])
        np.testing.assert_allclose(reinforce_step(theta0, fs, 0, eta=1.0), theta0, rtol=0, atol=1e-15)

    def test_reinforce_improvement_bound(self, identity_fs):
        theta0 = np.zeros(2)
        theta1 = reinforce_step(theta0, identity_fs, 0, eta=1.0)
        j0 = prompt_stats(identity_fs, theta0, 0).objective
        j1 = prompt_stats(identity_fs, theta1, 0).objective
        grad_sq = float(np.sum(policy_gradient(identity_fs, theta0, 0) ** 2))
        assert j1 - j0 == pytest.approx(1.0 / (1.0 + math.exp(-0.5)) - 0.5, abs=1e-12)
        assert j1 - j0 >= grad_sq / (2.0 * identity_fs.x_max**2)

    def test_reinforce_matches_simplified_update_expression(self, ortho_fs):
        # the spelled-out one-hot form: success (1 - success) x_a
        # - success * sum_{j != a} p_j x_j
        rng = stream_rng(51, SCENARIO_STREAM)
        eta = 0.7
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, size=ortho_fs.d)
            i = int(rng.integers(0, ortho_fs.n))
            stats = prompt_stats(ortho_fs, theta, i)
            a = ortho_fs.correct[i]
            X = ortho_fs.features[i]
            wrong = sum(stats.probs[j] * X[j] for j in range(ortho_fs.K) if j != a)
            expected = theta + eta * (
                stats.success * (1.0 - stats.success) * X[a] - stats.success * wrong
            )
            np.testing.assert_allclose(reinforce_step(theta, ortho_fs, i, eta), expected, atol=1e-14)

    def test_grpo_hand_step(self, identity_fs):
        theta = grpo_step(np.zeros(2), identity_fs, 0, eta=0.5)
        np.testing.assert_allclose(theta, [0.25, -0.25])

    def test_grpo_improvement_bound_and_ball(self, identity_fs):
        theta0 = np.zeros(2)
        eta = 0.5  # 1 / (2 x_max^2)
        theta1 = grpo_step(theta0, identity_fs, 0, eta=eta)
        j0 = prompt_stats(identity_fs, theta0, 0).objective
        j1 = prompt_stats(identity_fs, theta1, 0).objective
        grad_sq = float(np.sum(policy_gradient(identity_fs, theta0, 0) ** 2))
        v0 = prompt_stats(identity_fs, theta0, 0).variance
        assert j1 - j0 >= 3.0 * grad_sq / (16.0 * identity_fs.x_max**2 * math.sqrt(v0))
        displacement = float(np.linalg.norm(theta1 - theta0))
        assert displacement == pytest.approx(0.25 * math.sqrt(2.0), abs=1e-12)
        assert displacement <= math.sqrt(v0) / identity_fs.x_max

    def test_grpo_matches_simplified_update_expression(self, ortho_fs):
        # sqrt(p (1-p)) x_a - sqrt(p / (1-p)) sum_{j != a} p_j x_j
        rng = stream_rng(52, SCENARIO_STREAM)
        eta = 0.5
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, size=ortho_fs.d)
            i = int(rng.integers(0, ortho_fs.n))
            stats = prompt_stats(ortho_fs, theta, i)
            a = ortho_fs.correct[i]
            X = ortho_fs.features[i]
            p = stats.success
            wrong = sum(stats.probs[j] * X[j] for j in range(ortho_fs.K) if j != a)
            expected = theta + eta * (
                math.sqrt(p * (1.0 - p)) * X[a] - math.sqrt(p / (1.0 - p)) * wrong
            )
            np.testing.assert_allclose(grpo_step(theta, ortho_fs, i, eta), expected, atol=1e-14)

    def test_grpo_ball_containment_along_run(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=300, seed=3)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        theta = np.zeros(ortho_fs.d)
        for rec in log.records:
            new_theta = theta + rec.eta_effective * policy_gradient(ortho_fs, theta, rec.selected)
            displacement = float(np.linalg.norm(new_theta - theta))
            assert displacement <= math.sqrt(rec.v_selected) / ortho_fs.x_max * (1 + 1e-12)
            theta = new_theta
        np.testing.assert_array_equal(theta, log.final_theta)


class TestRunTrajectory:
    def test_single_iteration_record(self, ortho_fs):
        cfg = TrainerConfig(algorithm="reinforce", horizon=1, seed=0)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        assert len(log.records) == 1
        assert log.records[0].t == 1

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="reinforce", horizon=0, seed=0)

    def test_bit_identical_replay(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=100, seed=17)
        log1 = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        log2 = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        np.testing.assert_array_equal(log1.final_theta, log2.final_theta)
        for r1, r2 in zip(log1.records, log2.records):
            assert r1.selected == r2.selected
            assert r1.improvement == r2.improvement
            assert r1.bound_slack == r2.bound_slack

    def test_instance_not_mutated(self, ortho_fs):
        before = [X.copy() for X in ortho_fs.features]
        cfg = TrainerConfig(algorithm="grpo", horizon=50, seed=1)
        run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        for X0, X1 in zip(before, ortho_fs.features):
            np.testing.assert_array_equal(X0, X1)

    def test_decoupling_on_orthogonal_instance(self, ortho_fs):
        cfg = TrainerConfig(algorithm="reinforce", horizon=500, seed=5)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        for k in range(1, len(log.records)):
            before = log.records[k - 1].objectives
            after = log.records[k].objectives
            sel = log.records[k - 1].selected
            deltas = np.abs(after - before)
            deltas[sel] = 0.0
            assert float(deltas.max()) <= 1e-12

    def test_monotone_objectives_and_nonnegative_slack(self, ortho_fs):
        for alg in ("reinforce", "grpo"):
            cfg = TrainerConfig(algorithm=alg, horizon=500, seed=6)
            log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
            assert all(rec.improvement >= 0.0 for rec in log.records)
            assert all(rec.bound_slack >= 0.0 for rec in log.records)
            means = [rec.j_mean for rec in log.records]
            assert all(b >= a - 1e-15 for a, b in zip(means, means[1:]))

    def test_snapshot_cadence_thins_arrays_but_not_sums(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=100, seed=2)
        full = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        sparse = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d), snapshot_cadence=10)
        stored = [rec for rec in sparse.records if rec.objectives is not None]
        assert len(stored) == 10
        np.testing.assert_array_equal(full.grad_sq_sums, sparse.grad_sq_sums)
        np.testing.assert_array_equal(full.sqrt_v_sums, sparse.sqrt_v_sums)
        assert all(rec.j_mean == f.j_mean for rec, f in zip(sparse.records, full.records))

    def test_checkpoint_cadence(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=100, seed=2)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d), checkpoint_cadence=25)
        assert [t for t, _ in log.theta_checkpoints] == [25, 50, 75, 100]
        np.testing.assert_array_equal(log.theta_checkpoints[-1][1], log.final_theta)

    def test_numerical_abort_reports_last_good_iteration(self):
        # gradient norm ~ scale/2 at the uniform start: with eta = 1e308 the
        # step overflows, with eta = 1e306 the new parameters are finite but
        # their logits overflow
        fs = orthogonal_blocks(n=2, K=3, block_dim=3, scale=40.0, rng=stream_rng(56, SCENARIO_STREAM))
        for eta in (1e308, 1e306):
            cfg = TrainerConfig(algorithm="reinforce", horizon=50, seed=0, step_rule="manual", eta=eta)
            with pytest.raises(NumericalAbort) as err:
                run_trajectory(cfg, fs, np.zeros(fs.d))
            assert err.value.t == 0
            np.testing.assert_array_equal(err.value.theta, np.zeros(fs.d))

    def test_variance_flag_fires_on_solved_prompt(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        theta0 = np.array([80.0, -80.0])  # success prob rounds to 1.0
        cfg = TrainerConfig(algorithm="grpo", horizon=3, seed=0)
        log = run_trajectory(cfg, fs, theta0)
        assert all(rec.variance_flag for rec in log.records)


class TestPerStepBound:
    def test_theorem_constants_recovered(self):
        x_max = 2.0
        cfg_r = TrainerConfig(algorithm="reinforce", horizon=1, seed=0)
        eta_r = 1.0 / x_max**2
        assert per_step_bound(cfg_r, eta_r, x_max, grad_sq=1.0) == pytest.approx(1.0 / (2 * x_max**2))
        cfg_g = TrainerConfig(algorithm="grpo", horizon=1, seed=0)
        eta_g = 1.0 / (2 * x_max**2)
        assert per_step_bound(cfg_g, eta_g, x_max, grad_sq=1.0, divisor=0.5) == pytest.approx(
            3.0 / (16.0 * x_max**2 * 0.5)
        )


class TestCumulativeBoundCheck:
    def test_reinforce_bounds_hold_on_orthogonal_run(self):
        fs = orthogonal_blocks(n=8, K=4, block_dim=4, scale=1.0, rng=stream_rng(53, SCENARIO_STREAM))
        cfg = TrainerConfig(algorithm="reinforce", horizon=5000, seed=11)
        report = cumulative_bound_check(run_trajectory(cfg, fs, np.zeros(fs.d)), fs)
        assert report.all_passed
        for p in report.prompts:
            assert p.primary == "reinforce_theorem_sum"
            assert p.rhs == pytest.approx(2 * fs.n * 0.75 * fs.x_max**2)

    def test_grpo_sum_form_prefix_vs_saturated(self):
        # The realized-C sum form is a pre-saturation statement: it holds on a
        # short run and fails once variances decay, while the T*min form the
        # derivation actually supports holds at both horizons.
        fs = orthogonal_blocks(n=8, K=4, block_dim=4, scale=1.0, rng=stream_rng(53, SCENARIO_STREAM))
        short = cumulative_bound_check(
            run_trajectory(TrainerConfig(algorithm="grpo", horizon=400, seed=11), fs, np.zeros(fs.d)), fs
        )
        long = cumulative_bound_check(
            run_trajectory(TrainerConfig(algorithm="grpo", horizon=5000, seed=11), fs, np.zeros(fs.d)), fs
        )
        assert short.all_passed
        assert not long.all_passed
        for report in (short, long):
            assert report.variant_all_passed("grpo_theorem_tmin")
            assert report.variant_all_passed("grpo_half_c_sum")

    def test_solved_prompt_has_zero_rhs_and_zero_sum(self):
        fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(54, SCENARIO_STREAM))
        theta0 = difficulty_profile(fs, [0.5, 0.5])
        # drive prompt 0 to numerical certainty along its own block
        theta0 = theta0.copy()
        direction = fs.features[0][fs.correct[0]] - fs.features[0][1 - fs.correct[0]]
        theta0 += 60.0 / float(direction @ direction) * direction
        assert prompt_stats(fs, theta0, 0).success == 1.0
        cfg = TrainerConfig(algorithm="reinforce", horizon=200, seed=1)
        report = cumulative_bound_check(run_trajectory(cfg, fs, theta0), fs)
        solved = report.prompts[0]
        assert solved.rhs == 0.0
        assert solved.grad_sq_sum <= 1e-40

    def test_relaxed_variants_reported(self):
        fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(55, SCENARIO_STREAM))
        cfg = TrainerConfig(
            algorithm="grpo", horizon=50, seed=0, step_rule="relaxed",
            relaxed_constants=RelaxedConstants(m=2.0, r1=1.5, r2=1.2),
        )
        report = cumulative_bound_check(run_trajectory(cfg, fs, np.zeros(fs.d)), fs)
        p = report.prompts[0]
        assert p.primary == "grpo_relaxed_theorem_sum"
        assert "grpo_relaxed_appendix_sum" in p.checks
        # theorem constant max(r1, 5m/8) r2 = 1.5 * 1.2; appendix max(r1 r2, m/2) = 1.8
        assert p.checks["grpo_relaxed_theorem_sum"].rhs == pytest.approx(
            p.checks["grpo_theorem_sum"].rhs * 1.8
        )
        assert p.checks["grpo_relaxed_appendix_sum"].rhs == pytest.approx(
            p.checks["grpo_theorem_sum"].rhs * 1.8
        )

    def test_empty_log_rejected(self, identity_fs):
        cfg = TrainerConfig(algorithm="reinforce", horizon=1, seed=0)
        log = run_trajectory(cfg, identity_fs, np.zeros(2))
        log.records = []
        with pytest.raises(ValueError):
            cumulative_bound_check(log, identity_fs)
