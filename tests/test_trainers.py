"""Training loops: step-size prescriptions, uniform selection, the update
rules against their spelled-out forms, per-step instrumentation, and the
cumulative bound checker."""

import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import tree_digests
from rlvrlab import trainers
from rlvrlab.config import parse_config_dict
from rlvrlab.instancefile import save_instance
from rlvrlab.policy import FeatureSet, policy_gradient, prompt_stats
from rlvrlab.rng import PROMPT_STREAM, SCENARIO_STREAM, stream_rng
from rlvrlab.runner import run_sweep
from rlvrlab.scenarios import difficulty_profile, orthogonal_blocks, random_features
from rlvrlab.trainers import (
    ALGORITHMS,
    STEP_RULES,
    NumericalAbort,
    RelaxedConstants,
    TrainerConfig,
    TrajectoryLog,
    _coordinate_owners,
    _loop_trajectory,
    _prompt_draws,
    _replayed,
    _step,
    cumulative_bound_check,
    per_step_bound,
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
        for eta in (None, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite eta > 0"):
                TrainerConfig(algorithm="grpo", horizon=1, seed=0, step_rule="manual", eta=eta)
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="grpo", horizon=1, seed=0, step_rule="relaxed")
        # ratio bounds below 1 could shrink the step-size denominator to 0
        for m, r1, r2 in ((-1.0, 1.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 1e-300), (math.inf, 1.0, 1.0)):
            with pytest.raises(ValueError, match="relaxed_constants"):
                TrainerConfig(
                    algorithm="grpo", horizon=1, seed=0, step_rule="relaxed",
                    relaxed_constants=RelaxedConstants(m=m, r1=r1, r2=r2),
                )

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
        # one generator for a run of counters, against a fresh one per counter
        for seed in (0, 11, 2**63 + 5):
            for first_t, count in ((0, 1), (1, 40), (2**63, 5), (2**64 - 3, 3)):
                expected = [
                    int(stream_rng(seed, PROMPT_STREAM, t).integers(0, n))
                    for t in range(first_t, first_t + count)
                ]
                draws = _prompt_draws(seed, n, count, first_t)
                assert draws.tolist() == expected
                assert [select_prompt(seed, t, n) for t in range(first_t, first_t + count)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 3 * 2**30])
    def test_draws_match_fresh_streams(self, n):
        # at n = 3 * 2**30 about a quarter of the draws are rejected by
        # Lemire's step and replayed; at 2**64 - 1 the counter carries into its
        # second word
        for seed in (0, 2**63 + 5, 2**64 - 1):
            for first_t, count in ((0, 64), (1, 200), (2**32 - 10, 20), (2**64 - 64, 64), (2**64 - 1, 1)):
                expected = np.array(
                    [stream_rng(seed, PROMPT_STREAM, t).integers(0, n) for t in range(first_t, first_t + count)]
                )
                assert np.array_equal(_prompt_draws(seed, n, count, first_t), expected)

    def test_uniformity_binomial(self):
        # 1e6 draws, each frequency within 3 sigma of 1/4; the draws equal
        # select_prompt(7, t, 4) for t = 0 .. 1e6 - 1 (see the tests above)
        draws = 1_000_000
        counts = np.bincount(_prompt_draws(7, 4, draws, 0), minlength=4)
        sigma = math.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - draws * 0.25) <= 3.0 * sigma)


class TestSteps:
    """_step, the update rule _loop applies, on policy_gradient and the
    prompt_stats variance of one prompt."""

    def test_reinforce_hand_step(self, identity_fs):
        theta = _step("reinforce", np.zeros(2), policy_gradient(identity_fs, np.zeros(2), 0), 1.0)[0]
        np.testing.assert_allclose(theta, [0.25, -0.25])

    def test_reinforce_fixed_point_at_zero_gradient(self):
        # identical rows annihilate the gradient up to one ulp of the
        # probability sums
        fs = FeatureSet(features=(np.tile([1.0, 2.0], (3, 1)),), correct=[0])
        theta0 = np.array([0.3, -0.7])
        theta1 = _step("reinforce", theta0, policy_gradient(fs, theta0, 0), 1.0)[0]
        np.testing.assert_allclose(theta1, theta0, rtol=0, atol=1e-15)

    def test_reinforce_improvement_bound(self, identity_fs):
        theta0 = np.zeros(2)
        theta1 = _step("reinforce", theta0, policy_gradient(identity_fs, theta0, 0), 1.0)[0]
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
            got = _step("reinforce", theta, policy_gradient(ortho_fs, theta, i), eta)[0]
            np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_grpo_hand_step(self, identity_fs):
        theta0 = np.zeros(2)
        grad, variance = policy_gradient(identity_fs, theta0, 0), prompt_stats(identity_fs, theta0, 0).variance
        theta = _step("grpo", theta0, grad, 0.5, variance)[0]
        np.testing.assert_allclose(theta, [0.25, -0.25])

    def test_grpo_improvement_bound_and_ball(self, identity_fs):
        theta0 = np.zeros(2)
        eta = 0.5  # 1 / (2 x_max^2)
        v0 = prompt_stats(identity_fs, theta0, 0).variance
        theta1 = _step("grpo", theta0, policy_gradient(identity_fs, theta0, 0), eta, v0)[0]
        j0 = prompt_stats(identity_fs, theta0, 0).objective
        j1 = prompt_stats(identity_fs, theta1, 0).objective
        grad_sq = float(np.sum(policy_gradient(identity_fs, theta0, 0) ** 2))
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
            got = _step("grpo", theta, policy_gradient(ortho_fs, theta, i), eta, stats.variance)[0]
            np.testing.assert_allclose(got, expected, atol=1e-14)

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
        # on the general loop: run_trajectory's round replay assumes this
        cfg = TrainerConfig(algorithm="reinforce", horizon=500, seed=5)
        log = _loop_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
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

    @pytest.mark.filterwarnings("error")
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_gradient_bound_is_zero_when_eta_squared_overflows(self, algorithm):
        # the gradient underflows to exactly 0, and eta^2 x_max^2 to inf: the
        # bound expression reads -inf * 0, but a zero gradient's bound is 0
        fs = FeatureSet((np.eye(2),), [0])
        cfg = TrainerConfig(algorithm=algorithm, horizon=3, seed=0, step_rule="manual", eta=1e200)
        log = run_trajectory(cfg, fs, np.array([400.0, -400.0]))
        np.testing.assert_array_equal(log.grad_sq_selected, 0.0)
        np.testing.assert_array_equal(log.bound, 0.0)
        assert np.isfinite(log.bound_slack).all()
        assert all(math.isfinite(rec.bound_slack) for rec in log.records)

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
        empty = replace(log, **{name: getattr(log, name)[:0] for name in LOOP_COLUMNS})
        assert len(empty) == 0 and len(empty.records) == 0
        with pytest.raises(ValueError):
            cumulative_bound_check(empty, identity_fs)


# The columns run_trajectory's loop fills; TrajectoryLog derives the rest.
LOOP_COLUMNS = (
    "objectives", "grad_sq", "variance", "selected", "eta_effective", "divisor",
    "variance_flag", "objective_after",
)
DERIVED_COLUMNS = (
    "j_mean", "j_min", "grad_sq_selected", "v_selected", "improvement", "bound_slack",
    "grad_sq_sums", "grad_sq_mins", "sqrt_v_sums",
)


def reference_trajectory(cfg, fs, theta0, checkpoint_cadence):
    """The per-iteration loop the columnar one replaced: prompt_stats and
    policy_gradient per prompt, one select_prompt per step, every per-step
    quantity reduced in the loop, and the running sums accumulated in it."""
    eta = step_size(cfg, fs)
    n = fs.n
    theta = np.array(theta0, dtype=np.float64)
    cols = {name: [] for name in LOOP_COLUMNS + DERIVED_COLUMNS[:6]}
    sums, mins, sqrt_v = np.zeros(n), np.full(n, np.inf), np.zeros(n)
    checkpoints = []
    for t in range(1, cfg.horizon + 1):
        stats = [prompt_stats(fs, theta, i) for i in range(n)]
        grads = [policy_gradient(fs, theta, i) for i in range(n)]
        objectives = np.array([s.objective for s in stats])
        variance = np.array([s.variance for s in stats])
        grad_sq = np.array([float(g @ g) for g in grads])
        sums += grad_sq
        np.minimum(mins, grad_sq, out=mins)
        sqrt_v += np.sqrt(variance)
        i_t = select_prompt(cfg.seed, t, n)
        if cfg.algorithm == "reinforce":
            divisor, flagged = 1.0, False
        else:
            sd = math.sqrt(variance[i_t])
            divisor, flagged = max(sd, cfg.eps_floor), sd < cfg.eps_floor
        theta_new = theta + (eta / divisor) * grads[i_t]
        after = prompt_stats(fs, theta_new, i_t).objective
        improvement = after - objectives[i_t]
        bound = float(per_step_bound(cfg, eta, fs.x_max, float(grad_sq[i_t]), divisor))
        for name, value in (
            ("objectives", objectives), ("grad_sq", grad_sq), ("variance", variance),
            ("selected", i_t), ("eta_effective", eta / divisor), ("divisor", divisor),
            ("variance_flag", flagged), ("objective_after", after),
            ("j_mean", float(objectives.mean())), ("j_min", float(objectives.min())),
            ("grad_sq_selected", grad_sq[i_t]), ("v_selected", variance[i_t]),
            ("improvement", improvement), ("bound_slack", improvement - bound),
        ):
            cols[name].append(value)
        if checkpoint_cadence and t % checkpoint_cadence == 0:
            checkpoints.append((t, theta_new.copy()))
        theta = theta_new
    cols = {name: np.array(values) for name, values in cols.items()}
    cols.update(grad_sq_sums=sums, grad_sq_mins=mins, sqrt_v_sums=sqrt_v)
    return cols, theta, checkpoints


# n = 1 over 40 steps: numpy sums a one-column array pairwise along axis 0,
# which rounds differently from the loop's running sum
@example(
    algorithm="grpo", step_rule="theorem_default", n=1, K=3, d=4, instance_seed=0, trainer_seed=0,
    horizon=40, snapshot_cadence=3, checkpoint_cadence=5, eta=1.0, constants=(0.0, 1.0, 1.0),
)
@settings(max_examples=80, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    step_rule=st.sampled_from(STEP_RULES),
    n=st.integers(1, 9),
    K=st.integers(2, 5),
    d=st.integers(1, 6),
    instance_seed=st.integers(0, 2**32 - 1),
    trainer_seed=st.sampled_from([0, 1, 12345, 2**63 + 5, 2**64 - 1]),
    horizon=st.integers(1, 40),
    snapshot_cadence=st.sampled_from([1, 1, 2, 3, 7]),
    checkpoint_cadence=st.sampled_from([0, 1, 5]),
    eta=st.floats(1e-3, 5.0),
    constants=st.tuples(st.floats(0.0, 4.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0)),
)
def test_columnar_log_matches_per_iteration_loop(
    algorithm, step_rule, n, K, d, instance_seed, trainer_seed, horizon,
    snapshot_cadence, checkpoint_cadence, eta, constants,
):
    rng = np.random.default_rng(instance_seed)
    fs = random_features(n, K, d, overlap=float(rng.uniform()), rng=rng)
    theta0 = rng.uniform(-3.0, 3.0, size=d)
    cfg = TrainerConfig(
        algorithm=algorithm, horizon=horizon, seed=trainer_seed, step_rule=step_rule,
        eta=eta if step_rule == "manual" else None,
        relaxed_constants=RelaxedConstants(*constants) if step_rule == "relaxed" else None,
    )
    log = run_trajectory(cfg, fs, theta0, snapshot_cadence, checkpoint_cadence)
    expected, theta, checkpoints = reference_trajectory(cfg, fs, theta0, checkpoint_cadence)
    assert len(log) == horizon
    for name, want in expected.items():
        assert np.array_equal(getattr(log, name), want), name
    assert np.array_equal(log.final_theta, theta)
    assert [t for t, _ in log.theta_checkpoints] == [t for t, _ in checkpoints]
    for (_, got), (_, want) in zip(log.theta_checkpoints, checkpoints):
        assert np.array_equal(got, want)
    for rec in log.records:
        row = rec.t - 1
        assert rec.selected == expected["selected"][row]
        assert rec.bound_slack == expected["bound_slack"][row]
        if rec.t % snapshot_cadence == 0:
            assert np.array_equal(rec.objectives, expected["objectives"][row])
            assert np.array_equal(rec.variance, expected["variance"][row])
        else:
            assert rec.objectives is None and rec.variance is None


def assert_same_log(got, want):
    """Every column byte for byte; parameters by value (the replay may give a
    zero parameter the other sign)."""
    for f in fields(TrajectoryLog):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "final_theta":
            assert np.array_equal(a, b)
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
    assert [t for t, _ in got.theta_checkpoints] == [t for t, _ in want.theta_checkpoints]
    for (_, a), (_, b) in zip(got.theta_checkpoints, want.theta_checkpoints):
        assert np.array_equal(a, b)


def block_instance(rng, n, K, unowned, empty_prompt):
    """Prompts on disjoint, scattered coordinates, `unowned` coordinates no
    prompt uses, and prompt 0 all zero if `empty_prompt`; with the owner of
    each coordinate (-1 for none)."""
    sizes = [0 if empty_prompt and i == 0 else int(rng.integers(1, 4)) for i in range(n)]
    owners = rng.permutation(np.repeat(np.arange(-1, n), [unowned] + sizes))
    features = []
    for i in range(n):
        X = np.zeros((K, owners.size))
        X[:, owners == i] = rng.uniform(-1.0, 1.0, size=(K, sizes[i]))
        features.append(X)
    return FeatureSet(features=tuple(features), correct=rng.integers(0, K, size=n)), owners


# A random block-orthogonal run, drawn by replay_case
REPLAY_CASES = dict(
    algorithm=st.sampled_from(ALGORITHMS),
    step_rule=st.sampled_from(STEP_RULES),
    n=st.integers(1, 6),
    K=st.integers(2, 4),
    unowned=st.integers(0, 3),
    empty_prompt=st.booleans(),
    instance_seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 60),
    checkpoint_cadence=st.sampled_from([0, 1, 4, 7]),
    eta=st.floats(1e-3, 5.0),
    constants=st.tuples(st.floats(0.0, 4.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0)),
    eps_floor=st.sampled_from([1e-8, 0.1, 0.45]),
)


def replay_case(
    algorithm, step_rule, n, K, unowned, empty_prompt, instance_seed, horizon, eta, constants, eps_floor,
):
    """A block instance, a theta0 with zeros of both signs, and a trainer
    config with seed 0."""
    rng = np.random.default_rng(instance_seed)
    fs, owners = block_instance(rng, n, K, unowned, empty_prompt and n > 1)
    assert np.array_equal(_coordinate_owners(fs), owners)
    theta0 = rng.uniform(-3.0, 3.0, size=fs.d)
    theta0[rng.uniform(size=fs.d) < 0.3] = -0.0
    theta0[rng.uniform(size=fs.d) < 0.1] = 0.0
    cfg = TrainerConfig(
        algorithm=algorithm, horizon=horizon, seed=0, step_rule=step_rule,
        eta=eta if step_rule == "manual" else None,
        relaxed_constants=RelaxedConstants(*constants) if step_rule == "relaxed" else None,
        eps_floor=eps_floor,
    )
    return fs, theta0, cfg


@settings(max_examples=120, deadline=None)
@given(trainer_seed=st.sampled_from([0, 1, 12345, 2**64 - 1]), **REPLAY_CASES)
def test_round_replay_matches_general_loop(trainer_seed, checkpoint_cadence, **case):
    fs, theta0, cfg = replay_case(**case)
    cfg = replace(cfg, seed=trainer_seed)
    with mock.patch.object(trainers, "_loop", side_effect=AssertionError("the general loop ran")):
        got = run_trajectory(cfg, fs, theta0, checkpoint_cadence=checkpoint_cadence)
    assert_same_log(got, _loop_trajectory(cfg, fs, theta0, checkpoint_cadence=checkpoint_cadence))


def writable_arrays(log):
    """Every array a log hands out that a caller could write to."""
    arrays = [getattr(log, f.name) for f in fields(TrajectoryLog)]
    arrays += [theta for _, theta in log.theta_checkpoints]
    return [a for a in arrays if isinstance(a, np.ndarray) and a.flags.writeable]


@settings(max_examples=80, deadline=None)
@given(
    seeds=st.lists(st.sampled_from([0, 1, 2, 3, 12345, 2**63 + 5, 2**64 - 1]), min_size=2, max_size=5, unique=True),
    **REPLAY_CASES,
)
def test_one_history_gives_every_seeds_loop_log(seeds, checkpoint_cadence, **case):
    fs, theta0, cfg = replay_case(**case)
    cfgs = [replace(cfg, seed=seed) for seed in seeds]
    with mock.patch.object(trainers, "_loop", side_effect=AssertionError("the general loop ran")):
        with mock.patch.object(trainers, "_history", wraps=trainers._history) as history:
            logs = _replayed(cfgs, fs, theta0, 1, checkpoint_cadence)
    assert history.call_count == 1
    for seed_cfg, log in zip(cfgs, logs):
        assert log.config is seed_cfg
        assert_same_log(log, _loop_trajectory(seed_cfg, fs, theta0, checkpoint_cadence=checkpoint_cadence))
    for k, log in enumerate(logs):
        for other in logs[:k]:
            for a in writable_arrays(log):
                assert not any(np.shares_memory(a, b) for b in writable_arrays(other))


def overflow_instance():
    """Prompt 0 all zero, so its steps change nothing, and prompt 1 scaled so
    that its first step overflows under eta = 1e308 and its logits overflow
    after it under eta = 1e306; with theta0."""
    block = stream_rng(57, SCENARIO_STREAM).uniform(-40.0, 40.0, size=(3, 3))
    fs = FeatureSet(features=(np.zeros((3, 6)), np.hstack([np.zeros((3, 3)), block])), correct=[0, 2])
    return fs, np.array([-0.0, 1.0, 0.0, 0.0, -0.0, 0.0])


# The aborting sweep's tree at the commit before runs shared a round history
ABORT_SWEEP_DIGESTS = {
    1e306: {
        "reinforce_seed3/abort.json": "39aa1e2eaf3d39478b38c9989123a07960d2fcc3c58dfdc4420e7af58a134ed4",
        "reinforce_seed5/summary.json": "5aa426a634f84e5f0e86977ff15b75935b2fdc0f1a72cab4671881a708313ff3",
        "reinforce_seed5/trajectory.csv": "e5a1a267a11128c0493991927fc11ec8bbdb90011e0cba6404aa03a4289a12a7",
    },
    1e308: {
        "reinforce_seed3/abort.json": "4fb9c9f48832ed69821397f3e35348c3a7eb28c766fc197533d921a0bd0b4f00",
        "reinforce_seed5/summary.json": "c2e027686508d47b979d0fb8f77314272d6e4b684cc4a73b56b8047fe4f1019a",
        "reinforce_seed5/trajectory.csv": "9dae0c7d70507df1152c2534abfdb836fbf0958cb2c481a18cf5ff8373fb13eb",
    },
}


class TestRoundReplay:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("eta", [1e308, 1e306])
    def test_abort_reports_the_loops_iteration(self, algorithm, eta):
        # prompt 0 is all zero, so its steps change nothing, and the first
        # step of prompt 1 overflows (1e308) or overflows its logits (1e306):
        # the run aborts after the iterations before prompt 1 is first drawn.
        # Under GRPO at 1e308, eta / sd is inf, and inf * 0 aborts prompt 0's
        # first step.
        fs, theta0 = overflow_instance()
        firsts = []
        for seed in range(6):
            cfg = TrainerConfig(algorithm=algorithm, horizon=50, seed=seed, step_rule="manual", eta=eta)
            with pytest.raises(NumericalAbort) as replayed:
                run_trajectory(cfg, fs, theta0)
            with pytest.raises(NumericalAbort) as looped:
                _loop_trajectory(cfg, fs, theta0)
            firsts.append(int(np.argmax(_prompt_draws(seed, 2, 50) == 1)))
            assert replayed.value.t == looped.value.t
            assert np.array_equal(replayed.value.theta, looped.value.theta)
            assert np.array_equal(replayed.value.theta, theta0)
            if not (algorithm == "grpo" and eta == 1e308):
                assert looped.value.t == firsts[-1]
        assert max(firsts) > 0

    def test_one_shared_coordinate_runs_the_general_loop(self, ortho_fs):
        features = [X.copy() for X in ortho_fs.features]
        features[1][0, 0] = 1e-300  # coordinate 0 is prompt 0's
        fs = FeatureSet(features=tuple(features), correct=ortho_fs.correct)
        assert _coordinate_owners(ortho_fs) is not None
        assert _coordinate_owners(fs) is None
        cfg = TrainerConfig(algorithm="grpo", horizon=200, seed=3)
        with mock.patch.object(trainers, "_history", side_effect=AssertionError("replayed")):
            got = run_trajectory(cfg, fs, np.zeros(fs.d), checkpoint_cadence=50)
        assert_same_log(got, _loop_trajectory(cfg, fs, np.zeros(fs.d), checkpoint_cadence=50))

    @pytest.mark.parametrize("eta", [1e308, 1e306])
    def test_sweep_whose_history_overflows_runs_seed_by_seed(self, tmp_path, monkeypatch, eta):
        # horizon 4: seed 5 never draws prompt 1, seed 3 first draws it at
        # iteration 3, so the reinforce sweep finishes seed 5, aborts in seed
        # 3 after 2 iterations and never reaches seed 0
        assert _prompt_draws(5, 2, 4).tolist() == [0, 0, 0, 0]
        assert _prompt_draws(3, 2, 4).tolist() == [0, 0, 1, 1]
        fs, theta0 = overflow_instance()
        monkeypatch.chdir(tmp_path)  # the config echo holds the instance path
        save_instance(fs, "overflow.txt")
        cfg = parse_config_dict({
            "scenario": {
                "generator": "instance_file", "params": {"path": "overflow.txt"},
                "theta0": {"kind": "values", "values": theta0.tolist()},
            },
            "trainer": {"algorithm": "grpo", "horizon": 4, "seed": 0, "step_rule": "manual", "eta": eta},
            "output": {"dir": "sweep", "formats": ["csv", "json"]},
        })
        with pytest.raises(NumericalAbort) as err:
            run_sweep(cfg, seeds=[5, 3, 0], out_dir="sweep")
        assert err.value.t == 2
        assert tree_digests("sweep") == ABORT_SWEEP_DIGESTS[eta]
