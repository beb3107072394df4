"""The assumption auditor: cosine statistics, interaction and scale
constants, the realized reward-std factor, the Fisher proxy, the
curvature-variance correlation, and lemma-bound slack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvrlab.diagnostics import (
    M_VACUOUS_TOL,
    CosineReport,
    LemmaBoundRow,
    MBoundReport,
    _default_ball,
    _pearson,
    _permutation_test,
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
from rlvrlab.policy import FeatureSet, batch_stats, prompt_stats
from rlvrlab.rng import FISHER_STREAM, SCENARIO_STREAM, stream_rng
from rlvrlab.runner import diagnose_report
from rlvrlab.scenarios import difficulty_preset, difficulty_profile, orthogonal_blocks, random_features
from rlvrlab.trainers import TrainerConfig, run_trajectory

from conftest import reference_hessian_norm


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


def reference_pairwise_grad_cosines(fs, theta) -> CosineReport:
    """pairwise_grad_cosines as one Python loop over the pairs i < j."""
    if fs.n < 2:
        raise ValueError("need at least two prompts for pairwise cosines")
    stats = batch_stats(fs, theta)
    grads = stats.grads
    norms = np.sqrt(stats.grad_sq)
    pair_i, pair_j, cos = [], [], []
    excluded = 0
    for i in range(fs.n):
        for j in range(i + 1, fs.n):
            denom = norms[i] * norms[j]
            if denom == 0.0:
                excluded += 1
                continue
            pair_i.append(i)
            pair_j.append(j)
            cos.append(float(grads[i] @ grads[j]) / denom)
    cos = np.array(cos)
    pair_i, pair_j = np.array(pair_i, dtype=int), np.array(pair_j, dtype=int)
    if cos.size == 0:
        return CosineReport(
            mean=math.nan, std=math.nan, frac_positive=math.nan, frac_abs_below_0p1=math.nan,
            n_pairs=0, n_excluded=excluded, pair_i=pair_i, pair_j=pair_j, cosines=cos, empty=True,
        )
    return CosineReport(
        mean=float(cos.mean()), std=float(cos.std()), frac_positive=float((cos > 0).mean()),
        frac_abs_below_0p1=float((np.abs(cos) < 0.1).mean()), n_pairs=cos.size, n_excluded=excluded,
        pair_i=pair_i, pair_j=pair_j, cosines=cos,
    )


@np.errstate(over="raise")
def reference_m_bound(fs, theta, tol=M_VACUOUS_TOL) -> MBoundReport:
    """m_bound as one Python loop over the ordered pairs i != j."""
    if fs.n < 2:
        raise ValueError("need at least two prompts")
    grads = batch_stats(fs, theta).grads
    best, worst_pair, violations = 0.0, None, []
    n_candidates = n_vacuous = 0
    for i in range(fs.n):
        norm = fs.x_norms[i]
        if norm == 0.0:
            n_vacuous += fs.n - 1
            continue
        norm_sq = norm**2
        for j in range(fs.n):
            if i == j:
                continue
            proj = fs.features[i] @ grads[j]
            if norm_sq > 0.0:
                rhs = float(proj @ proj) / norm_sq
            else:
                scaled = proj / norm
                rhs = float(scaled @ scaled)
            if rhs <= tol:
                n_vacuous += 1
                continue
            inner = float(grads[i] @ grads[j])
            if inner <= 0.0:
                violations.append((i, j))
                continue
            n_candidates += 1
            candidate = rhs / inner
            if candidate > best:
                best, worst_pair = candidate, (i, j)
    counts = dict(n_candidates=n_candidates, n_vacuous=n_vacuous)
    if violations:
        return MBoundReport("violated", math.nan, worst_pair, violations, **counts)
    if n_candidates == 0:
        return MBoundReport("vacuous", 0.0, None, **counts)
    return MBoundReport("ok", best, worst_pair, **counts)


def field_bytes(report) -> dict:
    """Every field of a report in a form that compares bit for bit (NaN included)."""
    out = {}
    for name, value in vars(report).items():
        if isinstance(value, np.ndarray):
            out[name] = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            out[name] = ("float", value.hex())
        else:
            out[name] = (type(value).__name__, repr(value))
    return out


def outcome(f):
    """field_bytes of f()'s report, or the type of the exception it raised."""
    try:
        return field_bytes(f())
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def geometry_instance(kind: str, seed: int, n: int, K: int, d: int, log_scale: float):
    """A random instance with one planted feature: an all-zero prompt, a
    prompt whose squared norm underflows, duplicated prompts (tied
    candidates) or nonnegative features (few violations)."""
    rng = np.random.default_rng(seed)
    X = 10.0**log_scale * rng.standard_normal((n, K, d))
    correct = rng.integers(0, K, size=n)
    if kind == "zero_prompt":
        X[rng.integers(0, n)] = 0.0
    elif kind == "tiny_prompt":
        X[rng.integers(0, n)] *= 1e-165
    elif kind == "duplicates":
        X[:] = X[0]
        correct[:] = correct[0]
    elif kind == "nonnegative":
        X = np.abs(X)
    theta = rng.uniform(-3.0, 3.0, d) / 10.0**log_scale
    return FeatureSet(features=tuple(X), correct=correct), theta


class TestStackedGeometryAgainstLoops:
    """The stacked pair geometry reproduces the per-pair loops bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["plain", "zero_prompt", "tiny_prompt", "duplicates", "nonnegative"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        K=st.integers(2, 5),
        d=st.integers(1, 6),
        log_scale=st.floats(-3.0, 2.0),
    )
    def test_reports_bit_equal(self, kind, seed, n, K, d, log_scale):
        fs, theta = geometry_instance(kind, seed, n, K, d, log_scale)
        assert outcome(lambda: pairwise_grad_cosines(fs, theta)) == outcome(
            lambda: reference_pairwise_grad_cosines(fs, theta)
        )
        for tol in (M_VACUOUS_TOL, -1.0):
            assert outcome(lambda: m_bound(fs, theta, tol)) == outcome(lambda: reference_m_bound(fs, theta, tol))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fs, theta, status, worst_pair",
        [
            # orthogonal blocks: every requirement is vacuous
            (orthogonal_blocks(n=3, K=3, block_dim=2, scale=1.0, rng=stream_rng(75, SCENARIO_STREAM)),
             np.full(6, 0.2), "vacuous", None),
            (anti_aligned_pair(), np.array([0.4, -0.1]), "violated", None),
            # three equal prompts: all six candidates tie, and the first one is kept
            (FeatureSet(features=(np.eye(3)[:, :2],) * 3, correct=[1, 1, 1]), np.array([0.3, -0.2]), "ok", (0, 1)),
            # an all-zero prompt next to a d < K pair
            (FeatureSet(features=(np.array([[1.0], [2.0], [3.0], [4.0]]), np.zeros((4, 1)),
                                  np.array([[2.0], [1.0], [3.0], [5.0]])), correct=[3, 0, 3]),
             np.array([0.7]), "ok", (0, 2)),
            # |X_1|^2 underflows to 0: pair (1, 0) is measured by scaling first
            (FeatureSet(features=(1e12 * np.eye(2), 1e-170 * np.eye(2)), correct=[0, 0]), np.zeros(2), "ok", (1, 0)),
        ],
    )
    def test_planted_cases_bit_equal(self, fs, theta, status, worst_pair):
        rep = m_bound(fs, theta)
        assert (rep.status, rep.worst_pair) == (status, worst_pair)
        assert field_bytes(rep) == field_bytes(reference_m_bound(fs, theta))
        assert field_bytes(pairwise_grad_cosines(fs, theta)) == field_bytes(reference_pairwise_grad_cosines(fs, theta))

    def test_overflowing_interaction_still_raises(self):
        rng = stream_rng(65, SCENARIO_STREAM)
        huge = FeatureSet(features=tuple(1e150 * rng.uniform(-1, 1, (2, 2)) for _ in range(2)), correct=[0, 1])
        with pytest.raises(FloatingPointError):
            reference_m_bound(huge, np.zeros(2))
        with pytest.raises(FloatingPointError):
            m_bound(huge, np.zeros(2))


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


def reference_lemma_bound_report(fs, theta, rng, ball_samples):
    """lemma_bound_report with one per-call Hessian norm per point, in draw order."""
    xsq = fs.x_max**2
    stats = batch_stats(fs, theta)
    rows = []
    for i in range(fs.n):
        v = float(stats.variance[i])
        hess_norm = reference_hessian_norm(fs, theta, i)
        radius = math.sqrt(v) / fs.x_max
        ball_max = hess_norm
        for _ in range(ball_samples):
            u = rng.standard_normal(fs.d)
            u *= radius * rng.uniform() ** (1.0 / fs.d) / np.linalg.norm(u)
            ball_max = max(ball_max, reference_hessian_norm(fs, theta + u, i))
        rows.append(
            LemmaBoundRow(
                prompt=i,
                grad_norm=float(np.sqrt(stats.grad_sq[i])),
                hess_norm=hess_norm,
                bound_hess_4v=4.0 * (xsq * v),
                bound_hess_sharp=(2.0 * math.sqrt(2.0) + 1.0) * (xsq * v),
                bound_grad_local=2.0 * float(fs.x_norms[i]) * v,
                bound_grad_global=0.5 * fs.x_max,
                ball_hess_max=ball_max,
                bound_ball=2.5 * (xsq * math.sqrt(v)),
            )
        )
    return rows


class TestLemmaBoundReport:
    @pytest.mark.parametrize("ball_samples", [0, 2, 16])
    def test_rows_equal_the_per_point_reference(self, ball_samples):
        rng = stream_rng(90, SCENARIO_STREAM)
        for _ in range(6):
            fs = random_features(
                n=int(rng.integers(1, 6)), K=int(rng.integers(2, 6)), d=int(rng.choice([1, 3, 16])),
                overlap=float(rng.uniform(0, 1)), rng=rng,
            )
            theta = rng.uniform(-3, 3, fs.d)
            seed = int(rng.integers(0, 2**31))
            rows = lemma_bound_report(fs, theta, rng=np.random.default_rng(seed), ball_samples=ball_samples)
            want = reference_lemma_bound_report(fs, theta, np.random.default_rng(seed), ball_samples)
            assert rows == want

    def test_default_ball_is_a_fresh_default_rng_drawn_once(self):
        fs = random_features(n=3, K=4, d=5, overlap=0.3, rng=stream_rng(87, SCENARIO_STREAM))
        thetas = [np.zeros(5), np.full(5, 0.4)]
        for theta in thetas:
            assert lemma_bound_report(fs, theta) == lemma_bound_report(fs, theta, rng=np.random.default_rng(0))
        U, w, u_norm = _default_ball(fs.n, fs.d, 16)
        assert U.shape == (48, 5) and w.shape == u_norm.shape == (48,)
        assert not any(a.flags.writeable for a in (U, w, u_norm))
        with pytest.raises(ValueError):
            U[0, 0] = 1.0
        lemma_bound_report(fs, thetas[0], ball_samples=3)
        assert _default_ball.cache_info().currsize == 1

    def test_caller_rng_draws_on_every_call(self):
        fs = random_features(n=2, K=3, d=4, overlap=0.5, rng=stream_rng(88, SCENARIO_STREAM))
        rng, want = np.random.default_rng(5), np.random.default_rng(5)
        first = lemma_bound_report(fs, np.zeros(4), rng=rng, ball_samples=4)
        for _ in range(fs.n * 4):
            want.standard_normal(fs.d)
            want.uniform()
        assert rng.bit_generator.state == want.bit_generator.state
        assert lemma_bound_report(fs, np.zeros(4), rng=rng, ball_samples=4) != first

    @pytest.mark.filterwarnings("error")
    def test_all_zero_features_raise_zero_division(self):
        fs = FeatureSet(features=(np.zeros((3, 2)), np.zeros((3, 2))), correct=[0, 1])
        with pytest.raises(ZeroDivisionError):
            lemma_bound_report(fs, np.zeros(2))
        rng = np.random.default_rng(1)
        with pytest.raises(ZeroDivisionError):
            lemma_bound_report(fs, np.zeros(2), rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state

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
        rep = diagnose_report(ortho_fs, np.full(ortho_fs.d, 0.1))["assumptions"]
        assert rep["m_status"] == "vacuous"
        assert rep["phase"] == "I"
        assert rep["cos_mean"] == pytest.approx(0.0, abs=1e-10)
        assert rep["c_of_t"] is None

    def test_one_batch_stats_evaluation(self, ortho_fs, monkeypatch):
        import rlvrlab.policy as policy

        calls = []
        inner = policy._batch_stats
        monkeypatch.setattr(policy, "_batch_stats", lambda fs, theta: calls.append(1) or inner(fs, theta))
        diagnose_report(ortho_fs, np.full(ortho_fs.d, 0.1))
        assert len(calls) == 1

    def test_c_of_t_populated_with_log(self, ortho_fs):
        cfg = TrainerConfig(algorithm="grpo", horizon=50, seed=0)
        log = run_trajectory(cfg, ortho_fs, np.zeros(ortho_fs.d))
        rep = diagnose_report(ortho_fs, np.zeros(ortho_fs.d), log=log)["assumptions"]
        assert rep["c_of_t"] is not None
        assert 0.0 <= rep["c_of_t"] <= 4.0 / 3.0 + 1e-12
