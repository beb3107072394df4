"""Instance constructors: exact block orthogonality, the overlap knob, and
difficulty targeting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rlvrlab import scenarios
from rlvrlab.diagnostics import pairwise_grad_cosines
from rlvrlab.policy import FeatureSet, policy_gradient, prompt_stats
from rlvrlab.rng import SCENARIO_STREAM, stream_rng
from rlvrlab.scenarios import (
    DIFFICULTY_TARGETS,
    ProfileError,
    difficulty_preset,
    difficulty_profile,
    orthogonal_blocks,
    random_features,
)


class TestOrthogonalBlocks:
    def test_structural_zero_products(self):
        fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(0, SCENARIO_STREAM))
        assert fs.d == 4
        product = fs.features[0] @ fs.features[1].T
        assert np.all(product == 0.0)

    def test_gradients_orthogonal_for_any_theta(self):
        fs = orthogonal_blocks(n=3, K=4, block_dim=3, scale=2.0, rng=stream_rng(1, SCENARIO_STREAM))
        rng = stream_rng(2, SCENARIO_STREAM)
        for _ in range(10):
            theta = rng.uniform(-5.0, 5.0, size=fs.d)
            grads = [policy_gradient(fs, theta, i) for i in range(fs.n)]
            for i in range(fs.n):
                for j in range(i + 1, fs.n):
                    assert float(grads[i] @ grads[j]) == 0.0

    def test_block_spectral_norms_match_scale(self):
        for scale in (1.0, 0.5, 3.0):
            fs = orthogonal_blocks(n=4, K=3, block_dim=2, scale=scale, rng=stream_rng(3, SCENARIO_STREAM))
            for norm in fs.x_norms:
                assert norm == pytest.approx(scale, rel=1e-10)
            assert fs.x_max == pytest.approx(scale, rel=1e-10)

    def test_parameter_validation(self):
        rng = stream_rng(4, SCENARIO_STREAM)
        with pytest.raises(ValueError):
            orthogonal_blocks(n=0, K=2, block_dim=2, scale=1.0, rng=rng)
        with pytest.raises(ValueError):
            orthogonal_blocks(n=2, K=2, block_dim=2, scale=0.0, rng=rng)


class TestRandomFeatures:
    def test_overlap_zero_concentrates_cosines(self):
        fracs = []
        for seed in range(10):
            rng = stream_rng(30 + seed, SCENARIO_STREAM)
            fs = random_features(n=32, K=2, d=512, overlap=0.0, rng=rng)
            theta = rng.standard_normal(512) / np.sqrt(512)
            rep = pairwise_grad_cosines(fs, theta)
            fracs.append(float((np.abs(rep.cosines) < 0.15).mean()))
        assert np.mean(fracs) >= 0.9

    def test_overlap_one_gives_identical_features(self):
        rng = stream_rng(5, SCENARIO_STREAM)
        fs = random_features(n=3, K=4, d=16, overlap=1.0, rng=rng)
        for X in fs.features[1:]:
            np.testing.assert_array_equal(X, fs.features[0])
        # gradients of prompts sharing the correct index are parallel
        theta = rng.standard_normal(16)
        same = [i for i in range(fs.n) if fs.correct[i] == fs.correct[0]]
        if len(same) >= 2:
            rep = pairwise_grad_cosines(fs, theta)
            for i, j, c in zip(rep.pair_i, rep.pair_j, rep.cosines):
                if i in same and j in same:
                    assert c == pytest.approx(1.0, abs=1e-12)

    def test_overlap_one_binary_outputs_cosines_plus_minus_one(self):
        # with two outputs, both possible gradients are multiples of
        # x_0 - x_1, so every defined cosine is exactly +-1
        rng = stream_rng(55, SCENARIO_STREAM)
        fs = random_features(n=6, K=2, d=8, overlap=1.0, rng=rng)
        rep = pairwise_grad_cosines(fs, rng.standard_normal(8))
        assert rep.n_pairs == 15
        np.testing.assert_allclose(np.abs(rep.cosines), 1.0, atol=1e-12)
        signs = np.sign(rep.cosines)
        expected = [
            1.0 if fs.correct[i] == fs.correct[j] else -1.0
            for i, j in zip(rep.pair_i, rep.pair_j)
        ]
        np.testing.assert_array_equal(signs, expected)

    def test_overlap_interpolates_mean_abs_cosine(self):
        means = {}
        for overlap in (0.0, 0.5, 1.0):
            vals = []
            for seed in range(10):
                rng = stream_rng(60 + seed, SCENARIO_STREAM)
                fs = random_features(n=8, K=2, d=64, overlap=overlap, rng=rng)
                theta = rng.standard_normal(64) / 8.0
                rep = pairwise_grad_cosines(fs, theta)
                vals.append(float(np.abs(rep.cosines).mean()))
            means[overlap] = float(np.mean(vals))
        assert means[0.0] < means[0.5] < means[1.0]

    def test_mean_abs_cosine_decreases_with_dimension(self):
        means = []
        for d in (32, 128, 512):
            vals = []
            for seed in range(10):
                rng = stream_rng(90 + seed, SCENARIO_STREAM)
                fs = random_features(n=8, K=2, d=d, overlap=0.0, rng=rng)
                theta = rng.standard_normal(d) / np.sqrt(d)
                rep = pairwise_grad_cosines(fs, theta)
                vals.append(float(np.abs(rep.cosines).mean()))
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2]

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            random_features(n=2, K=2, d=4, overlap=1.5, rng=stream_rng(6, SCENARIO_STREAM))


class TestDifficultyProfile:
    def test_logistic_gap_for_identity_block(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        theta = difficulty_profile(fs, [0.2])
        gap = float(fs.features[0][0] @ theta - fs.features[0][1] @ theta)
        assert gap == pytest.approx(np.log(0.25), abs=1e-9)

    def test_symmetric_target_gives_zero_parameters(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        theta = difficulty_profile(fs, [0.5])
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_mixed_targets_hit_within_tolerance(self):
        fs = orthogonal_blocks(n=4, K=3, block_dim=3, scale=1.0, rng=stream_rng(7, SCENARIO_STREAM))
        targets = [0.05, 0.5, 0.9, 0.95]
        theta = difficulty_profile(fs, targets)
        for i, target in enumerate(targets):
            assert prompt_stats(fs, theta, i).success == pytest.approx(target, abs=1e-9)

    def test_requires_block_orthogonality(self):
        rng = stream_rng(8, SCENARIO_STREAM)
        fs = random_features(n=2, K=2, d=4, overlap=0.5, rng=rng)
        with pytest.raises(ValueError, match="block-orthogonal"):
            difficulty_profile(fs, [0.3, 0.7])

    def test_degenerate_direction_reported_per_prompt(self):
        # all rows identical: steering direction is exactly zero
        block = np.tile([0.5, -0.5], (2, 1))
        fs = FeatureSet(features=(block,), correct=[0])
        with pytest.raises(ProfileError) as err:
            difficulty_profile(fs, [0.8])
        assert err.value.failures[0][0] == 0

    def test_target_validation(self):
        fs = FeatureSet(features=(np.eye(2),), correct=[0])
        with pytest.raises(ValueError):
            difficulty_profile(fs, [1.0])


class TestDifficultyPreset:
    def test_targets_assigned_cyclically(self):
        fs, theta0, targets = difficulty_preset(n=8, K=4, block_dim=4, seed=0)
        expected = [DIFFICULTY_TARGETS[i % 6] for i in range(8)]
        np.testing.assert_allclose(targets, expected)
        for i in range(fs.n):
            assert prompt_stats(fs, theta0, i).success == pytest.approx(expected[i], abs=1e-9)

    def test_blocks_are_congruent(self):
        fs, _, _ = difficulty_preset(n=4, K=4, block_dim=4, seed=1)
        first = fs.features[0][:, :4]
        for i in range(1, fs.n):
            np.testing.assert_array_equal(fs.features[i][:, 4 * i : 4 * (i + 1)], first)
        assert np.all(fs.correct == 0)


@pytest.fixture(scope="module")
def scipy_brentq():
    """scipy's brentq, the oracle for the in-package port (scipy is test-only)."""
    return pytest.importorskip("scipy.optimize").brentq


def _outcome(solver, f, a, b, xtol, rtol):
    """The root with its sign, or the exception's type and message."""
    try:
        root = solver(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return root, math.copysign(1.0, root)


@st.composite
def difficulty_gaps(draw):
    """A success-probability gap along a steering direction, as difficulty_profile
    builds it, with the bracket it finds by doubling (-1, 1)."""
    K = draw(st.integers(2, 6))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rates = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=K, max_size=K)))
    a = draw(st.integers(0, K - 1))
    target = draw(st.floats(1e-3, 1.0 - 1e-3))

    def gap(c):
        z = np.exp(c * rates - np.max(c * rates))
        return z[a] / z.sum() - target

    lo, hi = -1.0, 1.0
    while gap(lo) > 0.0 and lo > -scenarios._BRACKET_LIMIT:
        lo *= 2.0
    while gap(hi) < 0.0 and hi < scenarios._BRACKET_LIMIT:
        hi *= 2.0
    return gap, lo, hi


def _smooth(r, c1, c3, s, weight):
    """weight * (c1 u + c3 u^3 + s sin 3u) with u = x - r."""

    def f(x):
        u = x - r
        return weight * (c1 * u + c3 * u**3 + s * math.sin(3.0 * u))

    return f


# Roots and bracket ends include both zeros; weights down to 1e-300 make the
# extrapolation's denominator underflow to 0, where C gives inf and Python raises.
signed_zeros = st.sampled_from([0.0, -0.0])
smooth_functions = st.builds(
    _smooth,
    r=st.one_of(signed_zeros, st.floats(-5.0, 5.0)),
    c1=st.floats(-3.0, 3.0),
    c3=st.floats(-3.0, 3.0),
    s=st.floats(-3.0, 3.0),
    weight=st.integers(-300, 300).map(lambda e: 10.0**e),
)
bracket_ends = st.one_of(signed_zeros, st.floats(-10.0, 10.0))


class TestBrentq:
    """scenarios._brentq against scipy.optimize.brentq, compared by ==."""

    @settings(max_examples=200, deadline=None)
    @given(problem=difficulty_gaps())
    def test_difficulty_gaps_match_scipy(self, scipy_brentq, problem):
        gap, lo, hi = problem
        args = (gap, lo, hi, 1e-14, 8.9e-16)
        assert _outcome(scenarios._brentq, *args) == _outcome(scipy_brentq, *args)

    @settings(max_examples=300, deadline=None)
    @given(
        f=smooth_functions,
        a=bracket_ends,
        b=bracket_ends,
        xtol=st.floats(-15.0, -1.0).map(lambda e: 10.0**e),
        rtol=st.floats(0.0, 6.0).map(lambda e: 4.0 * np.finfo(float).eps * 10.0**e),
    )
    @example(f=_smooth(0.4, 1.0, 1.0, 0.3, 1e-200), a=-3.0, b=3.0, xtol=1e-12, rtol=8.9e-16)
    @example(f=_smooth(-0.0, 1.0, 0.0, 0.0, 1.0), a=-0.0, b=1.0, xtol=1e-12, rtol=8.9e-16)
    @example(f=_smooth(0.0, 2.0, 0.5, 0.0, 1.0), a=-1.0, b=1.0, xtol=1e-12, rtol=8.9e-16)
    def test_smooth_functions_match_scipy(self, scipy_brentq, f, a, b, xtol, rtol):
        args = (f, a, b, xtol, rtol)
        assert _outcome(scenarios._brentq, *args) == _outcome(scipy_brentq, *args)

    def test_nan_value_raises_scipys_error(self, scipy_brentq):
        def f(x):
            return x - 0.3 if x < 0.5 else math.nan

        args = (f, 0.0, 1.0, 1e-12, 1e-15)
        ours = _outcome(scenarios._brentq, *args)
        assert ours == _outcome(scipy_brentq, *args)
        assert ours == (ValueError, "The function value at x=1.0 is NaN; solver cannot continue.")

    def test_nonconvergence_raises_scipys_error(self, scipy_brentq, monkeypatch):
        def f(x):
            return math.exp(x) - 2.0

        monkeypatch.setattr(scenarios, "_BRENTQ_ITERATIONS", 2)
        with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations") as ours:
            scenarios._brentq(f, -10.0, 10.0, 1e-12, 1e-15)
        with pytest.raises(RuntimeError) as theirs:
            scipy_brentq(f, -10.0, 10.0, xtol=1e-12, rtol=1e-15, maxiter=2)
        assert str(ours.value) == str(theirs.value)
