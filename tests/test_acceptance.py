"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  These are the exit criteria of the artifact; the same checks back the
`rlvrlab verify` subcommand.

Criterion 8 carries a documented expected failure: the GRPO cumulative
sum-form bound with the realized-variance estimate cannot hold at the full
horizon (the telescoping derivation supports a bound on T * min_t, not on
the sum, and the sum-form right-hand side decays with the realized reward
std while the left-hand side saturates).  The checker shows the derivable
variants holding everywhere and the sum-form holding on the pre-saturation
prefix; the stated form is asserted as written and expected to fail.
"""

import numpy as np
import pytest

from rlvrlab import policy, verify


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    verify._ORTHO_RUNS.clear()
    return tmp_path_factory.mktemp("acceptance")


def _report(result):
    limit = f" (limit {result.limit_s:.0f}s)" if result.limit_s else ""
    print(f"criterion {result.cid:2d} [{result.status}] {result.name}: "
          f"{result.detail} [{result.elapsed_s:.2f}s{limit}]")
    return result


def test_criterion_01_gradient_oracle(work_dir):
    r = _report(verify.c1_gradient_oracle(work_dir))
    assert r.passed, r.detail


def test_criterion_02_hessian_consistency(work_dir):
    r = _report(verify.c2_hessian_consistency(work_dir))
    assert r.passed, r.detail


def test_criterion_03_curvature_bound_sweep(work_dir):
    r = _report(verify.c3_lemma_curvature_bound(work_dir))
    assert r.passed, r.detail


def test_criterion_04_gradient_bound_sweep(work_dir):
    r = _report(verify.c4_lipschitz_bound(work_dir))
    assert r.passed, r.detail


def test_criterion_05_local_smoothness_ball(work_dir):
    r = _report(verify.c5_local_smoothness_ball(work_dir))
    assert r.passed, r.detail


def test_criterion_06_decoupling(work_dir):
    r = _report(verify.c6_decoupling(work_dir))
    assert r.passed, r.detail


def test_criterion_07_per_step_improvement(work_dir):
    r = _report(verify.c7_per_step_improvement(work_dir))
    assert r.passed, r.detail


def test_criterion_08_cumulative_bounds(work_dir):
    r = _report(verify.c8_cumulative_bounds(work_dir))
    if r.expected_failure:
        pytest.xfail(
            "GRPO sum-form bound with realized C(i,T) is contradicted by its own "
            "derivation (T * min form); derivable variants and the pre-saturation "
            "prefix all pass - see decisions ledger and README"
        )
    assert r.passed, r.detail


def test_criterion_09_rate_separation(work_dir):
    r = _report(verify.c9_rate_separation(work_dir))
    assert r.passed, r.detail


def test_criterion_10_fisher_unbiasedness(work_dir):
    r = _report(verify.c10_fisher_unbiasedness(work_dir))
    assert r.passed, r.detail


def test_criterion_11_curvature_variance_link(work_dir):
    r = _report(verify.c11_curvature_variance_link(work_dir))
    assert r.passed, r.detail


def test_criterion_12_near_orthogonality(work_dir):
    r = _report(verify.c12_near_orthogonality(work_dir))
    assert r.passed, r.detail


def test_criterion_13_reproducibility(work_dir):
    r = _report(verify.c13_reproducibility(work_dir))
    assert r.passed, r.detail


def test_verify_battery_detects_injected_curvature_bug(work_dir, monkeypatch):
    """Mutation sanity: a corrupted Hessian must trip the sweeps.

    A tripled Hessian norm breaks the curvature bound sweep; a sign flip of
    the Hessian alone cannot (the bound is derived through absolute values),
    but it cannot survive the finite-difference consistency check either.
    """
    import rlvrlab.verify as v

    real_norms = v.hessian_norms
    monkeypatch.setattr(v, "hessian_norms", lambda fs, thetas, prompts: 3.0 * real_norms(fs, thetas, prompts))
    assert not v.c3_lemma_curvature_bound(work_dir).passed

    real = v.hessian_matrix
    monkeypatch.setattr(v, "hessian_matrix", lambda fs, theta, i: -real(fs, theta, i))
    assert not v.c2_hessian_consistency(work_dir).passed


def test_gradient_oracle_detects_corrupted_softmax(work_dir, monkeypatch):
    """Mutation sanity: a fixed per-output offset on the logits of the
    policy's softmax must trip criterion 1.

    The finite differences read the oracle's own softmax.  Were they to read
    the policy's, the corrupted gradient would stay consistent with the
    corrupted objective and the check would pass.
    """
    real = policy._softmax_rows
    monkeypatch.setattr(policy, "_softmax_rows", lambda logits: real(logits + 0.5 * np.arange(logits.shape[1])))
    r = verify.c1_gradient_oracle(work_dir)
    assert not r.passed, r.detail
