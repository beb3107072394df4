"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/bench_selftest.py

The file name keeps it out of the repository's default test collection:
the digest test runs two T=1e4 trajectories.
"""

import sys

import numpy as np
import pytest

import bench
import tracer
import workloads

sys.path.insert(0, str(bench.SRC))


def test_self_time_subtracts_direct_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_nearest_ancestor_includes_the_span_itself():
    parent = np.array([-1, 0, 1, 2, -1])
    name_id = np.array([0, 1, 2, 1, 2])
    assert tracer.nearest_ancestor(parent, name_id, {1}).tolist() == [-1, 1, 1, 3, -1]


def test_tail_keeps_ten_samples_above():
    assert bench.tail([float(x) for x in range(20, 0, -1)]) == {
        "value": 10.0, "percentile": 50.0, "beyond": 10, "samples": 20}
    assert bench.tail([1.0] * 10)["value"] is None


def test_clock_scales_to_nominal_speed(monkeypatch):
    monkeypatch.setattr(bench, "calibration_rep_s", lambda reps: 2 * bench.NOMINAL_REP_S)
    clock = bench.SpeedClock()
    with clock.interval() as t:
        pass
    assert t["norm"] == pytest.approx(t["wall"] / 2)


def test_install_wraps_every_binding_and_uninstall_restores():
    mods = bench.import_fresh()
    fs = mods.scenarios.orthogonal_blocks(2, 3, 2, 1.0, mods.rng.stream_rng(0, 2))
    original = mods.policy.prompt_stats
    assert mods.trainers.prompt_stats is original
    tr = tracer.Tracer()
    tr.install()
    try:
        for module in (mods.policy, mods.trainers, mods.diagnostics, mods.runner, mods.scenarios):
            assert module.prompt_stats is not original
        with tr.span("bench.op"):
            mods.policy.policy_gradient(fs, np.zeros(fs.d), 0)
    finally:
        tr.uninstall()
    assert mods.trainers.prompt_stats is original
    names = [tr.names[i] for i in tr.name_id]
    assert names == ["bench.op", "policy.policy_gradient", "policy.prompt_stats"]
    assert list(tr.parent) == [-1, 0, 1]


def test_tracing_changes_no_train_long_artifact(tmp_path):
    mods = bench.import_fresh()
    wl = workloads.TrainLong(mods, workloads.DEFAULT_SEED, tmp_path)
    untraced = wl.reference()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = wl.reference()
    finally:
        tr.uninstall()
    # an empty problem list means the artifacts match the recorded digests
    assert untraced[0] == [] and traced == untraced
    assert len(tr.start) > 170_000
