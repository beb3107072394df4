"""Artifacts and the command-line surface: schema-stable CSV against a
golden, byte-for-byte reproducibility, abort handling, the sweep table, and
the documented exit codes."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import strict_json, tree_digests
from rlvrlab import runner, trainers
from rlvrlab.cli import main
from rlvrlab.config import build_instance, parse_config_dict
from rlvrlab.instancefile import save_instance
from rlvrlab.policy import FeatureSet
from rlvrlab.runner import CSV_HEADER, diagnose_report, run_experiment, run_sweep
from rlvrlab.scenarios import orthogonal_blocks
from rlvrlab.rng import SCENARIO_STREAM, stream_rng

GOLDEN = Path(__file__).parent / "goldens" / "grpo_small_trajectory.csv"

SMALL = {
    "scenario": {
        "generator": "orthogonal_blocks",
        "params": {"n": 2, "K": 3, "block_dim": 2, "scale": 1.0},
        "seed": 9,
    },
    "trainer": {"algorithm": "grpo", "horizon": 12, "seed": 4},
    "diagnostics": {"per_prompt_columns": True},
    "output": {"dir": "golden", "formats": ["csv", "json"]},
}


# A difficulty-preset sweep and the sha256 of every file it writes, taken
# at the commit before a sweep's runs shared one round history
PRESET_SWEEP = {
    "scenario": {
        "generator": "difficulty_preset",
        "params": {"n": 6, "K": 4, "block_dim": 4, "scale": 1.0},
        "seed": 31,
    },
    "trainer": {"algorithm": "grpo", "horizon": 300, "seed": 0},
    "diagnostics": {"phase_cadence": 100, "threshold": 0.6, "per_prompt_columns": True},
    "output": {"dir": "sweep", "formats": ["csv", "json"]},
}
PRESET_SWEEP_DIGESTS = {
    "grpo_seed0/summary.json": "b9971449a2ef9954c30ff52a0829268a138f4412895cd95c1c3490325fac7643",
    "grpo_seed0/trajectory.csv": "039e59c843ce5b5d852f128016f5d2735c755457e81080b08826f524b5f174d8",
    "grpo_seed11/summary.json": "c0496aa176cb32704e7cd582a8de54ff88a8bd3bd849f1562a16c7d77dfd3aaa",
    "grpo_seed11/trajectory.csv": "9f845931a26b2dde7d30706ad388f3f58879ef6adb0e352446ab053e7fa62305",
    "grpo_seed5/summary.json": "eea246b35150a25b02c6831f457d27b299b1362c689a5e3448816f70b1effc28",
    "grpo_seed5/trajectory.csv": "c05d1d787a45f6c5223854d627cc9a2a56a0d0c46c4baf25f5bdafba8a962edd",
    "reinforce_seed0/summary.json": "897c4768aefb65fa54905ed0431c737d76ef1678e810cebdf48a46c2ff2cd157",
    "reinforce_seed0/trajectory.csv": "a2a6e57d9ef62aa39396effc9c09af8d8e90979d41032e6e6237842a60be768c",
    "reinforce_seed11/summary.json": "b538398b068b7cc0d1d39964ea1f8a9f64c3e680935c1ccb000dc4b36428a1ab",
    "reinforce_seed11/trajectory.csv": "2ec6abd924cfa0520cd405ad2740a0b3ea50f539389bf806d835a6da01d14572",
    "reinforce_seed5/summary.json": "7acb580c4e14f1fb61a70217371289df807dbe0797e4efd486b2eccd00eac89b",
    "reinforce_seed5/trajectory.csv": "792c84eae5e21db6c7f26354c7a1a813dfa05b43ab3f565c03fadb27b7065a8d",
    "sweep_summary.json": "bf19b8ab13bcd1d5fbbb89289583ce040bbfbc9008452982616751fd7dc85814",
    "sweep_table.csv": "0d0e7c5e3cfbac519a19d3626d2b534a7d2ead19f6d922d99415edcecaf51260",
}


def small_cfg(**overrides):
    raw = json.loads(json.dumps(SMALL))
    for key, sub in overrides.items():
        raw.setdefault(key, {}).update(sub)
    return parse_config_dict(raw)


class TestRunExperiment:
    def test_csv_matches_golden(self, tmp_path):
        res = run_experiment(small_cfg(), out_dir=tmp_path / "run")
        produced = (tmp_path / "run" / "trajectory.csv").read_bytes()
        assert produced == GOLDEN.read_bytes()

    def test_csv_header_documented(self, tmp_path):
        cfg = small_cfg(diagnostics={"per_prompt_columns": False})
        res = run_experiment(cfg, out_dir=tmp_path / "run")
        first = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()[0]
        assert first == CSV_HEADER

    def test_svg_disabled_gives_exactly_two_artifacts(self, tmp_path):
        res = run_experiment(small_cfg(), out_dir=tmp_path / "run")
        assert len(res.artifacts) == 2
        assert {p.name for p in res.artifacts} == {"trajectory.csv", "summary.json"}

    def test_svg_enabled_adds_two_plots(self, tmp_path):
        cfg = small_cfg(output={"formats": ["csv", "json", "svg"]})
        res = run_experiment(cfg, out_dir=tmp_path / "run")
        names = {p.name for p in res.artifacts}
        assert names == {"trajectory.csv", "summary.json", "j_mean.svg", "bound_slack.svg"}
        svg = (tmp_path / "run" / "j_mean.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reruns_byte_identical(self, tmp_path):
        cfg = small_cfg(output={"formats": ["csv", "json", "svg"]})
        res1 = run_experiment(cfg, out_dir=tmp_path / "a")
        res2 = run_experiment(cfg, out_dir=tmp_path / "b")
        for p1, p2 in zip(res1.artifacts, res2.artifacts):
            assert p1.read_bytes() == p2.read_bytes()

    def test_summary_fields(self, tmp_path):
        res = run_experiment(small_cfg(), out_dir=tmp_path / "run")
        s = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert s["config"]["trainer"]["algorithm"] == "grpo"
        assert len(s["config_hash"]) == 64
        assert s["instance"] == {"n": 2, "K": 3, "d": 4, "x_max": 1.0}
        assert 0.0 <= s["final_mean_objective"] <= 1.0
        assert s["iterations_to_threshold"] is None  # 12 iterations cannot reach 0.9
        assert not s["threshold_reached"]
        assert 0.0 <= s["c_of_t"] <= 4.0 / 3.0
        assert s["cumulative_bounds"]["all_passed"] is True
        assert s["phase_timeline"][0]["t"] == 0
        assert s["phase_timeline"][-1]["t"] == 12

    def test_threshold_reached_reports_state_index(self, tmp_path):
        cfg = small_cfg(trainer={"horizon": 400}, diagnostics={"threshold": 0.6, "per_prompt_columns": False})
        res = run_experiment(cfg, out_dir=tmp_path / "run")
        t_star = res.summary["iterations_to_threshold"]
        assert t_star is not None
        assert res.log.records[t_star].j_mean >= 0.6  # records[t] snapshots state t
        if t_star > 0:
            assert res.log.records[t_star - 1].j_mean < 0.6

    def test_seed_override_changes_hash_and_bytes(self, tmp_path):
        res1 = run_experiment(small_cfg(), out_dir=tmp_path / "a")
        res2 = run_experiment(small_cfg(), out_dir=tmp_path / "b", seed_override=5)
        assert res1.summary["config_hash"] != res2.summary["config_hash"]
        assert res2.summary["config"]["trainer"]["seed"] == 5

    def test_seed_override_leaves_caller_config_unchanged(self, tmp_path):
        cfg = small_cfg()
        echo = json.loads(json.dumps(cfg.echo))
        content_hash = cfg.content_hash
        run_experiment(cfg, out_dir=tmp_path / "a", seed_override=5)
        assert cfg.echo == echo
        assert cfg.content_hash == content_hash
        assert cfg.trainer.seed == SMALL["trainer"]["seed"]

    def test_abort_writes_last_good_report(self, tmp_path):
        from rlvrlab.trainers import NumericalAbort

        # 1e308 overflows the step itself, 1e306 only the logits after it
        for eta in (1e308, 1e306):
            cfg = small_cfg(
                scenario={"params": {"n": 2, "K": 3, "block_dim": 2, "scale": 40.0}},
                trainer={"step_rule": "manual", "eta": eta},
            )
            with pytest.raises(NumericalAbort):
                run_experiment(cfg, out_dir=tmp_path / f"run{eta:g}")
            report = json.loads((tmp_path / f"run{eta:g}" / "abort.json").read_text())
            assert report["error"] == "numerical_abort"
            assert report["last_good_iteration"] == 0


class TestSweep:
    def test_paired_table_and_medians(self, tmp_path):
        cfg = small_cfg(trainer={"horizon": 400}, diagnostics={"threshold": 0.6, "per_prompt_columns": False})
        sweep = run_sweep(cfg, seeds=[0, 1, 2], out_dir=tmp_path / "sweep")
        assert {row["seed"] for row in sweep.table} == {0, 1, 2}
        assert set(sweep.summary["medians"]) == {"reinforce", "grpo"}
        assert "grpo_win_fraction" in sweep.summary
        table_csv = (tmp_path / "sweep" / "sweep_table.csv").read_text().splitlines()
        assert table_csv[0] == "seed,reinforce_iters,reinforce_c_at_threshold,grpo_iters,grpo_c_at_threshold,grpo_wins"
        assert len(table_csv) == 4

    def test_single_algorithm_degenerates_to_per_seed_summaries(self, tmp_path):
        cfg = small_cfg(trainer={"horizon": 50}, diagnostics={"per_prompt_columns": False})
        sweep = run_sweep(cfg, seeds=[0, 1], algorithms=("grpo",), out_dir=tmp_path / "sweep")
        assert "grpo_win_fraction" not in sweep.summary
        assert all("grpo_iters" in row and "reinforce_iters" not in row for row in sweep.table)

    def test_near_solved_regime_flagged_low_signal(self, tmp_path):
        cfg = small_cfg(
            scenario={"theta0": {"kind": "difficulty_profile", "targets": [0.99, 0.99]}},
            trainer={"horizon": 60},
            diagnostics={"threshold": 0.9, "per_prompt_columns": False},
        )
        sweep = run_sweep(cfg, seeds=[0, 1, 2], out_dir=tmp_path / "sweep")
        assert sweep.summary["low_signal"] is True
        assert all(row["grpo_iters"] == 0 for row in sweep.table)

    def test_relative_output_root_is_applied_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RLVRLAB_OUT_ROOT", "rel")
        monkeypatch.chdir(tmp_path)
        cfg = small_cfg(trainer={"horizon": 20}, diagnostics={"per_prompt_columns": False})
        sweep = run_sweep(cfg, seeds=[0, 1], algorithms=("grpo",), out_dir="sw")
        assert sweep.out_dir == Path("rel") / "sw"
        for seed in (0, 1):
            assert (tmp_path / "rel" / "sw" / f"grpo_seed{seed}" / "summary.json").is_file()
        assert (tmp_path / "rel" / "sw" / "sweep_summary.json").is_file()
        assert not (tmp_path / "rel" / "rel").exists()

    def test_sweep_leaves_caller_config_unchanged(self, tmp_path):
        cfg = small_cfg(trainer={"horizon": 20}, diagnostics={"snapshot_cadence": 5, "per_prompt_columns": False})
        echo, content_hash, trainer = cfg.echo, cfg.content_hash, cfg.trainer
        sweep = run_sweep(cfg, seeds=[0, 1], algorithms=("reinforce",), out_dir=tmp_path / "sweep")
        assert cfg.echo == echo
        assert cfg.content_hash == content_hash
        assert cfg.trainer == trainer
        # each run echoes the caller's config with its own algorithm and seed, at cadence 1
        ran = small_cfg(
            trainer={"horizon": 20, "algorithm": "reinforce", "seed": 1},
            diagnostics={"snapshot_cadence": 1, "per_prompt_columns": False},
        )
        summary = json.loads((sweep.out_dir / "reinforce_seed1" / "summary.json").read_text())
        assert summary["config"] == ran.echo
        assert summary["config_hash"] == ran.content_hash

    def test_pinned_preset_sweep_bytes(self, tmp_path):
        # both algorithms from one round history each, checkpoints for the
        # phase timeline, and the per-prompt columns
        cfg = parse_config_dict(PRESET_SWEEP)
        run_sweep(cfg, seeds=[0, 5, 11], out_dir=tmp_path / "sweep")
        assert tree_digests(tmp_path / "sweep") == PRESET_SWEEP_DIGESTS

    def test_block_orthogonal_sweep_replays_once_per_algorithm(self, tmp_path):
        cfg = small_cfg(trainer={"horizon": 50}, diagnostics={"per_prompt_columns": False})
        with mock.patch.object(runner, "run_trajectory", side_effect=AssertionError("one run replayed")):
            with mock.patch.object(trainers, "_history", wraps=trainers._history) as history:
                run_sweep(cfg, seeds=[0, 1, 2], out_dir=tmp_path / "sweep")
        assert history.call_count == 2

    def test_needs_two_seeds(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(small_cfg(), seeds=[0], out_dir=tmp_path / "sweep")

    @pytest.mark.parametrize(
        "seeds, algorithms, message",
        [
            ([2, 2], ("grpo",), "sweep seed 2 is repeated"),
            ([0, 1, 0], ("reinforce", "grpo"), "sweep seed 0 is repeated"),
            ([0, 1], ("grpo", "reinforce", "grpo"), "sweep algorithm 'grpo' is repeated"),
            ([0, 1], (), "sweep needs at least one algorithm"),
        ],
    )
    def test_a_sweep_is_a_set_of_runs(self, tmp_path, seeds, algorithms, message):
        with pytest.raises(ValueError, match=message):
            run_sweep(small_cfg(), seeds=seeds, algorithms=algorithms, out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


class TestDiagnoseReport:
    def test_orthogonal_instance(self):
        fs = orthogonal_blocks(n=3, K=3, block_dim=2, scale=1.0, rng=stream_rng(60, SCENARIO_STREAM))
        report = diagnose_report(fs, np.zeros(fs.d))
        assert report["assumptions"]["m_status"] == "vacuous"
        assert report["assumptions"]["phase"] == "I"
        assert len(report["lemma_bounds"]) == 3
        assert all(row["min_slack"] >= -1e-12 for row in report["lemma_bounds"])

    def test_half_overlap_instance_reports_interaction_constant(self):
        from rlvrlab.scenarios import random_features

        rng = stream_rng(63, SCENARIO_STREAM)
        for attempt in range(20):
            fs = random_features(n=4, K=2, d=24, overlap=0.5, rng=rng)
            theta = rng.standard_normal(24) / 5.0
            report = diagnose_report(fs, theta)
            if report["assumptions"]["m_status"] == "ok":
                break
        assert report["assumptions"]["m_status"] == "ok"
        assert report["assumptions"]["m_hat"] > 0.0
        assert report["assumptions"]["m_worst_pair"] is not None


class TestCli:
    def write_config(self, tmp_path, raw=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw or SMALL))
        return path

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert any("trajectory.csv" in line for line in printed)

    def test_run_format_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--format", "json"]) == 0
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL))
        raw["trainer"]["horizon"] = 0
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "horizon" in capsys.readouterr().err

    # grpo on a one-dimensional shared-coordinate instance from theta0 = [1000],
    # where the reward variance rounds to zero and a NaN eps_floor once
    # reached a division by zero in the loop
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["trainer.eps_floor", "trainer.eta", "scenario.theta0.values"])
    def test_non_finite_config_value_exit_two(self, tmp_path, capsys, field, value):
        raw = {
            "scenario": {"generator": "random_features", "params": {"n": 2, "K": 2, "d": 1, "overlap": 0.5},
                         "theta0": {"kind": "values", "values": [1000.0]}},
            "trainer": {"algorithm": "grpo", "horizon": 20, "seed": 0},
        }
        if field == "trainer.eps_floor":
            raw["trainer"]["eps_floor"] = value
        elif field == "trainer.eta":
            raw["trainer"].update(step_rule="manual", eta=value)
        else:
            raw["scenario"]["theta0"]["values"] = [value]
        cfg = str(self.write_config(tmp_path, raw))
        for argv in (["run", "--config", cfg, "--out", str(tmp_path / "out")],
                     ["diagnose", "--config", cfg],
                     ["sweep", "--config", cfg, "--seeds", "0,1", "--out", str(tmp_path / "sw")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert field.split(".")[-1] in err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_numerical_abort_exit_three(self, tmp_path):
        raw = json.loads(json.dumps(SMALL))
        raw["scenario"]["params"]["scale"] = 40.0
        raw["trainer"]["step_rule"] = "manual"
        raw["trainer"]["eta"] = 1e308
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert (tmp_path / "out" / "abort.json").exists()

    def test_sweep_cli(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL))
        raw["trainer"]["horizon"] = 60
        raw["diagnostics"] = {"threshold": 0.5}
        cfg = self.write_config(tmp_path, raw)
        code = main(["sweep", "--config", str(cfg), "--seeds", "0,1", "--out", str(tmp_path / "sw")])
        assert code == 0
        out = capsys.readouterr().out
        assert "median iterations-to-threshold" in out

    def test_sweep_malformed_seeds_exit_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--seeds", "a,b", "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds") and err.count("\n") == 1

    def test_diagnose_instance_exit_codes(self, tmp_path):
        ok = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(61, SCENARIO_STREAM))
        ok_path = tmp_path / "ok.txt"
        save_instance(ok, ok_path)
        assert main(["diagnose", "--instance", str(ok_path), "--out", str(tmp_path / "d1")]) == 0

        violating = FeatureSet(features=(np.eye(2), np.eye(2)), correct=[0, 1])
        bad_path = tmp_path / "bad.txt"
        save_instance(violating, bad_path)
        theta_path = tmp_path / "theta.txt"
        theta_path.write_text("0.4 -0.1\n")
        code = main(
            ["diagnose", "--instance", str(bad_path), "--theta", str(theta_path), "--out", str(tmp_path / "d2")]
        )
        assert code == 5
        report = strict_json((tmp_path / "d2" / "diagnosis.json").read_text())
        assert report["assumptions"]["m_status"] == "violated"
        assert report["assumptions"]["m_hat"] is None

        # finite parameters whose logits overflow are a numerical abort
        wide = FeatureSet(features=(np.diag([1e10, 1.0]), np.eye(2)), correct=[0, 1])
        save_instance(wide, bad_path)
        theta_path.write_text("1e300 0\n")
        assert main(["diagnose", "--instance", str(bad_path), "--theta", str(theta_path)]) == 3

    def test_diagnose_config_theta_default_and_zeros(self, tmp_path):
        raw = json.loads(json.dumps(SMALL))
        raw["scenario"]["theta0"] = {"kind": "values", "values": [0.5, 0.1, -0.2, 0.3]}
        cfg = self.write_config(tmp_path, raw)
        fs, theta0 = build_instance(parse_config_dict(raw))
        expected = {
            "d_default": json.dumps(diagnose_report(fs, theta0), sort_keys=True, indent=2) + "\n",
            "d_zeros": json.dumps(diagnose_report(fs, np.zeros(fs.d)), sort_keys=True, indent=2) + "\n",
        }
        assert expected["d_default"] != expected["d_zeros"]
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d_default")]) == 0
        assert main(["diagnose", "--config", str(cfg), "--theta", "zeros", "--out", str(tmp_path / "d_zeros")]) == 0
        for name, text in expected.items():
            assert (tmp_path / name / "diagnosis.json").read_text() == text

    def test_diagnose_malformed_theta_file_exit_two(self, tmp_path, capsys):
        fs = orthogonal_blocks(n=2, K=2, block_dim=1, scale=1.0, rng=stream_rng(64, SCENARIO_STREAM))
        inst_path = tmp_path / "inst.txt"
        save_instance(fs, inst_path)
        theta_path = tmp_path / "theta.txt"
        theta_path.write_text("a b\n")
        assert main(["diagnose", "--instance", str(inst_path), "--theta", str(theta_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(theta_path) in err

    def test_diagnose_single_prompt_instance_exit_two(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        save_instance(FeatureSet(features=(np.eye(2),), correct=[0]), path)
        assert main(["diagnose", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "diagnose needs at least two prompts" in err

    def test_run_single_prompt_exit_zero(self, tmp_path):
        raw = json.loads(json.dumps(SMALL))
        raw["scenario"]["params"]["n"] = 1
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_diagnose_unusable_inputs_exit_two(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        save_instance(FeatureSet(features=(np.eye(2), np.eye(2)), correct=[0, 1]), path)
        zero_path = tmp_path / "zero.txt"
        save_instance(FeatureSet(features=(np.zeros((2, 2)), np.zeros((2, 2))), correct=[0, 1]), zero_path)
        huge_path = tmp_path / "huge.txt"
        save_instance(FeatureSet(features=(1e300 * np.eye(2), np.eye(2)), correct=[0, 1]), huge_path)
        # 'profile' needs a block-orthogonal instance; a directory is not an
        # instance file; all-zero features leave x_max = 0 to divide by, and
        # features near 1e300 overflow x_max**2.
        assert main(["diagnose", "--instance", str(path), "--theta", "profile"]) == 2
        assert main(["diagnose", "--instance", str(tmp_path)]) == 2
        assert main(["diagnose", "--instance", str(zero_path)]) == 2
        assert main(["diagnose", "--instance", str(huge_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error: ") for line in err)
        assert "every feature matrix is zero" in err[2]
        assert "x_max**2 is not a finite" in err[3]

    def test_diagnose_profile_theta(self, tmp_path, capsys):
        fs = orthogonal_blocks(n=2, K=3, block_dim=3, scale=1.0, rng=stream_rng(62, SCENARIO_STREAM))
        path = tmp_path / "inst.txt"
        save_instance(fs, path)
        assert main(["diagnose", "--instance", str(path), "--theta", "profile"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["assumptions"]["m_status"] == "vacuous"

    def test_diagnose_undefined_cosines_are_null(self, tmp_path, capsys):
        # equal rows give every prompt a zero gradient, so no pair has a cosine
        path = tmp_path / "flat.txt"
        save_instance(FeatureSet(features=(np.ones((2, 2)), np.ones((2, 2))), correct=[0, 1]), path)
        assert main(["diagnose", "--instance", str(path)]) == 0
        assumptions = strict_json(capsys.readouterr().out)["assumptions"]
        assert assumptions["n_pairs"] == 0
        assert [assumptions[k] for k in ("cos_mean", "cos_std", "frac_positive")] == [None] * 3

    def test_diagnose_overflowing_interaction_exit_three(self, tmp_path, capsys):
        # x_max**2 is a finite double, but |X_i grad_j|^2 in m_bound is not
        rng = stream_rng(65, SCENARIO_STREAM)
        huge = FeatureSet(features=tuple(1e150 * rng.uniform(-1, 1, (2, 2)) for _ in range(2)), correct=[0, 1])
        path = tmp_path / "huge.txt"
        save_instance(huge, path)
        assert main(["diagnose", "--instance", str(path), "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ") and err.count("\n") == 1
        assert not (tmp_path / "d" / "diagnosis.json").exists()

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RLVRLAB_OUT_ROOT", str(tmp_path / "root"))
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "golden" / "summary.json").exists()

    def test_diagnose_out_under_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RLVRLAB_OUT_ROOT", "rel")
        monkeypatch.chdir(tmp_path)
        fs = orthogonal_blocks(n=2, K=2, block_dim=2, scale=1.0, rng=stream_rng(61, SCENARIO_STREAM))
        save_instance(fs, tmp_path / "inst.txt")
        assert main(["diagnose", "--instance", "inst.txt", "--out", "d"]) == 0
        assert (tmp_path / "rel" / "d" / "diagnosis.json").is_file()
        assert not (tmp_path / "d").exists()

    def test_verify_out_under_output_root_once(self, tmp_path, monkeypatch):
        import rlvrlab.verify as verify

        monkeypatch.setattr(verify, "CRITERIA", [verify.c13_reproducibility])
        monkeypatch.setenv("RLVRLAB_OUT_ROOT", "rel")
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--out", "v"]) == 0
        work = tmp_path / "rel" / "v"
        assert (work / "verify_report.json").is_file()
        assert (work / "c13_a" / "summary.json").is_file()
        assert not (tmp_path / "v").exists()
        assert not (tmp_path / "rel" / "rel").exists()

    def test_verify_exit_codes(self, tmp_path, monkeypatch, capsys):
        import rlvrlab.cli as cli
        from rlvrlab.verify import CriterionResult

        ok = CriterionResult(1, "ok", True, 0.0, None, "fine")
        expected = CriterionResult(2, "known", False, 0.0, None, "documented", expected_failure=True)
        bad = CriterionResult(3, "broken", False, 0.0, None, "regression")
        timed = CriterionResult(4, "timed", True, 1.5, 10.0, "fine")
        slow = CriterionResult(5, "slow", False, 12.5, 10.0, "over budget")

        monkeypatch.setattr(cli, "run_all", lambda out: [ok, expected])
        assert main(["verify", "--out", str(tmp_path / "v1")]) == 0
        report = strict_json((tmp_path / "v1" / "verify_report.json").read_text())
        assert [r["passed"] for r in report] == [True, False]
        assert report[1]["expected_failure"] is True
        assert [r["within_budget"] for r in report] == [None, None]

        monkeypatch.setattr(cli, "run_all", lambda out: [timed, slow])
        assert main(["verify", "--out", str(tmp_path / "v3")]) == 4
        report = strict_json((tmp_path / "v3" / "verify_report.json").read_text())
        assert [(r["limit_s"], r["within_budget"]) for r in report] == [(10.0, True), (10.0, False)]

        monkeypatch.setattr(cli, "run_all", lambda out: [ok, expected, bad])
        assert main(["verify", "--out", str(tmp_path / "v2")]) == 4
        capsys.readouterr()
