"""Strict config parsing: defaults echoed, unknown keys named with a nearest
match, type and range validation with field paths."""

import dataclasses
import json

import numpy as np
import pytest

from rlvrlab.config import ConfigError, build_instance, parse_config, parse_config_dict
from rlvrlab.policy import prompt_stats

MINIMAL = {
    "scenario": {"generator": "orthogonal_blocks", "params": {"n": 2, "K": 2, "block_dim": 2, "scale": 1.0}, "seed": 1},
    "trainer": {"algorithm": "grpo", "horizon": 10, "seed": 2},
}


def test_minimal_config_fills_and_echoes_defaults():
    cfg = parse_config_dict(json.loads(json.dumps(MINIMAL)))
    assert cfg.trainer.step_rule == "theorem_default"
    assert cfg.trainer.eps_floor == 1e-8
    assert cfg.snapshot_cadence == 1
    assert cfg.threshold == 0.9
    assert cfg.formats == ("csv", "json")
    echo = cfg.echo
    assert echo["trainer"]["step_rule"] == "theorem_default"
    assert echo["diagnostics"]["threshold"] == 0.9
    assert echo["output"]["formats"] == ["csv", "json"]
    assert echo["scenario"]["theta0"] == {"kind": "default"}


def test_misspelled_key_names_nearest_valid():
    bad = json.loads(json.dumps(MINIMAL))
    bad["trainer"]["algoritm"] = "grpo"
    del bad["trainer"]["algorithm"]
    with pytest.raises(ConfigError) as err:
        parse_config_dict(bad)
    message = str(err.value)
    assert "algoritm" in message
    assert "algorithm" in message  # nearest valid key suggested


def test_zero_horizon_rejected_with_field_context():
    bad = json.loads(json.dumps(MINIMAL))
    bad["trainer"]["horizon"] = 0
    with pytest.raises(ConfigError, match="horizon must be >= 1"):
        parse_config_dict(bad)


def test_type_mismatch_reports_path():
    bad = json.loads(json.dumps(MINIMAL))
    bad["trainer"]["horizon"] = "many"
    with pytest.raises(ConfigError, match="trainer.horizon"):
        parse_config_dict(bad)


def test_unknown_generator_suggests():
    bad = json.loads(json.dumps(MINIMAL))
    bad["scenario"]["generator"] = "orthogonal_block"
    with pytest.raises(ConfigError, match="orthogonal_blocks"):
        parse_config_dict(bad)


def test_relaxed_rule_requires_constants():
    bad = json.loads(json.dumps(MINIMAL))
    bad["trainer"]["step_rule"] = "relaxed"
    with pytest.raises(ConfigError, match="relaxed"):
        parse_config_dict(bad)


def test_relaxed_constants_parsed():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["trainer"]["step_rule"] = "relaxed"
    cfgd["trainer"]["relaxed_constants"] = {"m": 2.0, "r1": 1.5, "r2": 1.25}
    cfg = parse_config_dict(cfgd)
    assert cfg.trainer.relaxed_constants == (2.0, 1.5, 1.25)


def test_cadence_caps_at_horizon():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["diagnostics"] = {"snapshot_cadence": 1000}
    cfg = parse_config_dict(cfgd)
    assert cfg.snapshot_cadence == 10


def test_missing_file_reported():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.json")


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "scenario": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_build_instance_zeros_theta():
    cfg = parse_config_dict(json.loads(json.dumps(MINIMAL)))
    fs, theta0 = build_instance(cfg)
    assert fs.n == 2 and fs.d == 4
    np.testing.assert_array_equal(theta0, 0.0)


def test_build_instance_difficulty_profile_theta():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["scenario"]["theta0"] = {"kind": "difficulty_profile", "targets": [0.2, 0.8]}
    fs, theta0 = build_instance(parse_config_dict(cfgd))
    assert prompt_stats(fs, theta0, 0).success == pytest.approx(0.2, abs=1e-9)
    assert prompt_stats(fs, theta0, 1).success == pytest.approx(0.8, abs=1e-9)


def test_build_instance_explicit_values():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["scenario"]["theta0"] = {"kind": "values", "values": [0.1, 0.2, 0.3, 0.4]}
    _, theta0 = build_instance(parse_config_dict(cfgd))
    np.testing.assert_allclose(theta0, [0.1, 0.2, 0.3, 0.4])


def test_build_instance_preset_uses_profile_by_default():
    cfgd = {
        "scenario": {"generator": "difficulty_preset", "params": {"n": 6, "K": 4, "block_dim": 4}, "seed": 2},
        "trainer": {"algorithm": "grpo", "horizon": 5, "seed": 0},
    }
    fs, theta0 = build_instance(parse_config_dict(cfgd))
    assert prompt_stats(fs, theta0, 0).success == pytest.approx(0.05, abs=1e-9)
    # explicit zeros overrides the preset profile
    cfgd["scenario"]["theta0"] = {"kind": "zeros"}
    _, theta0z = build_instance(parse_config_dict(cfgd))
    np.testing.assert_array_equal(theta0z, 0.0)


def test_build_instance_single_target_applies_to_every_prompt():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["scenario"]["theta0"] = {"kind": "difficulty_profile", "targets": [0.3]}
    fs, theta0 = build_instance(parse_config_dict(cfgd))
    for i in range(fs.n):
        assert prompt_stats(fs, theta0, i).success == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("scale", [1e155, 1e-162])
def test_build_instance_refuses_unmeasurable_scale(scale):
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["scenario"]["params"]["scale"] = scale
    with pytest.raises(ConfigError, match="x_max"):
        build_instance(parse_config_dict(cfgd))


def test_bad_generator_params_reported():
    cfgd = json.loads(json.dumps(MINIMAL))
    cfgd["scenario"]["params"] = {"n": 2, "K": 2, "block_dim": 2, "scale": 1.0, "extra": 5}
    with pytest.raises(ConfigError, match="extra"):
        build_instance(parse_config_dict(cfgd))


def test_content_hash_stable_and_sensitive():
    cfg1 = parse_config_dict(json.loads(json.dumps(MINIMAL)))
    cfg2 = parse_config_dict(json.loads(json.dumps(MINIMAL)))
    assert cfg1.content_hash == cfg2.content_hash
    changed = json.loads(json.dumps(MINIMAL))
    changed["trainer"]["seed"] = 3
    assert parse_config_dict(changed).content_hash != cfg1.content_hash


# Configs that between them set every key, with the content hash each one had
# when the echo was still a stored dict: a boolean seed, ints where floats are
# expected, a cadence above the horizon, reordered formats, theta0 values and
# targets, and relaxed constants.
PINNED = {
    "minimal": (MINIMAL, "af2b1442c61d0edc563d8bab9c1927984df4e24fce65417c4ef65f0d1b0963ab"),
    "instance_file_manual": (
        {
            "scenario": {"generator": "instance_file", "params": {"path": "instances/tiny.txt"}, "seed": True,
                         "theta0": {"kind": "values", "values": [1, -0.5, 2.0]}},
            "trainer": {"algorithm": "reinforce", "horizon": 10, "seed": False, "step_rule": "manual",
                        "eta": 3, "eps_floor": 1},
            "diagnostics": {"snapshot_cadence": 50, "phase_cadence": 4, "threshold": 1, "per_prompt_columns": True},
            "output": {"dir": "out/a", "formats": ["svg", "csv"]},
        },
        "1b0909015fdc537cfc723567ea8fc926887d65b2bbaf46ac171626d4aa953942",
    ),
    "relaxed_profile": (
        {
            "scenario": {"generator": "random_features", "params": {"n": 3, "K": 4, "d": 5, "overlap": 0.25},
                         "seed": 7, "theta0": {"kind": "difficulty_profile", "targets": [0.2, 0.5, 0.8]}},
            "trainer": {"algorithm": "grpo", "horizon": 300, "seed": 11, "step_rule": "relaxed", "eta": 0.5,
                        "eps_floor": 1e-6, "relaxed_constants": {"m": 0, "r1": 2, "r2": 1.5}},
            "diagnostics": {"snapshot_cadence": 7, "threshold": 0.75},
            "output": {"formats": ["json", "svg", "csv"]},
        },
        "5c8457fd6a0eef6c886953a1499cccc4ebe0c2646985f3a79c7f5fd0ca54094c",
    ),
    "preset_zeros": (
        {
            "scenario": {"generator": "difficulty_preset", "params": {}, "theta0": {"kind": "zeros"}},
            "trainer": {"algorithm": "reinforce", "horizon": 1, "seed": 0},
            "diagnostics": {"snapshot_cadence": 1, "phase_cadence": 0, "per_prompt_columns": False},
            "output": {"dir": "runs", "formats": []},
        },
        "436a4b4d6b303113ad547c42216a1c10e992657c1c22fda8950de5c002e6e1c3",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_content_hash_pinned(name):
    raw, digest = PINNED[name]
    assert parse_config_dict(json.loads(json.dumps(raw))).content_hash == digest


def test_config_is_frozen_and_echo_is_a_fresh_copy():
    cfg = parse_config_dict(json.loads(json.dumps(PINNED["instance_file_manual"][0])))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.output_dir = "elsewhere"
    echo = cfg.echo
    echo["scenario"]["params"]["path"] = "other.txt"
    echo["scenario"]["theta0"]["values"].append(9.0)
    echo["trainer"]["seed"] = 99
    echo["output"]["formats"].append("json")
    assert cfg.content_hash == PINNED["instance_file_manual"][1]
    assert cfg.scenario_params == {"path": "instances/tiny.txt"}
    assert cfg.theta0_spec["values"] == [1, -0.5, 2.0]
