"""Strict config parsing: defaults echoed, unknown keys named with a nearest
match, type and range validation with field paths."""

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
