"""Strict experiment configuration.

Configs are JSON with four blocks (scenario, trainer, diagnostics, output);
scenario and trainer are required.  Parsing is strict: unknown keys are
errors that name the offending key, its location and the nearest valid key.
Every default lives in the DEFAULTS table below, and the parsed config echoes
all of them so a run is fully described by its summary.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .instancefile import InstanceFormatError, check_scale, load_instance
from .policy import FeatureSet
from .rng import SCENARIO_STREAM, stream_rng
from .scenarios import difficulty_preset, difficulty_profile, orthogonal_blocks, random_features
from .trainers import RelaxedConstants, TrainerConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_dict", "build_instance", "DEFAULTS"]

GENERATORS = ("orthogonal_blocks", "random_features", "difficulty_preset", "instance_file")
# "default" keeps the generator's own initializer: the difficulty profile for
# difficulty_preset, zeros for everything else.
THETA0_KINDS = ("default", "zeros", "difficulty_profile", "values")
FORMATS = ("csv", "json", "svg")

# Single reference table of defaults (README mirrors it).
DEFAULTS: dict[str, dict[str, Any]] = {
    "scenario": {"seed": 0, "params": {}, "theta0": {"kind": "default"}},
    "trainer": {"step_rule": "theorem_default", "eta": None, "eps_floor": 1e-8,
                "relaxed_constants": None},
    "diagnostics": {"snapshot_cadence": 1, "phase_cadence": 0, "threshold": 0.9,
                    "per_prompt_columns": False},
    "output": {"dir": "runs", "formats": ["csv", "json"]},
}


class ConfigError(ValueError):
    """Configuration problem, with the offending field path in the message."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _check_keys(block: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in block:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            _fail(path, f"unknown key {key!r}{suffix} (valid: {', '.join(allowed)})")


_REQUIRED = object()


def _get(block: dict, key: str, kind, path: str, default=_REQUIRED):
    if key not in block:
        if default is _REQUIRED:
            _fail(path, f"missing required key {key!r}")
        return default
    value = block[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            _fail(f"{path}.{key}", "integer is beyond double range")
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_generator: str
    scenario_params: dict
    scenario_seed: int
    theta0_spec: dict
    trainer: TrainerConfig
    snapshot_cadence: int
    phase_cadence: int
    threshold: float
    per_prompt_columns: bool
    output_dir: str
    formats: tuple[str, ...]

    @property
    def echo(self) -> dict:
        """The effective config as a fresh dict in the input's block layout."""
        tr = self.trainer
        constants = tr.relaxed_constants
        return {
            "scenario": {
                "generator": self.scenario_generator,
                "params": copy.deepcopy(self.scenario_params),
                "seed": self.scenario_seed,
                "theta0": copy.deepcopy(self.theta0_spec),
            },
            "trainer": {
                "algorithm": tr.algorithm,
                "step_rule": tr.step_rule,
                "eta": tr.eta,
                "horizon": tr.horizon,
                "seed": tr.seed,
                "eps_floor": tr.eps_floor,
                "relaxed_constants": None if constants is None else dict(constants._asdict()),
            },
            "diagnostics": {
                "snapshot_cadence": self.snapshot_cadence,
                "phase_cadence": self.phase_cadence,
                "threshold": self.threshold,
                "per_prompt_columns": self.per_prompt_columns,
            },
            "output": {"dir": self.output_dir, "formats": list(self.formats)},
        }

    @property
    def content_hash(self) -> str:
        canonical = json.dumps(self.echo, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    _check_keys(raw, ("scenario", "trainer", "diagnostics", "output"), "")
    for required in ("scenario", "trainer"):
        if required not in raw:
            _fail("", f"missing required block {required!r}")

    sc = _get(raw, "scenario", dict, "")
    _check_keys(sc, ("generator", "params", "seed", "theta0"), "scenario")
    generator = _get(sc, "generator", str, "scenario")
    if generator not in GENERATORS:
        hint = difflib.get_close_matches(generator, GENERATORS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        _fail("scenario.generator", f"unknown generator {generator!r}{suffix}")
    params = _get(sc, "params", dict, "scenario", DEFAULTS["scenario"]["params"])
    sc_seed = _get(sc, "seed", int, "scenario", DEFAULTS["scenario"]["seed"])
    theta0 = _get(sc, "theta0", dict, "scenario", dict(DEFAULTS["scenario"]["theta0"]))
    _check_keys(theta0, ("kind", "targets", "values"), "scenario.theta0")
    kind = _get(theta0, "kind", str, "scenario.theta0")
    if kind not in THETA0_KINDS:
        _fail("scenario.theta0.kind", f"unknown kind {kind!r} (valid: {', '.join(THETA0_KINDS)})")
    if kind == "difficulty_profile" and "targets" not in theta0:
        _fail("scenario.theta0", "difficulty_profile needs a 'targets' list")
    if kind == "values" and "values" not in theta0:
        _fail("scenario.theta0", "kind 'values' needs a 'values' list")

    tr = _get(raw, "trainer", dict, "")
    _check_keys(
        tr,
        ("algorithm", "step_rule", "eta", "horizon", "seed", "eps_floor", "relaxed_constants"),
        "trainer",
    )
    algorithm = _get(tr, "algorithm", str, "trainer")
    horizon = _get(tr, "horizon", int, "trainer")
    if horizon < 1:
        _fail("trainer.horizon", "horizon must be >= 1")
    tr_seed = _get(tr, "seed", int, "trainer")
    step_rule = _get(tr, "step_rule", str, "trainer", DEFAULTS["trainer"]["step_rule"])
    eta = _get(tr, "eta", float, "trainer", DEFAULTS["trainer"]["eta"])
    eps_floor = _get(tr, "eps_floor", float, "trainer", DEFAULTS["trainer"]["eps_floor"])
    relaxed = _get(tr, "relaxed_constants", dict, "trainer", DEFAULTS["trainer"]["relaxed_constants"])
    constants = None
    if relaxed is not None:
        _check_keys(relaxed, ("m", "r1", "r2"), "trainer.relaxed_constants")
        constants = RelaxedConstants(
            m=_get(relaxed, "m", float, "trainer.relaxed_constants"),
            r1=_get(relaxed, "r1", float, "trainer.relaxed_constants"),
            r2=_get(relaxed, "r2", float, "trainer.relaxed_constants"),
        )
    try:
        trainer = TrainerConfig(
            algorithm=algorithm,
            horizon=horizon,
            seed=tr_seed,
            step_rule=step_rule,
            eta=eta,
            eps_floor=eps_floor,
            relaxed_constants=constants,
        )
    except ValueError as exc:
        raise ConfigError(f"trainer: {exc}") from None

    di = _get(raw, "diagnostics", dict, "", {})
    _check_keys(di, ("snapshot_cadence", "phase_cadence", "threshold", "per_prompt_columns"), "diagnostics")
    cadence = _get(di, "snapshot_cadence", int, "diagnostics", DEFAULTS["diagnostics"]["snapshot_cadence"])
    if cadence < 1:
        _fail("diagnostics.snapshot_cadence", "must be >= 1")
    cadence = min(cadence, horizon)  # cadence caps at the horizon
    phase_cadence = _get(di, "phase_cadence", int, "diagnostics", DEFAULTS["diagnostics"]["phase_cadence"])
    if phase_cadence < 0:
        _fail("diagnostics.phase_cadence", "must be >= 0 (0 disables the timeline)")
    threshold = _get(di, "threshold", float, "diagnostics", DEFAULTS["diagnostics"]["threshold"])
    if not 0.0 < threshold <= 1.0:
        _fail("diagnostics.threshold", "must lie in (0, 1]")
    per_prompt = _get(di, "per_prompt_columns", bool, "diagnostics", DEFAULTS["diagnostics"]["per_prompt_columns"])

    out = _get(raw, "output", dict, "", {})
    _check_keys(out, ("dir", "formats"), "output")
    out_dir = _get(out, "dir", str, "output", DEFAULTS["output"]["dir"])
    formats = _get(out, "formats", list, "output", list(DEFAULTS["output"]["formats"]))
    for fmt in formats:
        if fmt not in FORMATS:
            _fail("output.formats", f"unknown format {fmt!r} (valid: {', '.join(FORMATS)})")

    return ExperimentConfig(
        scenario_generator=generator,
        scenario_params=dict(params),
        scenario_seed=sc_seed,
        theta0_spec=dict(theta0),
        trainer=trainer,
        snapshot_cadence=cadence,
        phase_cadence=phase_cadence,
        threshold=threshold,
        per_prompt_columns=per_prompt,
        output_dir=out_dir,
        formats=tuple(formats),
    )


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # text that is not UTF-8, or an integer literal too long for int()
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config_dict(raw)


def _call_generator(fn, params: dict, path: str, allowed: tuple[str, ...], **extra):
    _check_keys(params, allowed, path)
    try:
        return fn(**params, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_instance(cfg: ExperimentConfig) -> tuple[FeatureSet, np.ndarray]:
    """Materialize the scenario: the instance and its initial parameters."""
    rng = stream_rng(cfg.scenario_seed, SCENARIO_STREAM)
    params = cfg.scenario_params
    gen = cfg.scenario_generator
    theta0 = None
    if gen == "orthogonal_blocks":
        fs = _call_generator(
            orthogonal_blocks, params, "scenario.params", ("n", "K", "block_dim", "scale"), rng=rng
        )
    elif gen == "random_features":
        fs = _call_generator(
            random_features, params, "scenario.params", ("n", "K", "d", "overlap"), rng=rng
        )
    elif gen == "difficulty_preset":
        result = _call_generator(
            difficulty_preset, params, "scenario.params", ("n", "K", "block_dim", "scale"),
            seed=cfg.scenario_seed,
        )
        fs, theta0, _ = result
    else:
        if "path" not in params:
            raise ConfigError("scenario.params: instance_file needs a 'path'")
        _check_keys(params, ("path",), "scenario.params")
        fs = load_instance(params["path"])
    try:
        check_scale(fs)
    except InstanceFormatError as exc:
        raise ConfigError(f"scenario.params: {exc}") from None

    spec = cfg.theta0_spec
    kind = spec["kind"]
    if kind == "default":
        if theta0 is None:
            theta0 = np.zeros(fs.d)
    elif kind == "zeros":
        theta0 = np.zeros(fs.d)
    elif kind == "difficulty_profile":
        targets = np.asarray(spec["targets"], dtype=np.float64)
        if targets.size == 1:
            targets = np.full(fs.n, targets.item())
        try:
            theta0 = difficulty_profile(fs, targets)
        except ValueError as exc:
            raise ConfigError(f"scenario.theta0: {exc}") from None
    else:
        values = np.asarray(spec["values"], dtype=np.float64)
        if values.shape != (fs.d,):
            raise ConfigError(f"scenario.theta0.values: expected {fs.d} entries, got {values.size}")
        if not np.isfinite(values).all():
            raise ConfigError("scenario.theta0.values: contains non-finite values")
        theta0 = values
    return fs, theta0
