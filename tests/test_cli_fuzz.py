"""Generated CLI inputs end in a documented exit code, never a traceback.

`diagnose` reads generated instance files (feature magnitudes from 1e-300 to
1e300, bad headers, truncated rows) and theta files; `run` reads generated
configs with horizons up to 50 (NaN and infinite eps_floor, eta and theta0
values among them), and `sweep` reads the same configs with generated seed
and algorithm lists.  Every call must return 0, 2, 3, 4 or 5,
and a sweep that repeats a seed or an algorithm, or names no algorithm, 2.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import strict_json
from rlvrlab.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

magnitudes = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 9.99),
    st.integers(-300, 300),
)
entries = st.one_of(st.just(0.0), magnitudes)


@st.composite
def instance_texts(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    lines = ["rlvrlab-instance", "format: 1", f"n: {n}", f"K: {K}", f"d: {d}"]
    lines.append("correct: " + " ".join(str(draw(st.integers(0, K))) for _ in range(n)))
    for i in range(n):
        lines.append(f"features {i}:")
        lines += [" ".join(repr(draw(entries)) for _ in range(d)) for _ in range(K)]
    fault = draw(st.sampled_from(["none", "none", "header", "truncated"]))
    if fault == "header":
        idx = draw(st.integers(0, 5))
        lines[idx] = draw(st.sampled_from(["", "rlvrlab-instance", "format: 2", "n: x", "K: -1", "d: 1 2"]))
    elif fault == "truncated":
        lines = lines[: draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n"


@st.composite
def theta_args(draw, tmp: Path):
    kind = draw(st.sampled_from(["default", "zeros", "profile", "file", "file"]))
    if kind != "file":
        return kind
    values = draw(st.lists(magnitudes, min_size=1, max_size=4))
    text = " ".join(repr(v) for v in values)
    if draw(st.booleans()):
        text += draw(st.sampled_from([" nan", " x", " inf"]))
    path = tmp / "theta.txt"
    path.write_text(text + "\n")
    return str(path)


@settings(max_examples=350, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_diagnose_generated_inputs_end_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        instance = tmp / "instance.txt"
        instance.write_text(data.draw(instance_texts()), encoding="ascii")
        theta = data.draw(theta_args(tmp))
        rc = main(["diagnose", "--instance", str(instance), "--theta", theta, "--out", str(tmp / "out")])
        assert rc in EXIT_CODES
        diagnosis = tmp / "out" / "diagnosis.json"
        if diagnosis.exists():
            strict_json(diagnosis.read_text())


scales = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))
# json.dumps writes these as NaN, Infinity and -Infinity, which parse_config reads
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def configs(draw, tmp: Path):
    generator = draw(st.sampled_from(["orthogonal_blocks", "random_features", "difficulty_preset", "instance_file"]))
    n, K, dim = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    if generator in ("orthogonal_blocks", "difficulty_preset"):
        params = {"n": n, "K": K, "block_dim": dim, "scale": draw(scales)}
    elif generator == "random_features":
        params = {"n": n, "K": K, "d": dim, "overlap": draw(st.floats(0.0, 1.0))}
    else:
        path = tmp / "instance.txt"
        path.write_text(draw(instance_texts()), encoding="ascii")
        params = {"path": str(path)}
    theta0 = draw(st.sampled_from([{"kind": "default"}, {"kind": "zeros"},
                                   {"kind": "difficulty_profile", "targets": [0.3]},
                                   {"kind": "values"}]))
    if theta0["kind"] == "values":
        theta0["values"] = draw(st.lists(st.one_of(st.just(1.0), non_finite), min_size=dim, max_size=dim))
    step_rule = draw(st.sampled_from(["theorem_default", "manual", "relaxed"]))
    trainer = {"algorithm": draw(st.sampled_from(["reinforce", "grpo"])),
               "horizon": draw(st.integers(1, 50)), "seed": draw(st.integers(0, 2**32)),
               "step_rule": step_rule, "eps_floor": draw(st.one_of(scales, non_finite))}
    if step_rule == "manual":
        trainer["eta"] = draw(st.one_of(scales, non_finite))
    if step_rule == "relaxed":
        trainer["relaxed_constants"] = {"m": draw(scales), "r1": draw(scales), "r2": draw(scales)}
    return {
        "scenario": {"generator": generator, "params": params, "seed": draw(st.integers(0, 9)), "theta0": theta0},
        "trainer": trainer,
        "diagnostics": {"phase_cadence": draw(st.sampled_from([0, 10]))},
        "output": {"formats": ["csv", "json", "svg"]},
    }


@settings(max_examples=350, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_run_generated_configs_end_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(data.draw(configs(tmp))))
        assert main(["run", "--config", str(config), "--out", str(tmp / "out")]) in EXIT_CODES


# "--seeds -1,2" reads as an option, so argparse itself rejects it with exit 2.
seed_lists = st.one_of(
    st.lists(st.integers(0, 2**32), min_size=2, max_size=3).map(lambda seeds: ",".join(map(str, seeds))),
    st.integers(0, 9).map(lambda seed: f"{seed},{seed}"),
    st.integers(0, 9).map(str),
    st.sampled_from(["", ",", " , "]),
    st.sampled_from(["a,b", "1.5,2", "0,x", "0x1,2"]),
    st.sampled_from(["-1,2", "3,-4"]),
)
algorithm_lists = st.one_of(
    st.lists(st.sampled_from(["reinforce", "grpo", "ppo"]), min_size=1, max_size=3).map(",".join),
    st.sampled_from([",", " , "]),
)


def _repeats_a_run(seeds: str, algorithms: str) -> bool:
    """A sweep is a set of runs: a repeated seed or algorithm, or no algorithm, is a config error."""
    try:
        seed_values = [int(s) for s in seeds.split(",") if s.strip() != ""]
    except ValueError:
        seed_values = []
    names = [a.strip() for a in algorithms.split(",") if a.strip()]
    return not names or len(set(seed_values)) < len(seed_values) or len(set(names)) < len(names)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sweep_generated_inputs_end_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(data.draw(configs(tmp))))
        seeds, algorithms = data.draw(seed_lists), data.draw(algorithm_lists)
        argv = ["sweep", "--config", str(config), "--seeds", seeds,
                "--algorithms", algorithms, "--out", str(tmp / "out")]
        code = _exit_code(argv)
        assert code in EXIT_CODES
        if _repeats_a_run(seeds, algorithms):
            assert code == 2
