"""Command-line surface: run / sweep / diagnose / verify.

Exit codes: 0 success, 2 configuration error (including a malformed or
unreadable input file), 3 numerical abort, 4 verification failure,
5 assumption violation (diagnose only).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import FORMATS, ConfigError, build_instance, parse_config
from .instancefile import InstanceFormatError, load_instance
from .runner import _jsonable, _resolve_out_dir, diagnose_report, run_experiment, run_sweep
from .scenarios import DIFFICULTY_TARGETS, difficulty_profile
from .trainers import NumericalAbort
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4
EXIT_VIOLATION = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlvrlab",
        description="Desk-scale lab for exact-gradient REINFORCE / on-policy GRPO "
        "on log-linear softmax policies with one-hot rewards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured experiment")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    run_p.add_argument("--seed", type=int, default=None, help="override trainer.seed")
    run_p.add_argument("--format", default=None, help="comma-separated subset of csv,json,svg")

    sweep_p = sub.add_parser("sweep", help="seed x algorithm cross product with comparison table")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--seeds", required=True, help="comma-separated distinct trainer seeds (>= 2)")
    sweep_p.add_argument("--algorithms", default="reinforce,grpo")
    sweep_p.add_argument("--out", default=None)

    diag_p = sub.add_parser("diagnose", help="measure assumption constants for an instance")
    src = diag_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config whose scenario to diagnose")
    src.add_argument("--instance", help="instance file to diagnose")
    diag_p.add_argument(
        "--theta",
        default="default",
        help="'default' (the config's own initializer, zeros for --instance), "
        "'zeros', 'profile' (cyclic difficulty targets), or a path to a "
        "whitespace-separated vector file",
    )
    diag_p.add_argument("--out", default=None, help="write diagnosis.json here")

    verify_p = sub.add_parser("verify", help="run the full acceptance battery")
    verify_p.add_argument("--out", default="verify_out", help="work directory for run artifacts")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    formats = tuple(args.format.split(",")) if args.format else None
    if formats:
        for fmt in formats:
            if fmt not in FORMATS:
                raise ConfigError(f"--format: unknown format {fmt!r}")
    try:
        result = run_experiment(cfg, out_dir=args.out, seed_override=args.seed, formats_override=formats)
    except NumericalAbort as abort:
        print(f"numerical abort after iteration {abort.t}; see abort.json", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in result.artifacts:
        print(path)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from None
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    try:
        result = run_sweep(cfg, seeds=seeds, algorithms=algorithms, out_dir=args.out)
    except NumericalAbort as abort:
        print(f"numerical abort after iteration {abort.t}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for path in result.artifacts:
        print(path)
    medians = result.summary["medians"]
    for alg, med in medians.items():
        print(f"{alg}: median iterations-to-threshold {med:.0f}")
    if "grpo_win_fraction" in result.summary:
        note = " (low signal)" if result.summary.get("low_signal") else ""
        print(f"grpo win fraction: {result.summary['grpo_win_fraction']:.2f}{note}")
    return EXIT_OK


def _load_theta(arg: str, fs, default: np.ndarray) -> np.ndarray:
    """Resolve --theta.  The keywords take precedence over a file of the same name."""
    if arg == "default":
        return default
    if arg == "zeros":
        return np.zeros(fs.d)
    if arg == "profile":
        targets = np.array([DIFFICULTY_TARGETS[i % len(DIFFICULTY_TARGETS)] for i in range(fs.n)])
        try:
            return difficulty_profile(fs, targets)
        except ValueError as exc:
            raise ConfigError(f"--theta profile: {exc}") from None
    try:
        values = np.loadtxt(arg, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"--theta file {arg}: {exc}") from None
    if values.shape != (fs.d,):
        raise ConfigError(f"--theta file {arg}: expected {fs.d} values, got {values.shape}")
    if not np.isfinite(values).all():
        raise ConfigError(f"--theta file {arg}: contains non-finite values")
    return values


def _cmd_diagnose(args) -> int:
    if args.config:
        fs, default_theta = build_instance(parse_config(args.config))
    else:
        fs = load_instance(args.instance)
        default_theta = np.zeros(fs.d)
    # Pairwise assumptions (cosines, m_hat) are undefined for one prompt.
    if fs.n < 2:
        raise ConfigError(f"diagnose needs at least two prompts, the instance has n = {fs.n}")
    theta = _load_theta(args.theta, fs, default_theta)
    report = diagnose_report(fs, theta)
    # Strict JSON: undefined values (NaN) are written as null, and a value
    # that overflowed to infinity is a numerical abort.
    try:
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise FloatingPointError("a diagnosis value overflows double range") from None
    if args.out:
        out = _resolve_out_dir(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diagnosis.json").write_text(text + "\n", encoding="ascii")
        print(out / "diagnosis.json")
    else:
        print(text)
    if report["assumptions"]["m_status"] == "violated":
        print(
            f"cross-prompt interaction assumption violated for pairs "
            f"{report['assumptions']['m_violations']}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    # absolute, so that the runs inside verify do not apply a relative root again
    out = _resolve_out_dir(args.out).absolute()
    results = run_all(out)
    width = max(len(r.name) for r in results)
    for r in results:
        limit = f" (limit {r.limit_s:.0f}s)" if r.limit_s else ""
        print(f"[{r.status:>15}] {r.cid:>2}. {r.name:<{width}} {r.elapsed_s:7.2f}s{limit}  {r.detail}")
    report = [
        {
            "criterion": r.cid,
            "name": r.name,
            "passed": r.passed,
            "expected_failure": r.expected_failure,
            "elapsed_s": r.elapsed_s,
            "limit_s": r.limit_s,
            "within_budget": None if r.limit_s is None else r.elapsed_s <= r.limit_s,
            "detail": r.detail,
        }
        for r in results
    ]
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    n_pass = sum(r.passed for r in results)
    n_expected = sum((not r.passed) and r.expected_failure for r in results)
    print(f"{n_pass}/{len(results)} criteria passed, {n_expected} expected failure(s)")
    # Expected failures are documented analysis results, not regressions;
    # anything else failing is.
    unexpected = any(not (r.passed or r.expected_failure) for r in results)
    return EXIT_VERIFY if unexpected else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "diagnose": _cmd_diagnose,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        # diagnose at a theta whose logits overflow, or on features whose
        # interaction or bound values overflow
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
