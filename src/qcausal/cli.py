"""Command-line interface.

Subcommands: ``sweep``, ``identify``, ``random-bench``, ``tetra-check``.
Common flags (``--mode``, ``--seed``, thresholds, ``--out``, ``--format``)
can also be supplied through ``QCAUSAL_*`` environment variables; explicit
flags win.  ``identify`` exits 0 for a direct-cause verdict, 1 for a
common-cause verdict and 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bench import (
    run_random_bench,
    run_sweep,
    run_tetra_check,
    sweep_record_to_dict,
    sweep_records_to_csv,
    sweep_summary,
)
from .comb import ScenarioFormatError, _complex_to_pairs, load_scenario, make_oracle
from .identify import AlgoConfig, identify

ENV_PREFIX = "QCAUSAL_"

EXIT_DC = 0
EXIT_CC = 1
EXIT_ERROR = 2


def _env(name: str, fallback=None, kind=str):
    text = os.environ.get(ENV_PREFIX + name)
    try:
        return fallback if text is None else kind(text)
    except ValueError:
        raise ValueError(f"{ENV_PREFIX}{name}={text!r} is not a valid {kind.__name__}") from None


def _parse_mode(text: str) -> int:
    """'exact' -> 0 shots; 'shots=N' -> N."""
    if text == "exact":
        return 0
    if text.startswith("shots="):
        shots = int(text[len("shots="):])
        if shots < 1:
            raise ValueError("shot count must be >= 1")
        return shots
    raise ValueError(f"mode must be 'exact' or 'shots=N', got {text!r}")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", default=_env("MODE", "exact"), help="exact | shots=N")
    parser.add_argument("--seed", type=int, default=_env("SEED", None, int))
    parser.add_argument("--epsilon", type=float, default=_env("EPSILON", 0.075, float))
    parser.add_argument("--delta", type=float, default=_env("DELTA", 0.15, float))
    parser.add_argument(
        "--epsilon-prime", type=float, default=_env("EPSILON_PRIME", 1.0 / math.sqrt(3.0), float)
    )
    parser.add_argument("--out", default=_env("OUT"), help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=_env("FORMAT", "csv"))


def _config_from(args) -> AlgoConfig:
    return AlgoConfig(epsilon=args.epsilon, delta=args.delta, epsilon_prime=args.epsilon_prime)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Identify direct-cause vs common-cause structure of two-point qubit correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a benchmark family over its parameter grid")
    p.add_argument("--family", choices=("edge", "plane"), required=True)
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        help="edge: number of points (default 101); plane: lattice denominator (default 10)",
    )
    p.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples per record")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common(p)

    p = sub.add_parser("identify", help="classify one scenario file")
    p.add_argument("scenario", help="path to a scenario JSON file")
    _add_common(p)

    p = sub.add_parser("random-bench", help="confusion matrix over random scenarios")
    p.add_argument("--scenarios", type=int, default=1000)
    p.add_argument("--eta", type=float, default=0.0, help="exclude scenarios with exact margin < eta")
    p.add_argument("--cc-kind", choices=("mixed", "pure"), default="mixed")
    _add_common(p)

    p = sub.add_parser("tetra-check", help="membership audit of sampled mechanisms")
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p)

    return parser


def _cmd_sweep(args) -> int:
    shots = _parse_mode(args.mode)
    records = run_sweep(
        args.family,
        grid=args.grid,
        shots=shots,
        seed=args.seed,
        config=_config_from(args),
        resamples=args.resamples,
        jobs=args.jobs,
    )
    summary = sweep_summary(records)
    if args.format == "csv":
        _emit(sweep_records_to_csv(records), args.out)
        summary_path = (args.out + ".summary.json") if args.out else None
        text = json.dumps(summary, indent=2) + "\n"
        if summary_path:
            with open(summary_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        doc = {"summary": summary, "records": [sweep_record_to_dict(r) for r in records]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_identify(args) -> int:
    shots = _parse_mode(args.mode)
    scenario = load_scenario(args.scenario)
    oracle = make_oracle(scenario, shots=shots, seed=args.seed)
    config = _config_from(args)
    result = identify(oracle, config)
    doc = {
        "verdict": result.verdict,
        "rounds_used": result.rounds_used,
        "criterion_value": result.criterion_value,
        "query_count": result.query_count,
        "shots": shots,
        "thresholds": {
            "epsilon": config.epsilon,
            "delta": config.delta,
            "epsilon_prime": config.epsilon_prime,
        },
        "winning_modifier": None if result.winning_modifier is None
        else _complex_to_pairs(result.winning_modifier),
        "trail": [
            {
                "modifier_x": _complex_to_pairs(rec.modifier_x),
                "modifier_y": _complex_to_pairs(rec.modifier_y),
                "correlations": [float(v) for v in rec.correlations],
            }
            for rec in oracle.history
        ],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_DC if result.verdict == "DC" else EXIT_CC


def _cmd_random_bench(args) -> int:
    shots = _parse_mode(args.mode)
    cm = run_random_bench(
        args.scenarios,
        shots=shots,
        eta=args.eta,
        seed=args.seed,
        config=_config_from(args),
        cc_kind=args.cc_kind,
    )
    _emit(json.dumps(cm.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_tetra_check(args) -> int:
    report = run_tetra_check(args.samples, seed=args.seed)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    clean = report.dc_violations == 0 and report.cc_violations == 0
    return 0 if clean and report.pauli_vertices_ok and report.bell_vertices_ok else 1


def main(argv=None) -> int:
    handlers = {
        "sweep": _cmd_sweep,
        "identify": _cmd_identify,
        "random-bench": _cmd_random_bench,
        "tetra-check": _cmd_tetra_check,
    }
    try:
        # inside the guard: the parser reads its defaults from QCAUSAL_* variables
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ScenarioFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
