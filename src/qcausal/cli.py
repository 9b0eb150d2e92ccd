"""Command-line interface.

Subcommands: ``sweep``, ``identify``, ``random-bench``, ``tetra-check``.
Each takes only the flags it reads: every subcommand takes ``--seed`` and
``--out``, all but ``tetra-check`` take ``--mode`` and the thresholds, and
only ``sweep`` takes ``--format``.  The flags are the only configuration:
the environment does not reach a run.
``identify`` exits 0 for a direct-cause verdict, 1 for a common-cause
verdict and 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from dataclasses import asdict

from .bench import (
    run_random_bench,
    run_sweep,
    run_tetra_check,
    sweep_records_to_csv,
    sweep_summary,
)
from .comb import make_oracle
from .identify import AlgoConfig, identify
from .scenarios import ScenarioFormatError, complex_to_pairs, load_scenario

EXIT_DC = 0
EXIT_CC = 1
EXIT_ERROR = 2


def _parse_mode(text: str) -> int:
    """'exact' -> 0 shots; 'shots=N' -> N, for any N >= 1 that ``int`` reads."""
    if text == "exact":
        return 0
    try:
        shots = int(text.removeprefix("shots=")) if text.startswith("shots=") else 0
    except ValueError:  # 'shots=1e5', 'shots=' and 'shots=2.5' among others
        shots = 0
    if shots < 1:
        raise ValueError(f"mode must be 'exact' or 'shots=N' with N a positive integer, got {reprlib.repr(text)}")
    return shots


def _parse_seed(text: str) -> int:
    """A ``--seed``: an integer that ``int`` reads and that is not negative, as ``numpy.random.SeedSequence`` needs."""
    error = argparse.ArgumentTypeError(f"expected a non-negative integer, got {reprlib.repr(text)}")
    try:
        seed = int(text)
    except ValueError:  # '1.5', 'x' and '' among others
        raise error from None
    if seed < 0:
        raise error
    return seed


def _add_seed_and_out(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=_parse_seed)
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_common(parser: argparse.ArgumentParser):
    """``--mode``, ``--seed``, ``--out`` and the thresholds, defaulting to ``AlgoConfig``'s."""
    defaults = AlgoConfig()
    parser.add_argument("--mode", default="exact", help="exact | shots=N")
    _add_seed_and_out(parser)
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon)
    parser.add_argument("--delta", type=float, default=defaults.delta)
    parser.add_argument("--epsilon-prime", type=float, default=defaults.epsilon_prime)


def _config_from(args) -> AlgoConfig:
    return AlgoConfig(epsilon=args.epsilon, delta=args.delta, epsilon_prime=args.epsilon_prime)


def _json(doc) -> str:
    # strict JSON: a NaN or infinity raises instead of printing a bare NaN token
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
    p.add_argument("--resamples", type=int, default=1000, help="at least 100; changes no output (delta-method deviations)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_cmd_sweep)
    _add_common(p)

    p = sub.add_parser("identify", help="classify one scenario file")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.set_defaults(run=_cmd_identify)
    _add_common(p)

    p = sub.add_parser("random-bench", help="confusion matrix over random scenarios")
    p.add_argument("--scenarios", type=int, default=1000)
    p.add_argument("--eta", type=float, default=0.0, help="exclude scenarios with exact margin < eta")
    p.add_argument("--cc-kind", choices=("mixed", "pure"), default="mixed")
    p.set_defaults(run=_cmd_random_bench)
    _add_common(p)

    p = sub.add_parser("tetra-check", help="membership audit of sampled mechanisms")
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(run=_cmd_tetra_check)
    _add_seed_and_out(p)

    return parser


def _cmd_sweep(args) -> int:
    shots = _parse_mode(args.mode)
    if args.resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {args.resamples}")
    records = run_sweep(args.family, grid=args.grid, shots=shots, seed=args.seed, config=_config_from(args))
    if args.format == "json":
        _emit(_json({"summary": sweep_summary(records), "records": [r._asdict() for r in records]}), args.out)
        return 0
    _emit(sweep_records_to_csv(records), args.out)
    if args.out:  # stdout holds the CSV alone; ``--format json`` carries the summary there
        _emit(_json(sweep_summary(records)), args.out + ".summary.json")
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
        "thresholds": asdict(config),  # field order: epsilon, delta, epsilon_prime
        "winning_modifier": None if result.winning_modifier is None
        else complex_to_pairs(result.winning_modifier),
        "trail": [
            {
                "modifier_x": complex_to_pairs(rec.modifier_x),
                "modifier_y": complex_to_pairs(rec.modifier_y),
                "correlations": [float(v) for v in rec.correlations],
            }
            for rec in oracle.history
        ],
    }
    for i, bound in result.skipped_bounds:  # the flip query of a frame left unprobed
        doc["trail"][i]["skipped_bound"] = bound
    _emit(_json(doc), args.out)
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
    _emit(_json(cm.to_dict()), args.out)
    return 0


def _cmd_tetra_check(args) -> int:
    report = run_tetra_check(args.samples, seed=args.seed)
    _emit(_json(asdict(report)), args.out)
    clean = report.dc_violations == 0 and report.cc_violations == 0
    return 0 if clean and report.pauli_vertices_ok and report.bell_vertices_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ScenarioFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
