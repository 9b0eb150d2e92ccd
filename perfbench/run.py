"""Benchmark of the qcausal CLI on three paper-reproduction workloads.

Run from the repository root:

    python3 perfbench/run.py --workload random-bench --seed 1 --seconds 30 --trace 0

Each round runs the workload's fixed CLI invocation in a fresh Python
process (``perfbench/child.py``), then checks its output
(``perfbench/checks.py``).  Round ``r`` passes the program the seed
``round_seed(seed, r)``, so the same ``--seed`` gives the same inputs and the
rounds of one run cover different draws of the workload's ensemble.  Rounds
repeat until the next one would end after ``--seconds``.  ``--trace 0``
reports the end-to-end metrics: set-up time and memory as medians over the
rounds, throughput over all of them, times as CPU time at reference speed
(``end_to_end``).
``--trace 1`` runs every round twice, untraced and traced, and reports the
per-layer metrics of the traced ones (``perfbench/tracing.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
SHOTS = 100_000
# CPU time of ``child.reference_cpu_s`` on an idle core of the machine the
# reference figures in the README come from.  Times are reported at the
# speed at which the reference takes this long; it sets the scale only.
REFERENCE_S = 0.17
# One BLAS thread: the child's CPU time is then the time of its one working
# thread, with no idle worker spinning on the other core.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class RandomBench:
    """Confusion matrix over half Haar channels, half Hilbert-Schmidt states."""

    scenarios: int = 200
    name = "random-bench"
    mechanism_spans = ("scenarios.haar_unitary", "scenarios.random_state")
    per_record = False

    @property
    def mechanisms(self) -> int:
        return self.scenarios

    def argv(self, seed: int, out: Path) -> list:
        return ["random-bench", "--scenarios", str(self.scenarios), "--mode", f"shots={SHOTS}",
                "--eta", "0.05", "--seed", str(seed), "--out", str(out)]

    def outputs(self, out: Path) -> list:
        return [out]

    def check(self, out: Path, seed: int) -> checks.CheckResult:
        return checks.check_random_bench(out.read_text(encoding="utf-8"), self.scenarios)


@dataclass(frozen=True)
class PlaneSweep:
    """Sampled sweep of the ambiguous plane on the barycentric lattice, CSV output."""

    grid: int = 10
    resamples: int = 1000
    name = "plane-sweep"
    mechanism_spans = ("comb.make_oracle",)
    per_record = True

    @property
    def mechanisms(self) -> int:
        return (self.grid + 1) * (self.grid + 2)

    def argv(self, seed: int, out: Path) -> list:
        return ["sweep", "--family", "plane", "--grid", str(self.grid), "--mode", f"shots={SHOTS}",
                "--resamples", str(self.resamples), "--seed", str(seed), "--out", str(out)]

    def outputs(self, out: Path) -> list:
        return [out, out.with_name(out.name + ".summary.json")]

    def check(self, out: Path, seed: int) -> checks.CheckResult:
        csv_path, summary_path = self.outputs(out)
        return checks.check_plane_sweep(csv_path.read_text(encoding="utf-8"),
                                        summary_path.read_text(encoding="utf-8"),
                                        self.grid, SHOTS)


@dataclass(frozen=True)
class TetraCheck:
    """Membership audit: one Haar channel and one mixed state per sample."""

    samples: int = 1000
    name = "tetra-check"
    mechanism_spans = ("scenarios.haar_unitary", "scenarios.random_state")
    per_record = False

    @property
    def mechanisms(self) -> int:
        return 2 * self.samples

    def argv(self, seed: int, out: Path) -> list:
        return ["tetra-check", "--samples", str(self.samples), "--seed", str(seed),
                "--out", str(out)]

    def outputs(self, out: Path) -> list:
        return [out]

    def check(self, out: Path, seed: int) -> checks.CheckResult:
        return checks.check_tetra(out.read_text(encoding="utf-8"), self.samples, seed)


WORKLOADS = {w.name: w for w in (RandomBench(), PlaneSweep(), TetraCheck())}


@dataclass
class Round:
    traced: bool
    mechanisms: int
    problems: list = field(default_factory=list)
    failed: int = 0
    setup_s: float = float("nan")
    work_s: float = float("nan")
    cpu_s: float = float("nan")
    reference_s: float = float("nan")
    rss_mb: float = float("nan")
    layers: dict | None = None


def _child(spec: dict) -> subprocess.CompletedProcess:
    """Run ``child.py`` with the spec."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QCAUSAL_")}
    env.update(BLAS_ENV)
    return subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def run_round(workload, seed: int, traced: bool, out_dir: Path) -> Round:
    out = out_dir / f"{workload.name}.out"
    spec = {
        "argv": workload.argv(seed, out),
        "trace": traced,
        "trace_out": str(out_dir / f"{workload.name}.spans.jsonl"),
        "mechanism_spans": list(workload.mechanism_spans),
        "per_record": workload.per_record,
    }
    rnd = Round(traced, workload.mechanisms)
    for path in workload.outputs(out):
        path.unlink(missing_ok=True)
    try:
        proc = _child(spec)
    except subprocess.TimeoutExpired:
        rnd.problems.append(f"no result within {CHILD_TIMEOUT_S} s")
        rnd.failed = rnd.mechanisms
        return rnd
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if proc.returncode != 0 or res is None:
        rnd.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if res is not None:
        rnd.setup_s = res["setup_cpu_s"]
        rnd.work_s = res["end"] - res["start"]
        rnd.cpu_s = res["cpu_s"]
        rnd.reference_s = (res["ref_before_s"] + res["ref_after_s"]) / 2
        rnd.rss_mb = res["peak_rss_kb"] / 1024.0
        rnd.layers = res.get("layers")
    try:
        result = workload.check(out, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result = checks.CheckResult([f"unreadable output: {exc!r}"])
    rnd.problems += result.problems
    failed = result.failed
    if rnd.layers is not None:
        # A mechanism whose verdict took more than 25 queries fails on its own.
        failed += rnd.layers["over_budget"]
        if rnd.layers["trace.unattributed_s"] > 0.02 * rnd.work_s:
            rnd.problems.append("spans leave more than 2% of the traced run unattributed")
    rnd.failed = rnd.mechanisms if rnd.problems else min(failed, rnd.mechanisms)
    return rnd


def round_seed(seed: int, index: int) -> int:
    """The program's ``--seed`` in round ``index`` of a run with ``--seed seed``.

    One fixed seed per run would make every round repeat the same draw of
    the ensemble.  On ``random-bench`` the share of scenarios that take the
    flipped round then moves the oracle queries per scenario, and with them
    the run's throughput, by about 10% from seed to seed (quartile distance
    over ten seeds at 200 scenarios).
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> list:
    """Run whole rounds until the next one would end after ``seconds``."""
    out_dir.mkdir(exist_ok=True)
    warm = _child({"argv": None})  # compiles bytecode; no user pays that every call
    if warm.returncode != 0:
        raise RuntimeError(f"qcausal.cli does not import: {warm.stderr.strip()[-500:]}")
    kinds = (False, True) if trace else (False,)
    rounds = []
    begin = time.perf_counter()
    for index in itertools.count():
        rounds += [run_round(workload, round_seed(seed, index), traced, out_dir)
                   for traced in kinds]
        elapsed = time.perf_counter() - begin
        if elapsed * (index + 2) / (index + 1) > seconds:
            return rounds


def end_to_end(rounds: list) -> dict:
    """Set-up time and peak memory as medians over the rounds; throughput over all of them.

    Both times are CPU time of the round's process, taken at reference
    speed: multiplied by ``REFERENCE_S`` over the CPU time of the round's
    reference computation (``child.reference_cpu_s``).  CPU time leaves out
    the time other tenants of a shared host hold the core, and the
    reference takes out the drift of the core's own speed; see the README.
    Throughput is the mechanisms of every round over the time of every
    round's ``qcausal.cli.main`` call, so every draw of the ensemble weighs
    by its work.
    """
    def scaled(r, seconds):
        return seconds * REFERENCE_S / r.reference_s

    return {
        "setup_s": {"value": statistics.median(scaled(r, r.setup_s) for r in rounds),
                    "unit": "s"},
        "mechanisms_per_s": {"value": sum(r.mechanisms for r in rounds)
                             / sum(scaled(r, r.cpu_s) for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in rounds), "unit": "MB"},
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def per_layer(rounds: list, units: dict) -> dict:
    traced = [r for r in rounds if r.traced and r.layers is not None]
    plain = [r for r in rounds if not r.traced]
    if not traced:
        return {}
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name in units if name in traced[0].layers}
    verdict_ms = [ms for r in traced for ms in r.layers["verdict_ms"]]
    if verdict_ms:
        values["identify.verdict_ms_p50"] = statistics.median(verdict_ms)
        # A 99th percentile needs ten samples beyond it; below that, report the median.
        values["identify.verdict_ms_p99"] = (
            statistics.quantiles(verdict_ms, n=100)[98] if len(verdict_ms) >= 1000
            else values["identify.verdict_ms_p50"])
    else:
        values["identify.verdict_ms_p50"] = values["identify.verdict_ms_p99"] = 0.0
    values["trace.overhead_s"] = (statistics.median(r.work_s for r in traced)
                                  - statistics.median(r.work_s for r in plain))
    values["repo.src_lines"] = src_lines()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _declared_units(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    rounds = measure(workload, seed, seconds, trace, out_dir)
    for i, rnd in enumerate(rounds):
        print(f"{workload.name} round {i}: traced={int(rnd.traced)} setup_s={rnd.setup_s:.4f} "
              f"work_s={rnd.work_s:.4f} cpu_s={rnd.cpu_s:.4f} "
              f"reference_s={rnd.reference_s:.4f} rss_mb={rnd.rss_mb:.2f} failed={rnd.failed}",
              file=sys.stderr)
        for problem in rnd.problems:
            print(f"{workload.name} round {i}: {problem}", file=sys.stderr)
    timed = [r for r in rounds if not math.isnan(r.cpu_s)] or rounds
    metrics = (per_layer(timed, _declared_units("per_layer")) if trace
               else end_to_end(timed))
    return {
        "correct": all(not r.problems for r in rounds),
        "attempted": sum(r.mechanisms for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None, workloads=None, out_dir: Path = OUT_DIR) -> int:
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcausal" / "cli.py").is_file():
        print(f"error: no qcausal sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace), out_dir)
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted = {result['attempted']}, failed = {result['failed']}, "
              f"correct = {result['correct']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
