"""Benchmark harness: sweeps, random ensembles, membership checks, error bars.

The sweep runs ``identify`` on the direct-cause and common-cause
realization of every grid point, producing one flat record per mechanism per
point.  It reports the alignment criterion for every point and, for points
near the ambiguous plane, the flipped-round distance.  In sampled mode the
reported quantities carry bootstrap standard deviations obtained by
resampling the observed counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .comb import DirectCause, Scenario, ShotCounts, make_oracle, pauli_vector
from .geometry import CC_TETRA, CC_VERTICES, DC_TETRA, DC_VERTICES, barycentric, plane_gap
from .identify import AlgoConfig, SECOND_ROUND_TARGET, alignment_scan, identify
# Unused here; bound so the per-layer benchmark tracer can wrap or count them on this module.
from .geometry import distance  # noqa: F401
from .identify import axis_candidates, modifier_from_axis, second_round  # noqa: F401
from .linalg import pauli
from .scenarios import bell_diagonal, edge_cc, edge_dc, haar_unitary, plane_cc, plane_dc, random_state

__all__ = [
    "SweepRecord",
    "ConfusionMatrix",
    "TetraReport",
    "CSV_COLUMNS",
    "CSV_SCHEMA_VERSION",
    "bootstrap_errorbars",
    "exact_margin",
    "run_sweep",
    "run_random_bench",
    "run_tetra_check",
    "sweep_records_to_csv",
    "sweep_summary",
]

CSV_SCHEMA_VERSION = "qcausal-sweep-v1"
CSV_COLUMNS = (
    "family,param,mechanism,C11,C22,C33,round,criterion,distance,verdict,N,"
    "std_criterion,std_distance"
)


@dataclass(eq=False)
class SweepRecord:
    """One mechanism at one grid point of a sweep family."""

    family: str
    param: str
    sort_key: tuple
    mechanism: str
    correlations: tuple
    rounds_used: int
    criterion: float
    distance: float | None
    verdict: str
    shots: int
    std_criterion: float | None = None
    std_distance: float | None = None


@dataclass
class ConfusionMatrix:
    """Verdict tallies of a random benchmark, with margin-based exclusions."""

    dc_as_dc: int = 0
    dc_as_cc: int = 0
    cc_as_dc: int = 0
    cc_as_cc: int = 0
    excluded_dc: int = 0
    excluded_cc: int = 0

    @property
    def total(self) -> int:
        return (
            self.dc_as_dc + self.dc_as_cc + self.cc_as_dc + self.cc_as_cc
            + self.excluded_dc + self.excluded_cc
        )

    @property
    def included(self) -> int:
        return self.dc_as_dc + self.dc_as_cc + self.cc_as_dc + self.cc_as_cc

    @property
    def accuracy(self) -> float:
        if self.included == 0:
            return float("nan")
        return (self.dc_as_dc + self.cc_as_cc) / self.included

    def to_dict(self) -> dict:
        return {
            "dc_as_dc": self.dc_as_dc,
            "dc_as_cc": self.dc_as_cc,
            "cc_as_dc": self.cc_as_dc,
            "cc_as_cc": self.cc_as_cc,
            "excluded_dc": self.excluded_dc,
            "excluded_cc": self.excluded_cc,
            "included": self.included,
            "total": self.total,
            "accuracy": self.accuracy,
        }


@dataclass
class TetraReport:
    """Membership audit of sampled mechanisms against their tetrahedra."""

    samples: int
    dc_violations: int
    cc_violations: int
    worst_dc_weight: float
    worst_cc_weight: float
    pauli_vertices_ok: bool
    bell_vertices_ok: bool

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "dc_violations": self.dc_violations,
            "cc_violations": self.cc_violations,
            "worst_dc_weight": self.worst_dc_weight,
            "worst_cc_weight": self.worst_cc_weight,
            "pauli_vertices_ok": self.pauli_vertices_ok,
            "bell_vertices_ok": self.bell_vertices_ok,
        }


# ---------------------------------------------------------------------------
# Bootstrap error bars
# ---------------------------------------------------------------------------

def bootstrap_errorbars(
    counts: Sequence[ShotCounts],
    derive: Callable[[np.ndarray], np.ndarray] | None = None,
    resamples: int = 1000,
    seed=None,
) -> np.ndarray:
    """Standard deviations of derived quantities under count resampling.

    Counts are resampled multinomially at their empirical frequencies, and
    ``derive`` (default: identity) maps the ``(resamples, settings)`` array of
    recomputed correlations to ``(resamples,)`` or ``(resamples, m)`` quantities.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one setting of counts")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if any(c.shots < 1 for c in counts):
        raise ValueError("cannot bootstrap zero-shot counts")
    rng = np.random.default_rng(seed)
    corr_samples = np.empty((resamples, len(counts)))
    for j, c in enumerate(counts):
        draws = rng.multinomial(c.shots, c.frequencies(), size=resamples)
        corr_samples[:, j] = (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / c.shots
    if derive is None:
        values = corr_samples
    else:
        values = np.asarray(derive(corr_samples), dtype=float).reshape(resamples, -1)
    return values.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _evaluate_scenario(scenario, config, shots, seed, resamples):
    """Criterion, distance, verdict and bootstrap stds for one mechanism."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    oracle_seed, bootstrap_seed = seed.spawn(2)
    oracle = make_oracle(scenario, shots=shots, seed=oracle_seed)
    result = identify(oracle, config)
    p0 = oracle.history[0].correlations
    if result.rounds_used == 2:
        # The flipped round never measures the alignment criterion; one scan
        # after the verdict fills the criterion column so the curves are complete.
        aligned = min(alignment_scan(oracle, p0, config), key=lambda e: e.criterion)
        criterion, criterion_counts = aligned.criterion, aligned.counts
        dist = result.criterion_value
    else:
        criterion, criterion_counts = result.criterion_value, result.counts
        dist = None

    std_criterion = None
    std_distance = None
    if shots:
        rng = np.random.default_rng(bootstrap_seed)
        std_criterion = float(
            bootstrap_errorbars(
                criterion_counts, derive=lambda c: 1.0 - c[:, 2], resamples=resamples, seed=rng
            )[0]
        )
        if dist is not None:
            std_distance = float(
                bootstrap_errorbars(
                    result.counts,
                    derive=lambda c: np.linalg.norm(c - SECOND_ROUND_TARGET, axis=1),
                    resamples=resamples,
                    seed=rng,
                )[0]
            )
    return p0, result.rounds_used, criterion, dist, result.verdict, std_criterion, std_distance


def _sweep_task(task):
    family, param, sort_key, mechanism, scenario, shots, seed, config, resamples = task
    p0, rounds_used, criterion, dist, verdict, std_c, std_d = _evaluate_scenario(
        scenario, config, shots, seed, resamples
    )
    return SweepRecord(
        family=family,
        param=param,
        sort_key=sort_key,
        mechanism=mechanism,
        correlations=tuple(float(x) for x in p0),
        rounds_used=rounds_used,
        criterion=criterion,
        distance=dist,
        verdict=verdict,
        shots=shots,
        std_criterion=std_c,
        std_distance=std_d,
    )


def _edge_grid(points: int):
    for a in np.linspace(0.0, 1.0, points):
        a = float(a)
        yield f"{a:.10g}", (a,), {"dc": edge_dc(a), "cc": edge_cc(a)}


def _plane_grid(denominator: int):
    d = denominator
    for i in range(d + 1):
        for j in range(d + 1 - i):
            k = d - i - j
            target = np.array([i, j, k], dtype=float) / d
            weights = np.array([
                (target[0] + target[2]) / 2.0,
                (target[1] + target[2]) / 2.0,
                (target[0] + target[1]) / 2.0,
            ])
            param = f"{target[0]:.10g}:{target[1]:.10g}:{target[2]:.10g}"
            yield param, tuple(target), {
                "dc": plane_dc(np.sqrt(target)),
                "cc": plane_cc(weights),
            }


def run_sweep(
    family: str,
    grid: int | None = None,
    shots: int = 0,
    seed=None,
    config: AlgoConfig | None = None,
    resamples: int = 1000,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Run one sweep family over its parameter grid, both mechanisms per point.

    ``grid`` is the number of edge points (default 101) or the barycentric
    lattice denominator of the plane family (default 10).  Records are
    returned ordered by parameter then mechanism regardless of scheduling.
    """
    config = config or AlgoConfig()
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if family == "edge":
        grid_iter = _edge_grid(101 if grid is None else int(grid))
    elif family == "plane":
        grid_iter = _plane_grid(10 if grid is None else int(grid))
    else:
        raise ValueError(f"unknown sweep family {family!r}")

    tasks = []
    seeds = np.random.SeedSequence(seed)
    for param, sort_key, mechanisms in grid_iter:
        for mechanism in ("dc", "cc"):
            tasks.append((family, param, sort_key, mechanism, mechanisms[mechanism], shots, None, config, resamples))
    children = seeds.spawn(len(tasks))
    tasks = [t[:6] + (children[i],) + t[7:] for i, t in enumerate(tasks)]

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_sweep_task, tasks, chunksize=8))
    else:
        records = [_sweep_task(t) for t in tasks]
    records.sort(key=lambda r: (r.family, r.sort_key, r.mechanism))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def sweep_records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records as CSV with a versioned schema comment."""
    lines = [f"# schema: {CSV_SCHEMA_VERSION}", CSV_COLUMNS]
    for r in records:
        c11, c22, c33 = r.correlations
        lines.append(
            ",".join(
                [
                    r.family,
                    r.param,
                    r.mechanism,
                    _fmt(c11),
                    _fmt(c22),
                    _fmt(c33),
                    str(r.rounds_used),
                    _fmt(r.criterion),
                    _fmt(r.distance),
                    r.verdict,
                    str(r.shots),
                    _fmt(r.std_criterion),
                    _fmt(r.std_distance),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep_record_to_dict(r: SweepRecord) -> dict:
    return {
        "family": r.family,
        "param": r.param,
        "mechanism": r.mechanism,
        "C11": r.correlations[0],
        "C22": r.correlations[1],
        "C33": r.correlations[2],
        "round": r.rounds_used,
        "criterion": r.criterion,
        "distance": r.distance,
        "verdict": r.verdict,
        "N": r.shots,
        "std_criterion": r.std_criterion,
        "std_distance": r.std_distance,
    }


def sweep_summary(records: Sequence[SweepRecord]) -> dict:
    """Aggregate statistics of a sweep, per mechanism."""
    out: dict = {"schema": CSV_SCHEMA_VERSION, "n_records": len(records), "mechanisms": {}}
    for mech in ("dc", "cc"):
        rows = [r for r in records if r.mechanism == mech]
        if not rows:
            continue
        dists = [r.distance for r in rows if r.distance is not None]
        out["mechanisms"][mech] = {
            "n": len(rows),
            "verdict_dc": sum(1 for r in rows if r.verdict == "DC"),
            "verdict_cc": sum(1 for r in rows if r.verdict == "CC"),
            "max_criterion": max(r.criterion for r in rows),
            "min_criterion": min(r.criterion for r in rows),
            "max_distance": max(dists) if dists else None,
            "min_distance": min(dists) if dists else None,
        }
    return out


# ---------------------------------------------------------------------------
# Random benchmark
# ---------------------------------------------------------------------------

def exact_margin(scenario: Scenario, config: AlgoConfig | None = None) -> float:
    """Distance of the exact-mode decision quantities to their thresholds.

    The minimum over the plane-gap comparison and the criterion used by the
    branch actually taken; scenarios with a small margin flip verdicts under
    sampling noise and are excluded from accuracy tallies.
    """
    config = config or AlgoConfig()
    oracle = make_oracle(scenario)
    result = identify(oracle, config)
    threshold = config.epsilon_prime if result.rounds_used == 2 else config.epsilon
    return float(min(
        abs(plane_gap(oracle.history[0].correlations) - config.delta),
        abs(result.criterion_value - threshold),
    ))


def run_random_bench(
    n_scenarios: int,
    shots: int = 0,
    eta: float = 0.0,
    seed=None,
    config: AlgoConfig | None = None,
    cc_kind: str = "mixed",
) -> ConfusionMatrix:
    """Identify a half/half ensemble of random channels and random states.

    Scenarios whose exact-mode margin is below ``eta`` are counted as
    excluded rather than scored.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    config = config or AlgoConfig()
    n_dc = n_scenarios // 2
    children = np.random.SeedSequence(seed).spawn(2 * n_scenarios)
    cm = ConfusionMatrix()
    for i in range(n_scenarios):
        truth = "DC" if i < n_dc else "CC"
        scenario_seed, oracle_seed = children[2 * i], children[2 * i + 1]
        if truth == "DC":
            scenario = haar_unitary(scenario_seed)
        else:
            scenario = random_state(cc_kind, scenario_seed)
        if eta > 0 and exact_margin(scenario, config) < eta:
            if truth == "DC":
                cm.excluded_dc += 1
            else:
                cm.excluded_cc += 1
            continue
        verdict = identify(make_oracle(scenario, shots=shots, seed=oracle_seed), config).verdict
        if truth == "DC":
            if verdict == "DC":
                cm.dc_as_dc += 1
            else:
                cm.dc_as_cc += 1
        else:
            if verdict == "CC":
                cm.cc_as_cc += 1
            else:
                cm.cc_as_dc += 1
    return cm


# ---------------------------------------------------------------------------
# Tetrahedron membership audit
# ---------------------------------------------------------------------------

def run_tetra_check(samples: int, seed=None, tol: float = 1e-7) -> TetraReport:
    """Sample mechanisms and audit membership of their correlation vectors."""
    if samples < 1:
        raise ValueError("need at least one sample")
    children = np.random.SeedSequence(seed).spawn(2 * samples)
    dc_viol = cc_viol = 0
    worst_dc = worst_cc = 0.0
    for i in range(samples):
        p = pauli_vector(haar_unitary(children[2 * i]))
        w = barycentric(p, DC_TETRA).min()
        worst_dc = max(worst_dc, -min(0.0, float(w)))
        if w < -tol:
            dc_viol += 1
        p = pauli_vector(random_state("mixed", children[2 * i + 1]))
        w = barycentric(p, CC_TETRA).min()
        worst_cc = max(worst_cc, -min(0.0, float(w)))
        if w < -tol:
            cc_viol += 1

    pauli_ok = all(
        np.allclose(pauli_vector(DirectCause(pauli(k))), DC_VERTICES[k], atol=1e-9)
        for k in range(4)
    )
    bell_ok = all(
        np.allclose(
            pauli_vector(bell_diagonal(np.eye(4)[k])), CC_VERTICES[k], atol=1e-9
        )
        for k in range(4)
    )
    return TetraReport(
        samples=samples,
        dc_violations=dc_viol,
        cc_violations=cc_viol,
        worst_dc_weight=worst_dc,
        worst_cc_weight=worst_cc,
        pauli_vertices_ok=pauli_ok,
        bell_vertices_ok=bell_ok,
    )
