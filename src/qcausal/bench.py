"""Benchmark harness: sweeps, random ensembles, membership checks, error bars.

The sweep runs ``identify`` on the direct-cause and common-cause
realization of every grid point, producing one flat record per mechanism per
point.  It reports the alignment criterion for every point and, for points
near the ambiguous plane, the flipped-round distance.  In sampled mode the
reported quantities carry bootstrap standard deviations obtained by
resampling the observed counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
    def included(self) -> int:
        return self.dc_as_dc + self.dc_as_cc + self.cc_as_dc + self.cc_as_cc

    @property
    def total(self) -> int:
        return self.included + self.excluded_dc + self.excluded_cc

    @property
    def accuracy(self) -> float:
        if self.included == 0:
            return float("nan")
        return (self.dc_as_dc + self.cc_as_cc) / self.included

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "included": self.included,
            "total": self.total,
            # JSON has no NaN: an ensemble with nothing scored has no accuracy
            "accuracy": self.accuracy if self.included else None,
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
        return asdict(self)


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

    Each setting is resampled independently at its empirical frequencies, and
    ``derive`` (default: identity) maps the ``(resamples, settings)`` array of
    recomputed correlations to ``(resamples,)`` or ``(resamples, m)`` quantities.

    A correlation reads only the parity ``n(x=y) - n(x!=y) = 2 * same - shots``,
    so only ``same`` is drawn, as ``Binomial(shots, f0 + f3)``.  That is the law
    of ``n0 + n3`` in a ``Multinomial(shots, f)`` resample of the four outcomes,
    so the resampled correlations are distributed exactly as under the full
    multinomial bootstrap.
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
        # one scalar-p call per setting: a broadcast (resamples, settings) draw is slower
        same = rng.binomial(c.shots, (c.counts[0] + c.counts[3]) / c.shots, size=resamples)
        corr_samples[:, j] = (2 * same - c.shots) / c.shots
    if derive is None:
        values = corr_samples
    else:
        values = np.asarray(derive(corr_samples), dtype=float).reshape(resamples, -1)
    return values.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _target_distances(c: np.ndarray) -> np.ndarray:
    """Row-wise distance to ``(-1, -1, 1)``: ``norm(axis=1)`` without its ``conj()`` copy."""
    d = c - SECOND_ROUND_TARGET
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _evaluate_scenario(family, param, mechanism, scenario, config, shots, seed, resamples):
    """One mechanism's sweep record; the ``SeedSequence`` ``seed`` seeds its oracle and bootstrap."""
    oracle_seed, bootstrap_seed = seed.spawn(2)
    oracle = make_oracle(scenario, shots=shots, seed=oracle_seed)
    result = identify(oracle, config)
    p0 = oracle.history[0].correlations
    if result.rounds_used == 2:
        # The flipped round never measures the alignment criterion; one scan
        # after the verdict fills the criterion column so the curves are complete.
        aligned = min(alignment_scan(oracle, p0, config), key=lambda e: e.criterion)
        criterion, criterion_counts = aligned.criterion, aligned.record.counts
        dist = result.criterion_value
    else:
        criterion, criterion_counts = result.criterion_value, result.counts
        dist = None

    std_criterion = None
    std_distance = None
    if shots:
        rng = np.random.default_rng(bootstrap_seed)
        # the criterion reads the third setting only, so only it is resampled
        std_criterion = float(
            bootstrap_errorbars(
                criterion_counts[2:], derive=lambda c: 1.0 - c[:, 0], resamples=resamples, seed=rng
            )[0]
        )
        if dist is not None:
            std_distance = float(
                bootstrap_errorbars(
                    result.counts,
                    derive=_target_distances,
                    resamples=resamples,
                    seed=rng,
                )[0]
            )
    return SweepRecord(
        family, param, mechanism, tuple(float(x) for x in p0), result.rounds_used,
        criterion, dist, result.verdict, shots, std_criterion, std_distance,
    )


def _edge_grid(points: int):
    for a in np.linspace(0.0, 1.0, points):
        a = float(a)
        yield f"{a:.10g}", {"dc": edge_dc(a), "cc": edge_cc(a)}


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
            yield param, {"dc": plane_dc(np.sqrt(target)), "cc": plane_cc(weights)}


def run_sweep(
    family: str,
    grid: int | None = None,
    shots: int = 0,
    seed=None,
    config: AlgoConfig | None = None,
    resamples: int = 1000,
) -> list[SweepRecord]:
    """Run one sweep family over its parameter grid, both mechanisms per point.

    ``grid`` is the number of edge points (default 101) or the barycentric
    lattice denominator of the plane family (default 10).  Records follow
    the grid in ascending parameter order; each point lists the state's
    record before the channel's.  Each point spawns one seed child for the
    channel, then one for the state.
    """
    config = config or AlgoConfig()
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if family == "edge":
        grid_iter = _edge_grid(101 if grid is None else int(grid))
    elif family == "plane":
        grid_iter = _plane_grid(10 if grid is None else int(grid))
    else:
        raise ValueError(f"unknown sweep family {family!r}")

    root = np.random.SeedSequence(seed)
    records = []
    # every mechanism is built before the first evaluation: building each pair between
    # evaluations ran 4-5% slower on the sampled plane-sweep benchmark (2-core x86-64, numpy 2.4)
    for param, mechanisms in list(grid_iter):
        dc_seed, cc_seed = root.spawn(2)
        for mechanism, child in (("cc", cc_seed), ("dc", dc_seed)):
            records.append(_evaluate_scenario(
                family, param, mechanism, mechanisms[mechanism], config, shots, child, resamples
            ))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def sweep_record_row(r: SweepRecord) -> tuple:
    """The raw values of one record, in ``CSV_COLUMNS`` order."""
    return (
        r.family, r.param, r.mechanism, *r.correlations, r.rounds_used, r.criterion,
        r.distance, r.verdict, r.shots, r.std_criterion, r.std_distance,
    )


def sweep_records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records as CSV with a versioned schema comment."""
    lines = [f"# schema: {CSV_SCHEMA_VERSION}", CSV_COLUMNS]
    lines += [",".join(map(_fmt, sweep_record_row(r))) for r in records]
    return "\n".join(lines) + "\n"


def sweep_record_to_dict(r: SweepRecord) -> dict:
    return dict(zip(CSV_COLUMNS.split(","), sweep_record_row(r)))


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
    return float(min(
        abs(plane_gap(oracle.history[0].correlations) - config.delta),
        abs(result.criterion_value - result.threshold),
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
    if cc_kind not in ("mixed", "pure"):
        raise ValueError(f"cc_kind must be 'pure' or 'mixed', got {cc_kind!r}")
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

#: Most negative barycentric weight the membership audit counts as inside.
_MEMBERSHIP_TOL = 1e-7


def _audit(p: np.ndarray, tetra) -> tuple[int, float]:
    """1 if ``p`` lies outside ``tetra``, else 0, and how far its lowest weight falls below 0.

    A NaN weight fails every comparison, so ``not w >= -tol`` counts it as outside;
    a non-finite weight adds no depth, which keeps the report valid strict JSON.
    """
    w = float(barycentric(p, tetra).min())
    return int(not w >= -_MEMBERSHIP_TOL), (-min(0.0, w) if math.isfinite(w) else 0.0)


def run_tetra_check(samples: int, seed=None) -> TetraReport:
    """Sample mechanisms and audit membership of their correlation vectors."""
    if samples < 1:
        raise ValueError("need at least one sample")
    children = np.random.SeedSequence(seed).spawn(2 * samples)
    dc_viol = cc_viol = 0
    worst_dc = worst_cc = 0.0
    for i in range(samples):
        outside, depth = _audit(pauli_vector(haar_unitary(children[2 * i])), DC_TETRA)
        dc_viol, worst_dc = dc_viol + outside, max(worst_dc, depth)
        outside, depth = _audit(pauli_vector(random_state("mixed", children[2 * i + 1])), CC_TETRA)
        cc_viol, worst_cc = cc_viol + outside, max(worst_cc, depth)

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
