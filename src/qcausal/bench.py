"""Benchmark harness: sweeps, random ensembles, membership checks, error bars.

The sweep runs ``identify`` on the direct-cause and common-cause
realization of every grid point, producing one flat record per mechanism per
point.  It reports the alignment criterion for every point and, for points
near the ambiguous plane, the flipped-round distance.  In sampled mode both
carry the standard deviation ``comb.delta_std`` of the query they come from:
the delta-method spread under the binomial law its parity counts are drawn from.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .comb import DirectCause, Scenario, delta_std, make_oracle, pauli_vector
from .geometry import CC_TETRA, CC_VERTICES, DC_TETRA, DC_VERTICES, barycentric
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
    "exact_margin",
    "run_sweep",
    "run_random_bench",
    "run_tetra_check",
    "sweep_records_to_csv",
    "sweep_summary",
]

CSV_SCHEMA_VERSION = "qcausal-sweep-v1"


class SweepRecord(NamedTuple):
    """One mechanism at one grid point of a sweep family: its fields are the CSV columns, in order.

    ``C11, C22, C33`` are the round-zero correlations, ``round`` the deciding round, ``N`` the shots (0: exact).
    """

    family: str
    param: str
    mechanism: str
    C11: float
    C22: float
    C33: float
    round: int
    criterion: float
    distance: float | None
    verdict: str
    N: int
    std_criterion: float | None = None
    std_distance: float | None = None


CSV_COLUMNS = ",".join(SweepRecord._fields)


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
    def accuracy(self) -> float | None:
        """Share of scored scenarios called right; ``None`` (JSON ``null``) when nothing was scored."""
        return (self.dc_as_dc + self.cc_as_cc) / self.included if self.included else None

    def to_dict(self) -> dict:
        return {
            **asdict(self),
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


def _child_rngs(seed, n: int, suffix=()):
    """Generators with the streams of ``default_rng(c)`` for ``c`` in ``SeedSequence(seed).spawn(n)``, made lazily.

    ``suffix`` extends each spawn key ``(i,)``: ``(0,)`` gives ``default_rng(c.spawn(1)[0])``.  A child's pool is the
    root's with its key's words mixed in after, as ``SeedSequence`` mixes entropy beyond its four-word pool: here for
    every key at once, in uint64 masked to 32 bits.  About 1 us a Generator; ``spawn`` and ``default_rng`` take 10.
    """
    from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array  # loaded with SeedSequence

    class Words(ISeedSequence):  # a seed that hands PCG64 its four uint64 state words
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    mask, root = 0xFFFFFFFF, np.random.SeedSequence(seed)
    # the root has hashed four times per entropy word, and at least 16 times filling and mixing its pool
    h = 0x43B0D7E5 * pow(0x931E8875, 4 * max(len(_coerce_to_uint32_array(root.entropy)), 4), 1 << 32) & mask
    pool = list(root.pool.astype(np.uint64))
    for word in (np.arange(n, dtype=np.uint64), *suffix):
        for i in range(4):
            h, value = h * 0x931E8875 & mask, word ^ h
            value = value * h & mask
            mixed = 0xCA01F9DD * pool[i] - 0x4973F715 * (value ^ value >> 16) & mask
            pool[i] = mixed ^ mixed >> 16
    h, words = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, uint64): eight 32-bit words from the cycled pool, paired little-endian
        h, value = h * 0x58F38DED & mask, pool[i % 4] ^ h
        value = value * h & mask
        words.append(value ^ value >> 16)
    state = np.stack([low | high << 32 for low, high in zip(words[::2], words[1::2])], axis=1)
    return (np.random.Generator(np.random.PCG64(Words(row))) for row in state)


# ---------------------------------------------------------------------------
# Bootstrap error bars
# ---------------------------------------------------------------------------

def bootstrap_errorbars(
    counts: Sequence[tuple[int, int]],
    derive: Callable[[np.ndarray], np.ndarray] | None = None,
    resamples: int = 1000,
    seed=None,
) -> np.ndarray:
    """Standard deviations of derived quantities under count resampling.

    Nothing in the package calls it: both sweep deviations are ``comb.delta_std``.  It stays while the per-layer
    benchmark tracer wraps it by name.  ``counts`` holds one ``(same, shots)`` parity count per setting: ``same``
    of its ``shots`` shots had equal outcomes.  Each setting is resampled independently at its empirical
    frequency, and ``derive`` (default: identity) maps the ``(resamples, settings)`` array of recomputed
    correlations to ``(resamples,)`` or ``(resamples, m)`` quantities.

    A correlation reads only the parity ``2 * same - shots``, so a resample draws ``Binomial(shots, same / shots)``:
    the law of ``n0 + n3`` when all four outcomes are resampled, so the resampled correlations are distributed
    exactly as under a bootstrap of the four outcome counts.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one setting of counts")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if any(shots < 1 for _, shots in counts):
        raise ValueError("cannot bootstrap zero-shot counts")
    rng = np.random.default_rng(seed)
    corr_samples = np.empty((resamples, len(counts)))
    for j, (same, shots) in enumerate(counts):
        # one scalar-p call per setting: a broadcast (resamples, settings) draw is slower
        corr_samples[:, j] = (2 * rng.binomial(shots, same / shots, size=resamples) - shots) / shots
    if derive is None:
        values = corr_samples
    else:
        values = np.asarray(derive(corr_samples), dtype=float).reshape(resamples, -1)
    return values.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _evaluate_scenario(family, param, mechanism, scenario, config, shots, rng):
    """One mechanism's sweep record; its oracle draws from the Generator ``rng``."""
    oracle = make_oracle(scenario, shots=shots, seed=rng)
    result = identify(oracle, config)
    p0 = oracle.history[0].correlations
    if result.rounds_used == 2:
        # The flipped round never measures the alignment criterion; one scan
        # after the verdict fills the criterion column so the curves are complete.
        best = min(alignment_scan(oracle, p0, config), key=lambda e: e.criterion)
        criterion, aligned, dist = best.criterion, best.record, result.criterion_value
    else:
        criterion, aligned, dist = result.criterion_value, result.record, None

    std_criterion = std_distance = None
    if shots:
        std_criterion = delta_std(aligned.correlations, shots, (0.0, 0.0, 1.0))  # 1 - C33 reads one setting
        if dist is not None:  # gradient (C - t) / d, 1 / d taken out; at d == 0 every C_k = t_k = +-1 is exact
            spread = delta_std(result.record.correlations, shots, result.record.correlations - SECOND_ROUND_TARGET)
            std_distance = spread / dist if dist else 0.0
    return SweepRecord(
        family, param, mechanism, *p0.tolist(), result.rounds_used,
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
) -> list[SweepRecord]:
    """Run one sweep family over its parameter grid, both mechanisms per point.

    ``grid`` is the number of edge points (default 101) or the barycentric
    lattice denominator of the plane family (default 10).  Records follow
    the grid in ascending parameter order; each point lists the state's
    record before the channel's.  Each point spawns one seed child for the
    channel, then one for the state; an oracle draws from its child's child.
    """
    config = config or AlgoConfig()
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if family == "edge":
        grid_iter = _edge_grid(101 if grid is None else int(grid))
    elif family == "plane":
        grid_iter = _plane_grid(10 if grid is None else int(grid))
    else:
        raise ValueError(f"unknown sweep family {family!r}")

    # every mechanism is built before the first evaluation: building each pair between
    # evaluations ran 4-5% slower on the sampled plane-sweep benchmark (2-core x86-64, numpy 2.4)
    points = list(grid_iter)
    rngs = _child_rngs(seed, 2 * len(points), suffix=(0,))
    return [_evaluate_scenario(family, param, mechanism, mechanisms[mechanism], config, shots, rng)
            for (param, mechanisms), dc_rng, cc_rng in zip(points, rngs, rngs)
            for mechanism, rng in (("cc", cc_rng), ("dc", dc_rng))]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def sweep_records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records as CSV with a versioned schema comment."""
    lines = [f"# schema: {CSV_SCHEMA_VERSION}", CSV_COLUMNS]
    lines += [",".join(map(_fmt, r)) for r in records]
    return "\n".join(lines) + "\n"


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

def exact_margin(scenario: Scenario, config: AlgoConfig | None = None, *, stop_margin: float | None = None):
    """Distance of the exact-mode decision quantities to their thresholds.

    ``min(|margins|)`` of the exact run, over the plane-gap comparison and the deciding criterion; scenarios with a small
    margin flip verdicts under sampling noise and are excluded from accuracy tallies.  Returns ``(margin, verdict)``;
    with ``stop_margin`` it stops as ``identify`` does, its margin below it iff the full run's is (DC: <= full, CC: >=).
    """
    result = identify(make_oracle(scenario), config, stop_margin=stop_margin)
    return min(abs(m) for m in result.margins), result.verdict


def run_random_bench(
    n_scenarios: int,
    shots: int = 0,
    eta: float = 0.0,
    seed=None,
    config: AlgoConfig | None = None,
    cc_kind: str = "mixed",
) -> ConfusionMatrix:
    """Identify a half/half ensemble of random channels and random states.

    Scenarios whose exact-mode margin is below ``eta`` are counted as excluded rather than
    scored.  Both runs stop at the probe that settles their outcome; the tallies are those of full runs.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if cc_kind not in ("mixed", "pure"):
        raise ValueError(f"cc_kind must be 'pure' or 'mixed', got {cc_kind!r}")
    n_dc = n_scenarios // 2
    rngs = _child_rngs(seed, 2 * n_scenarios)
    tally = Counter()  # (truth, verdict) pairs, verdict None for an excluded scenario
    for i, (scenario_rng, oracle_rng) in enumerate(zip(rngs, rngs)):  # seed children 2 i and 2 i + 1
        truth = "DC" if i < n_dc else "CC"
        scenario = haar_unitary(scenario_rng) if truth == "DC" else random_state(cc_kind, scenario_rng)
        margin, verdict = exact_margin(scenario, config, stop_margin=eta) if eta > 0 else (math.inf, None)
        if margin < eta:
            verdict = None
        elif shots or verdict is None:  # in exact mode a second run would repeat the margin pass
            verdict = identify(make_oracle(scenario, shots=shots, seed=oracle_rng), config, stop_margin=0.0).verdict
        tally[truth, verdict] += 1
    return ConfusionMatrix(tally["DC", "DC"], tally["DC", "CC"], tally["CC", "DC"], tally["CC", "CC"],
                           excluded_dc=tally["DC", None], excluded_cc=tally["CC", None])


# ---------------------------------------------------------------------------
# Tetrahedron membership audit
# ---------------------------------------------------------------------------

#: Most negative barycentric weight the membership audit counts as inside.
_MEMBERSHIP_TOL = 1e-7


def _audit(points: np.ndarray, tetra) -> tuple[int, float]:
    """How many rows of ``points`` lie outside ``tetra``, and how far the lowest finite weight falls below 0.

    A NaN weight fails every comparison, so ``not w >= -tol`` counts its row as outside;
    a non-finite weight adds no depth, which keeps the report valid strict JSON.
    """
    lowest = barycentric(points, tetra).min(axis=1)  # NaN where any weight of the row is
    deepest = float(lowest.min(initial=0.0, where=np.isfinite(lowest)))
    return int(np.count_nonzero(~(lowest >= -_MEMBERSHIP_TOL))), 0.0 - deepest  # 0.0, not -0.0, at deepest = 0


def run_tetra_check(samples: int, seed=None) -> TetraReport:
    """Sample mechanisms and audit membership of their correlation vectors."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rngs = _child_rngs(seed, 2 * samples)  # sample i: a channel from child 2 i, a state from child 2 i + 1
    pairs = [(pauli_vector(haar_unitary(dc)), pauli_vector(random_state("mixed", cc))) for dc, cc in zip(rngs, rngs)]
    dc_points, cc_points = (np.array(points) for points in zip(*pairs))
    (dc_viol, worst_dc), (cc_viol, worst_cc) = _audit(dc_points, DC_TETRA), _audit(cc_points, CC_TETRA)

    pauli_ok = all(
        np.allclose(pauli_vector(DirectCause(pauli(k))), DC_VERTICES[k], atol=1e-9)
        for k in range(4)
    )
    bell_ok = all(
        np.allclose(pauli_vector(bell_diagonal(np.eye(4)[k])), CC_VERTICES[k], atol=1e-9) for k in range(4)
    )
    return TetraReport(samples, dc_viol, cc_viol, worst_dc, worst_cc, pauli_ok, bell_ok)
