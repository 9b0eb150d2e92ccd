"""Causal identification from oracle queries.

A direct-cause channel acts on the Bloch sphere as a rotation, so measuring
in a frame whose zenith is the rotation axis gives a third-setting
correlation of exactly 1.  The candidate axes are reconstructed from the
round-zero correlation vector: for a rotation by ``theta`` about ``n`` the
diagonal entries are ``cos(theta) + n_k^2 (1 - cos(theta))``, which fixes
``cos(theta)`` and the axis components up to signs.  Common causes cannot
reach 1 unless the correlations lie on the plane ``sum C_kk = 1``; inputs
near that plane are retested in a flipped frame where every direct cause is
driven to the correlation vector of the Pauli-z channel, ``(-1, -1, 1)``,
far from anything a common cause can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .comb import MeasurementOracle, OracleRecord, delta_std
from .geometry import DC_VERTICES, distance, plane_gap
from .linalg import X_AXIS, Y_AXIS, Z_AXIS, pauli, unitary_from_axis_angle
# Unused here; bound so the per-layer benchmark tracer can wrap it on this module.
from .linalg import rotation_from_unitary  # noqa: F401

__all__ = [
    "AlgoConfig",
    "ClassificationResult",
    "ScanEntry",
    "SECOND_ROUND_TARGET",
    "axis_candidates",
    "modifier_from_axis",
    "alignment_scan",
    "identify",
    "second_round",
]

_SX = pauli(1)

#: Correlation vector ``(-1, -1, 1)`` of the Pauli-z channel, the target of the flipped round (read-only).
SECOND_ROUND_TARGET = DC_VERTICES[3]
#: Plane gaps below ``delta + _PLANE_GUARD`` take the flipped round (see ``AlgoConfig``).
_PLANE_GUARD = 1e-12
#: Width, in delta-method sigmas, of the band a sampled bound must clear.
_BAND_SIGMAS = 3
#: ``1 - cos(theta)`` or summed axis weights below this leave +z as the only candidate axis.
_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class AlgoConfig:
    """Thresholds of the identification algorithm.

    ``epsilon`` is the alignment cutoff (declare direct cause when
    ``1 - C33 < epsilon`` in the aligned frame), ``delta`` the plane-gap
    threshold that triggers the flipped second round, ``epsilon_prime`` the
    distance cutoff of that round.  ``delta >= 2 epsilon`` is required (the
    defaults keep equality): it guarantees no common cause passing the plane
    test can also pass the alignment test in exact mode.  With equality the
    bound is tight, so states on the boundary would be decided by rounding;
    the plane test therefore sends gaps below ``delta + 1e-12`` (a few hundred
    ulps) to the flipped round, where the two causes lie far apart.
    ``epsilon_prime < 2/sqrt(3)``, the closest any common cause comes to
    ``(-1, -1, 1)`` there, is required too.
    """

    epsilon: float = 0.075
    delta: float = 0.15
    epsilon_prime: float = 1.0 / math.sqrt(3.0)

    def __post_init__(self):
        for v in (self.epsilon, self.delta, self.epsilon_prime):
            if not (math.isfinite(v) and v > 0):
                raise ValueError("thresholds must be finite and positive")
        if self.delta < 2 * self.epsilon:
            raise ValueError(f"delta must be >= 2 * epsilon = {2 * self.epsilon}, got {self.delta}")
        if self.epsilon_prime >= 2.0 / math.sqrt(3.0):
            raise ValueError(f"epsilon_prime must be < 2 / sqrt(3), got {self.epsilon_prime}")


@dataclass(eq=False)
class ClassificationResult:
    """Outcome of one identification run.

    ``criterion_value`` is ``1 - C33`` of the best aligned frame for
    round-one verdicts and the distance to ``(-1, -1, 1)`` for second-round
    verdicts; ``threshold`` is the cutoff that round compared it with.
    ``margins`` are ``(plane_gap(p0) - delta, threshold - criterion_value)``, the signed distances of
    the comparisons behind the round and the verdict (DC exactly when the second is positive).
    ``record`` is the oracle's record of the query that value was computed
    from, its parity counts included in sampled mode; every query is in the
    oracle's ``history``.  ``skipped_bounds`` holds ``(history index, bound)``
    for each flip query whose frame the flipped round did not probe.
    """

    verdict: str
    rounds_used: int
    criterion_value: float
    threshold: float
    winning_modifier: np.ndarray | None
    record: OracleRecord
    margins: tuple[float, float]
    query_count: int = 0
    skipped_bounds: tuple = ()


class ScanEntry(NamedTuple):
    """One probe: the oracle's record of its query, and its criterion.

    The criterion is ``1 - C33`` aligned and the distance to ``(-1, -1, 1)`` flipped.
    """

    record: OracleRecord
    criterion: float


def axis_candidates(p: np.ndarray) -> list:
    """Rotation-axis hypotheses consistent with a correlation vector: 1, 2 or 4 unit axes.

    ``cos(theta)`` comes from the trace relation ``sum C_kk = 1 + 2 cos(theta)``
    and the squared axis components from
    ``n_k^2 = (C_kk - cos(theta)) / (1 - cos(theta))``, clamped and
    renormalized so noisy or common-cause inputs still yield well-formed
    hypotheses.  Axes are enumerated over the component sign patterns modulo
    a global sign (the first nonzero component stays positive); zero
    components carry no sign.
    """
    # scalar float arithmetic in numpy's order (its 3-element sums run left to right)
    c1, c2, c3 = np.asarray(p, dtype=float).tolist()
    cos_theta = min(max((c1 + c2 + c3 - 1.0) / 2.0, -1.0), 1.0)
    if 1.0 - cos_theta < _AXIS_TOL:
        return [Z_AXIS.copy()]
    weights = [min(max((c - cos_theta) / (1.0 - cos_theta), 0.0), 1.0) for c in (c1, c2, c3)]
    # Squared components below the dust level would only spawn sign classes
    # differing by a negligible tilt.
    weights = [0.0 if w < 1e-12 else w for w in weights]
    total = weights[0] + weights[1] + weights[2]
    if total < _AXIS_TOL:
        return [Z_AXIS.copy()]
    # a kept weight is >= 1e-12 and the total <= 3, so a magnitude is zero only for a zero weight
    a, b, c = (math.sqrt(w / total) for w in weights)
    # The sign patterns of the nonzero components after the first, in ``itertools.product`` order.
    # No two sign classes are parallel: unclipped weights sum to 1, so the total is at most
    # 1 + w beside a kept weight w, every squared magnitude is >~ 1e-12 and |dot| < 1 - 2e-12.
    axes = [[a, b, c]]
    if c and (a or b):
        axes.append([a, b, -c])
    if a and b:
        axes += [[a, -b, c], [a, -b, -c]] if c else [[a, -b, c]]
    return [np.array(axis) for axis in axes]


def modifier_from_axis(axis: np.ndarray) -> np.ndarray:
    """Unitary V with ``V sigma_3 V^dag = axis . sigma``.

    Constructed as the rotation about ``z x axis`` by the angle theta between
    the zenith and the axis, in half-angle form: ``cos(theta/2) I - i (-n_y
    sigma_x + n_x sigma_y) / (2 cos(theta/2))``, exact up to ``n_z = 1``.  The
    antipodal case falls back to a half-turn about x.
    """
    nx, ny, nz = np.asarray(axis, dtype=float).tolist()
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError("rotation axis must be a nonzero finite vector")
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    if nz < -1.0 + 1e-12:
        return unitary_from_axis_angle(X_AXIS, np.pi)
    # 2 cos^2(theta/2) = 1 + n_z, taken as (n_x^2 + n_y^2) / (1 - n_z) below the
    # equator, where 1 + n_z would cancel
    half = math.sqrt(0.5 * (1.0 + nz if nz >= 0.0 else (nx * nx + ny * ny) / (1.0 - nz)))
    k = 0.5 / half
    # a flat list parses faster than nested rows
    return np.array([half, complex(-nx * k, ny * k), complex(nx * k, ny * k), half]).reshape(2, 2)


def _symmetric_correlation_estimate(p0, records) -> np.ndarray:
    """Least-squares symmetric 3x3 matrix matching the measured quadratic forms.

    ``p0`` was measured in the identity frame and each record in its frame
    ``ox``; every query with frame rotation O constrains ``f^T S f`` for the
    three frame axes f.  Components not touched by any frame get the
    minimum-norm value (zero), so the estimate stays an observational quantity.
    """
    # one row per frame axis, in query order: f0^2, f1^2, f2^2, 2 f0 f1, 2 f0 f2, 2 f1 f2
    frames = [np.eye(3)] + [record.ox for record in records]
    rows = [[a * a, b * b, c * c, (2 * a) * b, (2 * a) * c, (2 * b) * c] for ox in frames for a, b, c in ox.T.tolist()]
    values = np.asarray(p0, dtype=float).tolist() + [v for r in records for v in r.correlations.tolist()]
    s0, s1, s2, s3, s4, s5 = np.linalg.lstsq(np.array(rows), np.array(values), rcond=None)[0].tolist()
    return np.array([[s0, s3, s4], [s3, s1, s5], [s4, s5, s2]])


def alignment_scan(oracle: MeasurementOracle, p0: np.ndarray, config: AlgoConfig, axes=None) -> Iterator[ScanEntry]:
    """Probe the candidate ``axes`` of ``p0`` (computed if not given) with same-frame queries, yielding each probe.

    If no candidate reaches the alignment cutoff, one refinement query is added: the measured vectors
    determine (in the least-squares sense) the symmetric part of the correlation matrix, whose top
    eigenvector is the best frame any mechanism could offer; probing it makes the reported criterion the
    tight mimicry bound rather than an artifact of the sign enumeration.  The probe is skipped when its
    zenith lies within ``1 - |cos| < 1e-9`` of a probed frame's, an angle of about 4.5e-5 rad, so that
    bound holds only to about 1e-9.  It decides only in sampled mode: exactly, a channel aligns on its own
    candidate axis, and a state here has ``1 - C33 >= plane_gap / 2 >= delta / 2 >= epsilon`` in every frame.
    """
    entries = []
    for axis in axis_candidates(p0) if axes is None else axes:
        v = modifier_from_axis(axis)
        pv = oracle.query(v, v)
        entries.append(ScanEntry(oracle.history[-1], float(1.0 - pv[2])))
        yield entries[-1]
    if min(e.criterion for e in entries) >= config.epsilon:
        yield from _refinement_probe(oracle, p0, entries)


def _refinement_probe(oracle, p0, entries):
    # each scan query measured one modifier on both sides: its record holds that frame
    records = [e.record for e in entries]
    values, vectors = np.linalg.eigh(_symmetric_correlation_estimate(p0, records))
    # LAPACK's sign and, in a degenerate top eigenspace, direction follow rounding
    # noise; the first non-negligible projection of +z, +x, +y onto that space does not
    span = vectors[:, values >= values[-1] - 1e-9]
    for e in (Z_AXIS, X_AXIS, Y_AXIS):
        top = span.dot(span.T.dot(e))
        norm = math.sqrt(top.dot(top))  # as ``np.linalg.norm`` takes it
        if norm > 1e-6:
            break
    top = top / norm
    if any(abs(float(top.dot(record.ox[:, 2]))) > 1.0 - 1e-9 for record in records):
        return
    v = modifier_from_axis(top)
    pv = oracle.query(v, v)
    yield ScanEntry(oracle.history[-1], float(1.0 - pv[2]))


def second_round(oracle: MeasurementOracle, v1: np.ndarray, entries=(), skipped=None) -> Iterator[ScanEntry]:
    """Flipped-frame retest of ``v1``, yielding each probe's distance to ``(-1, -1, 1)`` as it is made.

    The Y-side basis gets an extra Pauli-x conjugation inside the frame of
    ``v1``, which pins the third correlation of the retest input to -1 for
    any direct cause and turns the effective channel into a half-turn whose
    axis the rerun can align, landing on ``(-1, -1, 1)``.  New modifiers
    compose on the right of ``v1`` because the rerun operates in the frame
    it already rotated into.

    Each probe's correlations sum to those of the flip query ``p1``, so it lies ``b = |sum_k C_k(p1) + 1| / sqrt(3)``
    or more from the target.  The frame is not probed when ``b - 3 sigma_b`` (``delta_std`` of ``p1``, 0 exactly)
    exceeds the best of ``entries``, the probes so far, by over 1e-12; ``(history index, b)`` of ``p1`` then goes
    to ``skipped``.  Without ``entries`` every frame is probed.
    """
    v1 = np.asarray(v1, dtype=complex)
    v1_flip = v1.dot(_SX)
    p1 = oracle.query(v1, v1_flip)
    bound = abs(sum(p1.tolist()) + 1.0) / math.sqrt(3.0)
    band = _BAND_SIGMAS * delta_std(p1, oracle.shots, (1.0 / math.sqrt(3.0),) * 3) if oracle.shots else 0.0
    if bound - band > min((e.criterion for e in entries), default=math.inf) + _PLANE_GUARD:
        skipped.append((oracle.query_count - 1, bound))
        return
    for axis in axis_candidates(p1):
        v2 = modifier_from_axis(axis)
        pv = oracle.query(v1.dot(v2), v1_flip.dot(v2))
        yield ScanEntry(oracle.history[-1], distance(pv, SECOND_ROUND_TARGET))


def identify(oracle: MeasurementOracle, config: AlgoConfig | None = None, *, stop_margin=None) -> ClassificationResult:
    """Decide whether the mechanism behind ``oracle`` is a direct or common cause.

    Round zero measures the plain Pauli correlations.  Away from the ambiguous plane, candidate axes
    are probed for the alignment criterion ``1 - C33``; near the plane every candidate is pushed, in order,
    through the flipped second round for the distance criterion, bar frames whose trace bound cannot beat the best
    probe so far (see ``second_round``), each skip in ``skipped_bounds``.  The verdict is DC exactly when the
    smallest criterion lies below that round's threshold.  With ``stop_margin`` (a float >= 0) the run stops once
    the full run's verdict is settled (not always its criterion): DC at the first probe with ``c < threshold`` and
    ``threshold - c >= stop_margin``; CC in exact round one, before the refinement probe, if no candidate aligned
    and ``plane_gap - delta >= 2 stop_margin + 1e-12``, since every state has same-frame ``1 - C33 >= plane_gap / 2``
    and ``delta >= 2 epsilon``: its criterion, refined or not, lies ``stop_margin`` or more above ``epsilon``.
    """
    if stop_margin is not None and not stop_margin >= 0:
        raise ValueError(f"stop_margin must be a number >= 0, got {stop_margin!r}")
    config = config or AlgoConfig()
    p0 = oracle.query()
    gap = plane_gap(p0)
    axes = axis_candidates(p0)
    flipped = gap < config.delta + _PLANE_GUARD
    rounds, threshold = (2, config.epsilon_prime) if flipped else (1, config.epsilon)
    entries, skipped = [], []
    if flipped:
        probes = (e for axis in axes for e in second_round(oracle, modifier_from_axis(axis), entries, skipped))
    else:
        probes = alignment_scan(oracle, p0, config, axes)
    # a scan ends after its candidates when one aligns; NaN or inf never settles CC; a settling gap is in round one
    cc_settled = not (oracle.shots or stop_margin is None) and gap - config.delta >= 2 * stop_margin + _PLANE_GUARD
    for entry in probes:
        entries.append(entry)
        if stop_margin is not None and entry.criterion < threshold and threshold - entry.criterion >= stop_margin:
            break
        if cc_settled and len(entries) == len(axes):
            break
    best = min(entries, key=lambda e: e.criterion)
    direct = best.criterion < threshold
    return ClassificationResult(
        verdict="DC" if direct else "CC",
        rounds_used=rounds,
        criterion_value=best.criterion,
        threshold=threshold,
        winning_modifier=best.record.modifier_x if direct else None,
        record=best.record,
        margins=(gap - config.delta, threshold - best.criterion),
        query_count=oracle.query_count,
        skipped_bounds=tuple(skipped),
    )
