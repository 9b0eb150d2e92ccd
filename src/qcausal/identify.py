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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .comb import MeasurementOracle
from .geometry import distance, plane_gap
from .linalg import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    pauli,
    rotation_from_unitary,
    unitary_from_axis_angle,
)

__all__ = [
    "AlgoConfig",
    "AxisCandidates",
    "ClassificationResult",
    "ScanEntry",
    "SECOND_ROUND_TARGET",
    "axis_candidates",
    "modifier_from_axis",
    "alignment_scan",
    "identify",
    "second_round",
]

_I2 = pauli(0)
_SX = pauli(1)

#: Correlation vector of the Pauli-z channel, the target of the flipped round.
SECOND_ROUND_TARGET = np.array([-1.0, -1.0, 1.0])


@dataclass(frozen=True)
class AlgoConfig:
    """Thresholds of the identification algorithm.

    ``epsilon`` is the alignment cutoff (declare direct cause when
    ``1 - C33 < epsilon`` in the aligned frame), ``delta`` the plane-gap
    threshold that triggers the flipped second round, ``epsilon_prime`` the
    distance cutoff of that round.  ``delta >= 2 epsilon`` is required (the
    defaults keep equality): it guarantees no common cause passing the plane
    test can also pass the alignment test in exact mode.
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


@dataclass(eq=False)
class AxisCandidates:
    """Rotation-axis hypotheses consistent with a correlation vector."""

    cos_theta: float
    axes: list

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 4:
            raise ValueError("expected between 1 and 4 candidate axes")


@dataclass(eq=False)
class ClassificationResult:
    """Outcome of one identification run.

    ``criterion_value`` is ``1 - C33`` of the best aligned frame for
    round-one verdicts and the distance to ``(-1, -1, 1)`` for second-round
    verdicts.  ``counts`` are the shot counts of the query that value was
    computed from (``None`` in exact mode); every query is in the oracle's
    ``history``.
    """

    verdict: str
    rounds_used: int
    criterion_value: float
    winning_modifier: np.ndarray | None
    query_count: int = 0
    counts: list | None = None


class ScanEntry(NamedTuple):
    """One aligned-frame probe: the modifier, its correlations, ``1 - C33``, its counts."""

    modifier: np.ndarray
    correlations: np.ndarray
    criterion: float
    counts: list | None


def axis_candidates(p: np.ndarray, tol: float = 1e-9) -> AxisCandidates:
    """Invert the rotation-diagonal relation for all sign classes.

    ``cos(theta)`` comes from the trace relation ``sum C_kk = 1 + 2 cos(theta)``
    and the squared axis components from
    ``n_k^2 = (C_kk - cos(theta)) / (1 - cos(theta))``, clamped and
    renormalized so noisy or common-cause inputs still yield well-formed
    hypotheses.  Axes are enumerated over the component sign patterns modulo
    a global sign; zero components carry no sign.
    """
    p = np.asarray(p, dtype=float)
    cos_theta = float(np.clip((p.sum() - 1.0) / 2.0, -1.0, 1.0))
    if 1.0 - cos_theta < tol:
        return AxisCandidates(cos_theta, [Z_AXIS.copy()])
    weights = np.clip((p - cos_theta) / (1.0 - cos_theta), 0.0, 1.0)
    # Squared components below the dust level would only spawn duplicate
    # sign classes differing by a negligible tilt.
    weights[weights < 1e-12] = 0.0
    total = weights.sum()
    if total < tol:
        return AxisCandidates(cos_theta, [Z_AXIS.copy()])
    magnitudes = np.sqrt(weights / total)
    nonzero = [k for k in range(3) if magnitudes[k] > 0.0]
    if not nonzero:
        return AxisCandidates(cos_theta, [Z_AXIS.copy()])
    axes = []
    for signs in itertools.product((1.0, -1.0), repeat=len(nonzero) - 1):
        axis = magnitudes.copy()
        for s, k in zip(signs, nonzero[1:]):
            axis[k] *= s
        if not any(abs(float(axis @ seen)) > 1.0 - 1e-12 for seen in axes):
            axes.append(axis)
    return AxisCandidates(cos_theta, axes)


def modifier_from_axis(axis: np.ndarray) -> np.ndarray:
    """Unitary V with ``V sigma_3 V^dag = axis . sigma``.

    Constructed as the rotation about ``z x axis`` by the angle theta between
    the zenith and the axis, in half-angle form: ``cos(theta/2) I - i (-n_y
    sigma_x + n_x sigma_y) / (2 cos(theta/2))``.  The antipodal case falls
    back to a half-turn about x.
    """
    nx, ny, nz = np.asarray(axis, dtype=float).tolist()
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError("rotation axis must be a nonzero finite vector")
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    if nz > 1.0 - 1e-12:
        return _I2.copy()
    if nz < -1.0 + 1e-12:
        return unitary_from_axis_angle(X_AXIS, np.pi)
    # 2 cos^2(theta/2) = 1 + n_z, taken as (n_x^2 + n_y^2) / (1 - n_z) below the
    # equator, where 1 + n_z would cancel
    half = math.sqrt(0.5 * (1.0 + nz if nz >= 0.0 else (nx * nx + ny * ny) / (1.0 - nz)))
    k = 0.5 / half
    return np.array([[half, complex(-nx * k, ny * k)], [complex(nx * k, ny * k), half]])


def _symmetric_correlation_estimate(frames_and_values) -> np.ndarray:
    """Least-squares symmetric 3x3 matrix matching the measured quadratic forms.

    Every query with frame rotation O constrains ``f^T S f`` for the three
    frame axes f.  Components not touched by any frame get the minimum-norm
    value (zero), so the estimate stays an observational quantity.
    """
    rows, targets = [], []
    for frame, values in frames_and_values:
        for k in range(3):
            f = frame[:, k]
            rows.append([
                f[0] * f[0], f[1] * f[1], f[2] * f[2],
                2 * f[0] * f[1], 2 * f[0] * f[2], 2 * f[1] * f[2],
            ])
            targets.append(values[k])
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    s = np.array([
        [sol[0], sol[3], sol[4]],
        [sol[3], sol[1], sol[5]],
        [sol[4], sol[5], sol[2]],
    ])
    return s


def alignment_scan(oracle: MeasurementOracle, p0: np.ndarray, config: AlgoConfig) -> list[ScanEntry]:
    """Probe every candidate axis of ``p0`` with same-frame queries.

    If no candidate reaches the alignment cutoff, one refinement query is
    added: the measured vectors determine (in the least-squares sense) the
    symmetric part of the correlation matrix, whose top eigenvector is the
    best frame any mechanism could offer; probing it makes the reported
    criterion the tight mimicry bound rather than an artifact of the sign
    enumeration.
    """
    entries = []
    for axis in axis_candidates(p0).axes:
        v = modifier_from_axis(axis)
        pv = oracle.query(v, v)
        entries.append(ScanEntry(v, pv, float(1.0 - pv[2]), oracle.history[-1].counts))
    if min(e.criterion for e in entries) >= config.epsilon:
        extra = _refinement_probe(oracle, p0, entries)
        if extra is not None:
            entries.append(extra)
    return entries


def _refinement_probe(oracle, p0, entries):
    frames = [(np.eye(3), p0)]
    tried = []
    for e in entries:
        frame = rotation_from_unitary(e.modifier)
        frames.append((frame, e.correlations))
        tried.append(frame[:, 2])
    values, vectors = np.linalg.eigh(_symmetric_correlation_estimate(frames))
    # LAPACK's sign and, in a degenerate top eigenspace, direction follow rounding
    # noise; the first non-negligible projection of +z, +x, +y onto that space does not
    span = vectors[:, values >= values[-1] - 1e-9]
    projections = [span @ (span.T @ e) for e in (Z_AXIS, X_AXIS, Y_AXIS)]
    top = next(p for p in projections if np.linalg.norm(p) > 1e-6)
    top = top / np.linalg.norm(top)
    if any(abs(float(top @ t)) > 1.0 - 1e-9 for t in tried):
        return None
    v = modifier_from_axis(top)
    pv = oracle.query(v, v)
    return ScanEntry(v, pv, float(1.0 - pv[2]), oracle.history[-1].counts)


def second_round(oracle: MeasurementOracle, v1: np.ndarray, config: AlgoConfig | None = None) -> ClassificationResult:
    """Flipped-frame retest for one first-stage modifier.

    The Y-side basis gets an extra Pauli-x conjugation inside the frame of
    ``v1``, which pins the third correlation of the retest input to -1 for
    any direct cause and turns the effective channel into a half-turn whose
    axis the rerun can align, landing on ``(-1, -1, 1)``.  New modifiers
    compose on the right of ``v1`` because the rerun operates in the frame
    it already rotated into.
    """
    config = config or AlgoConfig()
    v1 = np.asarray(v1, dtype=complex)
    p1 = oracle.query(v1, v1 @ _SX)
    best_dist = np.inf
    best_modifier = best_counts = None
    for axis in axis_candidates(p1).axes:
        v2 = modifier_from_axis(axis)
        wx = v1 @ v2
        d = distance(oracle.query(wx, v1 @ _SX @ v2), SECOND_ROUND_TARGET)
        if d < best_dist:
            best_dist, best_modifier, best_counts = d, wx, oracle.history[-1].counts
    verdict = "DC" if best_dist < config.epsilon_prime else "CC"
    return ClassificationResult(
        verdict=verdict,
        rounds_used=2,
        criterion_value=float(best_dist),
        winning_modifier=best_modifier if verdict == "DC" else None,
        query_count=oracle.query_count,
        counts=best_counts,
    )


def identify(oracle: MeasurementOracle, config: AlgoConfig | None = None) -> ClassificationResult:
    """Decide whether the mechanism behind ``oracle`` is a direct or common cause.

    Round zero measures the plain Pauli correlations.  Away from the
    ambiguous plane, candidate axes are probed and the alignment criterion
    ``1 - C33 < epsilon`` decides; near the plane every candidate is pushed
    through the flipped second round and the distance criterion decides.
    """
    config = config or AlgoConfig()
    p0 = oracle.query(_I2, _I2)

    if plane_gap(p0) < config.delta:
        best = None
        for axis in axis_candidates(p0).axes:
            result = second_round(oracle, modifier_from_axis(axis), config)
            if best is None or result.criterion_value < best.criterion_value:
                best = result
        best.query_count = oracle.query_count
        return best

    best = min(alignment_scan(oracle, p0, config), key=lambda e: e.criterion)
    verdict = "DC" if best.criterion < config.epsilon else "CC"
    return ClassificationResult(
        verdict=verdict,
        rounds_used=1,
        criterion_value=best.criterion,
        winning_modifier=best.modifier if verdict == "DC" else None,
        query_count=oracle.query_count,
        counts=best.counts,
    )
