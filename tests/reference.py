"""Independent references the tests check the package against.

None of this runs in the CLI or in ``identify``; each piece is a second
route to something the package computes another way:

* the projector formula of the measurement model (``exact_joint``), against
  the oracle's closed form;
* the axis-angle inverse of the SU(2) -> SO(3) map.  Rotation angles land
  in ``[0, pi]``, the axis sign absorbs the orientation, the null rotation
  reports axis ``+z``, and at angle ``pi`` the lexicographically larger of
  the two equivalent axes is returned so round trips are deterministic;
* the batch form of ``barycentric``, and tetrahedron membership and region
  labels from its weights;
* two named pure states;
* the array form of ``axis_candidates`` and the row-by-row form of the
  refinement probe's least-squares estimate, which the package's scalar and
  one-expression forms must match bit for bit;
* the ``@``, ``.sum`` and nested-list forms of the probability table, the
  rotation of a unitary, the mixed random state and the flipped round's
  modifier products, which the package's ``ndarray.dot``, ``np.add.reduce``
  and flat-list forms must match bit for bit.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from qcausal.comb import (
    _IDENTITY_FRAME,
    _PARITY,
    _QUARTER_SIGNS,
    CommonCause,
    DirectCause,
    Scenario,
    ShotCounts,
    TwoQubitState,
)
from qcausal.geometry import CC_TETRA, DC_TETRA
from qcausal.identify import _AXIS_TOL, AxisCandidates
from qcausal.linalg import Z_AXIS, pauli, rotation_from_unitary
from qcausal.scenarios import _BELL_KETS

_I2 = pauli(0)
_SIGMA = np.stack([pauli(k) for k in (1, 2, 3)])
#: Outcome signs +1, -1 along the projector axis of ``_projectors``.
_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]


class AxisAngle(NamedTuple):
    """Rotation described by a unit axis and an angle in ``[0, pi]``."""

    axis: np.ndarray
    angle: float


def is_unitary(u: np.ndarray, tol: float = 1e-6) -> bool:
    """Check ``u^dag u = I`` within ``tol`` (Frobenius norm)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.sqrt(np.vdot(d, d).real)) <= tol


def rotation_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues formula: the SO(3) matrix rotating by ``angle`` about ``axis``."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([
        [0.0, -n[2], n[1]],
        [n[2], 0.0, -n[0]],
        [-n[1], n[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest pivot for numerical stability.
    t = np.trace(r)
    candidates = [t, r[0, 0], r[1, 1], r[2, 2]]
    i = int(np.argmax(candidates))
    if i == 0:
        w = np.sqrt(1.0 + t) / 2.0
        q = np.array([
            w,
            (r[2, 1] - r[1, 2]) / (4 * w),
            (r[0, 2] - r[2, 0]) / (4 * w),
            (r[1, 0] - r[0, 1]) / (4 * w),
        ])
    else:
        j, k = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
        a, b, c = i - 1, j - 1, k - 1
        x = np.sqrt(1.0 + r[a, a] - r[b, b] - r[c, c]) / 2.0
        q = np.zeros(4)
        q[i] = x
        q[0] = (r[c, b] - r[b, c]) / (4 * x)
        q[j] = (r[b, a] + r[a, b]) / (4 * x)
        q[k] = (r[c, a] + r[a, c]) / (4 * x)
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def _lexicographic_sign(v: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    for c in v:
        if c > eps:
            return v
        if c < -eps:
            return -v
    return v


def axis_angle_from_rotation(r: np.ndarray, tol: float = 1e-6) -> AxisAngle:
    """Recover the axis-angle form of a proper rotation.

    The angle lands in ``[0, pi]``.  Degenerate cases follow the module
    conventions: the identity reports ``(+z, 0)`` and a half-turn reports the
    lexicographically larger of the two equivalent axes.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {r.shape}")
    if np.linalg.norm(r.T @ r - np.eye(3)) > tol or np.linalg.det(r) < 0:
        raise ValueError("matrix is not a proper rotation within tolerance")
    q = _quaternion_from_rotation(r)
    vec = q[1:]
    s = np.linalg.norm(vec)
    angle = 2.0 * np.arctan2(s, q[0])
    if angle < 1e-12:
        return AxisAngle(Z_AXIS.copy(), 0.0)
    axis = vec / s
    if q[0] < 1e-12:
        axis = _lexicographic_sign(axis)
        angle = np.pi
    return AxisAngle(axis, float(angle))


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Dichotomic observable ``W sigma_k W^dag`` for a modifier W and k in 1..3."""

    modifier: np.ndarray
    pauli_index: int

    def __post_init__(self):
        w = np.asarray(self.modifier, dtype=complex)
        if w.shape != (2, 2) or not is_unitary(w, 1e-9 * 10):
            raise ValueError("observable modifier must be a 2x2 unitary")
        if self.pauli_index not in (1, 2, 3):
            raise ValueError(f"Pauli index must be 1..3, got {self.pauli_index!r}")
        object.__setattr__(self, "modifier", w)

    def bloch_direction(self) -> np.ndarray:
        """Bloch direction of the +1 eigenstate of the observable."""
        return rotation_from_unitary(self.modifier)[:, self.pauli_index - 1]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome probabilities, ordered as ``OUTCOME_PAIRS``."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (4,):
            raise ValueError(f"expected 4 probabilities, got shape {p.shape}")
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "p", np.clip(p, 0.0, None))

    def marginal_x(self) -> np.ndarray:
        """Probabilities of x = +1, -1."""
        return np.array([self.p[0] + self.p[1], self.p[2] + self.p[3]])

    def marginal_y(self) -> np.ndarray:
        """Probabilities of y = +1, -1."""
        return np.array([self.p[0] + self.p[2], self.p[1] + self.p[3]])


def _projectors(directions: np.ndarray) -> np.ndarray:
    """``P[..., s]``: projector onto outcome +1 (``s = 0``) or -1 (``s = 1``) along each direction."""
    n_dot_sigma = np.tensordot(directions, _SIGMA, axes=1)[..., None, :, :]
    return 0.5 * (_I2 + _OUTCOME_SIGNS * n_dot_sigma)


def _joint_probs(scenario, ax, ay) -> np.ndarray:
    """Joint probabilities for measurement directions ax (X side), ay (Y side).

    ``ax`` and ``ay`` are single directions (result shape ``(4,)``) or stacks
    of them (``(..., 4)``), ordered as ``OUTCOME_PAIRS``.
    """
    proj_x, proj_y = _projectors(ax), _projectors(ay)
    if isinstance(scenario, DirectCause):
        # p(x, y) = Tr[P_x rho_in] Tr[P_y U P_x U^dag]
        u = scenario.unitary
        px = np.einsum("...xab,ba->...x", proj_x, scenario.input_marginal).real
        propagated = u @ proj_x @ u.conj().T
        probs = px[..., :, None] * np.einsum("...yab,...xba->...xy", proj_y, propagated).real
    elif isinstance(scenario, CommonCause):
        # p(x, y) = Tr[rho (P_x (x) P_y)], with rho[(a b), (c d)] as rho4[a, b, c, d]
        rho4 = scenario.state.rho.reshape(2, 2, 2, 2)
        probs = np.einsum("abcd,...xca,...ydb->...xy", rho4, proj_x, proj_y).real
    else:
        raise TypeError(f"unknown scenario type: {type(scenario).__name__}")
    probs = np.clip(probs.reshape(probs.shape[:-2] + (4,)), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def exact_joint(scenario: Scenario, obs_x: ObservableSpec, obs_y: ObservableSpec) -> JointDistribution:
    """Exact joint outcome distribution of the two measurements.

    For a direct cause the X measurement projects, the outcome eigenstate is
    reprepared, and the channel propagates it to Y:
    ``p(x, y) = Tr[P_x rho_in] Tr[P_y U P_x U^dag]``.  For a common cause
    ``p(x, y) = Tr[rho (P_x (x) P_y)]``.
    """
    return JointDistribution(_joint_probs(scenario, obs_x.bloch_direction(), obs_y.bloch_direction()))


def exact_joints(scenario: Scenario, obs_x, obs_y) -> np.ndarray:
    """``exact_joint`` of every pair ``(obs_x[i], obs_y[i])`` at once: an ``(n, 4)`` probability array."""
    ax = np.array([o.bloch_direction() for o in obs_x])
    ay = np.array([o.bloch_direction() for o in obs_y])
    return _joint_probs(scenario, ax, ay)


def correlation(src: Union[JointDistribution, ShotCounts]) -> float:
    """Same-setting correlation ``p(x = y) - p(x != y)``."""
    if isinstance(src, JointDistribution):
        f = src.p
    elif isinstance(src, ShotCounts):
        f = src.counts / src.shots
    else:
        raise TypeError(f"expected JointDistribution or ShotCounts, got {type(src).__name__}")
    return float(f[0] + f[3] - f[1] - f[2])


class RegionLabel(enum.Enum):
    DC_ONLY = "dc_only"
    CC_ONLY = "cc_only"
    OVERLAP = "overlap"
    OUTSIDE = "outside"


def barycentric_batch(points: np.ndarray, tetra: np.ndarray) -> np.ndarray:
    """``qcausal.geometry.barycentric`` of every point of a ``(..., 3)`` array at once."""
    p = np.asarray(points, dtype=float)
    return np.concatenate([np.ones(p.shape[:-1] + (1,)), p], axis=-1) @ tetra


def member(point: np.ndarray, tetra: np.ndarray, tol: float = 1e-7):
    """Whether the point (or each of a batch) lies in the tetrahedron (all weights >= -tol)."""
    w = barycentric_batch(point, tetra)
    return bool(w.min() >= -tol) if w.ndim == 1 else w.min(axis=-1) >= -tol


def classify_region(point: np.ndarray, tol: float = 1e-7) -> RegionLabel:
    """Locate a correlation vector relative to the two tetrahedra."""
    in_dc = member(point, DC_TETRA, tol)
    in_cc = member(point, CC_TETRA, tol)
    if in_dc and in_cc:
        return RegionLabel.OVERLAP
    if in_dc:
        return RegionLabel.DC_ONLY
    if in_cc:
        return RegionLabel.CC_ONLY
    return RegionLabel.OUTSIDE


def bell_ket(index: int) -> np.ndarray:
    """State vector of the Bell state with the given index (order: phi+, phi-, psi+, psi-)."""
    return _BELL_KETS[index].copy()


def phase_bell(phi: float) -> Scenario:
    """Pure state ``(|00> + e^{i phi} |11>) / sqrt(2)``, P = (cos phi, -cos phi, 1)."""
    ket = np.array([1.0, 0.0, 0.0, np.exp(1j * float(phi))], dtype=complex) / np.sqrt(2)
    return CommonCause(TwoQubitState(np.outer(ket, ket.conj())))


def axis_candidates(p: np.ndarray) -> AxisCandidates:
    """``qcausal.identify.axis_candidates`` in numpy array operations."""
    p = np.asarray(p, dtype=float)
    cos_theta = float(np.clip((p.sum() - 1.0) / 2.0, -1.0, 1.0))
    if 1.0 - cos_theta < _AXIS_TOL:
        return AxisCandidates(cos_theta, [Z_AXIS.copy()])
    weights = np.clip((p - cos_theta) / (1.0 - cos_theta), 0.0, 1.0)
    weights[weights < 1e-12] = 0.0
    total = weights.sum()
    if total < _AXIS_TOL:
        return AxisCandidates(cos_theta, [Z_AXIS.copy()])
    magnitudes = np.sqrt(weights / total)
    nonzero = [k for k in range(3) if magnitudes[k] > 0.0]
    axes = []
    for signs in itertools.product((1.0, -1.0), repeat=len(nonzero) - 1):
        axis = magnitudes.copy()
        for s, k in zip(signs, nonzero[1:]):
            axis[k] *= s
        if not any(abs(float(axis @ seen)) > 1.0 - 1e-12 for seen in axes):
            axes.append(axis)
    return AxisCandidates(cos_theta, axes)


def symmetric_correlation_estimate(frames_and_values) -> np.ndarray:
    """``qcausal.identify._symmetric_correlation_estimate``, one least-squares row per frame axis."""
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
    return np.array([
        [sol[0], sol[3], sol[4]],
        [sol[3], sol[1], sol[5]],
        [sol[4], sol[5], sol[2]],
    ])


def rotation_from_unitary_nested(u: np.ndarray) -> np.ndarray:
    """``qcausal.linalg.rotation_from_unitary`` built from nested rows, without its unitarity check."""
    (a, b), (c, d) = np.asarray(u, dtype=complex).tolist()
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    ad, bc = a * d.conjugate(), b * c.conjugate()
    ab, cd = a * b.conjugate(), c * d.conjugate()
    x01, y01, z01 = bc + ad, 1j * (bc - ad), a * c.conjugate() - b * d.conjugate()
    return np.array([
        [x01.real, y01.real, z01.real],
        [-x01.imag, -y01.imag, -z01.imag],
        [ab.real - cd.real, ab.imag - cd.imag, 0.5 * (aa - bb - cc + dd)],
    ])


def probability_table_matmul(scenario, ox, oy) -> np.ndarray:
    """``qcausal.comb._probability_table`` with ``@`` products and ``.sum`` reductions."""
    plain = ox is _IDENTITY_FRAME and oy is ox
    if isinstance(scenario, DirectCause):
        r, R = scenario.r, scenario.R
        mx = r if plain else r @ ox
        c = R.diagonal() if plain else ((R @ ox) * oy).sum(axis=0)
        my = mx * c
    else:
        state = scenario.state
        mx, my = (state.s, state.t) if plain else (state.s @ ox, state.t @ oy)
        c = state.T.diagonal() if plain else ((state.T @ oy) * ox).sum(axis=0)
    probs = np.maximum(0.25 + np.array([mx, my, c]).T @ _QUARTER_SIGNS, 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def pauli_vector_matmul(scenario, wx, wy) -> np.ndarray:
    """Exact ``qcausal.comb.pauli_vector`` for two modifiers, through the forms above."""
    ox = rotation_from_unitary_nested(wx)
    oy = ox if wy is wx else rotation_from_unitary_nested(wy)
    return probability_table_matmul(scenario, ox, oy) @ _PARITY


def barycentric_matmul(point: np.ndarray, tetra: np.ndarray) -> np.ndarray:
    """One-point ``qcausal.geometry.barycentric`` as an ``@`` product."""
    p = np.asarray(point, dtype=float)
    return np.array([1.0, p[0], p[1], p[2]]) @ tetra


def mixed_state_rho(seed) -> np.ndarray:
    """The ``rho`` of ``qcausal.scenarios.random_state("mixed", seed)``, via ``@`` and ``np.trace``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def second_round_products(v1: np.ndarray, v2: np.ndarray):
    """``second_round``'s modifier products via ``@``: ``v1 sx``, ``v1 v2`` and ``v1 sx v2``."""
    flip = v1 @ pauli(1)
    return flip, v1 @ v2, flip @ v2
