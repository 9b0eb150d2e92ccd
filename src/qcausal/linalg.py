"""Qubit-scale linear algebra: Pauli matrices and SU(2) <-> SO(3) conversions.

A single-qubit unitary acts on Bloch vectors as a proper rotation.  This
module provides the forward and inverse maps between the three natural
representations used throughout the package:

    2x2 unitary  <->  3x3 rotation matrix  <->  (axis, angle)

Conventions
-----------
* ``unitary_from_axis_angle`` returns ``exp(-i * angle * (n . sigma) / 2)``.
* Rotation angles are restricted to ``[0, pi]``; the axis sign absorbs the
  orientation.  The null rotation reports axis ``+z`` by convention, and at
  angle ``pi`` (where both axis signs describe the same rotation) the
  lexicographically larger representative is returned so round trips are
  deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "AxisAngle",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "pauli",
    "kron",
    "is_unitary",
    "unitary_from_axis_angle",
    "rotation_from_axis_angle",
    "rotation_from_unitary",
    "axis_angle_from_rotation",
]


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance knobs shared by validation code.

    ``validation`` bounds residuals of objects the package constructs
    itself; ``input_check`` is the looser bound applied to caller-supplied
    matrices before they are used.
    """

    validation: float = 1e-9
    input_check: float = 1e-6


DEFAULT_TOL = Tolerances()

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


class AxisAngle(NamedTuple):
    """Rotation described by a unit axis and an angle in ``[0, pi]``."""

    axis: np.ndarray
    angle: float


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix (k = 0 is the identity)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {k!r}")
    return _PAULI[k].copy()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices (first factor = X side)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"expected two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL.input_check) -> bool:
    """Check ``u^dag u = I`` within ``tol`` (Frobenius norm)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.sqrt(np.vdot(d, d).real)) <= tol


def unitary_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Return ``exp(-i * angle * (axis . sigma) / 2)``.

    The result rotates Bloch vectors by ``angle`` about ``axis`` (right-hand
    rule) under conjugation.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0 or not np.all(np.isfinite(n)):
        raise ValueError("rotation axis must be a nonzero finite vector")
    n = n / norm
    half = 0.5 * float(angle)
    n_dot_sigma = n[0] * _PAULI[1] + n[1] * _PAULI[2] + n[2] * _PAULI[3]
    return np.cos(half) * _PAULI[0] - 1j * np.sin(half) * n_dot_sigma


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


def rotation_from_unitary(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Bloch-sphere image of a qubit unitary.

    Entry ``(k, l)`` is ``Tr[sigma_k u sigma_l u^dag] / 2``, so ``R v`` is the
    Bloch vector of ``u (v . sigma) u^dag``.  Global phases of ``u`` drop out.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    (a, b), (c, d) = u.tolist()
    # Frobenius norm of u^dag u - I, the criterion of ``is_unitary``
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    off = a.conjugate() * b + c.conjugate() * d
    err = ((aa + cc - 1.0) ** 2 + (bb + dd - 1.0) ** 2 + 2.0 * abs(off) ** 2) ** 0.5
    if not err <= tol.input_check:
        raise ValueError("matrix is not unitary within tolerance")
    # column l is the Bloch vector (Re m01, -Im m01, (m00 - m11) / 2) of m = u sigma_l u^dag
    ad, bc = a * d.conjugate(), b * c.conjugate()
    ab, cd = a * b.conjugate(), c * d.conjugate()
    x01, y01, z01 = bc + ad, 1j * (bc - ad), a * c.conjugate() - b * d.conjugate()
    return np.array([
        [x01.real, y01.real, z01.real],
        [-x01.imag, -y01.imag, -z01.imag],
        [ab.real - cd.real, ab.imag - cd.imag, 0.5 * (aa - bb - cc + dd)],
    ])


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


def axis_angle_from_rotation(r: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> AxisAngle:
    """Recover the axis-angle form of a proper rotation.

    The angle lands in ``[0, pi]``.  Degenerate cases follow the module
    conventions: the identity reports ``(+z, 0)`` and a half-turn reports the
    lexicographically larger of the two equivalent axes.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {r.shape}")
    if np.linalg.norm(r.T @ r - np.eye(3)) > tol.input_check or np.linalg.det(r) < 0:
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
