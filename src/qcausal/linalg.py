"""Qubit-scale linear algebra: Pauli matrices and the SU(2) -> SO(3) map.

A single-qubit unitary acts on Bloch vectors as a proper rotation.
``unitary_from_axis_angle`` returns ``exp(-i * angle * (n . sigma) / 2)`` and
``rotation_from_unitary`` gives the rotation a unitary induces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "pauli",
    "unitary_from_axis_angle",
    "rotation_from_unitary",
]


_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix (k = 0 is the identity)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {k!r}")
    return _PAULI[k].copy()


def unitary_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Return ``exp(-i * angle * (axis . sigma) / 2)``.

    The result rotates Bloch vectors by ``angle`` about ``axis`` (right-hand
    rule) under conjugation.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0 or not np.all(np.isfinite(n)):
        raise ValueError("rotation axis must be a nonzero finite vector")
    half = 0.5 * float(angle)
    if not np.isfinite(half):
        raise ValueError("rotation angle must be finite")
    n = n / norm
    n_dot_sigma = n[0] * _PAULI[1] + n[1] * _PAULI[2] + n[2] * _PAULI[3]
    return np.cos(half) * _PAULI[0] - 1j * np.sin(half) * n_dot_sigma


def rotation_from_unitary(u: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Bloch-sphere image of a qubit unitary.

    Entry ``(k, l)`` is ``Tr[sigma_k u sigma_l u^dag] / 2``, so ``R v`` is the
    Bloch vector of ``u (v . sigma) u^dag``.  Global phases of ``u`` drop out.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    (a, b), (c, d) = u.tolist()
    # Frobenius norm of u^dag u - I
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    off = a.conjugate() * b + c.conjugate() * d
    err = ((aa + cc - 1.0) ** 2 + (bb + dd - 1.0) ** 2 + 2.0 * abs(off) ** 2) ** 0.5
    if not err <= tol:
        raise ValueError("matrix is not unitary within tolerance")
    # column l is the Bloch vector (Re m01, -Im m01, (m00 - m11) / 2) of m = u sigma_l u^dag
    ad, bc = a * d.conjugate(), b * c.conjugate()
    ab, cd = a * b.conjugate(), c * d.conjugate()
    x01, y01, z01 = bc + ad, 1j * (bc - ad), a * c.conjugate() - b * d.conjugate()
    # a flat list parses faster than nested rows
    return np.array([
        x01.real, y01.real, z01.real,
        -x01.imag, -y01.imag, -z01.imag,
        ab.real - cd.real, ab.imag - cd.imag, 0.5 * (aa - bb - cc + dd),
    ]).reshape(3, 3)
