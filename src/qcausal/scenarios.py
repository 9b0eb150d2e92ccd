"""Scenario families and random ensembles for benchmarks.

The two sweep families deliberately produce mechanism pairs whose plain
Pauli correlations coincide, so round-zero data alone cannot tell them
apart: an edge of the ambiguous octahedron (``C22 - C11 = 1, C33 = 0``) and
the plane ``sum C_kk = 1`` where the alignment test can be mimicked.
"""

from __future__ import annotations

import math

import numpy as np

from .comb import CommonCause, DirectCause, Scenario, TwoQubitState
from .linalg import unitary_from_axis_angle

__all__ = [
    "bell_diagonal",
    "edge_dc",
    "edge_cc",
    "plane_dc",
    "plane_cc",
    "haar_unitary",
    "haar_unitary_matrix",
    "random_state",
]

#: Bell states phi+, phi-, psi+, psi-.
_BELL_KETS = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
)
_BELL_PROJECTORS = np.stack([np.outer(k, k.conj()) for k in _BELL_KETS])
_BELL_PROJECTORS.setflags(write=False)


def bell_diagonal(weights) -> CommonCause:
    """Mixture of the four Bell states with the given probabilities."""
    w = np.asarray(weights, dtype=float)
    # written so that NaN weights fail
    if w.shape != (4,) or not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("need 4 nonnegative weights summing to 1")
    rho = sum(max(float(p), 0.0) * proj for p, proj in zip(w, _BELL_PROJECTORS))
    # a nonnegative mixture of projectors is Hermitian and positive semidefinite, and
    # weights within the check above keep its trace within the density-matrix bound
    return CommonCause(TwoQubitState._trusted(rho))


def edge_dc(a: float) -> Scenario:
    """Channel realization of the octahedron-edge family, P = (-a, 1-a, 0)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"edge parameter must be in [0, 1], got {a}")
    axis = np.array([0.0, np.sqrt(1.0 / (1.0 + a)), np.sqrt(a / (1.0 + a))])
    return DirectCause(unitary_from_axis_angle(axis, float(np.arccos(-a))))


def edge_cc(a: float) -> Scenario:
    """Bell-diagonal realization of the same edge family, P = (-a, 1-a, 0)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"edge parameter must be in [0, 1], got {a}")
    return bell_diagonal([0.0, 0.5, (1.0 - a) / 2.0, a / 2.0])


def plane_dc(axis) -> Scenario:
    """Quarter-turn channel about ``axis``; its P = (n1^2, n2^2, n3^2) sums to 1."""
    n = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane family axis must be a unit vector")
    return DirectCause(unitary_from_axis_angle(n, np.pi / 2.0))


def plane_cc(weights) -> Scenario:
    """Mixture of phi+, phi-, psi+ with the given simplex weights.

    Its correlation vector ``(w1 - w2 + w3, -w1 + w2 + w3, w1 + w2 - w3)``
    always sums to 1.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("need 3 nonnegative weights summing to 1")
    return bell_diagonal([w[0], w[1], w[2], 0.0])


def haar_unitary_matrix(rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed 2x2 unitary: the Q of a complex Ginibre matrix Z = QR.

    Q is taken with R's diagonal positive and real, the convention that makes
    it Haar.  In 2x2 Gram-Schmidt is scalar: the first column is Z's first
    column normalised, and the second the unit vector orthogonal to it whose
    phase makes ``R[1, 1] = det(Z) / |Z[:, 0]|`` positive.
    """
    ar, br, cr, dr, ai, bi, ci, di = rng.normal(size=8).tolist()  # Z's real parts row by row, then imaginary
    a, b, c, d = complex(ar, ai), complex(br, bi), complex(cr, ci), complex(dr, di)
    norm = math.sqrt(abs(a) ** 2 + abs(c) ** 2)
    a, c = a / norm, c / norm
    det = a * d - b * c
    phase = det / abs(det)
    return np.array([a, -phase * c.conjugate(), c, phase * a.conjugate()]).reshape(2, 2)


def haar_unitary(seed=None) -> Scenario:
    """Direct-cause scenario with a Haar-random channel, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return DirectCause(haar_unitary_matrix(rng))


def random_state(kind: str = "mixed", seed=None) -> Scenario:
    """Common-cause scenario with a random state.

    ``pure`` draws a Haar-random state vector; ``mixed`` draws from the
    Hilbert-Schmidt ensemble (normalized ``G G^dag`` with Ginibre G).  One call
    draws the real parts, then the imaginary ones: the stream of two draws.
    ``mixed`` divides by the real diagonal summed as ``(d0 + d1) + (d2 + d3)``,
    the pairwise order in which ``ndarray.trace`` adds four complex entries.
    """
    rng = np.random.default_rng(seed)
    if kind == "pure":
        real, imag = rng.normal(size=(2, 4))
        ket = real + 1j * imag
        ket = ket / np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
    elif kind == "mixed":
        real, imag = rng.normal(size=(2, 4, 4))
        g = real + 1j * imag
        rho = g.dot(g.conj().T)
        d0, d1, d2, d3 = rho.diagonal().real.tolist()
        rho /= (d0 + d1) + (d2 + d3)
    else:
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    # Hermitian, unit-trace and positive semidefinite by construction
    return CommonCause(TwoQubitState._trusted(rho))
