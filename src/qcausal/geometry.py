"""Geometry of the reachable correlation-vector sets.

Direct-cause and common-cause mechanisms each fill a tetrahedron in the
space of same-setting correlation vectors; the two tetrahedra intersect in
the octahedron where round-zero data cannot decide causality, and one face
of the common-cause tetrahedron lies on the plane ``C11 + C22 + C33 = 1``
where the alignment test alone can be fooled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DC_VERTICES",
    "CC_VERTICES",
    "Polytope",
    "DC_TETRA",
    "CC_TETRA",
    "barycentric",
    "plane_gap",
    "distance",
]

#: Correlation vectors of the four Pauli channels (identity, x, y, z).
DC_VERTICES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])

#: Correlation vectors of the four Bell states (phi+, phi-, psi+, psi-).
CC_VERTICES = np.array([
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
])


@dataclass(frozen=True, eq=False)
class Polytope:
    """Tetrahedron given by four affinely independent vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError(f"expected 4 vertices in R^3, got shape {v.shape}")
        edges = v[1:] - v[0]
        if abs(np.linalg.det(edges)) < 1e-12:
            raise ValueError("vertices are affinely dependent (degenerate tetrahedron)")
        object.__setattr__(self, "vertices", v)
        # Maps [1, P] to barycentric weights; cached for batch evaluation.
        m = np.vstack([np.ones(4), v.T])
        object.__setattr__(self, "_solve", np.linalg.inv(m))


DC_TETRA = Polytope(DC_VERTICES)
CC_TETRA = Polytope(CC_VERTICES)


def barycentric(point: np.ndarray, tetra: Polytope) -> np.ndarray:
    """Barycentric weights of ``point`` with respect to the tetrahedron.

    Accepts a single point of shape (3,) or a batch of shape (n, 3); weights
    sum to 1 and reproduce the point under the vertex combination.
    """
    p = np.asarray(point, dtype=float)
    if p.shape == (3,):
        return np.array([1.0, p[0], p[1], p[2]]) @ tetra._solve.T
    p = np.atleast_2d(p)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have 3 components, got shape {p.shape}")
    return np.hstack([np.ones((p.shape[0], 1)), p]) @ tetra._solve.T


def plane_gap(point: np.ndarray) -> float:
    """Signed gap ``1 - (C11 + C22 + C33)`` to the ambiguous plane.

    Zero on the plane, negative beyond it (a region no common cause can
    reach), positive below it.
    """
    p = np.asarray(point, dtype=float)
    return float(1.0 - p.sum())


def distance(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two correlation vectors."""
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return math.sqrt(d.dot(d))  # the path ``np.linalg.norm`` takes for one real vector
