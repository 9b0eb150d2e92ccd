"""Geometry of the reachable correlation-vector sets.

Direct-cause and common-cause mechanisms each fill a tetrahedron in the
space of same-setting correlation vectors; the two tetrahedra intersect in
the octahedron where round-zero data cannot decide causality, and one face
of the common-cause tetrahedron lies on the plane ``C11 + C22 + C33 = 1``
where the alignment test alone can be fooled.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DC_VERTICES",
    "CC_VERTICES",
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


#: Read-only barycentric maps, the transposed inverses of the columns ``[1, v_i]``:
#: ``[1, C11, C22, C33] @ DC_TETRA`` weighs the Pauli channels, ``@ CC_TETRA`` the Bell states.
DC_TETRA = np.linalg.inv(np.vstack([np.ones(4), DC_VERTICES.T])).T
CC_TETRA = np.linalg.inv(np.vstack([np.ones(4), CC_VERTICES.T])).T
DC_TETRA.flags.writeable = CC_TETRA.flags.writeable = False


def barycentric(point: np.ndarray, tetra: np.ndarray) -> np.ndarray:
    """Barycentric weights of one point in a tetrahedron, given by its map ``DC_TETRA`` or ``CC_TETRA``.

    The weights sum to 1 and reproduce the point under the vertex combination.
    """
    p = np.asarray(point, dtype=float)
    return np.array([1.0, p[0], p[1], p[2]]).dot(tetra)


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
