import numpy as np
import pytest

from qcausal.comb import CommonCause, DirectCause, TwoQubitState, pauli_vector
from qcausal.geometry import (
    CC_TETRA,
    CC_VERTICES,
    DC_TETRA,
    DC_VERTICES,
    barycentric,
    distance,
    plane_gap,
)
from qcausal.identify import SECOND_ROUND_TARGET
from qcausal.linalg import X_AXIS, Y_AXIS, Z_AXIS
from reference import RegionLabel, classify_region, member

CONSTANTS = {
    "DC_VERTICES": DC_VERTICES,
    "CC_VERTICES": CC_VERTICES,
    "DC_TETRA": DC_TETRA,
    "CC_TETRA": CC_TETRA,
    "X_AXIS": X_AXIS,
    "Y_AXIS": Y_AXIS,
    "Z_AXIS": Z_AXIS,
    "SECOND_ROUND_TARGET": SECOND_ROUND_TARGET,
}


@pytest.mark.parametrize("name", CONSTANTS)
def test_public_constants_are_read_only(name):
    # a write would move every later verdict, as it did when the flipped round's target could be edited
    constant = CONSTANTS[name]
    before = constant.copy()
    with pytest.raises(ValueError, match="read-only"):
        constant[...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        constant[0] = 7.0
    assert constant.tobytes() == before.tobytes()


def test_second_round_target_is_the_pauli_z_vertex():
    assert SECOND_ROUND_TARGET.tolist() == [-1.0, -1.0, 1.0]
    assert SECOND_ROUND_TARGET.base is DC_VERTICES


class TestBarycentric:
    def test_vertex(self):
        np.testing.assert_allclose(barycentric([1, 1, 1], DC_TETRA), [1, 0, 0, 0], atol=1e-12)

    def test_centroid_of_either_tetrahedron(self):
        np.testing.assert_allclose(barycentric([0, 0, 0], DC_TETRA), [0.25] * 4, atol=1e-12)
        np.testing.assert_allclose(barycentric([0, 0, 0], CC_TETRA), [0.25] * 4, atol=1e-12)

    def test_edge_midpoint(self):
        np.testing.assert_allclose(
            barycentric([0, 0, 1], DC_TETRA), [0.5, 0.0, 0.0, 0.5], atol=1e-12
        )

    def test_weights_reconstruct_point(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(50, 3))
        w = np.array([barycentric(p, CC_TETRA) for p in pts])
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(w @ CC_VERTICES, pts, atol=1e-10)

    def test_maps_invert_affinely_independent_vertices(self):
        for tetra, vertices in ((DC_TETRA, DC_VERTICES), (CC_TETRA, CC_VERTICES)):
            assert abs(np.linalg.det(vertices[1:] - vertices[0])) > 1e-12
            np.testing.assert_allclose(np.column_stack([np.ones(4), vertices]) @ tetra, np.eye(4), atol=1e-12)
            assert not tetra.flags.writeable


class TestMembership:
    def test_channel_vertex(self):
        assert member([1, 1, 1], DC_TETRA)
        assert not member([1, 1, 1], CC_TETRA)

    def test_state_vertex(self):
        assert member([1, -1, 1], CC_TETRA)
        assert not member([1, -1, 1], DC_TETRA)

    def test_origin_in_both(self):
        assert member([0, 0, 0], DC_TETRA) and member([0, 0, 0], CC_TETRA)

    def test_sampled_mechanisms_stay_inside(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            assert member(pauli_vector(DirectCause(u)), DC_TETRA, tol=1e-7)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert member(pauli_vector(CommonCause(TwoQubitState(rho))), CC_TETRA, tol=1e-7)


class TestClassify:
    @pytest.mark.parametrize(
        "point,expected",
        [
            ([1, 1, 1], RegionLabel.DC_ONLY),
            ([-1, -1, -1], RegionLabel.CC_ONLY),
            ([0.9, 0.9, 0.9], RegionLabel.DC_ONLY),
            ([0.6, 0.6, -0.6], RegionLabel.CC_ONLY),
            ([0, 0, 0], RegionLabel.OVERLAP),
            ([0, 0, 1], RegionLabel.OVERLAP),
            ([1, 1, 0], RegionLabel.OUTSIDE),
            ([1.5, 0, 0], RegionLabel.OUTSIDE),
        ],
    )
    def test_examples(self, point, expected):
        assert classify_region(np.array(point, dtype=float)) is expected

    def test_overlap_is_the_octahedron(self):
        # membership in both tetrahedra is equivalent to sum |C_kk| <= 1
        axis = np.linspace(-1.0, 1.0, 41)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        both = np.logical_and(
            member(grid, DC_TETRA, tol=1e-7), member(grid, CC_TETRA, tol=1e-7)
        )
        octa = np.abs(grid).sum(axis=1) <= 1.0 + 1e-7
        np.testing.assert_array_equal(both, octa)


class TestPlaneGap:
    def test_on_plane(self):
        assert plane_gap([1, -1, 1]) == 0.0

    def test_beyond_plane(self):
        assert plane_gap([1, 1, 1]) == -2.0

    def test_below_plane(self):
        assert plane_gap([-1, -1, 1]) == 2.0

    def test_plane_face_of_state_tetrahedron(self):
        for vertex in ([1, -1, 1], [-1, 1, 1], [1, 1, -1]):
            assert abs(plane_gap(vertex)) < 1e-12
        assert plane_gap([-1, -1, -1]) == 4.0


class TestDistance:
    def test_self(self):
        assert distance([0.3, -0.2, 0.9], [0.3, -0.2, 0.9]) == 0.0

    def test_known_values(self):
        assert abs(distance([1, 1, 1], [-1, -1, 1]) - 2 * np.sqrt(2)) < 1e-12
        assert abs(distance([0, 0, 0], [-1, -1, 1]) - np.sqrt(3)) < 1e-12
