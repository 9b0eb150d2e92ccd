import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcausal.linalg import X_AXIS, Y_AXIS, Z_AXIS, pauli, rotation_from_unitary, unitary_from_axis_angle
from reference import axis_angle_from_rotation, is_unitary, rotation_from_axis_angle

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestPauli:
    def test_identity(self):
        np.testing.assert_allclose(pauli(0), np.eye(2))

    def test_z_is_diag(self):
        np.testing.assert_allclose(pauli(3), np.diag([1.0, -1.0]))

    def test_algebra_xy_gives_iz(self):
        np.testing.assert_allclose(pauli(1) @ pauli(2), 1j * pauli(3), atol=1e-15)

    @pytest.mark.parametrize("k", [-1, 4, 7])
    def test_bad_index(self, k):
        with pytest.raises(ValueError):
            pauli(k)

    def test_hermitian_unitary_traceless(self):
        for k in (1, 2, 3):
            s = pauli(k)
            np.testing.assert_allclose(s, s.conj().T)
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
            assert abs(np.trace(s)) < 1e-15


class TestUnitaryFromAxisAngle:
    def test_zero_angle(self):
        np.testing.assert_allclose(unitary_from_axis_angle(Z_AXIS, 0.0), np.eye(2))

    def test_half_turn_about_x(self):
        np.testing.assert_allclose(
            unitary_from_axis_angle(X_AXIS, np.pi), -1j * pauli(1), atol=1e-15
        )

    def test_hadamard_axis(self):
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        got = unitary_from_axis_angle(axis, np.pi)
        # independent route: direct matrix exponential
        generator = (pauli(1) + pauli(3)) / np.sqrt(2)
        np.testing.assert_allclose(got, expm(-1j * np.pi * generator / 2), atol=1e-12)
        np.testing.assert_allclose(got, -1j * HADAMARD, atol=1e-12)

    def test_always_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            u = unitary_from_axis_angle(v / np.linalg.norm(v), rng.uniform(0, 2 * np.pi))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            unitary_from_axis_angle(np.zeros(3), 1.0)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            unitary_from_axis_angle(Z_AXIS, angle)


class TestRotationFromUnitary:
    def test_identity(self):
        np.testing.assert_allclose(rotation_from_unitary(np.eye(2)), np.eye(3), atol=1e-15)

    def test_hadamard(self):
        # H swaps x and z and reflects y
        expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(rotation_from_unitary(HADAMARD), expected, atol=1e-12)

    def test_quarter_turn_about_z(self):
        u = expm(-1j * np.pi * pauli(3) / 4)
        np.testing.assert_allclose(
            rotation_from_unitary(u), rotation_from_axis_angle(Z_AXIS, np.pi / 2), atol=1e-12
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            rotation_from_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @settings(deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.0, 2 * np.pi),
    )
    def test_matches_trace_loop_and_is_proper(self, axis, angle, phase):
        u = np.exp(1j * phase) * unitary_from_axis_angle(np.array(axis), angle)
        r = rotation_from_unitary(u)
        expected = np.array(
            [
                [0.5 * np.trace(pauli(k) @ u @ pauli(l) @ u.conj().T).real for l in (1, 2, 3)]
                for k in (1, 2, 3)
            ]
        )
        np.testing.assert_allclose(r, expected, rtol=0, atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((1.0, -1.0)),
        st.floats(1e-6, 0.5),
        st.sampled_from(("grow", "shrink", "shear")),
    )
    def test_unitarity_check_agrees_with_is_unitary(self, seed, side, delta, kind):
        # the distortion puts ||m^dag m - I||_F at b = 1e-6 (1 + side delta)
        b = 1e-6 * (1.0 + side * delta)
        u = random_unitary(np.random.default_rng(seed))
        if kind == "shear":  # u [[1, e], [0, 1]]: norm sqrt(2 e^2 + e^4)
            m = u @ np.array([[1.0, np.sqrt(b * b / (1.0 + np.sqrt(1.0 + b * b)))], [0.0, 1.0]])
        else:  # s u: norm sqrt(2) |s^2 - 1|
            m = u * np.sqrt(1.0 + (1.0 if kind == "grow" else -1.0) * b / np.sqrt(2.0))
        accepted = is_unitary(m, 1e-6)
        assert accepted == (side < 0)
        if accepted:
            rotation_from_unitary(m)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                rotation_from_unitary(m)


class TestAxisAngleFromRotation:
    def test_identity_convention(self):
        aa = axis_angle_from_rotation(np.eye(3))
        np.testing.assert_allclose(aa.axis, Z_AXIS)
        assert aa.angle == 0.0

    def test_quarter_turn(self):
        aa = axis_angle_from_rotation(rotation_from_axis_angle(Z_AXIS, np.pi / 2))
        np.testing.assert_allclose(aa.axis, Z_AXIS, atol=1e-12)
        assert abs(aa.angle - np.pi / 2) < 1e-12

    def test_half_turn_pattern(self):
        aa = axis_angle_from_rotation(np.diag([1.0, -1.0, -1.0]))
        np.testing.assert_allclose(aa.axis, X_AXIS, atol=1e-12)
        assert abs(aa.angle - np.pi) < 1e-12

    def test_half_turn_axis_sign_is_lexicographic(self):
        # both +y and -y describe the same half turn; the larger one is reported
        aa = axis_angle_from_rotation(rotation_from_axis_angle(-Y_AXIS, np.pi))
        np.testing.assert_allclose(aa.axis, Y_AXIS, atol=1e-12)

    def test_rejects_improper_matrix(self):
        with pytest.raises(ValueError):
            axis_angle_from_rotation(np.diag([1.0, 1.0, -1.0]))


class TestProperties:
    def test_rodrigues_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            angle = rng.uniform(0, np.pi)
            r1 = rotation_from_unitary(unitary_from_axis_angle(axis, angle))
            r2 = rotation_from_axis_angle(axis, angle)
            np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_homomorphism(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u, v = random_unitary(rng), random_unitary(rng)
            left = rotation_from_unitary(u @ v)
            right = rotation_from_unitary(u) @ rotation_from_unitary(v)
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = random_unitary(rng)
            r = rotation_from_unitary(u)
            aa = axis_angle_from_rotation(r)
            assert abs(np.trace(r) - (1 + 2 * np.cos(aa.angle))) < 1e-9

    def test_unitary_round_trip_up_to_phase(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            u = random_unitary(rng)
            aa = axis_angle_from_rotation(rotation_from_unitary(u))
            u2 = unitary_from_axis_angle(aa.axis, aa.angle)
            overlap = abs(np.trace(u.conj().T @ u2)) / 2
            assert abs(overlap - 1) < 1e-9

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(15)
        angles = list(rng.uniform(0, np.pi, size=80)) + [0.0, np.pi, np.pi - 1e-7, 1e-8]
        for angle in angles:
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            r = rotation_from_axis_angle(axis, angle)
            aa = axis_angle_from_rotation(r)
            np.testing.assert_allclose(
                rotation_from_unitary(unitary_from_axis_angle(aa.axis, aa.angle)), r, atol=1e-8
            )

    def test_angle_always_in_range(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            aa = axis_angle_from_rotation(rotation_from_unitary(random_unitary(rng)))
            assert 0.0 <= aa.angle <= np.pi + 1e-12
            assert abs(np.linalg.norm(aa.axis) - 1) < 1e-12

