import numpy as np
import pytest
from scipy import stats

from qcausal.comb import CommonCause, DirectCause, pauli_vector
from qcausal.geometry import CC_TETRA, plane_gap
from qcausal.linalg import rotation_from_unitary
from qcausal.scenarios import (
    bell_diagonal,
    edge_cc,
    edge_dc,
    haar_unitary,
    haar_unitary_matrix,
    plane_cc,
    plane_dc,
    random_state,
)
from reference import axis_angle_from_rotation, bell_ket, member, phase_bell


class TestBellStates:
    def test_correlation_vectors(self):
        expected = {0: [1, -1, 1], 1: [-1, 1, 1], 2: [1, 1, -1], 3: [-1, -1, -1]}
        for k, vec in expected.items():
            weights = np.zeros(4)
            weights[k] = 1.0
            np.testing.assert_allclose(pauli_vector(bell_diagonal(weights)), vec, atol=1e-12)

    def test_kets_are_orthonormal(self):
        for i in range(4):
            for j in range(4):
                overlap = np.vdot(bell_ket(i), bell_ket(j))
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12

    @pytest.mark.parametrize("weights", [[np.nan, 0, 0, 1], [0.5, np.nan, 0.5, 0], [np.nan] * 4])
    def test_nan_weights_rejected_by_the_weight_check(self, weights):
        with pytest.raises(ValueError, match="weights"):
            bell_diagonal(weights)


class TestEdgeFamily:
    @pytest.mark.parametrize(
        "a,expected",
        [(0.0, [0, 1, 0]), (1.0, [-1, 0, 0]), (0.5, [-0.5, 0.5, 0.0])],
    )
    def test_channel_correlations(self, a, expected):
        np.testing.assert_allclose(pauli_vector(edge_dc(a)), expected, atol=1e-9)

    def test_channel_geometry(self):
        scenario = edge_dc(1.0)
        aa = axis_angle_from_rotation(rotation_from_unitary(scenario.unitary))
        assert abs(aa.angle - np.pi) < 1e-9
        np.testing.assert_allclose(np.abs(aa.axis), [0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)

    @pytest.mark.parametrize(
        "a,expected",
        [(0.0, [0, 1, 0]), (1.0, [-1, 0, 0]), (0.5, [-0.5, 0.5, 0.0])],
    )
    def test_state_correlations(self, a, expected):
        np.testing.assert_allclose(pauli_vector(edge_cc(a)), expected, atol=1e-9)

    def test_both_mechanisms_agree_everywhere(self):
        for a in np.linspace(0.0, 1.0, 101):
            a = float(a)
            np.testing.assert_allclose(
                pauli_vector(edge_dc(a)), pauli_vector(edge_cc(a)), atol=1e-9
            )

    @pytest.mark.parametrize("a", [-0.1, 1.1])
    def test_out_of_range(self, a):
        with pytest.raises(ValueError):
            edge_dc(a)
        with pytest.raises(ValueError):
            edge_cc(a)


class TestPlaneFamily:
    @pytest.mark.parametrize(
        "axis,expected",
        [
            ([0, 0, 1], [0, 0, 1]),
            ([1, 0, 0], [1, 0, 0]),
            (np.array([1, 1, 1]) / np.sqrt(3), [1 / 3, 1 / 3, 1 / 3]),
        ],
    )
    def test_channel_points(self, axis, expected):
        np.testing.assert_allclose(pauli_vector(plane_dc(np.asarray(axis, float))), expected, atol=1e-9)

    @pytest.mark.parametrize(
        "weights,expected",
        [
            ([1, 0, 0], [1, -1, 1]),
            ([1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]),
            ([0, 0, 1], [1, 1, -1]),
        ],
    )
    def test_state_points(self, weights, expected):
        np.testing.assert_allclose(pauli_vector(plane_cc(weights)), expected, atol=1e-9)

    def test_gap_vanishes_across_both_families(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            v = rng.normal(size=3)
            assert abs(plane_gap(pauli_vector(plane_dc(v / np.linalg.norm(v))))) < 1e-9
            w = rng.dirichlet([1, 1, 1])
            assert abs(plane_gap(pauli_vector(plane_cc(w)))) < 1e-9

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            plane_dc(np.array([0.0, 0.0, 2.0]))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            plane_cc([0.5, 0.6, 0.2])

    def test_nan_weights_rejected_by_the_weight_check(self):
        with pytest.raises(ValueError, match="weights"):
            plane_cc([np.nan, 0.5, 0.5])


class TestPhaseBell:
    @pytest.mark.parametrize(
        "phi,expected",
        [(0.0, [1, -1, 1]), (np.pi, [-1, 1, 1]), (np.pi / 2, [0, 0, 1])],
    )
    def test_correlations(self, phi, expected):
        np.testing.assert_allclose(pauli_vector(phase_bell(phi)), expected, atol=1e-12)

    def test_quarter_phase_mimics_quarter_turn(self):
        # same round-zero data from two different causal mechanisms
        np.testing.assert_allclose(
            pauli_vector(phase_bell(np.pi / 2)),
            pauli_vector(plane_dc(np.array([0.0, 0.0, 1.0]))),
            atol=1e-12,
        )


class TestHaarUnitary:
    def test_unitarity(self):
        for seed in range(5):
            u = haar_unitary(seed).unitary
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(123).unitary, haar_unitary(123).unitary)

    def test_matches_numpy_qr_and_draws(self):
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            u = haar_unitary_matrix(rng)
            z = (ref.normal(size=(2, 2)) + 1j * ref.normal(size=(2, 2))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            np.testing.assert_allclose(u, q * (d / np.abs(d)), rtol=0, atol=1e-13)
            # same draws: the generators stay in step
            assert rng.normal() == ref.normal()

    def test_rotation_angle_density(self):
        # Haar angles follow (1 - cos t) / pi on [0, pi]; check via chi^2.
        rng = np.random.default_rng(72)
        n = 100_000
        angles = np.empty(n)
        for i in range(n):
            u = haar_unitary_matrix(rng)
            angles[i] = 2 * np.arccos(np.clip(abs(np.trace(u)) / 2, 0.0, 1.0))
        # the |trace| shortcut agrees with the full decomposition
        check_rng = np.random.default_rng(73)
        for _ in range(50):
            u = haar_unitary_matrix(check_rng)
            full = axis_angle_from_rotation(rotation_from_unitary(u)).angle
            short = 2 * np.arccos(np.clip(abs(np.trace(u)) / 2, 0.0, 1.0))
            assert abs(full - short) < 1e-9
        edges = np.linspace(0.0, np.pi, 21)
        observed, _ = np.histogram(angles, bins=edges)
        cdf = (edges - np.sin(edges)) / np.pi
        expected = n * np.diff(cdf)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01


class TestRandomState:
    def test_pure_states(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            rho = random_state("pure", rng).state.rho
            assert abs(np.trace(rho).real - 1) < 1e-12
            purity = np.real(np.trace(rho @ rho))
            assert abs(purity - 1) < 1e-9

    def test_mixed_states(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            rho = random_state("mixed", rng).state.rho
            purity = np.real(np.trace(rho @ rho))
            assert 0.25 - 1e-12 <= purity <= 1.0 + 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_correlations_inside_state_tetrahedron(self):
        rng = np.random.default_rng(76)
        for kind in ("pure", "mixed"):
            for _ in range(100):
                assert member(pauli_vector(random_state(kind, rng)), CC_TETRA, tol=1e-7)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_state("mixed", 7).state.rho, random_state("mixed", 7).state.rho
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_state("thermal", 0)
