import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.comb import (
    CommonCause,
    DirectCause,
    JointDistribution,
    ObservableSpec,
    ScenarioFormatError,
    ShotCounts,
    TwoQubitState,
    _joint_probs,
    _probability_table,
    correlation,
    exact_joint,
    make_oracle,
    pauli_vector,
    sample_counts,
    scenario_from_json,
    scenario_to_json,
)
from qcausal.linalg import kron, pauli, rotation_from_unitary, unitary_from_axis_angle
from qcausal.scenarios import bell_diagonal

I2 = pauli(0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.outer(*(2 * [np.array([1, 0, 0, 1]) / np.sqrt(2)]))


def random_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_mixed_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def correlation_matrix_oracle(rho):
    # direct 4x4 traces, independent of TwoQubitState.correlation_matrix
    return np.array(
        [
            [np.real(np.trace(rho @ kron(pauli(k), pauli(l)))) for l in (1, 2, 3)]
            for k in (1, 2, 3)
        ]
    )


class TestTypes:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
        TwoQubitState(np.eye(4) / 4)

    def test_direct_cause_validation(self):
        with pytest.raises(ValueError):
            DirectCause(np.array([[1.0, 0.1], [0.0, 1.0]]))
        dc = DirectCause(HADAMARD)
        np.testing.assert_allclose(dc.input_marginal, np.eye(2) / 2)

    def test_observable_spec(self):
        with pytest.raises(ValueError):
            ObservableSpec(I2, 0)
        obs = ObservableSpec(HADAMARD, 3)
        # H maps the z direction to x
        np.testing.assert_allclose(obs.bloch_direction(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_joint_distribution_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([0.5, 0.5, 0.5, -0.5]))
        d = JointDistribution(np.array([0.25] * 4))
        np.testing.assert_allclose(d.marginal_x(), [0.5, 0.5])

    def test_shot_counts_validation(self):
        with pytest.raises(ValueError):
            ShotCounts(np.array([1, 2, 3, 4]), 11)
        sc = ShotCounts(np.array([1, 2, 3, 4]), 10)
        np.testing.assert_allclose(sc.frequencies(), [0.1, 0.2, 0.3, 0.4])


class TestExactJoint:
    def test_identity_channel_z_measurements(self):
        d = exact_joint(DirectCause(I2), ObservableSpec(I2, 3), ObservableSpec(I2, 3))
        np.testing.assert_allclose(d.p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_phi_plus_y_measurements_anticorrelate(self):
        cc = CommonCause(TwoQubitState(PHI_PLUS))
        d = exact_joint(cc, ObservableSpec(I2, 2), ObservableSpec(I2, 2))
        np.testing.assert_allclose(d.p, [0.0, 0.5, 0.5, 0.0], atol=1e-12)
        assert abs(correlation(d) + 1.0) < 1e-12

    def test_hadamard_channel_z_measurements_uniform(self):
        d = exact_joint(DirectCause(HADAMARD), ObservableSpec(I2, 3), ObservableSpec(I2, 3))
        np.testing.assert_allclose(d.p, [0.25] * 4, atol=1e-12)


class TestNoSignaling:
    def test_remote_setting_cannot_move_marginals(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(40):
            scenario = (
                DirectCause(random_unitary(rng))
                if rng.random() < 0.5
                else CommonCause(random_mixed_state(rng))
            )
            k = int(rng.integers(1, 4))
            obs_y = ObservableSpec(random_unitary(rng), k)
            my = [
                exact_joint(scenario, ObservableSpec(random_unitary(rng), k), obs_y).marginal_y()
                for _ in range(3)
            ]
            worst = max(worst, np.abs(my[0] - my[1]).max(), np.abs(my[0] - my[2]).max())
            obs_x = ObservableSpec(random_unitary(rng), k)
            mx = [
                exact_joint(scenario, obs_x, ObservableSpec(random_unitary(rng), k)).marginal_x()
                for _ in range(3)
            ]
            worst = max(worst, np.abs(mx[0] - mx[1]).max(), np.abs(mx[0] - mx[2]).max())
        assert worst < 1e-12


class TestSampling:
    def test_degenerate_distribution(self):
        d = JointDistribution(np.array([1.0, 0.0, 0.0, 0.0]))
        sc = sample_counts(d, 100, seed=0)
        np.testing.assert_array_equal(sc.counts, [100, 0, 0, 0])

    def test_uniform_counts_concentrate(self):
        d = JointDistribution(np.array([0.25] * 4))
        for seed in range(5):
            sc = sample_counts(d, 4000, seed=seed)
            assert sc.counts.min() >= 800 and sc.counts.max() <= 1200

    def test_deterministic_per_seed(self):
        d = JointDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        a = sample_counts(d, 1000, seed=42)
        b = sample_counts(d, 1000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_zero_shots_rejected(self):
        d = JointDistribution(np.array([0.25] * 4))
        with pytest.raises(ValueError):
            sample_counts(d, 0, seed=1)


class TestCorrelation:
    def test_perfect(self):
        assert correlation(JointDistribution(np.array([0.5, 0, 0, 0.5]))) == 1.0

    def test_uniform(self):
        assert correlation(JointDistribution(np.array([0.25] * 4))) == 0.0

    def test_counts(self):
        assert abs(correlation(ShotCounts(np.array([30, 10, 10, 50]), 100)) - 0.6) < 1e-15


class TestPauliVector:
    def test_pauli_z_channel(self):
        np.testing.assert_allclose(
            pauli_vector(DirectCause(pauli(3))), [-1.0, -1.0, 1.0], atol=1e-12
        )

    def test_identity_channel(self):
        np.testing.assert_allclose(pauli_vector(DirectCause(I2)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_phi_plus(self):
        np.testing.assert_allclose(
            pauli_vector(CommonCause(TwoQubitState(PHI_PLUS))), [1.0, -1.0, 1.0], atol=1e-12
        )

    def test_channel_closed_form_is_rotation_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            u = random_unitary(rng)
            np.testing.assert_allclose(
                pauli_vector(DirectCause(u)), np.diag(rotation_from_unitary(u)), atol=1e-9
            )

    def test_state_closed_form_is_correlation_diagonal(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            state = random_mixed_state(rng)
            np.testing.assert_allclose(
                pauli_vector(CommonCause(state)),
                np.diag(correlation_matrix_oracle(state.rho)),
                atol=1e-9,
            )

    def test_modifier_covariance_channel(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            u, v = random_unitary(rng), random_unitary(rng)
            o = rotation_from_unitary(v)
            expected = np.diag(o.T @ rotation_from_unitary(u) @ o)
            np.testing.assert_allclose(pauli_vector(DirectCause(u), v, v), expected, atol=1e-9)

    def test_modifier_covariance_state(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            state = random_mixed_state(rng)
            v, w = random_unitary(rng), random_unitary(rng)
            t = correlation_matrix_oracle(state.rho)
            expected = np.diag(
                rotation_from_unitary(v).T @ t @ rotation_from_unitary(w)
            )
            np.testing.assert_allclose(
                pauli_vector(CommonCause(state), v, w), expected, atol=1e-9
            )

    def test_sampled_mode_converges(self):
        rng = np.random.default_rng(35)
        for i in range(15):
            scenario = (
                DirectCause(random_unitary(rng)) if i % 2 else CommonCause(random_mixed_state(rng))
            )
            exact = pauli_vector(scenario)
            sampled = pauli_vector(scenario, shots=10**6, seed=i)
            assert np.abs(exact - sampled).max() < 0.01


class TestOracle:
    def test_query_counter(self):
        oracle = make_oracle(DirectCause(I2))
        oracle.query()
        oracle.query(HADAMARD, HADAMARD)
        assert oracle.query_count == 2

    def test_known_answers(self):
        np.testing.assert_allclose(make_oracle(DirectCause(I2)).query(), [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(
            make_oracle(CommonCause(TwoQubitState(PHI_PLUS))).query(), [1, -1, 1], atol=1e-12
        )

    def test_scenario_not_exposed(self):
        oracle = make_oracle(DirectCause(I2))
        assert not hasattr(oracle, "scenario")

    def test_sampled_queries_deterministic(self):
        a = make_oracle(DirectCause(HADAMARD), shots=1000, seed=5)
        b = make_oracle(DirectCause(HADAMARD), shots=1000, seed=5)
        np.testing.assert_array_equal(a.query(), b.query())
        np.testing.assert_array_equal(a.query(HADAMARD, I2), b.query(HADAMARD, I2))

    def test_history_keeps_counts(self):
        oracle = make_oracle(DirectCause(I2), shots=500, seed=9)
        oracle.query()
        rec = oracle.history[0]
        assert len(rec.counts) == 3
        assert all(c.shots == 500 for c in rec.counts)

    def test_counter_is_thread_safe(self):
        import concurrent.futures

        oracle = make_oracle(DirectCause(HADAMARD))
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: oracle.query(), range(160)))
        assert oracle.query_count == 160
        assert len(oracle.history) == 160


class TestScenarioJson:
    def test_axis_angle_form(self):
        scenario = scenario_from_json({"dc": {"axis": [0, 0, 1], "angle": np.pi / 2}})
        expected = unitary_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
        np.testing.assert_allclose(scenario.unitary, expected, atol=1e-12)

    def test_matrix_round_trip_channel(self):
        rng = np.random.default_rng(41)
        scenario = DirectCause(random_unitary(rng))
        back = scenario_from_json(scenario_to_json(scenario))
        np.testing.assert_allclose(back.unitary, scenario.unitary, atol=1e-12)

    def test_matrix_round_trip_state(self):
        rng = np.random.default_rng(42)
        scenario = CommonCause(random_mixed_state(rng))
        back = scenario_from_json(scenario_to_json(scenario))
        np.testing.assert_allclose(back.state.rho, scenario.state.rho, atol=1e-12)

    def test_bell_diagonal_form(self):
        scenario = scenario_from_json({"cc_bell_diagonal": [1, 0, 0, 0]})
        np.testing.assert_allclose(pauli_vector(scenario), [1, -1, 1], atol=1e-12)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"dc": {"axis": [0, 0, 1], "angle": 0.1}, "cc_bell_diagonal": [1, 0, 0, 0]},
            {"cc_bell_diagonal": [0.5, 0.5, 0.5, -0.5]},
            {"dc_matrix": [[[1, 0]]]},
            {"cc_matrix": [[[1, 0]] * 4] * 3},
            {"dc": {"axis": [0, 0, 0], "angle": 1.0}},
            "not a dict",
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(doc)


# Hypothesis strategies: floats reach the corner cases (zero axis components,
# angles 0 and pi, zero Bell weights) that seeded sampling rarely hits.
unit_interval = st.floats(-1.0, 1.0)
vectors = st.tuples(unit_interval, unit_interval, unit_interval).map(np.array)
axes = vectors.filter(lambda v: np.linalg.norm(v) > 1e-3)
unitaries = st.builds(
    lambda axis, angle, phase: np.exp(1j * phase) * unitary_from_axis_angle(axis, angle),
    axes,
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 2 * np.pi),
)


def _input_marginal(v):
    # Bloch vectors longer than 1 are pulled back to the sphere (pure inputs).
    v = v / max(1.0, float(np.linalg.norm(v)))
    return 0.5 * (I2 + np.tensordot(v, np.stack([pauli(k) for k in (1, 2, 3)]), axes=1))


def _pure_state(amps):
    psi = np.asarray(amps[:4]) + 1j * np.asarray(amps[4:])
    psi = psi / np.linalg.norm(psi)
    return CommonCause(TwoQubitState(np.outer(psi, psi.conj())))


channels = st.builds(
    lambda u, v: DirectCause(u, _input_marginal(v)),
    unitaries,
    axes,  # a nonzero Bloch vector: the input is not maximally mixed
)
pure_states = st.lists(unit_interval, min_size=8, max_size=8).filter(
    lambda a: np.linalg.norm(a) > 1e-3
).map(_pure_state)
mixed_states = st.integers(0, 2**32 - 1).map(
    lambda seed: CommonCause(random_mixed_state(np.random.default_rng(seed)))
)
bell_states = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 1e-3
).map(lambda w: bell_diagonal(np.asarray(w) / sum(w)))
mechanisms = st.one_of(channels, pure_states, mixed_states, bell_states)


class TestClosedForm:
    """The oracle's closed form against the projector formula of ``exact_joint``."""

    @settings(deadline=None)
    @given(mechanisms, unitaries, unitaries)
    def test_probabilities_match_projectors(self, scenario, wx, wy):
        ox, oy = rotation_from_unitary(wx), rotation_from_unitary(wy)
        table = _probability_table(scenario, ox, oy)
        for k in range(3):
            np.testing.assert_allclose(
                table[k], _joint_probs(scenario, ox[:, k], oy[:, k]), rtol=0, atol=1e-12
            )

    @settings(deadline=None)
    @given(mechanisms, unitaries, unitaries)
    def test_correlations_match_exact_joint(self, scenario, wx, wy):
        values = make_oracle(scenario).query(wx, wy)
        expected = [
            correlation(exact_joint(scenario, ObservableSpec(wx, k), ObservableSpec(wy, k)))
            for k in (1, 2, 3)
        ]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(st.one_of(pure_states, mixed_states, bell_states))
    def test_correlation_matrix_matches_traces(self, scenario):
        np.testing.assert_allclose(
            scenario.state.correlation_matrix(),
            correlation_matrix_oracle(scenario.state.rho),
            rtol=0,
            atol=1e-12,
        )

    @settings(deadline=None, max_examples=30)
    @given(mechanisms, unitaries, unitaries, st.integers(0, 2**32 - 1))
    def test_sampled_counts_repeat_per_seed(self, scenario, wx, wy, seed):
        runs = []
        for _ in range(2):
            oracle = make_oracle(scenario, shots=1000, seed=seed)
            oracle.query()
            oracle.query(wx, wy)
            runs.append([sc.counts for rec in oracle.history for sc in rec.counts])
        np.testing.assert_array_equal(runs[0], runs[1])

    @settings(deadline=None, max_examples=40)
    @given(mechanisms, unitaries, st.integers(0, 2**32 - 1))
    def test_same_modifier_object_or_copy_give_identical_bits(self, scenario, v, seed):
        # query(v, v) builds one frame for both sides; a copy of v builds two
        exact = make_oracle(scenario)
        np.testing.assert_array_equal(exact.query(v, v), exact.query(v, v.copy()))
        same, copied = make_oracle(scenario, 1000, seed), make_oracle(scenario, 1000, seed)
        for _ in range(2):
            np.testing.assert_array_equal(same.query(v, v), copied.query(v, v.copy()))
        counts = [[sc.counts for rec in o.history for sc in rec.counts] for o in (same, copied)]
        np.testing.assert_array_equal(counts[0], counts[1])
