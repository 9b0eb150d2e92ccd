import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcausal.bench import _edge_grid, _plane_grid
from qcausal.comb import (
    CommonCause,
    DirectCause,
    MeasurementOracle,
    TwoQubitState,
    make_oracle,
    pauli_vector,
)
from qcausal.geometry import distance, plane_gap
from qcausal.identify import (
    AlgoConfig,
    SECOND_ROUND_TARGET,
    alignment_scan,
    axis_candidates,
    identify,
    modifier_from_axis,
    second_round,
)
from qcausal.linalg import pauli, rotation_from_unitary, unitary_from_axis_angle
from qcausal.scenarios import bell_diagonal, haar_unitary, haar_unitary_matrix, plane_dc, random_state
from reference import axis_angle_from_rotation, correlation

I2 = pauli(0)
SX = pauli(1)


def sym_part(m):
    return (m + m.T) / 2


class TestAxisCandidates:
    def test_quarter_turn_about_z(self):
        cands = axis_candidates(np.array([0.0, 0.0, 1.0]))
        assert abs(cands.cos_theta) < 1e-12
        assert len(cands.axes) == 1
        np.testing.assert_allclose(cands.axes[0], [0, 0, 1], atol=1e-12)

    def test_identity_short_circuit(self):
        cands = axis_candidates(np.array([1.0, 1.0, 1.0]))
        assert cands.cos_theta == 1.0
        assert len(cands.axes) == 1
        np.testing.assert_allclose(cands.axes[0], [0, 0, 1])

    def test_edge_family_point(self):
        cands = axis_candidates(np.array([-0.5, 0.5, 0.0]))
        assert abs(cands.cos_theta + 0.5) < 1e-12
        assert len(cands.axes) == 2
        for axis in cands.axes:
            np.testing.assert_allclose(
                np.abs(axis), [0.0, np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12
            )

    def test_generic_point_has_four_sign_classes(self):
        cands = axis_candidates(np.array([0.2, 0.3, 0.4]))
        assert len(cands.axes) == 4
        for a in cands.axes:
            assert abs(np.linalg.norm(a) - 1) < 1e-12
        # distinct up to global sign
        for i, a in enumerate(cands.axes):
            for b in cands.axes[i + 1:]:
                assert abs(abs(float(a @ b)) - 1) > 1e-6

    def test_all_negative_input_falls_back(self):
        cands = axis_candidates(np.array([-1.0, -1.0, -1.0]))
        assert len(cands.axes) == 1

    def test_true_axis_always_enumerated(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            angle = rng.uniform(0.2, np.pi - 0.2)
            p = np.diag(rotation_from_unitary(unitary_from_axis_angle(axis, angle)))
            cands = axis_candidates(p)
            assert any(abs(abs(float(axis @ c)) - 1) < 1e-6 for c in cands.axes)


class TestModifierFromAxis:
    def test_zenith_is_identity(self):
        np.testing.assert_allclose(modifier_from_axis(np.array([0.0, 0.0, 1.0])), I2)

    def test_x_axis(self):
        v = modifier_from_axis(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            v, unitary_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2), atol=1e-12
        )
        np.testing.assert_allclose(v @ pauli(3) @ v.conj().T, pauli(1), atol=1e-12)

    def test_antipodal(self):
        v = modifier_from_axis(np.array([0.0, 0.0, -1.0]))
        np.testing.assert_allclose(v @ pauli(3) @ v.conj().T, -pauli(3), atol=1e-12)

    def test_conjugation_reaches_any_axis(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            v = modifier_from_axis(n)
            target = n[0] * pauli(1) + n[1] * pauli(2) + n[2] * pauli(3)
            np.testing.assert_allclose(v @ pauli(3) @ v.conj().T, target, atol=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            # within 1e-12 of -z the fixed antipodal branch takes over
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
                lambda v: np.linalg.norm(v) > 1e-3 and v[2] / np.linalg.norm(v) > -1 + 1e-11
            ),
            # within 1e-6 of +z, where the half-angle form needs no special case
            st.just((0.0, 1e-6, 1.0)),
            st.builds(
                lambda t, phi: (np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi), np.cos(t)),
                st.floats(0.0, 1e-6),
                st.floats(0.0, 2 * np.pi),
            ),
            # just above the antipodal branch, where 1 + n_z cancels
            st.builds(
                lambda nz, phi: (np.sqrt(1 - nz * nz) * np.cos(phi), np.sqrt(1 - nz * nz) * np.sin(phi), nz),
                st.floats(-1.0 + 1e-11, -0.999),
                st.floats(0.0, 2 * np.pi),
            ),
        )
    )
    def test_maps_zenith_to_axis(self, axis):
        n = np.asarray(axis) / np.linalg.norm(axis)
        v = modifier_from_axis(np.asarray(axis))
        np.testing.assert_allclose(v.conj().T @ v, I2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rotation_from_unitary(v)[:, 2], n, rtol=0, atol=1e-12)

    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError, match="nonzero finite"):
            modifier_from_axis(np.zeros(3))


class TestIdentify:
    def test_quarter_turn_channel(self):
        scenario = DirectCause(unitary_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2))
        result = identify(make_oracle(scenario))
        assert result.verdict == "DC"
        assert result.criterion_value < 1e-9
        # the input lies on the ambiguous plane, so the flipped round decides
        assert result.rounds_used == 2

    def test_identity_channel(self):
        result = identify(make_oracle(DirectCause(I2)))
        assert result.verdict == "DC"
        assert result.criterion_value < 1e-9

    def test_bell_diagonal_state_on_edge(self):
        scenario = bell_diagonal([0.0, 0.5, 0.25, 0.25])  # correlations (-1/2, 1/2, 0)
        result = identify(make_oracle(scenario))
        assert result.verdict == "CC"
        assert result.rounds_used == 1
        # no measurement frame can beat the top eigenvalue 1/2 of the
        # correlation matrix, and the refinement probe attains it
        assert result.criterion_value >= 0.5 - 1e-12
        assert abs(result.criterion_value - 0.5) < 1e-9

    def test_haar_channels_all_identified(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            result = identify(make_oracle(haar_unitary(rng)))
            assert result.verdict == "DC"

    def test_random_states_all_identified(self):
        rng = np.random.default_rng(54)
        for kind in ("mixed", "pure"):
            for _ in range(30):
                result = identify(make_oracle(random_state(kind, rng)))
                assert result.verdict == "CC"

    def test_query_budget(self):
        rng = np.random.default_rng(55)
        scenarios = [haar_unitary(rng) for _ in range(20)]
        scenarios += [random_state("mixed", rng) for _ in range(20)]
        scenarios += [plane_dc(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))]
        sweep_points = list(_edge_grid(5)) + list(_plane_grid(3))
        sweep_scenarios = [m for _, mechs in sweep_points for m in mechs.values()]
        runs = [(s, 0) for s in scenarios + sweep_scenarios]
        runs += [(s, 2000) for s in sweep_scenarios]
        for i, (scenario, shots) in enumerate(runs):
            oracle = make_oracle(scenario, shots=shots, seed=i)
            result = identify(oracle)
            assert result.query_count <= 25
            assert len(oracle.history) == result.query_count

    def test_round_one_criterion_matches_trail(self):
        scenario = bell_diagonal([0.0, 0.5, 0.25, 0.25])
        oracle = make_oracle(scenario)
        result = identify(oracle)
        criteria = [1 - rec.correlations[2] for rec in oracle.history[1:]]
        assert abs(min(criteria) - result.criterion_value) < 1e-12

    def test_counts_reproduce_criterion(self):
        # the carried counts belong to the query whose criterion was thresholded
        for scenario, rounds in ((bell_diagonal([0.0, 0.5, 0.25, 0.25]), 1), (plane_dc([0, 0, 1]), 2)):
            result = identify(make_oracle(scenario, shots=5000, seed=8))
            assert result.rounds_used == rounds
            values = [correlation(c) for c in result.counts]
            expected = 1 - values[2] if rounds == 1 else distance(values, SECOND_ROUND_TARGET)
            assert abs(expected - result.criterion_value) < 1e-12
        assert identify(make_oracle(haar_unitary(1))).counts is None

    def test_threshold_is_the_deciding_rounds_cutoff(self):
        config = AlgoConfig(epsilon=0.05, delta=0.2, epsilon_prime=0.5)
        cases = (
            (bell_diagonal([0.0, 0.5, 0.25, 0.25]), 1, config.epsilon),
            (plane_dc([0, 0, 1]), 2, config.epsilon_prime),
            (bell_diagonal([1, 0, 0, 0]), 2, config.epsilon_prime),
        )
        for scenario, rounds, threshold in cases:
            result = identify(make_oracle(scenario), config)
            assert result.rounds_used == rounds
            assert result.threshold == threshold
            assert (result.verdict == "DC") == (result.criterion_value < threshold)

    def test_winning_modifier_reported_for_dc_only(self):
        dc = identify(make_oracle(haar_unitary(1)))
        assert dc.winning_modifier is not None
        cc = identify(make_oracle(random_state("mixed", 2)))
        assert cc.winning_modifier is None


class _NudgedOracle(MeasurementOracle):
    """Exact oracle whose results are off by a few ulps, as another rounding order would give."""

    def __init__(self, scenario, seed):
        super().__init__(scenario)
        self._nudges = np.random.default_rng(seed)

    def query(self, modifier_x=None, modifier_y=None):
        values = super().query(modifier_x, modifier_y) * (1 + self._nudges.integers(-2, 3, 3) * 2.2e-16)
        self.history[-1] = replace(self.history[-1], correlations=values)
        return values


class TestRefinementProbe:
    @pytest.mark.parametrize(
        "weights",
        [[0.1, 0.2, 0.3, 0.4], [0, 0.5, 0.45, 0.05], [0.35, 0.3, 0.3, 0.05], [0.25] * 4],
    )
    def test_probe_axis_is_stable_under_rounding(self, weights):
        scenario = bell_diagonal(weights)
        plain = make_oracle(scenario)
        reference = identify(plain)
        for seed in range(8):
            nudged = _NudgedOracle(scenario, seed)
            result = identify(nudged)
            assert result.verdict == reference.verdict
            assert result.query_count == reference.query_count
            assert abs(result.criterion_value - reference.criterion_value) < 1e-12
            np.testing.assert_allclose(
                nudged.history[-1].modifier_x, plain.history[-1].modifier_x, rtol=0, atol=1e-9
            )


class TestAlignmentTheorem:
    def test_aligned_frame_exists_for_every_channel(self):
        rng = np.random.default_rng(56)
        config = AlgoConfig()
        for _ in range(100):
            scenario = haar_unitary(rng)
            angle = axis_angle_from_rotation(rotation_from_unitary(scenario.unitary)).angle
            oracle = make_oracle(scenario)
            entries = alignment_scan(oracle, oracle.query(), config)
            hits = [
                e
                for e in entries
                if e.criterion < 1e-9
                and abs(e.record.correlations[0] - e.record.correlations[1]) < 1e-9
                and abs(e.record.correlations[0] - np.cos(angle)) < 1e-9
            ]
            assert hits


class TestMimicryBound:
    def test_no_frame_beats_top_eigenvalue(self):
        rng = np.random.default_rng(57)
        config = AlgoConfig()
        checked = 0
        while checked < 100:
            scenario = random_state("mixed", rng)
            t = scenario.state.T
            if plane_gap(np.diag(t)) < config.delta:
                continue
            checked += 1
            lam = np.linalg.eigvalsh(sym_part(t)).max()
            result = identify(make_oracle(scenario), config)
            assert result.verdict == "CC"
            assert result.criterion_value >= 1 - lam - 1e-9
            # plane-gap bound keeps mimicry away from the cutoff
            assert lam <= 1 - plane_gap(np.diag(t)) / 2 + 1e-9


class TestSecondRound:
    def test_flip_pins_third_correlation(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            angle = rng.uniform(0.1, np.pi - 0.1)
            scenario = DirectCause(unitary_from_axis_angle(axis, angle))
            v1 = modifier_from_axis(axis)
            p = pauli_vector(scenario, v1, v1 @ SX)
            assert abs(p[2] + 1.0) < 1e-9

    def test_quarter_turn_reaches_target(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            oracle = make_oracle(plane_dc(axis))
            result = identify(oracle)
            assert result.verdict == "DC"
            assert result.criterion_value < 1e-9
            # the flipped probe of the aligned frame shows the pinned entry
            assert any(abs(rec.correlations[2] + 1.0) < 1e-9 for rec in oracle.history)

    def test_states_stay_far_from_target(self):
        result = identify(make_oracle(bell_diagonal([1.0, 0.0, 0.0, 0.0])))
        assert result.verdict == "CC"
        assert result.rounds_used == 2
        assert result.criterion_value > 1 / np.sqrt(3)

    def test_state_final_vectors_never_approach_target(self):
        # brute force: random states, random frame pairs; the reachable set
        # keeps Euclidean distance >= 2/sqrt(3) from (-1, -1, 1)
        rng = np.random.default_rng(60)
        floor = np.inf
        for _ in range(40):
            scenario = random_state("mixed", rng)
            for _ in range(10):
                w1 = rng.normal(size=3)
                w2 = rng.normal(size=3)
                v1 = modifier_from_axis(w1 / np.linalg.norm(w1))
                v2 = modifier_from_axis(w2 / np.linalg.norm(w2))
                p = pauli_vector(scenario, v1 @ v2, v1 @ SX @ v2)
                floor = min(floor, distance(p, SECOND_ROUND_TARGET))
        assert floor >= 2 / np.sqrt(3) - 1e-9

    def test_single_modifier_api(self):
        scenario = plane_dc(np.array([0.0, 0.0, 1.0]))
        oracle = make_oracle(scenario)
        p0 = oracle.query()
        entry = second_round(oracle, modifier_from_axis(axis_candidates(p0).axes[0]))
        assert entry.criterion < 1e-9
        # the closest of the flipped-frame probes (the queries after p0 and p1), as the oracle recorded it
        probes = oracle.history[2:]
        assert entry.criterion == min(distance(r.correlations, SECOND_ROUND_TARGET) for r in probes)
        assert any(r is entry.record for r in probes)
        assert entry.record.counts is None
        result = identify(make_oracle(scenario))
        assert (result.verdict, result.rounds_used) == ("DC", 2)
        assert result.criterion_value < 1e-9


class TestNoiseStability:
    def test_sampled_verdicts_match_exact_for_wide_margins(self):
        rng = np.random.default_rng(61)
        mismatches = 0
        total = 0
        for i in range(40):
            scenario = haar_unitary(rng) if i % 2 else random_state("mixed", rng)
            exact = identify(make_oracle(scenario)).verdict
            sampled = identify(make_oracle(scenario, shots=10**5, seed=i)).verdict
            total += 1
            mismatches += exact != sampled
        assert mismatches <= 1


class TestDeltaBoundary:
    # Unpolarised states T = O diag(d) O^T whose diagonal sums to 1 - delta and whose
    # top eigenvalue is 1 - delta/2: they sit exactly on the delta = 2 epsilon bound,
    # so without the plane guard rounding decides (130 of these 900 are then called DC).
    @pytest.mark.parametrize(
        "d", [(0.925, 0.0, -0.075), (0.925, -0.0375, -0.0375), (-0.075, 0.925, 0.0)]
    )
    def test_rotated_boundary_states_take_the_flipped_round(self, d):
        paulis = [pauli(k) for k in range(4)]
        basis = [[np.kron(paulis[k], paulis[l]) for l in (1, 2, 3)] for k in (1, 2, 3)]
        rng = np.random.default_rng(1)
        for _ in range(300):
            o = rotation_from_unitary(haar_unitary_matrix(rng))
            t = o @ np.diag(d) @ o.T
            rho = (np.eye(4) + sum(t[k, l] * basis[k][l] for k in range(3) for l in range(3))) / 4
            result = identify(make_oracle(CommonCause(TwoQubitState(rho))))
            assert result.verdict == "CC"
            assert result.rounds_used == 2
            # the flipped round separates the causes far beyond epsilon_prime
            assert result.criterion_value > 2 * AlgoConfig().epsilon_prime


# Scale-free parametrisations: a direction, a ket or a Ginibre matrix means the
# same mechanism at any nonzero scale, so the filters below drop no mechanism.
_component = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


def _channel(axis, angle):
    return DirectCause(unitary_from_axis_angle(np.asarray(axis), angle))


def _ginibre_state(entries):
    g = np.reshape(entries, (2, 4, 4))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    return CommonCause(TwoQubitState(rho / np.trace(rho).real))


def _pure_state(entries):
    ket = entries[:4] + 1j * entries[4:]
    ket = ket / np.linalg.norm(ket)
    return CommonCause(TwoQubitState(np.outer(ket, ket.conj())))


_channels = st.builds(
    _channel,
    st.tuples(_component, _component, _component).filter(lambda v: np.linalg.norm(v) > 1e-6),
    st.one_of(st.just(0.0), st.just(np.pi), st.floats(0.0, 2 * np.pi)),
)
_states = st.one_of(
    st.builds(
        _ginibre_state,
        arrays(float, 32, elements=_component).filter(lambda v: np.linalg.norm(v) > 1e-3),
    ),
    st.builds(
        _pure_state,
        arrays(float, 8, elements=_component).filter(lambda v: np.linalg.norm(v) > 1e-3),
    ),
    st.builds(
        lambda w: bell_diagonal(np.asarray(w) / sum(w)),
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4).filter(
            lambda w: sum(w) > 1e-6
        ),
    ),
)


def _axis_permutations():
    """The 24 signed axis permutations P with determinant +1, each with a unitary U_P inducing it."""
    out = []
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            p = np.array(signs)[:, None] * np.eye(3)[list(order)]
            if np.linalg.det(p) > 0:
                out.append((p, unitary_from_axis_angle(*axis_angle_from_rotation(p))))
    return out


def _permuted(scenario, u):
    """The mechanism in axes permuted by ``P = rotation_from_unitary(u)``.

    A channel's unitary becomes ``u U u^dag`` (R -> P R P^T), a state becomes
    ``K rho K^dag`` with ``K = u (x) u`` (T -> P T P^T).
    """
    if isinstance(scenario, DirectCause):
        return DirectCause(u @ scenario.unitary @ u.conj().T)
    k = np.kron(u, u)
    return CommonCause(TwoQubitState(k @ scenario.state.rho @ k.conj().T))


_PERMUTATIONS = st.sampled_from(_axis_permutations())


class TestExactNeverWrong:
    """Exact mode never misclassifies, within the 25-query budget, before or after permuting the axes."""

    @settings(deadline=None, max_examples=250)
    @given(_channels, _PERMUTATIONS)
    def test_channels_are_direct_causes(self, scenario, permutation):
        p, u = permutation
        np.testing.assert_allclose(rotation_from_unitary(u), p, atol=1e-12)
        for mechanism in (scenario, _permuted(scenario, u)):
            result = identify(make_oracle(mechanism))
            assert result.verdict == "DC"
            assert result.query_count <= 25

    @settings(deadline=None, max_examples=250)
    @given(_states, _PERMUTATIONS)
    def test_states_are_common_causes(self, scenario, permutation):
        p, u = permutation
        np.testing.assert_allclose(rotation_from_unitary(u), p, atol=1e-12)
        for mechanism in (scenario, _permuted(scenario, u)):
            result = identify(make_oracle(mechanism))
            assert result.verdict == "CC"
            assert result.query_count <= 25


class TestConfig:
    def test_defaults(self):
        config = AlgoConfig()
        assert config.epsilon == 0.075
        assert config.delta == 0.15
        assert abs(config.epsilon_prime - 1 / np.sqrt(3)) < 1e-15

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            AlgoConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(delta=-1.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            for name in ("epsilon", "delta", "epsilon_prime"):
                with pytest.raises(ValueError):
                    AlgoConfig(**{name: bad})
        # delta < 2 * epsilon would let a common cause pass the alignment test
        with pytest.raises(ValueError, match="delta"):
            AlgoConfig(epsilon=0.3)
        with pytest.raises(ValueError, match="delta"):
            AlgoConfig(epsilon=0.1, delta=0.19)
        AlgoConfig(epsilon=0.1, delta=0.2)
        # no common cause comes within 2/sqrt(3) of (-1, -1, 1): a larger cutoff voids the flipped round
        for bad in (2 / np.sqrt(3), 1.25):
            with pytest.raises(ValueError, match="epsilon_prime"):
                AlgoConfig(epsilon_prime=bad)
        AlgoConfig(epsilon_prime=1.15)
