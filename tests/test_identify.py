import importlib
import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from qcausal.bench import _edge_grid, _plane_grid, exact_margin
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
    _ALIGNED_DUST,
    _CC_TARGET_DISTANCE,
    _FLIPPED_DUST,
    _PLANE_GUARD,
    AlgoConfig,
    SECOND_ROUND_TARGET,
    alignment_scan,
    axis_candidates,
    identify,
    modifier_from_axis,
    second_round,
)
from qcausal.linalg import pauli, rotation_from_unitary, unitary_from_axis_angle
from qcausal.scenarios import bell_diagonal, haar_unitary, haar_unitary_matrix, plane_cc, plane_dc, random_state
from reference import axis_angle_from_rotation, correlation
from reference import axis_candidates as axis_candidates_array

I2 = pauli(0)
SX = pauli(1)


def sym_part(m):
    return (m + m.T) / 2


class TestAxisCandidates:
    # ``cos(theta)`` is read off the array form in ``tests/reference.py``, which returns it too
    def test_quarter_turn_about_z(self):
        p = np.array([0.0, 0.0, 1.0])
        axes = axis_candidates(p)
        assert abs(axis_candidates_array(p)[0]) < 1e-12
        assert len(axes) == 1
        np.testing.assert_allclose(axes[0], [0, 0, 1], atol=1e-12)

    def test_identity_short_circuit(self):
        p = np.array([1.0, 1.0, 1.0])
        axes = axis_candidates(p)
        assert axis_candidates_array(p)[0] == 1.0
        assert len(axes) == 1
        np.testing.assert_allclose(axes[0], [0, 0, 1])

    def test_edge_family_point(self):
        p = np.array([-0.5, 0.5, 0.0])
        axes = axis_candidates(p)
        assert abs(axis_candidates_array(p)[0] + 0.5) < 1e-12
        assert len(axes) == 2
        for axis in axes:
            np.testing.assert_allclose(
                np.abs(axis), [0.0, np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12
            )

    def test_generic_point_has_four_sign_classes(self):
        axes = axis_candidates(np.array([0.2, 0.3, 0.4]))
        assert len(axes) == 4
        for a in axes:
            assert abs(np.linalg.norm(a) - 1) < 1e-12
        # distinct up to global sign
        for i, a in enumerate(axes):
            for b in axes[i + 1:]:
                assert abs(abs(float(a @ b)) - 1) > 1e-6

    def test_weight_above_one_is_clamped(self):
        # only an input with some C_kk > 1 reaches the upper clamp: (1.2 - 0.2) / (1 - 0.2) = 1.25 counts as 1;
        # unclamped, the weights would sum to 1.625 and give the axes (0.8771, +-0.4804, 0)
        axes = axis_candidates([1.2, 0.5, -0.3])
        a, b = np.sqrt(1.0 / 1.375), np.sqrt(0.375 / 1.375)  # 0.8528, 0.5222
        np.testing.assert_allclose(axes, [[a, b, 0.0], [a, -b, 0.0]], rtol=0, atol=1e-12)

    def test_all_negative_input_falls_back(self):
        assert len(axis_candidates(np.array([-1.0, -1.0, -1.0]))) == 1

    def test_true_axis_always_enumerated(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            v = rng.normal(size=3)
            axis = v / np.linalg.norm(v)
            angle = rng.uniform(0.2, np.pi - 0.2)
            p = np.diag(rotation_from_unitary(unitary_from_axis_angle(axis, angle)))
            assert any(abs(abs(float(axis @ c)) - 1) < 1e-6 for c in axis_candidates(p))


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
            values = [correlation((same, 5000)) for same in result.record.counts]
            expected = 1 - values[2] if rounds == 1 else distance(values, SECOND_ROUND_TARGET)
            assert abs(expected - result.criterion_value) < 1e-12
        assert identify(make_oracle(haar_unitary(1))).record.counts is None

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
        self.history[-1] = self.history[-1]._replace(correlations=values)
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


class TestProbeZeniths:
    """No two probes of one aligned scan share a zenith: the refinement probe skips a frame already probed."""

    @staticmethod
    def _zeniths_distinct(oracle):
        zeniths = [record.ox[:, 2] for record in oracle.history[1:]]
        return all(abs(float(a.dot(b))) <= 1.0 - 1e-9 for a, b in itertools.combinations(zeniths, 2))

    @pytest.mark.parametrize(
        "scenario, queries",
        [
            (bell_diagonal([0, 0, 0, 1]), 2),  # the top eigenspace of -I projects +z onto the probed zenith
            (random_state("mixed", 784), 3),  # the top eigenvector is 2.7e-5 rad from the second candidate's zenith
        ],
    )
    def test_refinement_skips_a_probed_zenith(self, scenario, queries):
        oracle = make_oracle(scenario)
        result = identify(oracle)
        assert (result.rounds_used, result.query_count) == (1, queries)
        assert self._zeniths_distinct(oracle)

    def test_seeded_states_and_channels(self):
        for seed in range(100):
            for scenario in (random_state("mixed", seed), random_state("pure", seed), haar_unitary(seed)):
                oracle = make_oracle(scenario)
                if identify(oracle).rounds_used == 1:
                    assert self._zeniths_distinct(oracle)


class TestAlignmentTheorem:
    def test_aligned_frame_exists_for_every_channel(self):
        rng = np.random.default_rng(56)
        config = AlgoConfig()
        for _ in range(100):
            scenario = haar_unitary(rng)
            angle = axis_angle_from_rotation(rotation_from_unitary(scenario.unitary)).angle
            oracle = make_oracle(scenario)
            entries = list(alignment_scan(oracle, oracle.query(), config))
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
            p = make_oracle(scenario).query(v1, v1 @ SX)
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
                p = make_oracle(scenario).query(v1 @ v2, v1 @ SX @ v2)
                floor = min(floor, distance(p, SECOND_ROUND_TARGET))
        assert floor >= 2 / np.sqrt(3) - 1e-9

    def test_single_modifier_api(self):
        scenario = plane_dc(np.array([0.0, 0.0, 1.0]))
        oracle = make_oracle(scenario)
        p0 = oracle.query()
        entry = min(second_round(oracle, modifier_from_axis(axis_candidates(p0)[0])), key=lambda e: e.criterion)
        assert entry.criterion < 1e-9
        # the closest of the flipped-frame probes (the queries after p0 and p1), as the oracle recorded it
        probes = oracle.history[2:]
        assert entry.criterion == min(distance(r.correlations, SECOND_ROUND_TARGET) for r in probes)
        assert any(r is entry.record for r in probes)
        assert entry.record.counts is None
        result = identify(make_oracle(scenario))
        assert (result.verdict, result.rounds_used) == ("DC", 2)
        assert result.criterion_value < 1e-9


class TestLazyScans:
    """The scans query as they are read, and a drained scan is the full run."""

    @staticmethod
    def _same_records(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("scenario", [haar_unitary(3), random_state("mixed", 4)])
    def test_alignment_scan(self, scenario):
        full = make_oracle(scenario)
        assert identify(full).rounds_used == 1
        oracle = make_oracle(scenario)
        scan = alignment_scan(oracle, oracle.query(), AlgoConfig())
        first = next(scan)
        assert oracle.query_count == 2 and first.record is oracle.history[-1]
        entries = [first, *scan]
        assert all(e.record is r for e, r in zip(entries, oracle.history[1:], strict=True))
        self._same_records(oracle.history, full.history)

    @pytest.mark.parametrize("scenario", [plane_dc(np.array([0.6, 0.0, 0.8])), bell_diagonal([0.3, 0.3, 0.4, 0.0])])
    def test_second_round(self, scenario):
        full = make_oracle(scenario)
        assert identify(full).rounds_used == 2
        v1 = full.history[1].modifier_x
        oracle = make_oracle(scenario)
        probes = second_round(oracle, v1)
        first = next(probes)
        assert oracle.query_count == 2 and first.record is oracle.history[-1]
        entries = [first, *probes]
        assert all(e.record is r for e, r in zip(entries, oracle.history[1:], strict=True))
        # the first flipped group of the full run: its flip query and its probes
        self._same_records(oracle.history, full.history[1 : 2 + len(entries)])


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


_PAULI_PRODUCTS = [[np.kron(pauli(k), pauli(l)) for l in (1, 2, 3)] for k in (1, 2, 3)]


def _unpolarised_state(t):
    """The two-qubit state with no local Bloch vector and correlation matrix ``t``."""
    rho = (np.eye(4) + sum(t[k, l] * _PAULI_PRODUCTS[k][l] for k in range(3) for l in range(3))) / 4
    return CommonCause(TwoQubitState(rho))


class TestDeltaBoundary:
    # Unpolarised states T = O diag(d) O^T whose diagonal sums to 1 - delta and whose
    # top eigenvalue is 1 - delta/2: they sit exactly on the delta = 2 epsilon bound,
    # so without the plane guard rounding decides (130 of these 900 are then called DC).
    @pytest.mark.parametrize(
        "d", [(0.925, 0.0, -0.075), (0.925, -0.0375, -0.0375), (-0.075, 0.925, 0.0)]
    )
    def test_rotated_boundary_states_take_the_flipped_round(self, d):
        rng = np.random.default_rng(1)
        for _ in range(300):
            o = rotation_from_unitary(haar_unitary_matrix(rng))
            result = identify(make_oracle(_unpolarised_state(o @ np.diag(d) @ o.T)))
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


def _boundary_state(seed, s, top, g):
    """``T = O diag(d) O^T`` for a Haar rotation ``O``, ``d`` at gap offset ``g`` from the ``delta = 2 epsilon`` bound.

    ``d`` sums to ``1 - delta - g`` and its top entry, at position ``top``, is ``1 - (delta + g) / 2``; the other
    two are ``s`` and ``-(delta + g) / 2 - s``, with ``s`` held to ``[-1, 1 - (delta + g) / 2]`` so that ``d`` lies
    in the common-cause tetrahedron (on its face opposite the Bell vertex ``-1, -1, -1``).  ``g = 0`` is the bound
    itself; a negative ``g`` moves the plane gap below ``delta``, a positive one leaves an alignment margin ``g / 2``.
    """
    half = (AlgoConfig().delta + g) / 2
    s = min(s, 1.0 - half)
    d = [s, -half - s]
    d.insert(top, 1.0 - half)
    o = rotation_from_unitary(haar_unitary_matrix(np.random.default_rng(seed)))
    return _unpolarised_state(o @ np.diag(d) @ o.T)


_boundary_states = st.builds(
    _boundary_state,
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([-1.0, 0.0, -AlgoConfig().delta / 4]), st.floats(-1.0, 1.0 - AlgoConfig().delta / 2)),
    st.integers(0, 2),
    st.one_of(st.sampled_from([0.0, -1e-6, 1e-6]), st.floats(-1e-6, 1e-6)),
)


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

    @settings(deadline=None, max_examples=300)
    @given(_boundary_states)
    def test_states_on_the_delta_boundary_are_common_causes(self, scenario):
        result = identify(make_oracle(scenario))
        assert result.verdict == "CC"
        assert result.query_count <= 25


class TestRefinementNeverDecidesExact:
    """In exact mode the refinement probe moves the reported criterion but never the verdict.

    A state that reaches round one has a plane gap of at least ``delta >= 2 epsilon``, so no frame brings its
    criterion below ``epsilon``; a channel's candidate axes include its own, in which it aligns exactly.
    """

    @staticmethod
    def _without_probe(scenario):
        module = importlib.import_module("qcausal.identify")  # ``qcausal.identify`` is also the function's name
        with mock.patch.object(module, "_refinement_probe", lambda oracle, p0, entries: iter(())):
            return identify(make_oracle(scenario))

    def test_the_patch_suppresses_the_probe(self):
        scenario = bell_diagonal([0.1, 0.2, 0.3, 0.4])
        assert (identify(make_oracle(scenario)).query_count, self._without_probe(scenario).query_count) == (6, 5)

    @settings(deadline=None, max_examples=250)
    @given(st.one_of(_channels, _states, _boundary_states))
    def test_suppressing_the_probe_keeps_the_verdict(self, scenario):
        assert self._without_probe(scenario).verdict == identify(make_oracle(scenario)).verdict


class TestFlippedRoundTrace:
    """Every flipped probe lies at least ``|sum_k C_k(p1) + 1| / sqrt(3)`` from ``(-1, -1, 1)``.

    The probes of ``second_round(oracle, v1)`` measure the diagonal of ``R(v2)^T M R(v2)`` for one matrix ``M``
    fixed by ``v1``, so their correlations sum to those of the flip query ``p1``; the target lies on the plane
    ``sum_k C_k = -1``, that far from each probe.  Rounding moves the sums by a few ulps.
    """

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(_channels, _states))
    def test_probe_distance_is_at_least_the_flip_trace_bound(self, scenario):
        oracle = make_oracle(scenario)
        p0 = oracle.query()
        for axis in axis_candidates(p0):
            flip = oracle.query_count
            entries = list(second_round(oracle, modifier_from_axis(axis)))
            bound = abs(sum(oracle.history[flip].correlations.tolist()) + 1.0) / np.sqrt(3.0)
            for e in entries:
                assert e.criterion >= bound - 4 * np.spacing(2.0)


#: A plane-test cutoff above every plane gap (at most 4): every run takes the flipped round.
_ALWAYS_FLIPPED = AlgoConfig(delta=5.0)


def _unpruned_minimum(scenario):
    """The best probe of the flipped round over every frame of ``p0``'s candidates, none skipped."""
    oracle = make_oracle(scenario)
    entries = [e for axis in axis_candidates(oracle.query()) for e in second_round(oracle, modifier_from_axis(axis))]
    return min(entries, key=lambda e: e.criterion)


def _without_skips(oracle, v1, entries, skipped):
    """``second_round`` as ``identify`` calls it, but probing every frame."""
    return second_round(oracle, v1)


class TestSkippedFramesKeepTheMinimum:
    """Exactly, the flipped round skips only frames that cannot lower its minimum: the criterion keeps its bits.

    A frame is skipped when its trace bound exceeds the best probe so far by more than 1e-12, and no probe of it
    lies more than a few ulps below that bound (``TestFlippedRoundTrace``).  Frames keep their candidate order, so
    the first smallest probe, which sets the winning modifier, is the same one.
    """

    @settings(deadline=None, max_examples=250)
    @given(st.one_of(_channels, _states, _boundary_states), st.sampled_from([AlgoConfig(), _ALWAYS_FLIPPED]))
    def test_pruned_run_reports_the_minimum_over_every_frame(self, scenario, config):
        oracle = make_oracle(scenario)
        result = identify(oracle, config)
        if result.rounds_used == 1:
            assert result.skipped_bounds == ()
            return
        best = _unpruned_minimum(scenario)
        assert result.criterion_value.hex() == best.criterion.hex()
        assert result.verdict == ("DC" if best.criterion < config.epsilon_prime else "CC")
        if result.verdict == "DC":
            assert [v.hex() for z in result.winning_modifier.ravel() for v in (z.real, z.imag)] == [
                v.hex() for z in best.record.modifier_x.ravel() for v in (z.real, z.imag)
            ]
        else:
            assert result.winning_modifier is None
        probed = {i for i, _ in _probe_criteria(oracle.history, 2)}
        for i, bound in result.skipped_bounds:
            assert bound == abs(sum(oracle.history[i].correlations.tolist()) + 1.0) / math.sqrt(3.0)
            assert bound > result.criterion_value + _PLANE_GUARD
            assert i + 1 not in probed  # the next query, if any, is the next frame's flip

    def test_a_skipped_frame_costs_its_flip_query_alone(self):
        # on the plane family a channel's first aligned frame leaves the later frames nothing to win
        plane = [m for _, pair in _plane_grid(6) for m in pair.values()]
        oracles = [make_oracle(m) for m in plane]
        pruned = [identify(oracle) for oracle in oracles]
        with mock.patch.object(importlib.import_module("qcausal.identify"), "second_round", _without_skips):
            full = [identify(make_oracle(m)) for m in plane]
        assert sum(r.query_count for r in pruned) < 0.9 * sum(r.query_count for r in full)
        for oracle, a, b in zip(oracles, pruned, full):
            assert (a.verdict, a.criterion_value.hex()) == (b.verdict, b.criterion_value.hex())
            saved = sum(len(axis_candidates(oracle.history[i].correlations)) for i, _ in a.skipped_bounds)
            assert a.query_count == b.query_count - saved


class TestSampledSkipsAddNoErrors:
    """In sampled mode a frame is skipped only when its bound clears the best probe by ``3 sigma_b``.

    Error counts over Haar channels, pure states and the plane-6 pairs stay at most those of runs that probe
    every frame, with the plane test as configured and with every run sent to the flipped round.
    """

    @pytest.mark.parametrize("shots", [1000, 10_000])
    @pytest.mark.parametrize("config", [AlgoConfig(), _ALWAYS_FLIPPED], ids=["default", "always-flipped"])
    def test_error_counts_do_not_exceed_the_unpruned_runs(self, shots, config):
        mechanisms = [("DC", haar_unitary(s)) for s in range(60)] + [("CC", random_state("pure", s)) for s in range(60)]
        mechanisms += [(kind.upper(), m) for _, pair in _plane_grid(6) for kind, m in pair.items()]

        def run():
            results = [identify(make_oracle(m, shots=shots, seed=s), config) for s, (_, m) in enumerate(mechanisms)]
            return sum(r.verdict != truth for r, (truth, _) in zip(results, mechanisms)), results

        errors, pruned = run()
        with mock.patch.object(importlib.import_module("qcausal.identify"), "second_round", _without_skips):
            full_errors, full = run()
        assert errors <= full_errors
        assert sum(len(r.skipped_bounds) for r in pruned) > 0
        assert sum(r.query_count for r in pruned) < sum(r.query_count for r in full)


_unit_axes = st.tuples(_component, _component, _component).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestHalfGapBound:
    """Every state has same-frame ``1 - C33 >= plane_gap(p0) / 2``: the bound behind ``delta >= 2 epsilon``.

    The frame with zenith ``f`` measures ``C33 = f^T T f``, at most the top eigenvalue of ``sym(T)``, and
    ``2 lambda_max <= 1 + tr T`` holds for every two-qubit state, an equality on some pure states; rounding
    moves either side by a few ulps.  So a state that passes the plane test cannot align, and once
    ``plane_gap - delta >= 2 stop_margin`` no frame brings its criterion within ``stop_margin`` of ``epsilon``.
    """

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(_states, _boundary_states, st.builds(random_state, st.just("pure"), st.integers(0, 2**32 - 1))),
        st.lists(_unit_axes, min_size=1, max_size=4),
    )
    def test_no_frame_comes_within_half_the_plane_gap(self, scenario, axes):
        oracle = make_oracle(scenario)
        half_gap = plane_gap(oracle.query()) / 2
        # the top eigenvector of sym(T) is the closest frame: on the delta-boundary family it meets the bound
        for axis in axes + [np.linalg.eigh(sym_part(scenario.state.T))[1][:, -1]]:
            v = modifier_from_axis(np.asarray(axis))
            assert 1.0 - oracle.query(v, v)[2] >= half_gap - 8 * np.spacing(1.0)  # 4 ulps seen on three kernels


#: Axis components of 1e-9 to 1e-5, squared weights about the 1e-12 cut below which ``axis_candidates`` drops them.
_dust_components = st.builds(lambda m, sign: sign * m, st.floats(1e-9, 1e-5), st.sampled_from([1.0, -1.0]))
_near_cut_channels = st.builds(
    _channel,
    st.tuples(*[st.one_of(_component, _dust_components)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-6),
    st.one_of(st.just(np.pi), st.floats(0.0, np.pi), st.floats(np.pi - 1e-6, np.pi)),
)


class TestRoundOneChannelsAlign:
    """An exact channel past the plane test aligns on one of its own candidate axes, to ``_ALIGNED_DUST``.

    Its plane gap ``-2 cos(theta)`` is positive, so ``1 - cos(theta) > 1`` and the candidate axes carry the
    rotation axis up to rounding (4e-12 the most measured).  ``bench.run_random_bench`` rests on this bound, with
    the 1e-12 gap guard, when it skips the margin pass of a scenario the plane gap settles: a channel in round one
    lies ``epsilon - 1e-9`` or more below ``epsilon``.  Every ``delta`` is positive, so every positive gap counts.
    """

    @settings(deadline=None, max_examples=400)
    @given(st.one_of(_channels, _near_cut_channels))
    def test_a_candidate_axis_aligns_the_channel(self, scenario):
        oracle = make_oracle(scenario)
        p0 = oracle.query()
        if plane_gap(p0) >= _PLANE_GUARD:
            criteria = [1.0 - oracle.query(v, v)[2] for v in map(modifier_from_axis, axis_candidates(p0))]
            assert min(criteria) <= _ALIGNED_DUST


def _flipped_probes(oracle, config):
    """Every probe of the flipped round over ``p0``'s candidate frames, none skipped; none if ``p0`` takes round one."""
    p0 = oracle.query()
    if plane_gap(p0) >= config.delta + _PLANE_GUARD:
        return []
    return [e for axis in axis_candidates(p0) for e in second_round(oracle, modifier_from_axis(axis))]


#: The plane family's mechanisms on the sweep grid at 20, and off it: every plane channel and state is flipped.
_PLANE_GRID = [pair for _, pair in _plane_grid(20)]
_plane_channels = st.one_of(
    st.sampled_from([pair["dc"] for pair in _PLANE_GRID]),
    st.builds(lambda v: plane_dc(np.asarray(v) / np.linalg.norm(v)), _unit_axes),
)
_plane_states = st.one_of(
    st.sampled_from([pair["cc"] for pair in _PLANE_GRID]),
    st.builds(lambda w: plane_cc(np.asarray(w) / sum(w)), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(
        lambda w: sum(w) > 1e-6
    )),
)


#: Turns with ``1 - cos(theta)`` about the 1e-9 cut below which ``axis_candidates`` keeps +z as the only axis.
_tiny_turns = st.builds(_channel, _unit_axes, st.floats(4.0e-5, 4.5e-5))


class TestFlippedChannelsReachTheTarget:
    """An exact channel in the flipped round lands within ``_FLIPPED_DUST`` (2e-9) of ``(-1, -1, 1)`` on some probe.

    The flip pins the third correlation of the retest input to -1 when the frame's zenith is the rotation axis, and
    the effective channel is a half-turn whose axis is among the flip query's candidates, so one probe measures
    ``(-1, -1, 1)`` up to rounding.  A turn by ``theta`` with ``1 - cos(theta)`` below the axis cut has +z as its
    only candidate; its effective channel turns by about ``pi - theta n_x``, not by ``pi``, and its best probe lies
    ``sqrt(2) (1 - cos(theta n_x))`` from the target: 1.41e-9 the most measured, beyond ``_ALIGNED_DUST``, where
    Haar channels stay within 2e-15.  ``bench.run_random_bench`` rests on this
    bound when it spares a flipped scenario its margin pass: with ``eta <= epsilon_prime - 2e-9`` a channel's
    criterion lies ``eta`` or more below ``epsilon_prime``.  A huge ``delta`` sends every channel to the flipped round.
    """

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(_channels, _near_cut_channels, _plane_channels, _tiny_turns),
        st.sampled_from([AlgoConfig(), _ALWAYS_FLIPPED]),
    )
    @example(_channel([1.0, 0.0, 0.0], 4.472e-5), AlgoConfig())
    def test_a_flipped_probe_reaches_the_target(self, scenario, config):
        probes = _flipped_probes(make_oracle(scenario), config)
        if probes:
            assert min(e.criterion for e in probes) <= _FLIPPED_DUST

    def test_a_turn_below_the_axis_cut_lands_beyond_the_round_one_dust(self):
        result = identify(make_oracle(_channel([1.0, 0.0, 0.0], 4.472e-5)))
        assert (result.verdict, result.rounds_used) == ("DC", 2)
        assert _ALIGNED_DUST < result.criterion_value < math.sqrt(2.0) * 1e-9


class TestFlippedStatesStayFar:
    """Every flipped probe of an exact state lies ``2/sqrt(3)`` or more from ``(-1, -1, 1)``, to a few ulps.

    A probe measures the diagonal of the correlation matrix of a state turned by local unitaries, which lies in the
    common-cause tetrahedron; its face ``C1 + C2 - C3 = -1`` lies ``2/sqrt(3)`` from the target (1.1560 the
    closest measured).  ``bench.run_random_bench`` rests on this bound when it spares a flipped scenario its margin
    pass: with ``eta <= 2/sqrt(3) - epsilon_prime - 2e-9`` a state's criterion lies ``eta`` or more above
    ``epsilon_prime``.  A huge ``delta`` sends every state to the flipped round.
    """

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(_states, _boundary_states, st.builds(random_state, st.just("pure"), st.integers(0, 2**32 - 1)),
                  _plane_states),
        st.sampled_from([AlgoConfig(), _ALWAYS_FLIPPED]),
    )
    def test_no_flipped_probe_comes_within_the_face_distance(self, scenario, config):
        for e in _flipped_probes(make_oracle(scenario), config):
            assert e.criterion >= _CC_TARGET_DISTANCE - 8 * np.spacing(_CC_TARGET_DISTANCE)


class TestMarginsExplainTheVerdict:
    """``margins`` are the signed distances of the plane gap to ``delta`` and of the deciding criterion to its cutoff.

    The first sends the run to the flipped round when negative (below the 1e-12 guard either way), the second is
    positive exactly for a DC verdict, exact and sampled alike.
    """

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(_channels, _states, _boundary_states), st.sampled_from([0, 10_000]), st.integers(0, 2**32 - 1))
    def test_margins_decide_the_round_and_the_verdict(self, scenario, shots, seed):
        config = AlgoConfig()
        oracle = make_oracle(scenario, shots=shots, seed=seed)
        result = identify(oracle, config)
        gap_margin, criterion_margin = result.margins
        assert (result.verdict == "DC") == (criterion_margin > 0)
        if gap_margin < 0:
            assert result.rounds_used == 2
        if gap_margin >= 1e-11:
            assert result.rounds_used == 1
        expected = (plane_gap(oracle.history[0].correlations) - config.delta, result.threshold - result.criterion_value)
        assert [m.hex() for m in result.margins] == [m.hex() for m in expected]


class TestExactAdversary:
    """Nelder-Mead drives the exact margin towards 0; no mechanism it evaluates may get the wrong verdict."""

    @staticmethod
    def _search(build, dim, truth, starts, evaluations):
        rng = np.random.default_rng(7)
        wrong = []

        def margin(x):
            scenario = build(x)
            if scenario is None:
                return np.inf
            m, verdict = exact_margin(scenario)
            if verdict != truth:
                wrong.append(x.copy())
            return m

        for _ in range(starts):
            minimize(margin, rng.normal(size=dim), method="Nelder-Mead", options={"maxfev": evaluations})
        assert not wrong

    def test_states_stay_common_causes(self):
        # the 32 real parameters of a Ginibre matrix G, rho = G G^dag / tr
        self._search(lambda x: _ginibre_state(x) if np.linalg.norm(x) > 1e-6 else None, 32, "CC", 6, 400)

    def test_channels_stay_direct_causes(self):
        # a rotation axis (any nonzero scale) and angle
        self._search(lambda x: _channel(x[:3], x[3]) if np.linalg.norm(x[:3]) > 1e-6 else None, 4, "DC", 6, 200)


_stop_mechanisms = st.one_of(
    _channels,
    _states,
    st.integers(0, 2**32 - 1).map(haar_unitary),
    st.builds(random_state, st.sampled_from(["mixed", "pure"]), st.integers(0, 2**32 - 1)),
    # ambiguous-plane pairs: every verdict comes from the flipped round
    st.sampled_from([m for _, pair in _plane_grid(6) for m in pair.values()]),
)


def _probe_criteria(history, rounds_used):
    """(query index, criterion) of every probe in a full run's history: ``1 - C33`` or the distance to the target."""
    if rounds_used == 1:
        return [(i, float(1.0 - r.correlations[2])) for i, r in enumerate(history) if i > 0]
    probes, i = [], 1
    while i < len(history):
        # a flip query ``p1`` in frame ``v1`` is followed by the probes ``v1 v2``, one per axis candidate of ``p1``
        # in order, or by none when the frame was skipped
        flip = history[i]
        i += 1
        frame = [flip.modifier_x.dot(modifier_from_axis(axis)) for axis in axis_candidates(flip.correlations)]
        made = [j for j, v in enumerate(frame) if i + j < len(history) and np.array_equal(history[i + j].modifier_x, v)]
        assert made in ([], list(range(len(frame))))
        probes += [(i + j, distance(history[i + j].correlations, SECOND_ROUND_TARGET)) for j in made]
        i += len(made)
    return probes


def _edge_margins(probes, threshold):
    """Margins at, and one ulp either side of, each probe's distance below ``threshold``: the stop rule's edges.

    Negative ones are left out: ``identify`` rejects them, and a probe at or above ``threshold`` settles nothing.
    """
    edges = [threshold - c for _, c in probes]
    edges += [float(np.nextafter(e, side)) for e in edges for side in (-np.inf, np.inf)]
    return [e for e in edges if e >= 0.0]


def _check_stopped_run(scenario, shots, stop_margin):
    """A run with ``stop_margin`` replays the full run's queries up to the point the rule settles, then stops.

    DC settles at the first probe the rule accepts; CC, in exact round one with ``gap - delta >= 2 stop_margin``
    (plus the 1e-12 guard), once the candidate axes of ``p0`` are probed, so the refinement query is not made.
    """
    full_oracle, oracle = (make_oracle(scenario, shots=shots, seed=11) for _ in range(2))
    full = identify(full_oracle)
    stopped = identify(oracle, stop_margin=stop_margin)
    assert stopped.verdict == full.verdict
    probes = _probe_criteria(full_oracle.history, full.rounds_used)
    settling = [j for j, c in probes if c < full.threshold and full.threshold - c >= stop_margin]
    cc_side = shots == 0 and full.rounds_used == 1 and full.margins[0] >= 2 * stop_margin + 1e-12
    candidates = 1 + len(axis_candidates(full_oracle.history[0].correlations))
    assert stopped.query_count == (settling[0] + 1 if settling else candidates if cc_side else full.query_count)
    for a, b in zip(oracle.history, full_oracle.history):
        for x, y in ((a.modifier_x, b.modifier_x), (a.modifier_y, b.modifier_y), (a.correlations, b.correlations)):
            np.testing.assert_array_equal(x, y)
        assert a.counts == b.counts  # parity tuples when sampled, None when exact
        assert (a.counts is None) == (shots == 0)
    if settling:
        # it stopped at a probe that settles DC by the margin, and reported that probe
        assert stopped.verdict == "DC"
        assert stopped.threshold - stopped.criterion_value >= stop_margin
        np.testing.assert_array_equal(stopped.winning_modifier, oracle.history[-1].modifier_x)
    elif cc_side and full.verdict == "CC":
        # only the refinement probe is left out: it can lower the criterion, never below epsilon + stop_margin
        assert stopped.criterion_value >= full.criterion_value
        assert min(map(abs, stopped.margins)) >= min(map(abs, full.margins)) >= stop_margin
    return full_oracle.history, full


def _gap_edges(full):
    """Stop margins at, and one ulp either side of, where ``gap - delta >= 2 stop_margin + 1e-12`` turns false."""
    edge = (full.margins[0] - 1e-12) / 2
    return [e for e in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)) if e >= 0.0]


class TestStopMargin:
    """``stop_margin`` ends a run at the point that settles its verdict, and changes nothing before it."""

    @settings(deadline=None, max_examples=150)
    @given(_stop_mechanisms, st.sampled_from([0, 1000]), st.data())
    def test_stopped_run_is_a_prefix_of_the_full_run(self, scenario, shots, data):
        history, full = _check_stopped_run(scenario, shots, 0.0)
        edges = _edge_margins(_probe_criteria(history, full.rounds_used), full.threshold) + _gap_edges(full)
        _check_stopped_run(scenario, shots, data.draw(st.sampled_from([0.05, 0.3] + edges)))

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_every_edge_margin_stops_where_the_rule_says(self, shots):
        plane = [pair["dc"] for _, pair in _plane_grid(4)]
        for scenario in [haar_unitary(s) for s in range(20)] + plane:
            history, full = _check_stopped_run(scenario, shots, 0.0)
            for stop_margin in _edge_margins(_probe_criteria(history, full.rounds_used), full.threshold):
                _check_stopped_run(scenario, shots, stop_margin)

    def test_every_gap_edge_stops_where_the_rule_says(self):
        states = [random_state(kind, s) for kind in ("mixed", "pure") for s in range(15)]
        cc_stops = 0
        for scenario in states + [bell_diagonal([0.1, 0.2, 0.3, 0.4]), bell_diagonal([0.3, 0.3, 0.4, 0.0])]:
            _, full = _check_stopped_run(scenario, 0, 0.0)
            for stop_margin in _gap_edges(full):
                _check_stopped_run(scenario, 0, stop_margin)
                cc_stops += identify(make_oracle(scenario), stop_margin=stop_margin).query_count < full.query_count
        assert cc_stops >= 15  # the edge and the ulp below it stop early on most round-one states

    @settings(deadline=None, max_examples=100)
    @given(_stop_mechanisms, st.sampled_from(["fixed", "at", "above", "below"]), st.sampled_from([0.01, 0.05, 0.3]))
    def test_margin_pass_excludes_as_the_full_run(self, scenario, where, eta):
        full = identify(make_oracle(scenario))
        full_margin = exact_margin(scenario)[0]
        # a cutoff on the full run's margin or one ulp from it tests the comparison at its edge
        eta = {
            "fixed": eta,
            "at": full_margin,
            "above": np.nextafter(full_margin, np.inf),
            "below": np.nextafter(full_margin, 0.0),
        }[where]
        if eta <= 0.0:
            return
        margin, verdict = exact_margin(scenario, stop_margin=eta)
        assert (margin < eta) == (full_margin < eta)
        if verdict == "CC" and identify(make_oracle(scenario), stop_margin=eta).query_count < full.query_count:
            assert margin >= full_margin >= eta  # a common-cause stop leaves out the refinement probe alone
        else:
            assert margin <= full_margin
        assert verdict == full.verdict

    def test_direct_causes_stop_early_and_common_causes_only_before_refining(self):
        plane = [pair for _, pair in _plane_grid(6)]
        for mechanisms in ([haar_unitary(s) for s in range(40)], [pair["dc"] for pair in plane]):  # plane: flipped
            full = [identify(make_oracle(m)).query_count for m in mechanisms]
            stopped = [identify(make_oracle(m), stop_margin=0.0).query_count for m in mechanisms]
            assert sum(stopped) < 0.8 * sum(full)
        # exact round-one states stop one query early; flipped and sampled runs of states never stop early
        rounds = Counter()
        for shots in (0, 1000):
            for m in [random_state("mixed", s) for s in range(40)] + [pair["cc"] for pair in plane]:
                full = identify(make_oracle(m, shots=shots, seed=3))
                stopped = identify(make_oracle(m, shots=shots, seed=3), stop_margin=0.0)
                if full.verdict == "CC":
                    early = shots == 0 and full.rounds_used == 1 and full.margins[0] >= 1e-12
                    assert stopped.query_count == full.query_count - early
                    rounds[shots, full.rounds_used] += 1
        assert min(rounds[0, 1], rounds[0, 2], rounds[1000, 1], rounds[1000, 2]) >= 10

    def test_rejects_a_nan_or_negative_stop_margin(self):
        oracle = make_oracle(random_state("mixed", 0))
        for bad in (float("nan"), -1e-300, -0.05, -float("inf")):
            with pytest.raises(ValueError, match="stop_margin"):
                identify(oracle, stop_margin=bad)
        assert oracle.query_count == 0  # rejected before the first query
        # an infinite margin never settles either verdict: the full run
        for scenario in (random_state("mixed", 0), haar_unitary(0)):
            full = identify(make_oracle(scenario))
            assert identify(make_oracle(scenario), stop_margin=float("inf")).query_count == full.query_count


def _settles_but_flips(gap, delta, stop_margin):
    """Whether ``identify`` would settle a common cause on ``gap`` while the same gap takes the flipped round."""
    return gap - delta >= 2 * stop_margin + _PLANE_GUARD and gap < delta + _PLANE_GUARD


#: Half an ulp of ``_PLANE_GUARD``: tiny deltas on this grid put ``delta + _PLANE_GUARD`` on a rounding tie.
_HALF_ULP = math.ulp(_PLANE_GUARD) / 2


class TestSettledGapIsRoundOne:
    """A plane gap that settles a common cause never takes the flipped round, so the stop rule tests no round.

    The stop needs ``gap - delta >= 2 stop_margin + G`` and the flipped round ``gap < delta + G``, ``G`` being
    ``_PLANE_GUARD``, both in floats.  Where ``gap - delta`` is exact (``gap`` within ``[delta / 2, 2 delta]``) the
    first gives ``gap >= delta + G`` as reals, so ``gap`` is at least the float ``delta + G``.  Elsewhere a settling
    ``gap`` exceeds ``2 delta`` and ``delta < G``: ``gap`` lies on ``G``'s ulp grid, and the only window is
    ``delta`` an odd number of half ulps, where both sums are ties.  ``delta + G`` rounds above ``gap`` only when
    ``gap``'s last mantissa bit is odd, and then ``gap - delta`` rounds to ``G`` only when ``G``'s is even; 1e-12's
    is odd, so ``gap - delta`` rounds below ``G`` and the window is empty.
    """

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.floats(5e-324, 1e-12),
            st.floats(1e-12, 4.0),
            st.integers(1, 400).map(lambda k: k * _HALF_ULP),
        ),
        st.integers(-64, 64),
        st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 1.0)),
    )
    @example(_HALF_ULP, 0, 0.0)  # delta + G ties up past gap = G
    @example(3 * _HALF_ULP, -1, 0.0)  # the tie a guard with an even mantissa would settle and flip
    def test_no_settling_gap_is_flipped(self, delta, steps, stop_margin):
        # gaps within 64 ulps of delta + G, the float where the flipped round ends
        base = delta + _PLANE_GUARD
        gap = base + steps * math.ulp(base)
        assert not _settles_but_flips(gap, delta, stop_margin)

    def test_every_tie_below_the_guard(self):
        # every delta of up to 400 half ulps of G, against every gap on G's grid from 4 ulps below it
        assert (_PLANE_GUARD / math.ulp(_PLANE_GUARD)) % 2 == 1  # G's mantissa is odd
        for k in range(1, 401):
            delta = k * _HALF_ULP
            for j in range(-4, k // 2 + 5):
                assert not _settles_but_flips(_PLANE_GUARD + j * 2 * _HALF_ULP, delta, 0.0), (k, j)


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
