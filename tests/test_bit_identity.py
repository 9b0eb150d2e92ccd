"""Scalar, fused and plain-setting fast paths against their array forms, bit for bit.

Each routine checked here makes fewer numpy calls than its array form but
performs the same floating-point operations in the same order, or leaves out
only products with an exact identity, so exact and seeded outputs do not
depend on which form runs.  Results must have the same
bytes as the array form: stricter than ``np.array_equal``, which equates
``0.0`` and ``-0.0``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcausal import bench
from qcausal.comb import (
    _IDENTITY_FRAME,
    OUTCOME_PAIRS,
    CommonCause,
    DirectCause,
    TwoQubitState,
    _probability_table,
    make_oracle,
    pauli_vector,
)
from qcausal.geometry import CC_TETRA, CC_VERTICES, DC_TETRA, DC_VERTICES, barycentric, distance
from qcausal.identify import SECOND_ROUND_TARGET, _symmetric_correlation_estimate, axis_candidates
from qcausal.linalg import pauli, rotation_from_unitary
from qcausal.scenarios import bell_diagonal, edge_cc, haar_unitary, haar_unitary_matrix, random_state
from reference import axis_candidates as axis_candidates_array
from reference import barycentric_batch
from reference import symmetric_correlation_estimate

#: Correlation components: the vertices' values, zero, dust on either side of it, and anything.
component = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1e-13, -1e-13]), st.floats(-1.0, 1.0))
vectors = arrays(float, 3, elements=component)
PARITY = np.array([x * y for x, y in OUTCOME_PAIRS], dtype=float)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAxisCandidates:
    @settings(deadline=None, max_examples=500)
    @given(vectors)
    def test_matches_array_form(self, p):
        got, want = axis_candidates(p), axis_candidates_array(p)
        assert same_bits(got.cos_theta, want.cos_theta)
        assert len(got.axes) in (1, 2, 4)
        assert len(got.axes) == len(want.axes)
        assert all(same_bits(x, y) for x, y in zip(got.axes, want.axes))

    @settings(deadline=None, max_examples=300)
    @given(
        st.floats(-1.0, 0.999),
        st.sampled_from([1e-12, 1.0000001e-12, 2e-12, 1e-9]),
        st.floats(-2.0, 2.0),
        st.permutations(range(3)),
    )
    def test_matches_array_form_at_the_dust_level(self, cos_theta, tiny, a, order):
        # squared axis weights (tiny, a, 1 - tiny - a) in some order: the array form
        # still compares every pair of sign classes, the scalar form relies on no pair
        # being parallel
        weights = np.array([tiny, a, 1.0 - tiny - a])[list(order)]
        p = cos_theta + weights * (1.0 - cos_theta)
        got, want = axis_candidates(p), axis_candidates_array(p)
        assert same_bits(got.cos_theta, want.cos_theta)
        assert len(got.axes) == len(want.axes)
        assert all(same_bits(x, y) for x, y in zip(got.axes, want.axes))


class TestRefinementEstimate:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_matches_row_by_row_form(self, seed, n):
        rng = np.random.default_rng(seed)
        frames = [np.eye(3)] + [rotation_from_unitary(haar_unitary_matrix(rng)) for _ in range(n - 1)]
        values = rng.uniform(-1.0, 1.0, size=(n, 3))
        got = _symmetric_correlation_estimate(np.array(frames), values)
        assert same_bits(got, symmetric_correlation_estimate(zip(frames, values)))


class TestDistance:
    @settings(deadline=None, max_examples=300)
    @given(vectors, vectors)
    def test_matches_linalg_norm(self, p, q):
        assert same_bits(distance(p, q), np.linalg.norm(p - q))


class TestSampledParities:
    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(["dc", "cc", "bell", "edge"]),
        st.integers(0, 2**32 - 1),
        st.one_of(st.sampled_from([1, 2, 3, 100_000]), st.integers(1, 10**7)),
    )
    def test_query_matches_counts_times_signs(self, kind, seed, shots):
        rng = np.random.default_rng(seed)
        scenario = {
            "dc": lambda: haar_unitary(rng),
            "cc": lambda: random_state("mixed", rng),
            "bell": lambda: bell_diagonal(np.eye(4)[seed % 4]),
            "edge": lambda: edge_cc(0.5),
        }[kind]()
        oracle = make_oracle(scenario, shots=shots, seed=seed)
        w = haar_unitary_matrix(rng)
        for args in ((), (w, w), (w, haar_unitary_matrix(rng))):
            values = oracle.query(*args)
            counts = np.array([c.counts for c in oracle.history[-1].counts])
            assert same_bits(values, counts @ PARITY / shots)


class TestRoundZeroFrame:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["dc", "cc"]), st.integers(0, 2**32 - 1), st.sampled_from([0, 1000]))
    def test_shared_identity_matches_a_fresh_one(self, kind, seed, shots):
        # query() passes the oracle's own read-only identity, whose frame is computed once
        rng = np.random.default_rng(seed)
        scenario = haar_unitary(rng) if kind == "dc" else random_state("mixed", rng)
        shared, fresh = make_oracle(scenario, shots, seed), make_oracle(scenario, shots, seed)
        assert same_bits(shared.query(), fresh.query(pauli(0), pauli(0)))
        assert not shared.history[0].modifier_x.flags.writeable


class TestBootstrapDistance:
    @settings(deadline=None, max_examples=200)
    @given(arrays(float, st.tuples(st.integers(1, 40), st.just(3)), elements=component))
    def test_matches_row_norms(self, c):
        assert same_bits(bench._target_distances(c), np.linalg.norm(c - SECOND_ROUND_TARGET, axis=1))


def _qubit_state(rng):
    # Bloch vectors at the centre, on the sphere and inside it
    n = rng.normal(size=3)
    r = rng.choice([0.0, 1.0, rng.uniform()]) * n / np.linalg.norm(n)
    return 0.5 * (pauli(0) + sum(r[k] * pauli(k + 1) for k in range(3)))


def _mechanism(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "channel":
        return haar_unitary(rng)
    if kind == "channel with a marginal":
        return DirectCause(haar_unitary_matrix(rng), _qubit_state(rng))
    if kind == "bell":
        return bell_diagonal(np.eye(4)[seed % 4])
    if kind == "product":
        return CommonCause(TwoQubitState(np.kron(_qubit_state(rng), _qubit_state(rng))))
    return random_state(kind, rng)


class TestPlainSettings:
    @settings(deadline=None, max_examples=300)
    @given(
        st.sampled_from(["channel", "channel with a marginal", "mixed", "pure", "bell", "product"]),
        st.integers(0, 2**32 - 1),
    )
    def test_stored_data_match_products_with_an_identity(self, kind, seed):
        # a distinct identity array takes the general path through the 3x3 products
        scenario = _mechanism(kind, seed)
        plain = _probability_table(scenario, _IDENTITY_FRAME, _IDENTITY_FRAME)
        assert same_bits(plain, _probability_table(scenario, np.eye(3), np.eye(3)))
        assert same_bits(pauli_vector(scenario), pauli_vector(scenario, pauli(0), pauli(0)))


class TestOnePointBarycentric:
    @settings(deadline=None, max_examples=500)
    @given(
        st.one_of(st.sampled_from(list(DC_VERTICES) + list(CC_VERTICES)), vectors),
        st.sampled_from([DC_TETRA, CC_TETRA]),
    )
    def test_matches_batch_form(self, p, tetra):
        assert same_bits(barycentric(p, tetra), barycentric_batch(p[None], tetra)[0])
