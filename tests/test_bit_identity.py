"""Scalar, fused, plain-setting and ``.dot`` fast paths against their array and ``@`` forms, bit for bit.

Each routine checked here makes fewer numpy calls than its array form but
performs the same floating-point operations in the same order, or leaves out
only products with an exact identity, so exact and seeded outputs do not
depend on which form runs.  Results must have the same
bytes as the array form: stricter than ``np.array_equal``, which equates
``0.0`` and ``-0.0``.
The one exception is ``TestBootstrapDistance``, which holds a test-side
bootstrap ``derive`` to a few units in the last place of the package's
distance.  ``TestBatchBarycentric`` and ``TestOneGinibreDraw`` hold a batch
and a single draw to the per-point and two-draw forms they replace, and
``TestTetraCheckPoints`` holds the membership audit's points to those forms.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qcausal
from qcausal import bench
from qcausal.bench import run_sweep
from qcausal.comb import (
    _I2,
    _IDENTITY_FRAME,
    CommonCause,
    DirectCause,
    OracleRecord,
    TwoQubitState,
    _measure,
    _probability_table,
    _row,
    delta_std,
    make_oracle,
    pauli_vector,
)
from qcausal.geometry import CC_TETRA, CC_VERTICES, DC_TETRA, DC_VERTICES, barycentric, distance
from qcausal.identify import (
    SECOND_ROUND_TARGET,
    _symmetric_correlation_estimate,
    axis_candidates,
    modifier_from_axis,
    second_round,
)
from qcausal.linalg import pauli, rotation_from_unitary
from qcausal.scenarios import bell_diagonal, edge_cc, haar_unitary, haar_unitary_matrix, random_state
from reference import axis_candidates as axis_candidates_array
from reference import _PARITY as PARITY
from reference import (
    barycentric_batch,
    barycentric_dot,
    barycentric_matmul,
    correlation_std,
    distance_std,
    haar_unitary_matrix_two_draws,
    mixed_state_rho,
    pauli_vector_matmul,
    probability_rows_matmul,
    probability_table_matmul,
    pure_state_rho,
    rotation_from_unitary_nested,
    second_round_products,
    symmetric_correlation_estimate,
    target_distances,
)

#: Correlation components: the vertices' values, zero, dust on either side of it, and anything.
component = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1e-13, -1e-13]), st.floats(-1.0, 1.0))
vectors = arrays(float, 3, elements=component)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAxisCandidates:
    @settings(deadline=None, max_examples=500)
    @given(vectors)
    def test_matches_array_form(self, p):
        got, (_, want) = axis_candidates(p), axis_candidates_array(p)
        assert len(got) in (1, 2, 4)
        assert len(got) == len(want)
        assert all(same_bits(x, y) for x, y in zip(got, want))

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
        got, (_, want) = axis_candidates(p), axis_candidates_array(p)
        assert len(got) == len(want)
        assert all(same_bits(x, y) for x, y in zip(got, want))


class TestRefinementEstimate:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_matches_row_by_row_form(self, seed, n):
        # the probe passes round zero's vector, measured in the identity frame (any sequence, as
        # ``alignment_scan`` takes it), and the scan's records
        rng = np.random.default_rng(seed)
        frames = [np.eye(3)] + [rotation_from_unitary(haar_unitary_matrix(rng)) for _ in range(n - 1)]
        values = rng.uniform(-1.0, 1.0, size=(n, 3))
        records = [OracleRecord(None, None, v, None, f, f) for f, v in zip(frames[1:], values[1:])]
        got = _symmetric_correlation_estimate(values[0].tolist(), records)
        assert same_bits(got, symmetric_correlation_estimate(zip(frames, values)))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_probe_of_a_state_matches_row_by_row_form(self, seed):
        # the records of a real scan: frames of ``modifier_from_axis``, scan correlations
        oracle = make_oracle(random_state("mixed", seed))
        p0 = oracle.query()
        for axis in axis_candidates(p0):
            v = modifier_from_axis(axis)
            oracle.query(v, v)
        scan = oracle.history[1:]
        want = symmetric_correlation_estimate([(np.eye(3), p0)] + [(r.ox, r.correlations) for r in scan])
        assert same_bits(_symmetric_correlation_estimate(p0, scan), want)


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
            # equal and unequal outcomes of each setting, times their signs +1 and -1
            counts = np.array([(same, shots - same) for same in oracle.history[-1].counts])
            assert same_bits(values, counts @ [1.0, -1.0] / shots)


class TestDeltaStd:
    """``comb.delta_std`` against the closed forms the sweep's two deviations had before it, in ``float.hex``.

    The criterion ``1 - C33`` takes the gradient ``(0, 0, 1)``; the distance ``d`` to ``(-1, -1, 1)`` takes
    ``C - t``, its ``1 / d`` taken out, and reads 0 at ``d == 0``.
    """

    @staticmethod
    def sweep_std(correlations, shots, d):
        corr = np.asarray(correlations, dtype=float)
        spread = delta_std(corr, shots, corr - SECOND_ROUND_TARGET)
        return delta_std(corr, shots, (0.0, 0.0, 1.0)), spread / d if d else 0.0

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(st.sampled_from([1, 2, 100, 1000, 100_000]), st.integers(1, 10**7)),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=3, max_size=3),
    )
    # parity counts whose std_distance moves a last bit if the squares are taken as g * g, not g ** 2 (glibc 2.36)
    @example(10_000, [0.9176, 0.5102, 0.9075])
    @example(100_000, [0.21856, 0.98074, 0.29741])
    def test_parity_ratios(self, shots, fractions):
        corr = [(2 * round(f * shots) - shots) / shots for f in fractions]
        d = distance(corr, SECOND_ROUND_TARGET)
        criterion, dist = self.sweep_std(corr, shots, d)
        assert criterion.hex() == correlation_std(corr, shots).hex()
        assert dist.hex() == distance_std(corr, shots, d).hex()

    def test_seeded_sampled_sweeps(self, monkeypatch):
        calls, original = [], bench.delta_std

        def recorder(correlations, shots, gradient):
            calls.append((correlations, shots, np.asarray(gradient, dtype=float).tolist()))
            return original(correlations, shots, gradient)

        monkeypatch.setattr(bench, "delta_std", recorder)
        tally = {"round one": 0, "flipped": 0, "d == 0": 0}
        for family, grid, shots, seed in [("plane", 10, 1000, 0), ("plane", 10, 100_000, 1), ("edge", 101, 1000, 2),
                                          ("edge", 41, 10_000, 3), ("plane", 4, 100, 4)]:
            calls.clear()
            records = run_sweep(family, grid, shots=shots, seed=seed)
            criteria = [corr for corr, _, gradient in calls if gradient == [0.0, 0.0, 1.0]]
            flips = iter(corr for corr, _, gradient in calls if gradient != [0.0, 0.0, 1.0])
            assert len(criteria) == len(records)
            for r, corr in zip(records, criteria):
                assert r.std_criterion.hex() == correlation_std(corr, shots).hex()
                if r.round == 1:
                    tally["round one"] += 1
                    assert r.std_distance is None
                    continue
                tally["flipped"] += 1
                tally["d == 0"] += r.distance == 0.0
                assert r.std_distance.hex() == distance_std(next(flips), shots, r.distance).hex()
            assert next(flips, None) is None
        assert min(tally.values()) > 0, tally


class TestParityDivision:
    """Sampled correlations divide integer parities by ``shots`` in Python, as numpy divides them."""

    @pytest.mark.parametrize("shots", [1, 2, 7, 99_999, 100_000, 10**7, 2**53 - 1, 2**53])
    def test_matches_numpy_division(self, shots):
        # +-shots: all shots in one outcome; 0 and +-1 around the middle; then drawn parities
        rng = np.random.default_rng(shots % 2**32)
        parities = [0, shots, -shots, 1, -1, shots - 1, 1 - shots]
        parities += [int(n) for n in rng.integers(-shots, shots, size=200, endpoint=True)]
        assert same_bits([n / shots for n in parities], np.array(parities) / shots)


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
    """The bootstrap's distance ``derive`` against the flipped round's ``distance``, row by row.

    ``TestDistanceStd`` holds the closed-form ``std_distance`` against a bootstrap
    whose ``derive`` is ``reference.target_distances``; both must measure the
    distance the scan reports.  The derive's axis-1 reduce and the scan's BLAS
    ``dot`` add the three squares in an order that depends on the BLAS core, so
    the two agree to a few units in the last place, not bit for bit: each side
    rounds three products, two sums and a root.
    """

    @staticmethod
    def check(c):
        got = target_distances(c)
        want = np.array([distance(row, SECOND_ROUND_TARGET) for row in c])
        np.testing.assert_array_max_ulp(got, want, maxulp=4)

    @settings(deadline=None, max_examples=200)
    @given(arrays(float, st.tuples(st.integers(1, 40), st.just(3)), elements=component))
    def test_matches_row_norms(self, c):
        self.check(c)

    @pytest.mark.parametrize("seed", range(5))
    def test_drawn_bootstrap_samples(self, seed):
        # what the bootstrap hands over: 1000 resampled correlations per setting, one column each
        rng = np.random.default_rng(seed)
        shots = int(rng.choice([10, 1000, 100_000]))
        p = rng.uniform(0.0, 1.0, size=3)
        self.check((2 * rng.binomial(shots, p, size=(1000, 3)) - shots) / shots)

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_at_plus_or_minus_one(self, seed):
        # rows on the target's vertex give a distance of exactly 0 on both sides
        c = np.random.default_rng(seed).choice([-1.0, 1.0], size=(1000, 3))
        self.check(c)
        assert np.array_equal(target_distances(c) == 0.0, (c == SECOND_ROUND_TARGET).all(axis=1))

    @pytest.mark.parametrize("value", [-1.0, -0.0, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("column", range(3))
    def test_constant_columns(self, value, column):
        c = np.random.default_rng(column).uniform(-1.0, 1.0, size=(1000, 3))
        c[:, column] = value
        self.check(c)


def _qubit_state(rng):
    # Bloch vectors at the centre, on the sphere and inside it
    n = rng.normal(size=3)
    r = rng.choice([0.0, 1.0, rng.uniform()]) * n / np.linalg.norm(n)
    return 0.5 * (pauli(0) + sum(r[k] * pauli(k + 1) for k in range(3)))


def _mechanism(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "channel":
        return haar_unitary(rng)
    if kind == "bell":
        return bell_diagonal(np.eye(4)[seed % 4])
    if kind == "product":
        return CommonCause(TwoQubitState(np.kron(_qubit_state(rng), _qubit_state(rng))))
    return random_state(kind, rng)


MECHANISMS = ["channel", "mixed", "pure", "bell", "product"]


def _modifiers(frames, rng):
    """Modifiers of a query whose two frames are the same, distinct or both the plain identity."""
    wx = _I2 if frames == "plain" else haar_unitary_matrix(rng)
    return wx, haar_unitary_matrix(rng) if frames == "distinct" else wx


class TestPlainSettings:
    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(MECHANISMS), st.integers(0, 2**32 - 1))
    def test_stored_data_match_products_with_an_identity(self, kind, seed):
        # a distinct identity array takes the general path through the 3x3 products
        scenario = _mechanism(kind, seed)
        plain = _probability_table(scenario, _IDENTITY_FRAME, _IDENTITY_FRAME)
        assert same_bits(plain, _probability_table(scenario, np.eye(3), np.eye(3)))
        assert same_bits(pauli_vector(scenario), make_oracle(scenario).query(pauli(0), pauli(0)))


class TestOnePointBarycentric:
    @settings(deadline=None, max_examples=500)
    @given(
        st.one_of(st.sampled_from(list(DC_VERTICES) + list(CC_VERTICES)), vectors),
        st.sampled_from([DC_TETRA, CC_TETRA]),
    )
    def test_matches_batch_form(self, p, tetra):
        # and the ``@`` and ``.dot`` forms of the one-point product
        got = barycentric(p, tetra)
        assert same_bits(got, barycentric_batch(p[None], tetra)[0])
        assert same_bits(got, barycentric_matmul(p, tetra))
        assert same_bits(got, barycentric_dot(p, tetra))


class TestBatchBarycentric:
    """One call for a batch against one ``.dot`` per point: the audit's weights and row minima."""

    @pytest.fixture(scope="class")
    def points(self):
        # 16,000 drawn points, whose components mix the vertices' values, zero and dust around it with
        # uniform values, and the correlation vectors of 2,000 channels and 2,000 states
        rng = np.random.default_rng(23)
        special = rng.choice([-1.0, 0.0, 1.0, 1e-13, -1e-13], size=(16_000, 3))
        drawn = np.where(rng.random((16_000, 3)) < 0.3, special, rng.uniform(-1.2, 1.2, size=(16_000, 3)))
        children = np.random.SeedSequence(23).spawn(4_000)
        channels = [pauli_vector(haar_unitary(child)) for child in children[:2_000]]
        states = [pauli_vector(random_state("mixed", child)) for child in children[2_000:]]
        return np.vstack([drawn, channels, states])

    @pytest.mark.parametrize("tetra", [DC_TETRA, CC_TETRA], ids=["dc", "cc"])
    def test_matches_one_point_at_a_time(self, points, tetra):
        got = barycentric(points, tetra)
        want = np.array([barycentric_dot(p, tetra) for p in points])
        assert len(points) >= 20_000
        assert same_bits(got, want)
        assert same_bits(got.min(axis=1), want.min(axis=1))

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_small_batches(self, points, n):
        batch = points[len(points) - n:]
        want = np.array([barycentric_dot(p, CC_TETRA) for p in batch]).reshape(n, 4)
        assert same_bits(barycentric(batch, CC_TETRA), want)


class TestOneGinibreDraw:
    def test_matches_two_draws_and_leaves_the_generator_alike(self):
        for seed in range(2_000):
            one, two = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = haar_unitary_matrix(one), haar_unitary_matrix_two_draws(two)
            assert got.shape == want.shape == (2, 2) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), seed
            # the next draw from the same generator is the same as well
            assert one.normal(size=3).tobytes() == two.normal(size=3).tobytes(), seed

    @pytest.mark.parametrize("kind, reference", [("pure", pure_state_rho), ("mixed", mixed_state_rho)])
    def test_random_state_matches_two_draws(self, kind, reference):
        for seed in range(2_000):
            one, two = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = random_state(kind, one).state.rho, reference(two)
            assert got.shape == want.shape == (4, 4) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), seed
            assert one.normal(size=3).tobytes() == two.normal(size=3).tobytes(), seed


def _reference_point(kind, child):
    """Plain correlation vector of a seed child's channel or mixed state, from the two-draw and ``@`` forms."""
    rng = np.random.default_rng(child)
    if kind == "dc":
        scenario = DirectCause(haar_unitary_matrix_two_draws(rng))
    else:
        scenario = CommonCause(TwoQubitState(mixed_state_rho(rng)))
    return probability_table_matmul(scenario, _IDENTITY_FRAME, _IDENTITY_FRAME) @ PARITY


class TestTetraCheckPoints:
    """The correlation vectors tetra-check audits, byte for byte.

    Its seeded report shows weights only below 0, which no mechanism reaches, so the
    golden pins counts alone; these tests pin the points behind them.
    """

    children = np.random.SeedSequence(1).spawn(1_000)

    def test_each_child_matches_the_reference(self):
        for i, child in enumerate(self.children):
            assert pauli_vector(haar_unitary(child)).tobytes() == _reference_point("dc", child).tobytes(), i
            assert pauli_vector(random_state("mixed", child)).tobytes() == _reference_point("cc", child).tobytes(), i

    def test_audited_points_of_the_seeded_golden(self, monkeypatch):
        # tetra-check --samples 500 --seed 1 spawns these 1,000 children: channels from the even ones
        audited, audit = [], bench._audit

        def recording_audit(points, tetra):
            audited.append(points)
            return audit(points, tetra)

        monkeypatch.setattr(bench, "_audit", recording_audit)
        bench.run_tetra_check(500, seed=1)
        dc_points, cc_points = audited
        assert same_bits(dc_points, [_reference_point("dc", child) for child in self.children[::2]])
        assert same_bits(cc_points, [_reference_point("cc", child) for child in self.children[1::2]])


class TestScalarSignProducts:
    """The float probability table and exact correlations against ``@`` products by the signs.

    Every product with an outcome sign is exact, so only the order of the sums matters: it must
    be the order of the BLAS kernels and of numpy's reduces.
    """

    @settings(deadline=None, max_examples=500)
    @given(vectors, vectors, vectors)
    def test_rows_match_the_sign_product(self, mx, my, c):
        # components at the vertices, zero, dust and anything: clipped and signed-zero sums too
        got = [_row(0.25 * a, 0.25 * b, 0.25 * k) for a, b, k in zip(mx.tolist(), my.tolist(), c.tolist())]
        assert same_bits(got, probability_rows_matmul(mx, my, c))

    @pytest.mark.parametrize("frames", ["same", "distinct", "plain"])
    @pytest.mark.parametrize("kind", MECHANISMS)
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_table_and_correlations(self, kind, frames, seed):
        rng = np.random.default_rng(seed)
        scenario = _mechanism(kind, seed)
        record = _measure(scenario, *_modifiers(frames, rng), 0, None)
        want = probability_table_matmul(scenario, record.ox, record.oy)
        assert same_bits(_probability_table(scenario, record.ox, record.oy), want)
        assert same_bits(record.correlations, want @ PARITY)

    def test_sampled_parities_replay_binomial_draws(self):
        for n, (kind, frames) in enumerate(itertools.product(MECHANISMS, ["same", "distinct", "plain"])):
            rng = np.random.default_rng(n)
            scenario = _mechanism(kind, n)
            record = _measure(scenario, *_modifiers(frames, rng), 100_000, np.random.default_rng([n, 7]))
            draws = np.random.default_rng([n, 7])
            # each setting draws its equal outcomes at p0 + p3 of the reference row, rounded to a multiple of 2**-42
            rows = probability_table_matmul(scenario, record.ox, record.oy)
            q = np.rint((rows[:, 0] + rows[:, 3]) * 2.0**42) / 2.0**42
            assert record.counts == tuple(draws.binomial(100_000, p) for p in q.tolist())


class TestGridRounding:
    """The probability each sampled setting draws from against ``np.rint(q * 2**42) / 2**42``, bit for bit.

    ``q`` is the row's ``p0 + p3``, the probability that the two outcomes agree.
    """

    @staticmethod
    def drawn(monkeypatch, table):
        # ``_measure`` rounds p0 + p3 of whatever ``_probability_table`` returns; a recording generator
        # keeps the probabilities exactly as they reach ``binomial``
        seen = []

        class Recorder:
            def binomial(self, n, p):
                seen.append(p)
                return n

        monkeypatch.setattr(qcausal.comb, "_probability_table", lambda *frames: table)
        _measure(DirectCause(_I2), _I2, _I2, 10, Recorder())
        return np.array(seen)

    def check(self, monkeypatch, q):
        # rows whose p0 + p3 is exactly q, with q as p0 and as p3 in turn
        q = np.asarray(q, dtype=float).ravel()
        table = [[x, 0.5, 0.5, 0.0] if i % 2 else [0.0, 0.5, 0.5, x] for i, x in enumerate(q.tolist())]
        assert same_bits(self.drawn(monkeypatch, table), np.rint(q * 2.0**42) / 2.0**42)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 2**41 - 2, 2**41 - 1, 2**42 - 2, 2**42 - 1])
    def test_ties_round_to_even(self, monkeypatch, k):
        # (k + 1/2) 2**-42 is a tie between k and k + 1, and 1 minus it one between 2**42 - k - 1
        # and 2**42 - k, of the other parity; the grid keeps the even multiple
        half = (k + 0.5) * 2.0**-42
        self.check(monkeypatch, [half, 1.0 - half, half / 2, half / 4])

    def test_special_values(self, monkeypatch):
        # the last two, sums an ulp and a tie above 1, come back to 1
        self.check(monkeypatch, [0.0, 2.0**-1074, 2.0**-43, 0.5, 1.0 - 2.0**-53, 1.0, 2.0**-42, 0.25,
                                 1.0 + 2.0**-52, 1.0 + 2.0**-43])

    def test_uniform_draws(self, monkeypatch):
        self.check(monkeypatch, np.random.default_rng(18).random(100_000))

    def test_nan_stays_nan(self, monkeypatch):
        got = self.drawn(monkeypatch, [[np.nan, 0.25, 0.25, 0.5], [0.25, 0.25, 0.0, 0.5]])
        assert np.isnan(got[0]) and same_bits(got[1:], [0.75])

    def test_the_sum_is_rounded_once(self, monkeypatch):
        # 3 2**-45 alone rounds to 0, twice it to 2**-42
        assert same_bits(self.drawn(monkeypatch, [[3 * 2.0**-45, 0.5, 0.5, 3 * 2.0**-45]]), [2.0**-42])

    def test_drawn_probabilities_lie_in_the_unit_interval(self, monkeypatch):
        # ``binomial`` raises above 1, and a normalised p0 + p3 may pass 1 by an ulp: half the rows have
        # p1 = p2 = 0 (equal local terms, c = 1), where p0 + p3 is the whole normalised row
        mx, my, c = np.random.default_rng(22).uniform(-1.0, 1.0, size=(3, 200_000))
        my[::2], c[::2] = mx[::2], 1.0
        table = [_row(0.25 * a, 0.25 * b, 0.25 * k) for a, b, k in zip(mx.tolist(), my.tolist(), c.tolist())]
        assert all(p1 == p2 == 0.0 for _, p1, p2, _ in table[::2])
        q = self.drawn(monkeypatch, table)
        assert ((0.0 <= q) & (q <= 1.0)).all()


class TestDotForms:
    """``ndarray.dot``, float and flat-list forms against the ``@``, ``.sum`` and nested ones."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.sampled_from(MECHANISMS),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["same", "distinct", "plain"]),
    )
    def test_probability_table(self, kind, seed, frames):
        rng = np.random.default_rng(seed)
        scenario = _mechanism(kind, seed)
        ox = _IDENTITY_FRAME if frames == "plain" else rotation_from_unitary(haar_unitary_matrix(rng))
        oy = ox if frames != "distinct" else rotation_from_unitary(haar_unitary_matrix(rng))
        assert same_bits(_probability_table(scenario, ox, oy), probability_table_matmul(scenario, ox, oy))

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(MECHANISMS), st.integers(0, 2**32 - 1), st.booleans())
    def test_exact_pauli_vector(self, kind, seed, same):
        rng = np.random.default_rng(seed)
        scenario = _mechanism(kind, seed)
        wx = haar_unitary_matrix(rng)
        wy = wx if same else haar_unitary_matrix(rng)
        assert same_bits(make_oracle(scenario).query(wx, wy), pauli_vector_matmul(scenario, wx, wy))
        plain = probability_table_matmul(scenario, _IDENTITY_FRAME, _IDENTITY_FRAME) @ PARITY
        assert same_bits(pauli_vector(scenario), plain)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["haar", "modifier", "pauli"]))
    def test_rotation_from_unitary(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "haar":
            u = haar_unitary_matrix(rng)
        elif kind == "modifier":
            u = modifier_from_axis(rng.normal(size=3))
        else:
            u = pauli(seed % 4)
        got = rotation_from_unitary(u)
        assert got.flags.c_contiguous and got.flags.writeable
        assert same_bits(got, rotation_from_unitary_nested(u))

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_mixed_random_state(self, seed):
        got, want = random_state("mixed", seed).state.rho, mixed_state_rho(seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["channel", "mixed", "edge"]), st.integers(0, 2**32 - 1))
    def test_second_round_modifier_products(self, kind, seed):
        rng = np.random.default_rng(seed)
        scenario = {
            "channel": lambda: haar_unitary(rng),
            "mixed": lambda: random_state("mixed", rng),
            "edge": lambda: edge_cc(0.5),
        }[kind]()
        oracle = make_oracle(scenario)
        v1 = modifier_from_axis(rng.normal(size=3))
        list(second_round(oracle, v1))
        flip_record, *probes = oracle.history
        v2s = [modifier_from_axis(axis) for axis in axis_candidates(flip_record.correlations)]
        assert len(probes) == len(v2s)
        for record, v2 in zip(probes, v2s):
            flip, wx, wy = second_round_products(v1, v2)
            assert flip_record.modifier_y.tobytes() == flip.tobytes()
            assert record.modifier_x.tobytes() == wx.tobytes()
            assert record.modifier_y.tobytes() == wy.tobytes()


def test_no_matmul_operator_in_the_package():
    # On numpy 2.4.6 ``a @ b`` of two 3x3 float64 arrays took 1.1-1.3 us against 0.5 us for
    # ``a.dot(b)`` (x86-64, one BLAS thread), for the same cblas routine: the package keeps
    # to ``.dot``, and ``TestDotForms`` holds it to the ``@`` results byte for byte.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qcausal.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(getattr(node, "op", None), ast.MatMult)
    ]
    assert not found, f"matrix products via @ at {found}"
