import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcausal import bench
from qcausal.bench import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    ConfusionMatrix,
    bootstrap_errorbars,
    exact_margin,
    run_random_bench,
    run_sweep,
    run_tetra_check,
    sweep_records_to_csv,
    sweep_summary,
)
from qcausal.comb import DirectCause, make_oracle
from qcausal.geometry import CC_TETRA, CC_VERTICES, DC_TETRA, DC_VERTICES, distance
from qcausal.identify import SECOND_ROUND_TARGET, AlgoConfig, identify
from qcausal.scenarios import edge_cc, edge_dc, haar_unitary, plane_cc, random_state
from reference import audit_per_point, correlation, random_bench_streams, target_distances


class TestBootstrap:
    def test_degenerate_counts_have_zero_spread(self):
        counts = [(1000, 1000)]
        std = bootstrap_errorbars(counts, resamples=200, seed=0)
        assert std[0] == 0.0

    def test_uniform_counts_match_multinomial_std(self):
        n = 10_000
        counts = [(n // 2, n)]
        std = bootstrap_errorbars(counts, resamples=1000, seed=1)[0]
        analytic = 1.0 / np.sqrt(n)  # var of correlation = (1 - c^2)/N at c = 0
        assert 0.5 * analytic <= std <= 1.5 * analytic

    def test_deterministic(self):
        counts = [(600, 1000)] * 3
        a = bootstrap_errorbars(counts, resamples=150, seed=9)
        b = bootstrap_errorbars(counts, resamples=150, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_derived_quantities(self):
        counts = [(500, 1000)] * 3
        std = bootstrap_errorbars(
            counts, derive=lambda c: 1.0 - c[:, 2], resamples=200, seed=2
        )
        assert std.shape == (1,)
        assert 0.0 < std[0] < 0.1

    def test_input_validation(self):
        good = [(10, 10)]
        with pytest.raises(ValueError):
            bootstrap_errorbars(good, resamples=99)
        with pytest.raises(ValueError):
            bootstrap_errorbars([], resamples=200)
        with pytest.raises(ValueError):
            bootstrap_errorbars([(0, 0)], resamples=200)


def _multinomial_correlations(tables, resamples, rng):
    """Reference bootstrap: resample all four outcome counts of each table, then take the parity."""
    out = np.empty((resamples, len(tables)))
    for j, table in enumerate(tables):
        shots = sum(table)
        draws = rng.multinomial(shots, np.array(table) / shots, size=resamples)
        out[:, j] = (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / shots
    return out


def _std_error_of_std(x):
    """Standard error of the sample standard deviation, from the fourth moment."""
    d = x - x.mean()
    var = d.var()
    if var == 0.0:
        return 0.0
    return np.sqrt(max((d ** 4).mean() - var ** 2, 0.0) / len(x)) / (2.0 * np.sqrt(var))


def _record_delta_std(monkeypatch):
    """Record each ``bench.delta_std`` call as ``(record, shots, gradient, value)``.

    ``record`` is the oracle's record of the query whose correlations the call was handed, so its parity
    counts are at hand; ``gradient`` is a list of floats.
    """
    calls, oracles = [], []
    make, sigma = bench.make_oracle, bench.delta_std

    def oracle_recorder(*args, **kwargs):
        oracles.append(make(*args, **kwargs))
        return oracles[-1]

    def sigma_recorder(correlations, shots, gradient):
        (record,) = [rec for rec in oracles[-1].history if rec.correlations is correlations]
        value = sigma(correlations, shots, gradient)
        calls.append((record, shots, np.asarray(gradient, dtype=float).tolist(), value))
        return value

    monkeypatch.setattr(bench, "make_oracle", oracle_recorder)
    monkeypatch.setattr(bench, "delta_std", sigma_recorder)
    return calls


class TestParityBootstrap:
    def test_law_matches_multinomial_resampling(self):
        resamples = 20_000
        tables = [
            [1000, 0, 0, 0],
            [0, 1000, 0, 0],
            [0, 0, 1000, 0],
            [250, 250, 250, 250],
            [700, 50, 200, 50],
            [3, 1, 0, 1],
        ]
        # the bootstrap reads each table's parity count; the reference resamples its four outcomes
        counts = [(t[0] + t[3], sum(t)) for t in tables]
        seen = []
        std = bootstrap_errorbars(counts, derive=lambda c: seen.append(c) or c, resamples=resamples, seed=3)
        (new,) = seen
        assert new.shape == (resamples, len(counts))
        np.testing.assert_array_equal(std, new.std(axis=0, ddof=1))
        ref = _multinomial_correlations(tables, resamples, np.random.default_rng(4))
        for j in range(len(counts)):
            se_mean = np.hypot(new[:, j].std(), ref[:, j].std()) / np.sqrt(resamples)
            se_std = np.hypot(_std_error_of_std(new[:, j]), _std_error_of_std(ref[:, j]))
            assert abs(new[:, j].mean() - ref[:, j].mean()) <= 5 * se_mean + 1e-12
            assert abs(new[:, j].std() - ref[:, j].std()) <= 5 * se_std + 1e-12

    def test_criterion_pass_reads_the_third_setting_only(self, monkeypatch):
        # the criterion's deviation is the delta-method sigma of its third-setting counts, and the flipped
        # round's distance that of all three of its settings: nothing is bootstrapped
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("a sweep record was bootstrapped")

        monkeypatch.setattr(bench, "bootstrap_errorbars", no_bootstrap)
        calls = _record_delta_std(monkeypatch)
        for a, rounds in ((0.5, 1), (0.03, 2)):
            calls.clear()
            rng = np.random.default_rng(np.random.SeedSequence(6).spawn(1)[0])
            r = bench._evaluate_scenario("edge", f"{a}", "cc", edge_cc(a), AlgoConfig(), 5000, rng)
            assert (r.param, r.mechanism, r.N) == (f"{a}", "cc", 5000)
            assert r.round == rounds
            closed = [(rec.counts[2], n) for rec, n, gradient, _ in calls if gradient == [0.0, 0.0, 1.0]]
            flips = [(rec, n, gradient) for rec, n, gradient, _ in calls if gradient != [0.0, 0.0, 1.0]]
            (third,) = closed
            assert abs(1.0 - correlation(third) - r.criterion) < 1e-12
            same, shots = third
            assert shots == 5000
            c33 = (2 * same - 5000) / 5000
            assert r.std_criterion == np.sqrt((1.0 - c33 * c33) / 5000) > 0.0
            assert len(flips) == rounds - 1
            if rounds == 2:
                # the distance reads all three settings of the flipped round, its gradient C - t with 1 / d taken out
                ((record, shots, gradient),) = flips
                flipped = [(same, shots) for same in record.counts]
                assert len(flipped) == 3
                values = [correlation(c) for c in flipped]
                assert abs(distance(values, SECOND_ROUND_TARGET) - r.distance) < 1e-12
                assert gradient == [c - t for c, t in zip(record.correlations.tolist(), SECOND_ROUND_TARGET.tolist())]
                spread = sum((v - t) ** 2 * (1.0 - v * v) for v, t in zip(values, SECOND_ROUND_TARGET.tolist()))
                assert r.std_distance == pytest.approx(np.sqrt(spread / 5000) / r.distance, rel=1e-12)
                assert r.std_distance > 0.0
            assert (r.std_distance is None) == (rounds == 1)

    def test_sampled_criterion_spread_matches_binomial_prediction(self):
        # the closed form itself: equal to sqrt((1 - C33^2) / N) up to the rounding of 1 - criterion
        shots = 100_000
        records = run_sweep("plane", grid=4, shots=shots, seed=8)
        zero = 0
        for r in records:
            c33 = 1.0 - r.criterion
            predicted = np.sqrt(max(1.0 - c33 ** 2, 0.0) / shots)
            if predicted == 0.0:
                zero += 1
                assert r.std_criterion == 0.0
            else:
                assert abs(r.std_criterion / predicted - 1.0) < 1e-12
        assert 0 < zero < len(records)


class TestDistanceStd:
    """The flipped round's delta-method ``std_distance`` against a bootstrap of its counts and the Poincare bound."""

    @pytest.mark.parametrize("shots", [1000, 10_000])
    @pytest.mark.parametrize("family", ["plane", "edge"])
    def test_matches_the_bootstrap_below_the_poincare_bound(self, family, shots, monkeypatch):
        calls = _record_delta_std(monkeypatch)
        records = run_sweep(family, shots=shots, seed=1)
        # each sampled record takes its criterion's sigma, then a flipped record its distance's
        flips = [(record, spread) for record, _, gradient, spread in calls if gradient != [0.0, 0.0, 1.0]]
        rows = [r for r in records if r.round == 2]
        assert len(flips) == len(rows)
        tally = Counter()
        for i, ((record, spread), r) in enumerate(zip(flips, rows)):
            counts, d, std = [(same, shots) for same in record.counts], r.distance, r.std_distance
            assert std == (spread / d if d else 0.0)
            corr = np.array([correlation(c) for c in counts])
            assert d == pytest.approx(distance(corr, SECOND_ROUND_TARGET), rel=1e-12)
            if d == 0.0:
                tally["zero"] += 1
                assert std == 0.0
                continue
            # the gradient (C - t) / d has unit length, so the spread is at most the largest setting's
            assert std <= np.sqrt(np.max(1.0 - corr * corr) / shots) * (1.0 + 1e-12)
            if d > 10 / shots:
                # 20,000 resamples leave about 0.5% Monte Carlo noise on the bootstrap's spread
                boot = bootstrap_errorbars(counts, derive=target_distances, resamples=20_000, seed=i)[0]
                assert boot == pytest.approx(std, rel=0.05)
                tally["compared"] += 1
        assert tally["zero"] > 0 and tally["compared"] > 5


@pytest.fixture(scope="module")
def edge_records():
    return run_sweep("edge", grid=101, seed=0)


@pytest.fixture(scope="module")
def plane_records():
    return run_sweep("plane", grid=4, seed=0)


class TestSweepEdge:
    @pytest.fixture
    def records(self, edge_records):
        return edge_records

    def test_row_layout(self, records):
        assert len(records) == 202
        assert [r.mechanism for r in records[:2]] == ["cc", "dc"]

    def test_channel_rows_align_perfectly(self, records):
        for r in records:
            if r.mechanism == "dc":
                assert r.verdict == "DC"
                assert r.criterion < 1e-9

    def test_state_rows_report_mimicry_bound(self, records):
        for r in records:
            if r.mechanism == "cc" and float(r.param) >= 0.075:
                assert r.verdict == "CC"
                assert abs(r.criterion - float(r.param)) < 1e-9

    def test_near_plane_rows_run_flipped_round(self, records):
        row = {(r.param, r.mechanism): r for r in records}
        dc = row[("0.03", "dc")]
        cc = row[("0.03", "cc")]
        assert dc.round == 2 and cc.round == 2
        assert dc.distance < 1e-9 and dc.verdict == "DC"
        assert cc.distance > 1 / np.sqrt(3) and cc.verdict == "CC"

    def test_far_rows_have_no_distance(self, records):
        row = {(r.param, r.mechanism): r for r in records}
        assert row[("0.5", "dc")].distance is None
        assert abs(row[("0.5", "cc")].criterion - 0.5) < 1e-9

    def test_csv_rendering(self, records):
        text = sweep_records_to_csv(records)
        lines = text.splitlines()
        assert lines[0] == f"# schema: {CSV_SCHEMA_VERSION}"
        assert lines[1] == CSV_COLUMNS
        assert len(lines) == 2 + len(records)

    def test_determinism(self, records):
        again = run_sweep("edge", grid=101, seed=0)
        assert sweep_records_to_csv(records) == sweep_records_to_csv(again)

    def test_summary(self, records):
        summary = sweep_summary(records)
        assert summary["n_records"] == 202
        assert summary["mechanisms"]["dc"]["verdict_dc"] == 101
        assert summary["mechanisms"]["cc"]["verdict_cc"] == 101


class TestSweepPlane:
    @pytest.fixture
    def records(self, plane_records):
        return plane_records

    def test_grid_size(self, records):
        assert len(records) == 2 * 15  # simplex lattice with denominator 4

    def test_verdicts(self, records):
        for r in records:
            assert r.verdict == ("DC" if r.mechanism == "dc" else "CC")
            assert r.round == 2
            assert abs((r.C11 + r.C22 + r.C33) - 1.0) < 1e-9

    def test_weight_permutations_permute_correlations(self, records):
        by_param = {(r.param, r.mechanism): r for r in records}
        base, swapped = by_param[("0.25:0.5:0.25", "cc")], by_param[("0.5:0.25:0.25", "cc")]
        base = (base.C11, base.C22, base.C33)
        swapped = (swapped.C11, swapped.C22, swapped.C33)
        np.testing.assert_allclose(swapped, (base[1], base[0], base[2]), atol=1e-9)


class TestSampledSweep:
    def test_std_columns_present(self):
        records = run_sweep("edge", grid=5, shots=2000, seed=3)
        for r in records:
            assert r.N == 2000
            assert r.std_criterion is not None and r.std_criterion >= 0.0
            if r.round == 2:
                assert r.std_distance is not None
            else:
                assert r.std_distance is None

    def test_sampled_determinism(self):
        a = run_sweep("edge", grid=5, shots=2000, seed=3)
        b = run_sweep("edge", grid=5, shots=2000, seed=3)
        assert sweep_records_to_csv(a) == sweep_records_to_csv(b)

    def test_rows_match_identify_on_their_oracle_seed(self):
        records = run_sweep("edge", grid=5, shots=2000, seed=3)
        children = np.random.SeedSequence(3).spawn(len(records))
        # seeds are spawned in grid order, "dc" then "cc"; records sort "cc" first
        for i, a in enumerate(np.linspace(0.0, 1.0, 5)):
            for j, (mechanism, scenario) in enumerate((("dc", edge_dc(a)), ("cc", edge_cc(a)))):
                oracle = make_oracle(scenario, shots=2000, seed=children[2 * i + j].spawn(1)[0])
                result = identify(oracle)
                row = records[2 * i + (1 - j)]
                assert (row.param, row.mechanism) == (f"{a:.10g}", mechanism)
                assert row.verdict == result.verdict
                assert row.round == result.rounds_used
                assert (row.C11, row.C22, row.C33) == tuple(oracle.history[0].correlations)
                if result.rounds_used == 2:
                    assert row.distance == result.criterion_value
                else:
                    assert row.distance is None
                    assert row.criterion == result.criterion_value


class TestSweepInputs:
    @pytest.mark.parametrize("family", ["edge", "plane"])
    @pytest.mark.parametrize("grid", [0, -1])
    def test_rejects_empty_grid(self, family, grid):
        with pytest.raises(ValueError, match="grid"):
            run_sweep(family, grid=grid)


class TestRandomBench:
    def test_exact_mode_is_perfect(self):
        cm = run_random_bench(60, shots=0, eta=1e-3, seed=11)
        assert cm.dc_as_cc == 0 and cm.cc_as_dc == 0
        assert cm.total == 60

    def test_deterministic(self):
        a = run_random_bench(30, shots=1000, eta=0.05, seed=12)
        b = run_random_bench(30, shots=1000, eta=0.05, seed=12)
        assert a.to_dict() == b.to_dict()

    def test_rejects_unknown_cc_kind_before_any_scenario(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a scenario was identified before the input check")

        monkeypatch.setattr("qcausal.bench.identify", no_work)
        with pytest.raises(ValueError, match="cc_kind"):
            run_random_bench(1000, cc_kind="bogus")

    def test_fractional_shots_are_rejected(self):
        # 0.9 shots used to truncate to 0 and score exact runs as sampled ones
        with pytest.raises(ValueError, match="integer"):
            run_random_bench(4, shots=0.9, seed=1)

    @pytest.fixture
    def identify_shots(self, monkeypatch):
        """The oracle shots of every ``identify`` call the bench makes."""
        shots = []

        def recording(oracle, config, **kwargs):
            shots.append(oracle.shots)
            return identify(oracle, config, **kwargs)

        monkeypatch.setattr(bench, "identify", recording)
        return shots

    @pytest.mark.parametrize("cc_kind", ["mixed", "pure"])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_exact_run_takes_its_verdict_from_the_margin_pass(self, identify_shots, cc_kind, seed):
        # the two-pass form: a margin pass, then a verdict pass on an oracle seeded from the scenario
        children = np.random.SeedSequence(seed).spawn(80)
        tallies = Counter()
        for i in range(40):
            truth, scenario_seed = ("dc" if i < 20 else "cc"), children[2 * i]
            scenario = haar_unitary(scenario_seed) if truth == "dc" else random_state(cc_kind, scenario_seed)
            if exact_margin(scenario)[0] < 0.05:
                tallies[f"excluded_{truth}"] += 1
            else:
                verdict = identify(make_oracle(scenario, seed=children[2 * i + 1])).verdict
                tallies[f"{truth}_as_{verdict.lower()}"] += 1
        identify_shots.clear()  # the reference's margin passes
        assert run_random_bench(40, eta=0.05, seed=seed, cc_kind=cc_kind) == ConfusionMatrix(**tallies)
        assert identify_shots == [0] * 40

    @pytest.mark.parametrize("shots", [1000, 100_000])
    @pytest.mark.parametrize("cc_kind", ["mixed", "pure"])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_sampled_run_matches_the_two_pass_form_of_full_runs(self, shots, cc_kind, seed):
        # full runs throughout: a plain margin pass, then a full sampled identify on the oracle's seed
        children = np.random.SeedSequence(seed).spawn(80)
        tallies = Counter()
        for i in range(40):
            truth, scenario_seed = ("dc" if i < 20 else "cc"), children[2 * i]
            scenario = haar_unitary(scenario_seed) if truth == "dc" else random_state(cc_kind, scenario_seed)
            if exact_margin(scenario)[0] < 0.05:
                tallies[f"excluded_{truth}"] += 1
            else:
                verdict = identify(make_oracle(scenario, shots=shots, seed=children[2 * i + 1])).verdict
                tallies[f"{truth}_as_{verdict.lower()}"] += 1
        assert run_random_bench(40, shots=shots, eta=0.05, seed=seed, cc_kind=cc_kind) == ConfusionMatrix(**tallies)

    def test_sampled_run_still_draws_its_verdict(self, identify_shots):
        # the margin pass runs exact, the verdict pass at the bench's shots
        cm = run_random_bench(20, shots=1000, eta=0.05, seed=3)
        assert identify_shots.count(0) == 20 and identify_shots.count(1000) == cm.included > 0

    def test_accuracy_property(self):
        cm = ConfusionMatrix(dc_as_dc=48, dc_as_cc=2, cc_as_dc=1, cc_as_cc=49)
        assert abs(cm.accuracy - 0.97) < 1e-12

    def test_accuracy_is_none_when_nothing_was_scored(self):
        cm = ConfusionMatrix(excluded_dc=2, excluded_cc=1)
        assert (cm.included, cm.total) == (0, 3)
        assert cm.accuracy is None
        assert json.loads(json.dumps(cm.to_dict(), allow_nan=False))["accuracy"] is None
        # a cutoff above every margin excludes the whole ensemble
        cm = run_random_bench(4, eta=10.0, seed=0)
        assert (cm.included, cm.excluded_dc, cm.excluded_cc, cm.accuracy) == (0, 2, 2, None)

    def test_margin_positive_for_generic_scenarios(self):
        assert exact_margin(haar_unitary(21))[0] > 0.0
        assert exact_margin(random_state("mixed", 22))[0] > 0.0

    @pytest.mark.parametrize(
        "scenario, margin",
        [
            (edge_cc(0.5), 0.425),  # aligned branch: top eigenvalue 1/2 vs epsilon
            (edge_dc(0.5), 0.075),  # aligned branch: perfect alignment vs epsilon
            (edge_cc(0.03), 0.09),  # flipped branch: plane gap 0.06 vs delta
            (plane_cc([1 / 3] * 3), 0.15),  # flipped branch: on the plane, gap 0 vs delta
        ],
    )
    def test_margin_analytic_values(self, scenario, margin):
        assert abs(exact_margin(scenario)[0] - margin) < 1e-12


#: Root seeds of one word, of several words, beyond the four-word pool, and lists of words.
_SEEDS = [0, 3, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**200 + 7, [1, 2], [2**40, 7, 9]]


def _spawned(seed, n, suffix):
    """``default_rng`` of ``SeedSequence(seed).spawn(n)``, or of each child's first child when ``suffix``."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(child.spawn(1)[0] if suffix else child) for child in children]


class TestEnsembleStreams:
    @pytest.mark.parametrize("suffix", [(), (0,)])
    @pytest.mark.parametrize("seed", _SEEDS, ids=str)
    def test_child_rngs_are_the_spawned_streams(self, seed, suffix):
        rngs = list(bench._child_rngs(seed, 12, suffix))
        expected = _spawned(seed, 12, suffix)
        assert len(rngs) == 12 and len({id(rng) for rng in rngs}) == 12
        for rng, reference in zip(rngs, expected):
            np.testing.assert_array_equal(rng.integers(0, 2**64, 8, dtype=np.uint64),
                                          reference.integers(0, 2**64, 8, dtype=np.uint64))
            assert rng.normal(size=5).tolist() == reference.normal(size=5).tolist()

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.one_of(st.none(), st.integers(0, 2**300), st.lists(st.integers(0, 2**70), min_size=1, max_size=9)),
        n=st.integers(1, 40),
        suffix=st.sampled_from([(), (0,)]),
    )
    @example(seed=None, n=1, suffix=())
    def test_child_rngs_match_spawn_for_any_root(self, seed, n, suffix):
        # None draws an OS-entropy root; its entropy then names the same root to both sides
        entropy = np.random.SeedSequence(seed).entropy
        for rng, reference in zip(bench._child_rngs(entropy, n, suffix), _spawned(entropy, n, suffix), strict=True):
            assert rng.random(3).tolist() == reference.random(3).tolist()

    @pytest.mark.parametrize("seed", [5, 12])
    def test_random_bench_draws_the_spawned_children(self, monkeypatch, seed):
        # every mechanism and every sampled oracle's parity counts come from SeedSequence(seed).spawn(2 n):
        # the nine tallies of a random-bench output cannot show a change of stream that keeps every verdict
        mechanisms, oracles = [], []

        def recording(build):
            return lambda *args: mechanisms.append(build(*args)) or mechanisms[-1]

        def recording_oracle(scenario, shots=0, seed=None):
            oracle = make_oracle(scenario, shots=shots, seed=seed)
            if shots:
                oracles.append(oracle)
            return oracle

        for name in ("haar_unitary", "random_state"):
            monkeypatch.setattr(bench, name, recording(getattr(bench, name)))
        monkeypatch.setattr(bench, "make_oracle", recording_oracle)
        run_random_bench(40, shots=1000, eta=0.05, seed=seed)
        matrices, counts = random_bench_streams(40, 1000, 0.05, seed)
        assert len(mechanisms) == len(matrices) == 40
        for scenario, matrix in zip(mechanisms, matrices):
            built = scenario.unitary if isinstance(scenario, DirectCause) else scenario.state.rho
            np.testing.assert_array_equal(built, matrix)
        assert [[record.counts for record in oracle.history] for oracle in oracles] == counts
        assert len(counts) > 30


def _crafted_points(vertices: np.ndarray) -> dict:
    """Correlation vectors by name around a tetrahedron: inside, on it, just outside it, and not finite."""
    face = vertices[1:].mean(axis=0)  # the centroid of the face opposite vertex 0, where its weight is 0
    outward = face - vertices[0]  # a step t along it takes vertex 0's weight to -t
    return {
        "interior": vertices.mean(axis=0),
        "vertex": vertices[2],
        "outside by 2e-7": face + 2e-7 * outward,
        "within tolerance at -5e-8": face + 5e-8 * outward,
        "nan": np.array([np.nan, 0.0, 0.0]),
        "+inf": np.array([np.inf, 0.0, 0.0]),
        "-inf": np.array([0.0, -np.inf, 0.0]),
    }


_TETRAHEDRA = {"dc": (DC_TETRA, DC_VERTICES), "cc": (CC_TETRA, CC_VERTICES)}


class TestTetraCheck:
    @pytest.mark.parametrize("mechanism", ["dc", "cc"])
    @pytest.mark.parametrize("name", [*_crafted_points(DC_VERTICES), "all"])
    def test_audit_matches_the_per_point_audit(self, mechanism, name):
        tetra, vertices = _TETRAHEDRA[mechanism]
        crafted = _crafted_points(vertices)
        points = np.array(list(crafted.values()) if name == "all" else [crafted[name]])
        got = bench._audit(points, tetra)
        assert got == audit_per_point(points, tetra)
        assert type(got[0]) is int and type(got[1]) is float

    @pytest.mark.parametrize("mechanism", ["dc", "cc"])
    def test_audit_rules_on_crafted_points(self, mechanism):
        tetra, vertices = _TETRAHEDRA[mechanism]
        outside, depth = bench._audit(np.array(list(_crafted_points(vertices).values())), tetra)
        # outside: the point 2e-7 beyond a face, NaN and both infinities; only the finite one adds depth
        assert outside == 4
        assert depth == pytest.approx(2e-7, rel=1e-6)

    def test_inside_points_report_a_positive_zero(self):
        outside, depth = bench._audit(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), DC_TETRA)
        assert outside == 0 and depth == 0.0 and np.copysign(1.0, depth) == 1.0

    def test_report_on_crafted_points(self, monkeypatch):
        dc, cc = (np.array(list(_crafted_points(v).values())) for v in (DC_VERTICES, CC_VERTICES))
        rows = {"dc": iter(dc), "cc": iter(cc)}
        exact = bench.pauli_vector
        monkeypatch.setattr(bench, "haar_unitary", lambda seed: "dc")
        monkeypatch.setattr(bench, "random_state", lambda kind, seed: "cc")
        # crafted rows for the sampled mechanisms, the exact vectors for the vertex checks
        monkeypatch.setattr(bench, "pauli_vector", lambda s: next(rows[s]) if isinstance(s, str) else exact(s))
        report = run_tetra_check(len(dc), seed=1)
        assert (report.dc_violations, report.worst_dc_weight) == audit_per_point(dc, DC_TETRA)
        assert (report.cc_violations, report.worst_cc_weight) == audit_per_point(cc, CC_TETRA)
        assert report.dc_violations == report.cc_violations == 4
        assert report.pauli_vertices_ok and report.bell_vertices_ok
        json.dumps(asdict(report), allow_nan=False)  # the report stays valid strict JSON

    def test_large_sample_has_no_violations(self):
        report = run_tetra_check(10_000, seed=13)
        assert report.dc_violations == 0
        assert report.cc_violations == 0
        assert report.worst_dc_weight < 1e-7
        assert report.worst_cc_weight < 1e-7
        assert report.pauli_vertices_ok and report.bell_vertices_ok

    def test_target_sits_outside_state_tetrahedron(self):
        # the flipped-round target is far from anything a state can reach
        assert distance(SECOND_ROUND_TARGET, [-1 / 3, -1 / 3, 1 / 3]) >= 2 / np.sqrt(3) - 1e-12
