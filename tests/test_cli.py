import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from qcausal import bench
from qcausal.bench import TetraReport, _fmt
from qcausal.cli import EXIT_CC, EXIT_DC, EXIT_ERROR, _parse_mode, main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestIdentifyCommand:
    def test_channel_scenario_exits_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": np.pi / 2}})
        assert main(["identify", path]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "DC"
        assert doc["criterion_value"] < 1e-9
        assert doc["query_count"] >= 2
        assert doc["trail"][0]["correlations"] == pytest.approx([0, 0, 1], abs=1e-9)

    def test_skipped_frames_carry_their_trace_bound(self, tmp_path, capsys):
        # a quarter turn about an axis of the xy-plane lies on the ambiguous plane: the flipped round
        path = write_json(tmp_path / "plane.json", {"dc": {"axis": [0.6, 0.8, 0], "angle": np.pi / 2}})
        assert main(["identify", path]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        skipped = [e for e in doc["trail"] if "skipped_bound" in e]
        assert skipped
        for e in doc["trail"]:
            assert list(e) == ["modifier_x", "modifier_y", "correlations"] + ["skipped_bound"] * (e in skipped)
        for e in skipped:
            # the flip query's distance bound, and no probe of its frame could have beaten the best one
            assert e["skipped_bound"] == abs(sum(e["correlations"]) + 1.0) / math.sqrt(3.0)
            assert e["skipped_bound"] > doc["criterion_value"] + 1e-12

    def test_eighth_turn_channel(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc8.json", {"dc": {"axis": [0, 0, 1], "angle": 0.785398}})
        assert main(["identify", path]) == EXIT_DC

    def test_state_scenario_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "cc.json", {"cc_bell_diagonal": [1, 0, 0, 0]})
        assert main(["identify", path]) == EXIT_CC
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "CC"
        assert doc["criterion_value"] > 1 / np.sqrt(3)

    def test_identity_channel(self, tmp_path, capsys):
        path = write_json(tmp_path / "id.json", {"dc": {"axis": [0, 0, 1], "angle": 0}})
        assert main(["identify", path]) == EXIT_DC

    def test_state_a_millionth_below_zero_exits_two(self, tmp_path, capsys):
        # Hermitian with unit trace, but its eigenvalue -1e-6 lies below the -1e-9 floor
        rho = np.diag([0.5 + 1e-6, 0.5, 0.0, -1e-6])
        path = write_json(tmp_path / "negative.json", {"cc_matrix": [[[float(x), 0.0] for x in row] for row in rho]})
        assert main(["identify", path]) == EXIT_ERROR
        assert "negative eigenvalue" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["identify", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        # json.load's RecursionError used to escape as a traceback, whose exit status 1 reads as a common-cause verdict
        path = tmp_path / "deep.json"
        path.write_text('{"dc": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["identify", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "body",
        [["x"] * 200_000, json.loads("[" * 500 + "]" * 500)],
        ids=["200000-strings", "500-deep"],
    )
    def test_error_message_is_bounded(self, tmp_path, capsys, body):
        # the message used to echo the whole value: 1.0 MB of stderr for the 200,000 strings
        path = write_json(tmp_path / "huge.json", {"cc_bell_diagonal": body})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "expected a list of real numbers" in captured.err
        assert len(captured.err.encode()) < 1024
        assert captured.out == ""

    def test_dc_body_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        # it used to read "list indices must be integers or slices, not str"
        path = write_json(tmp_path / "dc.json", {"dc": [[1, 0, 0], 1]})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "'dc' must be an object" in captured.err
        assert captured.out == ""

    def test_unknown_schema_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"mystery": 1})
        assert main(["identify", str(path)]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "doc, unknown",
        [
            ({"dc": {"axis": [0, 0, 1], "angle": 1}, "note": 1}, "['note']"),
            ({"dc": {"axis": [0, 0, 1], "angle": 1, "extra": 3}}, "['extra']"),
            ({"dc": {"axis": [0, 0, 1], "angle": 1, "extra": 3}, "note": 1}, "['note']"),
        ],
        ids=["top-level", "dc-body", "both"],
    )
    def test_unknown_key_exits_two(self, tmp_path, capsys, doc, unknown):
        # the schema allows exactly one top-level key and only axis and angle in a dc body; others used to be ignored
        path = write_json(tmp_path / "extra.json", doc)
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"unknown keys {unknown}" in captured.err
        assert captured.out == ""

    def test_unknown_key_message_is_bounded(self, tmp_path, capsys):
        doc = {"cc_bell_diagonal": [1, 0, 0, 0], **{f"note-{i}": i for i in range(200_000)}}
        path = write_json(tmp_path / "keys.json", doc)
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "unknown keys ['note-0', 'note-1'," in captured.err
        assert len(captured.err.encode()) < 1024
        assert captured.out == ""

    @pytest.mark.parametrize(
        "body, missing",
        [({"angle": 1}, "['axis']"), ({"axis": [0, 0, 1]}, "['angle']"), ({}, "['axis', 'angle']")],
        ids=["axis", "angle", "both"],
    )
    def test_missing_dc_key_is_named(self, tmp_path, capsys, body, missing):
        # it used to read "invalid scenario under 'dc': 'axis'", the KeyError's repr, and named only one key
        path = write_json(tmp_path / "dc.json", {"dc": body})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"missing keys {missing} in 'dc'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        [
            '{"dc": {"axis": [0, 0, 1], "angle": 1.5707963, "angle": 0}}',
            '{"cc_bell_diagonal": [1, 0, 0, 0], "cc_bell_diagonal": [0, 0, 0, 1]}',
        ],
        ids=["dc-body", "top-level"],
    )
    def test_repeated_key_exits_two(self, tmp_path, capsys, text):
        # the last value used to win: the quarter turn above read as the identity channel, the mixture as psi-
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["identify", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "a JSON object repeats a key" in captured.err
        assert captured.out == ""

    def test_missing_file_exits_two(self, capsys):
        assert main(["identify", "/nonexistent/scenario.json"]) == EXIT_ERROR

    def test_sampled_mode_flag(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 1, 0], "angle": 2.0}})
        assert main(["identify", path, "--mode", "shots=20000", "--seed", "4"]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == 20000

    def test_bad_mode_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        assert main(["identify", path, "--mode", "never"]) == EXIT_ERROR

    @pytest.mark.parametrize("mode", ["shots=1e5", "shots=", "shots=2.5", "shots=0", "shots=-3", "shots", "never"])
    def test_rejected_mode_is_named(self, tmp_path, capsys, mode):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        assert main(["identify", path, "--mode", mode]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"mode must be 'exact' or 'shots=N' with N a positive integer, got {mode!r}" in captured.err
        assert captured.out == ""

    def test_rejected_mode_message_is_bounded(self, capsys):
        assert main(["random-bench", "--scenarios", "2", "--mode", "shots=" + "9" * 100_000]) == EXIT_ERROR
        assert len(capsys.readouterr().err) < 200

    @pytest.mark.parametrize("mode, shots", [("exact", 0), ("shots=100_000", 100_000), ("shots=+7", 7), ("shots= 7 ", 7)])
    def test_accepted_modes_keep_their_count(self, mode, shots):
        assert _parse_mode(mode) == shots

    @pytest.mark.parametrize(
        "doc, problem",
        [
            ({"dc": {"axis": [0, 0, 1], "angle": float("inf")}}, "non-finite number Infinity"),
            ({"dc": {"axis": [0, 0, 1], "angle": float("-inf")}}, "non-finite number -Infinity"),
            ({"cc_bell_diagonal": [float("nan"), 0, 0, 1]}, "non-finite number NaN"),
            ('{"dc": {"axis": [0, 0, 1], "angle": 1e999}}', "rotation angle must be finite"),
        ],
    )
    def test_non_finite_number_exits_two_without_warnings(self, tmp_path, capsys, doc, problem):
        # json.dumps writes inf and nan as the non-standard tokens; 1e999 parses to inf
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["identify", str(path)]) == EXIT_ERROR
        assert not caught
        captured = capsys.readouterr()
        assert problem in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.5, 0.0], [-0.1, 0.6, 0.5, 0.0], [0.25] * 3])
    def test_invalid_bell_weights_exit_two(self, tmp_path, capsys, weights):
        path = write_json(tmp_path / "cc.json", {"cc_bell_diagonal": weights})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "weights" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            # with their third components dropped, these two would be the identity channel (exit 0) ...
            {"dc_matrix": [[[1, 0, 99], [0, 0]], [[0, 0], [1, 0, "x"]]]},
            # ... and the maximally mixed state (exit 1)
            {"cc_matrix": [[[0.25, 0, 7] if i == j else [0, 0] for j in range(4)] for i in range(4)]},
            # booleans are not numbers in JSON, though ``complex(True, 0)`` and ``complex(0.25, False)`` accept them
            {"dc_matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
            {"cc_matrix": [[[0.25, False] if i == j else [0, 0] for j in range(4)] for i in range(4)]},
        ],
        ids=["dc-third-component", "cc-third-component", "dc-boolean", "cc-boolean"],
    )
    def test_entry_that_is_not_two_numbers_exits_two(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "entries must be [re, im] pairs of numbers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            # read with ``float``, these two were channels (exit 0) ...
            {"dc": {"axis": ["1", 0, 0], "angle": "1.5"}},
            {"dc": {"axis": [True, 0, 0], "angle": 1}},
            {"dc": {"axis": [1, 0, 0], "angle": False}},
            # ... and these two the Bell state phi+ (exit 1)
            {"cc_bell_diagonal": ["1", 0, 0, 0]},
            {"cc_bell_diagonal": [True, False, False, False]},
            {"cc_bell_diagonal": 1},
        ],
        ids=["dc-string", "dc-boolean-axis", "dc-boolean-angle", "cc-string", "cc-boolean", "cc-not-a-list"],
    )
    def test_number_that_is_not_a_real_number_exits_two(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "expected a list of real numbers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"dc": {"axis": [10**400, 0, 0], "angle": 1}},
            {"dc": {"axis": [1, 0, 0], "angle": 10**400}},
            {"cc_bell_diagonal": [10**400, 0, 0, 0]},
            {"dc_matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ],
        ids=["dc-axis", "dc-angle", "cc-bell-diagonal", "dc-matrix"],
    )
    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys, doc):
        # it used to escape as an OverflowError traceback, whose exit status 1 reads as a common-cause verdict
        path = write_json(tmp_path / "big.json", doc)
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "too large" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("axis", [[0, 1], [0, 0, 1, 0]])
    def test_axis_of_the_wrong_length_exits_two(self, tmp_path, capsys, axis):
        # exit 1 would read as a common-cause verdict
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": axis, "angle": 1}})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "3 components" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "axis, plain", [([1e200, 1e200, 0], [1, 1, 0]), ([1e-200, 0, 0], [1, 0, 0]), ([3e-160, 0, 0], [1, 0, 0])]
    )
    def test_axis_beyond_the_squares_range_is_its_direction(self, tmp_path, capsys, axis, plain):
        # squared, these components overflow or underflow; they used to exit 2 as "not unitary" or "nonzero"
        runs = []
        for name, a in (("far", axis), ("plain", plain)):
            path = write_json(tmp_path / f"{name}.json", {"dc": {"axis": a, "angle": 1}})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append((main(["identify", path]), capsys.readouterr()))
        assert runs[0][0] == EXIT_DC
        assert runs[0] == runs[1]

    def test_delta_below_twice_epsilon_exits_two(self, tmp_path, capsys):
        # with these thresholds exact mode would call this state a direct cause
        path = write_json(tmp_path / "cc.json", {"cc_bell_diagonal": [0, 0.5, 0.45, 0.05]})
        assert main(["identify", path, "--epsilon", "0.3"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_epsilon_prime_beyond_the_common_cause_floor_exits_two(self, tmp_path, capsys):
        # decided in the flipped round at criterion 1.2228: called DC if the cutoff were 1.25
        doc = {"cc_bell_diagonal": [0.5833333333333334, 0, 0.4166666666666667, 0]}
        path = write_json(tmp_path / "cc.json", doc)
        assert main(["identify", path, "--epsilon-prime", "1.25"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_threshold_flags(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 2.5}})
        assert main(["identify", path, "--epsilon", "0.02", "--delta", "0.3"]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"]["epsilon"] == 0.02
        assert doc["thresholds"]["delta"] == 0.3


class TestEnvironment:
    def test_environment_does_not_reach_a_run(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [1, 0, 0], "angle": 2.8}})
        assert main(["identify", path]) == EXIT_DC
        plain = capsys.readouterr()
        out = tmp_path / "out.json"
        monkeypatch.setenv("QCAUSAL_MODE", "shots=5")
        monkeypatch.setenv("QCAUSAL_EPSILON", "abc")
        monkeypatch.setenv("QCAUSAL_OUT", str(out))
        assert main(["identify", path]) == EXIT_DC
        assert capsys.readouterr() == plain
        assert not out.exists()


class TestSweepCommand:
    def test_csv_output_with_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--family", "edge", "--grid", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        assert len(lines) == 2 + 10
        summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
        assert summary["n_records"] == 10

    def test_stdout_is_the_csv_alone(self, tmp_path, capsys, monkeypatch):
        # without --out the summary is not written: stdout parses as CSV and no file appears
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--family", "edge", "--grid", "2"]) == 0
        rows = [row for row in csv.reader(io.StringIO(capsys.readouterr().out)) if not row[0].startswith("#")]
        assert len(rows) == 1 + 4
        assert all(len(row) == 13 for row in rows)
        assert list(tmp_path.iterdir()) == []

    def test_csv_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--family", "edge", "--grid", "5", "--seed", "1", "--out", str(a)])
        main(["sweep", "--family", "edge", "--grid", "5", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(
            [
                "sweep", "--family", "plane", "--grid", "2", "--seed", "2",
                "--format", "json", "--out", str(out),
            ]
        )
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2 * 6
        assert doc["summary"]["mechanisms"]["dc"]["verdict_dc"] == 6

    def test_json_records_match_csv_rows(self, tmp_path):
        argv = ["sweep", "--family", "plane", "--grid", "2", "--mode", "shots=1000", "--seed", "1"]
        csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
        header, *rows = csv_path.read_text().splitlines()[1:]
        records = json.loads(json_path.read_text())["records"]
        assert len(rows) == len(records) == 2 * 6
        for row, record in zip(rows, records):
            assert list(record) == header.split(",")
            assert row == ",".join(_fmt(value) for value in record.values())

    def test_too_few_resamples_exits_two(self, capsys):
        assert main(["sweep", "--family", "edge", "--grid", "3", "--resamples", "5"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_empty_grid_exits_two(self, capsys):
        assert main(["sweep", "--family", "edge", "--grid", "0"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


class TestRandomBenchCommand:
    def test_small_run(self, capsys):
        assert main(["random-bench", "--scenarios", "10", "--seed", "3", "--eta", "0.001"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 10
        assert doc["dc_as_cc"] == 0 and doc["cc_as_dc"] == 0

    def test_nothing_scored_writes_strict_json(self, capsys):
        def reject(name):
            raise AssertionError(f"non-JSON constant {name} in output")

        # eta 10 exceeds every exact margin, so all four scenarios are excluded
        assert main(["random-bench", "--scenarios", "4", "--eta", "10", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["included"] == 0 and doc["total"] == 4
        assert doc["accuracy"] is None

    def test_nan_eta_exits_two(self, capsys):
        assert main(["random-bench", "--scenarios", "4", "--eta", "nan"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error: eta" in captured.err
        assert captured.out == ""

    def test_negative_eta_exits_two(self, capsys):
        # a negative cutoff would read as "exclude nothing"; identify refuses a negative stop_margin too
        assert main(["random-bench", "--scenarios", "4", "--eta", "-0.05"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error: eta must be finite and >= 0, got -0.05" in captured.err
        assert captured.out == ""


class TestTetraCheckCommand:
    def test_small_run(self, capsys):
        assert main(["tetra-check", "--samples", "200", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dc_violations"] == 0 and doc["cc_violations"] == 0
        assert doc["pauli_vertices_ok"] and doc["bell_vertices_ok"]

    def test_nan_correlation_vector_counts_as_a_violation(self, capsys, monkeypatch):
        # NaN fails ``w < -tol`` as well as ``w >= -tol``: the audit must not count it as inside
        exact, calls = bench.pauli_vector, []

        def nan_once(scenario):
            calls.append(scenario)
            return np.full(3, np.nan) if len(calls) == 1 else exact(scenario)

        monkeypatch.setattr(bench, "pauli_vector", nan_once)
        assert main(["tetra-check", "--samples", "50", "--seed", "4"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["dc_violations"], doc["cc_violations"]) == (1, 0)
        assert 0.0 <= doc["worst_dc_weight"] < 1e-7 and 0.0 <= doc["worst_cc_weight"] < 1e-7
        assert doc["pauli_vertices_ok"] and doc["bell_vertices_ok"]

    def test_nan_in_report_exits_two(self, capsys, monkeypatch):
        report = TetraReport(1, 0, 0, float("nan"), 0.0, True, True)
        monkeypatch.setattr("qcausal.cli.run_tetra_check", lambda *args, **kwargs: report)
        assert main(["tetra-check", "--samples", "1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "edge", "--grid", "2"],
        ["identify", "{doc}"],
        ["random-bench", "--scenarios", "2"],
        ["tetra-check", "--samples", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890", "1.5"])
    def test_seed_is_a_non_negative_integer_named_in_the_error(self, capsys, tmp_path, argv, seed):
        doc = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        argv = [doc if arg == "{doc}" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err
        assert captured.out == ""


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tetra-check", "--samples", "1", "--mode", "shots=10"],
            ["tetra-check", "--samples", "1", "--epsilon", "0.3"],
            ["identify", "{doc}", "--format", "csv"],
            ["random-bench", "--scenarios", "2", "--format", "json"],
            ["sweep", "--family", "edge", "--grid", "2", "--jobs", "2"],
        ],
    )
    def test_flag_a_subcommand_does_not_read_exits_two(self, argv, tmp_path, capsys):
        doc = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        with pytest.raises(SystemExit) as exc:
            main([doc if arg == "{doc}" else arg for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
