import json
import warnings

import numpy as np
import pytest

from qcausal import bench
from qcausal.bench import TetraReport, _fmt
from qcausal.cli import EXIT_CC, EXIT_DC, EXIT_ERROR, main


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

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["identify", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_schema_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"mystery": 1})
        assert main(["identify", str(path)]) == EXIT_ERROR

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
