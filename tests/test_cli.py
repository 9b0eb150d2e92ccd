import json

import numpy as np
import pytest

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

    def test_delta_below_twice_epsilon_exits_two(self, tmp_path, capsys):
        # with these thresholds exact mode would call this state a direct cause
        path = write_json(tmp_path / "cc.json", {"cc_bell_diagonal": [0, 0.5, 0.45, 0.05]})
        assert main(["identify", path, "--epsilon", "0.3"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_threshold_flags(self, tmp_path, capsys):
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 2.5}})
        assert main(["identify", path, "--epsilon", "0.02", "--delta", "0.3"]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"]["epsilon"] == 0.02
        assert doc["thresholds"]["delta"] == 0.3


class TestEnvOverrides:
    def test_env_seed_and_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCAUSAL_MODE", "shots=5000")
        monkeypatch.setenv("QCAUSAL_SEED", "17")
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [1, 0, 0], "angle": 2.8}})
        assert main(["identify", path]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == 5000

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCAUSAL_EPSILON", "0.3")
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        assert main(["identify", path, "--epsilon", "0.05"]) == EXIT_DC
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"]["epsilon"] == 0.05


    @pytest.mark.parametrize("name", ["QCAUSAL_EPSILON", "QCAUSAL_SEED"])
    def test_malformed_env_exits_two(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        path = write_json(tmp_path / "dc.json", {"dc": {"axis": [0, 0, 1], "angle": 1.0}})
        assert main(["identify", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"error: {name}=" in captured.err
        assert captured.out == ""


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
