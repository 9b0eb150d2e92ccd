"""Fast tests of the benchmark: the output checks reject corrupted output, the
tracer leaves the program as it found it, and a run at tiny sizes prints
every declared metric."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from qcausal import AlgoConfig, edge_cc, make_oracle, pauli_vector  # noqa: E402
from qcausal.scenarios import haar_unitary, random_state  # noqa: E402
from qcausal import bench as qbench  # noqa: E402
from qcausal.cli import main as cli_main  # noqa: E402

SEED = 7
TINY = {w.name: w for w in (run.RandomBench(scenarios=4), run.PlaneSweep(grid=2, resamples=100),
                            run.TetraCheck(samples=5))}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("outputs")
    paths = {}
    for name, workload in TINY.items():
        paths[name] = out_dir / name
        assert cli_main(workload.argv(SEED, paths[name])) == 0
    return paths


def _sweep_texts(outputs):
    csv_path, summary_path = TINY["plane-sweep"].outputs(outputs["plane-sweep"])
    return csv_path.read_text().splitlines(), summary_path.read_text()


def _check_sweep(lines, summary):
    return checks.check_plane_sweep("\n".join(lines) + "\n", summary, 2, run.SHOTS)


def _edit_row(lines, index, column, edit):
    columns = checks.SWEEP_HEADER.split(",")
    cells = lines[2 + index].split(",")
    k = columns.index(column)
    cells[k] = edit(cells[k])
    lines[2 + index] = ",".join(cells)


@pytest.mark.parametrize("name", sorted(TINY))
def test_checks_accept_program_output(outputs, name):
    result = TINY[name].check(outputs[name], SEED)
    assert result.problems == [] and result.failed == 0


def test_flipped_sweep_verdict_fails_its_row(outputs):
    lines, summary = _sweep_texts(outputs)
    _edit_row(lines, 3, "verdict", lambda v: "CC" if v == "DC" else "DC")
    result = _check_sweep(lines, summary)
    assert result.problems == [] and result.failed == 1


def test_correlation_off_its_lattice_point_fails_its_row(outputs):
    lines, summary = _sweep_texts(outputs)
    _edit_row(lines, 0, "C22", lambda v: repr(float(v) + 8.0 / np.sqrt(run.SHOTS)))
    result = _check_sweep(lines, summary)
    assert result.problems == [] and result.failed == 1


def test_missing_sweep_row_fails_the_run(outputs):
    lines, summary = _sweep_texts(outputs)
    assert _check_sweep(lines[:-1], summary).problems


def test_membership_violation_fails_the_run(outputs):
    doc = json.loads(outputs["tetra-check"].read_text())
    doc["cc_violations"] = 1
    assert checks.check_tetra(json.dumps(doc), 5, SEED).problems


def test_worst_weight_is_recomputed(outputs):
    doc = json.loads(outputs["tetra-check"].read_text())
    doc["worst_dc_weight"] = 1e-6
    assert checks.check_tetra(json.dumps(doc), 5, SEED).problems
    assert checks.check_tetra(outputs["tetra-check"].read_text(), 5, SEED + 1).problems == []


def test_rebuilt_mechanisms_are_the_audited_ones():
    children = np.random.SeedSequence(SEED).spawn(6)
    c_dc, c_cc = checks.rebuild_correlations(SEED, 3)
    for i in range(3):
        assert np.allclose(c_dc[i], pauli_vector(haar_unitary(children[2 * i])), atol=1e-12)
        assert np.allclose(c_cc[i], pauli_vector(random_state("mixed", children[2 * i + 1])),
                           atol=1e-12)


def test_recomputed_correlations_fill_their_tetrahedra():
    c_dc, c_cc = checks.rebuild_correlations(SEED, 50)
    for c, vertices in ((c_dc, checks._DC_VERTICES), (c_cc, checks._CC_VERTICES)):
        w = checks.barycentric_weights(c, vertices)
        assert np.allclose(w.sum(axis=1), 1.0) and np.allclose(w @ vertices, c)
        assert w.min() > -1e-12
    assert checks.barycentric_weights(np.array([[1.0, 1.0, 1.0]]), checks._DC_VERTICES)[0, 0] == 1


def test_wrong_total_fails_the_run(outputs):
    doc = json.loads(outputs["random-bench"].read_text())
    doc["total"] += 1
    assert checks.check_random_bench(json.dumps(doc), 4).problems


def test_misclassified_scenario_is_a_failed_operation(outputs):
    doc = json.loads(outputs["random-bench"].read_text())
    doc["cc_as_cc"] -= 1
    doc["cc_as_dc"] += 1
    assert checks.check_random_bench(json.dumps(doc), 4).failed == 1


def test_tracer_records_layers_and_restores_the_program():
    original = qbench.identify
    tracer = Tracer(["scenarios.haar_unitary"])
    tracer.install()
    try:
        oracle = make_oracle(edge_cc(0.5))
        result = qbench.identify(oracle, AlgoConfig())
        qbench.haar_unitary(1)
    finally:
        tracer.uninstall()
    assert qbench.identify is original
    names = [span[0] for span in tracer.spans]
    assert names.count("comb.query") == result.query_count
    layers = tracer.metrics(1.0, per_record=False)
    assert layers["identify.calls"] == 1
    assert layers["identify.queries_per_verdict_max"] == result.query_count
    assert layers["scenarios.haar_unitary_calls"] == 1 and tracer.spans[-1][4] == 1


def test_times_are_taken_at_reference_speed():
    kw = dict(traced=False, mechanisms=100, work_s=1.0, rss_mb=40.0)
    fast = run.Round(setup_s=0.2, cpu_s=1.0, reference_s=run.REFERENCE_S, **kw)
    slow = run.Round(setup_s=0.4, cpu_s=2.0, reference_s=2 * run.REFERENCE_S, **kw)
    metrics = run.end_to_end([fast, slow, slow])
    assert metrics["mechanisms_per_s"]["value"] == pytest.approx(100.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload, trace, kind", [
    ("all", "1", "per_layer"),
    ("tetra-check", "0", "end_to_end"),
])
def test_tiny_run_prints_every_metric(tmp_path, capsys, workload, trace, kind):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace]
    assert run.main(argv, workloads=TINY, out_dir=tmp_path) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    results = doc.values() if workload == "all" else [doc]
    for result in results:
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == _declared(kind)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tetra-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
