"""Regenerate the golden exact and seeded sampled outputs in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

It rewrites ``documents.json`` (the scenario documents given to
``qcausal identify``), the exact outputs (those of ``EXACT_COMMANDS`` among
them) and ``exit_codes.json``, and the
seeded sampled outputs of ``SAMPLED_COMMANDS`` (files named ``sampled-*``)
with ``exit_codes-sampled.json``.  ``tests/test_golden.py`` reruns the same
commands through ``render`` and ``render_sampled`` and compares.
Regenerating is a declared change of the outputs: commit the new files
together with the code change that explains them.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from qcausal.cli import main
from qcausal.linalg import pauli, rotation_from_unitary
from qcausal.scenarios import complex_to_pairs, haar_unitary_matrix

GOLDEN = Path(__file__).resolve().parent
SWEEP_FAMILIES = ("edge", "plane")
#: Seeded exact commands by output file: every verdict comes from the stopped margin pass.
EXACT_COMMANDS = {
    "random-bench-pure.json": [
        "random-bench", "--scenarios", "200", "--cc-kind", "pure", "--eta", "0.05", "--seed", "4",
    ],
}
#: Seeded sampled commands by output file; ``{doc}`` stands for the path of a scenario document.
SAMPLED_COMMANDS = {
    "sampled-random-bench-mixed.json": [
        "random-bench", "--scenarios", "200", "--mode", "shots=10000", "--eta", "0.05", "--seed", "2",
    ],
    "sampled-random-bench-pure.json": [
        "random-bench", "--scenarios", "100", "--mode", "shots=1000", "--cc-kind", "pure", "--seed", "3",
    ],
    "sampled-plane.csv": [
        "sweep", "--family", "plane", "--grid", "4", "--mode", "shots=10000", "--resamples", "100",
        "--seed", "1",
    ],
    "sampled-edge.json": [
        "sweep", "--family", "edge", "--grid", "11", "--mode", "shots=10000", "--resamples", "100",
        "--seed", "1", "--format", "json",
    ],
    "sampled-identify-delta-boundary.json": [
        "identify", "{delta-boundary}", "--mode", "shots=10000", "--seed", "7",
    ],
    "sampled-identify-plane-2-3-5-dc.json": [
        "identify", "{plane-2-3-5-dc}", "--mode", "shots=10000", "--seed", "7",
    ],
    # exact correlations of seeded random mechanisms: the membership audit's worst weights
    "sampled-tetra-check.json": ["tetra-check", "--samples", "500", "--seed", "1"],
}


def _dc(axis, angle) -> dict:
    return {"dc": {"axis": [float(c) for c in axis], "angle": float(angle)}}


def _bell_diagonal(weights) -> dict:
    return {"cc_bell_diagonal": [float(w) for w in weights]}


def _delta_boundary_state() -> dict:
    """The first unpolarised state ``T = O diag(d) O^T`` on the ``delta = 2 epsilon`` bound."""
    paulis = [pauli(k) for k in range(4)]
    t = np.diag([0.925, 0.0, -0.075])
    o = rotation_from_unitary(haar_unitary_matrix(np.random.default_rng(1)))
    t = o @ t @ o.T
    rho = np.eye(4, dtype=complex)
    for k in range(3):
        for l in range(3):
            rho = rho + t[k, l] * np.kron(paulis[k + 1], paulis[l + 1])
    return {"cc_matrix": complex_to_pairs(rho / 4)}


def build_documents() -> dict:
    """Scenario documents by name: Pauli channels, Bell states, edge and plane points."""
    docs = {"pauli-i": _dc([0, 0, 1], 0.0)}
    for name, axis in (("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])):
        docs[f"pauli-{name}"] = _dc(axis, np.pi)
    for k, name in enumerate(("phi-plus", "phi-minus", "psi-plus", "psi-minus")):
        docs[f"bell-{name}"] = _bell_diagonal(np.eye(4)[k])
    # the edge family P = (-a, 1 - a, 0), as scenarios.edge_dc and edge_cc build it
    for a in (0.0, 0.26, 1.0):
        axis = [0.0, np.sqrt(1.0 / (1.0 + a)), np.sqrt(a / (1.0 + a))]
        docs[f"edge-{a:g}-dc"] = _dc(axis, np.arccos(-a))
        docs[f"edge-{a:g}-cc"] = _bell_diagonal([0.0, 0.5, (1.0 - a) / 2.0, a / 2.0])
    # plane lattice points of denominator 10, as scenarios.plane_dc and plane_cc build them
    for i, j, k in ((0, 0, 10), (5, 5, 0), (2, 3, 5)):
        target = np.array([i, j, k], dtype=float) / 10
        weights = [(target[0] + target[2]) / 2, (target[1] + target[2]) / 2, (target[0] + target[1]) / 2]
        docs[f"plane-{i}-{j}-{k}-dc"] = _dc(np.sqrt(target), np.pi / 2)
        docs[f"plane-{i}-{j}-{k}-cc"] = _bell_diagonal(weights + [0.0])
    docs["delta-boundary"] = _delta_boundary_state()
    return docs


def render(into: Path, documents: dict) -> dict:
    """Write every exact output under ``into``; return the exit code of each by file name."""
    codes = {}
    for family in SWEEP_FAMILIES:
        codes[f"{family}.csv"] = main(["sweep", "--family", family, "--out", str(into / f"{family}.csv")])
    for out, argv in EXACT_COMMANDS.items():
        codes[out] = main(argv + ["--out", str(into / out)])
    with tempfile.TemporaryDirectory() as scratch:
        for name, doc in documents.items():
            path = Path(scratch) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = f"identify-{name}.json"
            codes[out] = main(["identify", str(path), "--out", str(into / out)])
    return codes


def render_sampled(into: Path, documents: dict) -> dict:
    """Write every seeded sampled output under ``into``; return the exit code of each by file name."""
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for name, doc in documents.items():
            paths[name] = Path(scratch) / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        for out, argv in SAMPLED_COMMANDS.items():
            argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
            codes[out] = main(argv + ["--out", str(into / out)])
    return codes


def _write_json(path: Path, doc: dict):
    """One key per line, so a regenerated file diffs line by line."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def regenerate():
    documents = build_documents()
    _write_json(GOLDEN / "documents.json", documents)
    _write_json(GOLDEN / "exit_codes.json", render(GOLDEN, documents))
    _write_json(GOLDEN / "exit_codes-sampled.json", render_sampled(GOLDEN, documents))


if __name__ == "__main__":
    regenerate()
