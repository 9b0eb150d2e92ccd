"""Every statement in a function of ``src/`` runs when the CLI runs, unless it is a guard this file names.

A fixed list of small CLI commands runs in-process under the standard library's ``trace`` line counter:
every subcommand in exact and sampled mode, every scenario-document form, every output form and the
error paths.  A statement inside a function body counts as run when any line of it (of its header, for
an ``if``, ``for`` or ``with``) was counted.  Left out are ``raise`` statements, the two
functions ``src/`` holds for outside callers (``bench.bootstrap_errorbars``, which the benchmark's tracer
wraps by name, and ``scenarios.scenario_to_json``, kept for writing replayable failure cases) and the
guards in ``UNREACHED_GUARDS``, which these commands do not reach.
"""

import ast
import contextlib
import io
import json
import math
import os
import sys
import trace
from pathlib import Path

import qcausal
from qcausal import cli
from qcausal.cli import EXIT_CC, EXIT_DC, EXIT_ERROR
from qcausal.scenarios import complex_to_pairs, haar_unitary, random_state

PACKAGE = Path(qcausal.__file__).resolve().parent

#: Functions held in ``src/`` for callers outside the CLI, by module and name.
HELD = {("bench", "bootstrap_errorbars"), ("scenarios", "scenario_to_json")}

#: Guards the commands do not reach, each with the reason, by module, function and the statement's source text.
UNREACHED_GUARDS = {
    # a sweep always yields both mechanisms of each grid point
    ("bench", "sweep_summary", "continue"),
    # an axis comes within 1e-12 of -z only as a sign class whose x and y weights lie near the 1e-12 dust cut
    ("identify", "modifier_from_axis", "return unitary_from_axis_angle(X_AXIS, np.pi)"),
}


def _documents():
    """Scenario documents by file name: every form, each with its error paths."""
    dc_matrix = complex_to_pairs(haar_unitary(3).unitary)
    cc_matrix = complex_to_pairs(random_state("mixed", 4).state.rho)
    return {
        # every form; a quarter turn about an axis of the xy-plane lies on the ambiguous plane, and the identity
        # channel and the singlet leave +z as the only candidate axis
        "dc.json": {"dc": {"axis": [0, 0, 1], "angle": 1.2}},
        "dc-plane.json": {"dc": {"axis": [0.6, 0.8, 0], "angle": math.pi / 2}},
        "dc-identity.json": {"dc": {"axis": [1, 0, 0], "angle": 0}},
        "dc-matrix.json": {"dc_matrix": dc_matrix},
        "cc-bell.json": {"cc_bell_diagonal": [0.1, 0.2, 0.3, 0.4]},
        "cc-plane.json": {"cc_bell_diagonal": [0.2, 0.3, 0.5, 0.0]},
        "cc-singlet.json": {"cc_bell_diagonal": [0, 0, 0, 1]},
        "cc-matrix.json": {"cc_matrix": cc_matrix},
        # errors of the document's shape
        "not-an-object.json": [1, 2],
        "no-key.json": {},
        "two-keys.json": {"dc_matrix": dc_matrix, "cc_matrix": cc_matrix},
        "unknown-key.json": {"spin": 1},
        "dc-not-an-object.json": {"dc": [1]},
        "dc-unknown-key.json": {"dc": {"axis": [0, 0, 1], "angle": 1, "spin": 0}},
        "dc-missing-key.json": {"dc": {"axis": [0, 0, 1]}},
        "dc-zero-axis.json": {"dc": {"axis": [0, 0, 0], "angle": 1}},
        "dc-matrix-not-pairs.json": {"dc_matrix": [[1, 2], [3, 4]]},
        "dc-matrix-shape.json": {"dc_matrix": [[[1, 0]]]},
        "dc-matrix-not-unitary.json": {"dc_matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "cc-bell-weights.json": {"cc_bell_diagonal": [1, 1, 0, 0]},
        "cc-bell-not-a-list.json": {"cc_bell_diagonal": "x"},
        "cc-matrix-shape.json": {"cc_matrix": dc_matrix},
        "cc-matrix-not-hermitian.json": {"cc_matrix": [[[0.25 if i == j else 0.1 * (i < j), 0] for j in range(4)]
                                                       for i in range(4)]},
        "cc-matrix-trace.json": {"cc_matrix": [[[0.5 * (i == j), 0] for j in range(4)] for i in range(4)]},
        "cc-matrix-negative.json": {"cc_matrix": [[[[0.5 + 1e-6, 0.5, 0.0, -1e-6][i] * (i == j), 0] for j in range(4)]
                                                  for i in range(4)]},
    }


#: Documents written as raw text: what ``json.dumps`` would not write.
RAW_DOCUMENTS = {
    "broken.json": "{not json",
    "nan.json": '{"cc_bell_diagonal": [NaN, 0, 0, 1]}',
    "repeated-key.json": '{"dc": {"axis": [0, 0, 1], "angle": 1, "angle": 2}}',
    "infinite-angle.json": '{"dc": {"axis": [0, 0, 1], "angle": 1e400}}',
    "infinite-entry.json": '{"cc_matrix": [' + ",".join(["[" + ",".join(["[1e400, 0]"] * 4) + "]"] * 4) + "]}",
    "huge-integer.json": '{"cc_bell_diagonal": [1' + "0" * 400 + ", 0, 0, 0]}",
    "deep.json": '{"dc": ' + "[" * 100_000 + "]" * 100_000 + "}",
}

#: The documents that name a mechanism: a direct cause exactly when the name starts with ``dc``.
VALID = ["dc.json", "dc-plane.json", "dc-identity.json", "dc-matrix.json",
         "cc-bell.json", "cc-plane.json", "cc-singlet.json", "cc-matrix.json"]


def _commands(tmp: Path):
    """The CLI argument lists, each with the exit code it must return."""
    out = str(tmp / "out")
    commands = []
    for name in VALID:
        verdict = EXIT_DC if name.startswith("dc") else EXIT_CC
        for mode in ("exact", "shots=1000"):
            commands.append((["identify", str(tmp / name), "--mode", mode, "--seed", "1"], verdict))
    commands.append((["identify", str(tmp / "dc.json"), "--out", out], EXIT_DC))
    for name in [n for n in [*_documents(), *RAW_DOCUMENTS, "missing.json"] if n not in VALID]:
        commands.append((["identify", str(tmp / name)], EXIT_ERROR))
    for family, grid in (("edge", "5"), ("plane", "2")):
        for mode in ("exact", "shots=1000"):
            commands.append((["sweep", "--family", family, "--grid", grid, "--mode", mode, "--seed", "2"], 0))
    commands += [(argv, 0) for argv in [
        ["sweep", "--family", "plane", "--grid", "2", "--mode", "shots=100", "--seed", "5", "--format", "json"],
        ["sweep", "--family", "edge", "--grid", "3", "--out", out],
        ["random-bench", "--scenarios", "6", "--seed", "3"],
        # the plane gap settles these six scenarios, two flipped and four in round one
        ["random-bench", "--scenarios", "6", "--seed", "3", "--eta", "0.05", "--out", out],
        # the third lies in the round-one band eta <= gap - delta < 2 eta + 1e-12: the one a margin pass decides
        ["random-bench", "--scenarios", "4", "--seed", "82", "--eta", "0.05"],
        ["random-bench", "--scenarios", "6", "--seed", "3", "--mode", "shots=1000", "--cc-kind", "pure"],
        ["random-bench", "--scenarios", "6", "--seed", "3", "--mode", "shots=1000", "--eta", "0.05"],
        ["random-bench", "--scenarios", "2", "--eta", "10"],  # the plane gap excludes every scenario: no accuracy
        ["tetra-check", "--samples", "5", "--seed", "4"],
        ["tetra-check", "--samples", "5", "--out", out],
    ]]
    commands += [(argv, EXIT_ERROR) for argv in [
        ["sweep", "--family", "edge", "--grid", "0"],
        ["sweep", "--family", "edge", "--grid", "3", "--resamples", "5"],
        ["sweep", "--family", "edge", "--grid", "3", "--mode", "shots=1e5"],
        ["sweep", "--family", "edge", "--grid", "3", "--mode", "fast"],
        ["identify", str(tmp / "dc.json"), "--delta", "0.1"],
        ["random-bench", "--scenarios", "0"],
        ["random-bench", "--scenarios", "2", "--eta", "nan"],
        ["tetra-check", "--samples", "0"],
    ]]
    return commands


def _statements(body):
    """Each statement of a function body, nested blocks included, with the lines that count as running it."""
    for stmt in body:
        if isinstance(stmt, ast.If):
            yield stmt, range(stmt.lineno, stmt.test.end_lineno + 1)
            yield from _statements(stmt.body)
            yield from _statements(stmt.orelse)
        elif isinstance(stmt, ast.For):
            yield stmt, range(stmt.lineno, stmt.iter.end_lineno + 1)
            yield from _statements(stmt.body)
            yield from _statements(stmt.orelse)
        elif isinstance(stmt, ast.With):
            yield stmt, range(stmt.lineno, stmt.items[-1].context_expr.end_lineno + 1)
            yield from _statements(stmt.body)
        elif isinstance(stmt, ast.Try):  # ``try:`` runs no line of its own
            for block in (stmt.body, *(handler.body for handler in stmt.handlers), stmt.orelse, stmt.finalbody):
                yield from _statements(block)
        else:
            yield stmt, range(stmt.lineno, stmt.end_lineno + 1)


def _counted_lines(tmp: Path):
    """The ``(path, line)`` pairs the CLI commands ran, after checking each command's exit code."""
    for name, doc in _documents().items():
        (tmp / name).write_text(json.dumps(doc))
    for name, text in RAW_DOCUMENTS.items():
        (tmp / name).write_text(text)
    tracer = trace.Trace(count=1, trace=0)
    previous = sys.gettrace()
    try:
        for argv, code in _commands(tmp):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert tracer.runfunc(cli.main, argv) == code, argv
    finally:
        sys.settrace(previous)
    return {(os.path.realpath(path), line) for path, line in tracer.results().counts}


def test_every_statement_runs(tmp_path):
    counted_lines = _counted_lines(tmp_path)
    unrun, guards_seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module, source = path.stem, path.read_text()
        real, lines_of = str(path), source.splitlines()
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, ast.FunctionDef) or (module, func.name) in HELD:
                continue
            body = func.body[1:] if ast.get_docstring(func, clean=False) is not None else func.body
            for stmt, lines in _statements(body):
                if isinstance(stmt, ast.Raise) or any((real, line) in counted_lines for line in lines):
                    continue
                key = (module, func.name, lines_of[stmt.lineno - 1].strip())
                if key in UNREACHED_GUARDS:
                    guards_seen.add(key)
                else:
                    unrun.append(f"{module}.py:{stmt.lineno} in {func.name}: {key[2]}")
    assert not unrun, "\n".join(unrun)
    # a guard that has come to run, or whose text changed, leaves the list
    assert guards_seen == UNREACHED_GUARDS
