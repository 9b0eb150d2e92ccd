"""Exact and seeded sampled CLI outputs against committed goldens.

``tests/golden`` holds the outputs that ``tests/golden/regen.py`` wrote: in
exact mode the edge and plane sweeps (CSV and summary), a seeded pure-state
``random-bench`` with an ``eta`` and ``identify`` on the scenario documents of
``documents.json``; in sampled mode, with fixed seeds,
two ``random-bench`` runs, a plane sweep (CSV) and an edge sweep (JSON) with
their error bars, ``identify`` on two documents and ``tetra-check`` on 500 seeded
mechanisms; with every exit code.  The tests rerun the same commands
and compare at two strengths:

* always: exit codes, verdicts, rounds, query counts and every other
  non-float field are equal, and every float lies within 1e-12 of its golden
  (CSV floats are printed with 12 significant digits, so there one unit of the
  last printed digit is allowed on top);
* equal bytes, when this process's BLAS gives the results of the kernel that
  wrote the goldens on fixed inputs to the three routines the package calls:
  ``ddot``, ``dgemm`` and ``dgemv``, and its libm squares fixed floats with
  ``x ** 2`` as the golden machine's did.  Another kernel can fuse multiply and
  add in one routine and not in another, or sum in another order; it moves last
  bits (residues of zero of about 1e-16 in the sweeps), never a verdict or a
  round.  Python's float ``**`` calls the platform's ``pow``, which need not
  round correctly, and ``comb.delta_std`` squares that way, so the sampled
  error bars can move in the last bit with the libm as well.
"""

import json
import math

import numpy as np

from golden.regen import GOLDEN, render, render_sampled
from qcausal.bench import CSV_COLUMNS

TOL = 1e-12
_CSV_FLOAT_COLUMNS = {"C11", "C22", "C33", "criterion", "distance", "std_criterion", "std_distance"}


#: Fixed inputs of the BLAS fingerprint: sums of their products differ in the last bit
#: between fused and unfused kernels and between summation orders.
_A = np.array([[0.1, 0.1, 0.1], [0.1, 0.2, 0.9], [0.3, 0.7, 0.11]])
_B = np.array([[0.1, 0.1, 0.9], [0.2, 0.1, 0.3], [0.9, 0.1, 0.7]])
#: Floats whose ``x ** 2`` differs from ``x * x`` in the last bit under glibc 2.36's ``pow``, both ways.
_SQUARED = [6e-05, 0.009925, 2.2940387466154]
#: ``blas_fingerprint()`` on the machine that wrote the goldens: x86-64 with AVX-512, numpy
#: 2.4.6 on scipy-openblas 0.3.31, whose ``DYNAMIC_ARCH`` picks the SkylakeX kernel there, and glibc 2.36.
GOLDEN_BLAS = {
    "ddot": [0.12000000000000001, 0.26899999999999996],
    "dgemm": [
        0.12000000000000001, 0.030000000000000006, 0.19,
        0.8600000000000001, 0.12000000000000001, 0.78,
        0.26899999999999996, 0.11099999999999999, 0.5569999999999999,
    ],
    "dgemv": [
        0.12000000000000001, 0.030000000000000006, 0.19,
        0.12000000000000001, 0.8600000000000001, 0.26899999999999996,
    ],
    "pow": [3.6000000000000004e-09, 9.850562499999999e-05, 5.262613770972756],
}


def blas_fingerprint() -> dict:
    """``ddot``, ``dgemm`` and ``dgemv`` (vector by matrix, matrix by vector) on ``_A``, ``_B``; libm's ``x ** 2``."""
    return {
        "ddot": [float(_A[0].dot(_A[1])), float(_A[1].dot(_A[2]))],
        "dgemm": _A.dot(_B).ravel().tolist(),
        "dgemv": _A[0].dot(_B).tolist() + _A.dot(_A[1]).tolist(),
        "pow": [x ** 2 for x in _SQUARED],
    }


def _float_mismatch(got: float, want: float, tol: float) -> bool:
    return not abs(got - want) <= tol


def _json_mismatches(got, want, where: str) -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{where}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for key in want for m in _json_mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _json_mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, float) and not _float_mismatch(got, want, TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


def _printed_unit(value: float) -> float:
    """One unit of the 12th significant digit, the last one ``_fmt`` prints."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def _csv_mismatches(got: str, want: str, where: str) -> list:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got_lines[:2] != want_lines[:2]:
        return [f"{where}: {len(got_lines)} lines or header differ from {len(want_lines)} golden lines"]
    columns = CSV_COLUMNS.split(",")
    out = []
    for n, (g_line, w_line) in enumerate(zip(got_lines[2:], want_lines[2:]), start=3):
        g_row, w_row = g_line.split(","), w_line.split(",")
        if len(g_row) != len(w_row):
            out.append(f"{where}:{n}: {g_line!r} != {w_line!r}")
            continue
        for column, g, w in zip(columns, g_row, w_row):
            if column in _CSV_FLOAT_COLUMNS and g and w:
                want_value = float(w)
                if not _float_mismatch(float(g), want_value, TOL + _printed_unit(want_value)):
                    continue
            elif g == w:
                continue
            out.append(f"{where}:{n} {column}: {g!r} != {w!r}")
    return out


def _check(tmp_path, render_outputs, codes_file: str):
    """Rerun the commands into ``tmp_path``; compare exit codes, then every file they wrote with its golden."""
    documents = json.loads((GOLDEN / "documents.json").read_text(encoding="utf-8"))
    codes = render_outputs(tmp_path, documents)
    assert codes == json.loads((GOLDEN / codes_file).read_text(encoding="utf-8"))
    # equal bytes only where all three routines and the squares give the golden machine's results
    exact_bytes = blas_fingerprint() == GOLDEN_BLAS
    mismatches = []
    for name in (n for out in codes for n in ((out, out + ".summary.json") if out.endswith(".csv") else (out,))):
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        if exact_bytes:
            mismatches += [] if got == want else [f"{name}: bytes differ"]
        elif name.endswith(".csv"):
            mismatches += _csv_mismatches(got.decode(), want.decode(), name)
        else:
            mismatches += _json_mismatches(json.loads(got), json.loads(want), name)
    assert not mismatches, "\n".join(mismatches[:20])


def test_exact_outputs_match_the_goldens(tmp_path):
    _check(tmp_path, render, "exit_codes.json")


def test_seeded_sampled_outputs_match_the_goldens(tmp_path):
    # shot counts and confusion tallies are non-float fields: equal at either strength
    _check(tmp_path, render_sampled, "exit_codes-sampled.json")


def test_fingerprint_squares_tell_pow_from_a_product():
    # on the golden machine each square differs from the correctly rounded product, so a libm that rounds
    # correctly, or otherwise, fails the fingerprint and takes the 1e-12 path
    assert all(square != x * x for square, x in zip(GOLDEN_BLAS["pow"], _SQUARED))
