"""Output checks for the benchmark workloads.

Each check compares the program's output with a computation made here, apart
from the program, or with a property the method must have; none compares
with a stored copy of earlier output.  A check returns a ``CheckResult``:
``problems`` are faults of the whole invocation (any one fails every
mechanism of the round), ``failed`` counts single mechanisms whose own check
failed.  Malformed output raises ``ValueError``, ``KeyError``,
``TypeError`` or ``IndexError``; the caller treats that as a problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Accuracy bound of acceptance criterion 6 (shot noise with an eta margin).
MIN_ACCURACY = 0.98

#: Header of the sweep CSV (schema ``qcausal-sweep-v1``).
SWEEP_HEADER = (
    "family,param,mechanism,C11,C22,C33,round,criterion,distance,verdict,N,"
    "std_criterion,std_distance"
)

#: Default distance cutoff of the flipped round, ``1/sqrt(3)``.
EPSILON_PRIME = 1.0 / math.sqrt(3.0)

#: Largest distance of a sampled correlation from its lattice point, in units
#: of ``1/sqrt(N)``.  The estimate's standard deviation is at most
#: ``1/sqrt(N)``; at 5 a correct row failed once in the 96 rounds of ten
#: 40 s runs (a 5.16 sigma draw), at 6 a value fails by chance with
#: probability below 2e-9.
LATTICE_TOLERANCE = 6.0

_PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

#: Vertices of the channel and state tetrahedra: the Pauli channels and Bell states.
_DC_VERTICES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
_CC_VERTICES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


@dataclass
class CheckResult:
    problems: list = field(default_factory=list)
    failed: int = 0


def barycentric_weights(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Barycentric weights of points (n, 3) in a tetrahedron with vertices in {-1, 1}^3.

    The vertices satisfy ``v_i . v_j = -1`` for ``i != j`` and ``|v_i|^2 = 3``,
    so ``sum_i v_i v_i^T = 4 I`` and ``sum_i v_i = 0``; hence the weights
    ``w_i = (1 + v_i . p) / 4`` sum to 1 and reproduce ``p``.
    """
    return (1.0 + np.asarray(points) @ vertices.T) / 4.0


# ---------------------------------------------------------------------------
# random-bench
# ---------------------------------------------------------------------------

def check_random_bench(text: str, scenarios: int) -> CheckResult:
    """Tallies add up to the requested half/half ensemble; misclassified ones fail."""
    doc = json.loads(text)
    res = CheckResult()
    n_dc = scenarios // 2
    dc_side = doc["dc_as_dc"] + doc["dc_as_cc"] + doc["excluded_dc"]
    cc_side = doc["cc_as_cc"] + doc["cc_as_dc"] + doc["excluded_cc"]
    if doc["total"] != scenarios:
        res.problems.append(f"total {doc['total']} != {scenarios} requested")
    if dc_side != n_dc:
        res.problems.append(f"channel tallies sum to {dc_side}, expected {n_dc}")
    if cc_side != scenarios - n_dc:
        res.problems.append(f"state tallies sum to {cc_side}, expected {scenarios - n_dc}")
    included = dc_side + cc_side - doc["excluded_dc"] - doc["excluded_cc"]
    if included < 1:
        res.problems.append("no scenario was scored")
    else:
        accuracy = (doc["dc_as_dc"] + doc["cc_as_cc"]) / included
        if accuracy < MIN_ACCURACY:
            res.problems.append(f"accuracy {accuracy:.4f} < {MIN_ACCURACY}")
    res.failed = doc["dc_as_cc"] + doc["cc_as_dc"]
    return res


# ---------------------------------------------------------------------------
# plane sweep
# ---------------------------------------------------------------------------

def plane_lattice(d: int) -> list:
    """Lattice points ``(i, j, k) / d`` with ``i + j + k = d``, in record order."""
    return [(i / d, j / d, (d - i - j) / d) for i in range(d + 1) for j in range(d + 1 - i)]


def _row_ok(row: dict, point, mechanism: str, shots: int) -> bool:
    tol = LATTICE_TOLERANCE / math.sqrt(shots)
    values = [float(row[c]) for c in ("C11", "C22", "C33", "std_criterion", "std_distance")]
    param = [float(x) for x in row["param"].split(":")]
    dist = float(row["distance"])
    return (
        row["family"] == "plane"
        and row["mechanism"] == mechanism
        and all(abs(a - b) < 1e-9 for a, b in zip(param, point))
        and row["round"] == "2"
        and row["verdict"] == mechanism.upper()
        and int(row["N"]) == shots
        and all(abs(v - p) <= tol for v, p in zip(values[:3], point))
        and (dist < EPSILON_PRIME if mechanism == "dc" else dist > EPSILON_PRIME)
        and all(math.isfinite(v) and v >= 0.0 for v in values[3:])
    )


def check_plane_sweep(csv_text: str, summary_text: str, grid: int, shots: int) -> CheckResult:
    """Every lattice point has a DC and a CC row, decided in the flipped round.

    Rows are matched to the lattice computed here, in the documented order
    (parameter, then mechanism).  A row fails when its correlations are more
    than ``LATTICE_TOLERANCE/sqrt(N)`` from its lattice point, its verdict does not match its
    mechanism, its distance is on the wrong side of ``1/sqrt(3)`` or its
    bootstrap deviations are not finite and non-negative.
    """
    lines = csv_text.splitlines()
    res = CheckResult()
    if lines[:2] != ["# schema: qcausal-sweep-v1", SWEEP_HEADER]:
        res.problems.append("missing schema line or header")
        return res
    columns = SWEEP_HEADER.split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    expected = [(p, m) for p in plane_lattice(grid) for m in ("cc", "dc")]
    if len(rows) != len(expected):
        res.problems.append(f"{len(rows)} rows, expected {len(expected)}")
        return res
    summary = json.loads(summary_text)
    if summary["n_records"] != len(rows):
        res.problems.append(f"summary counts {summary['n_records']} records, CSV has {len(rows)}")
    for row, (point, mechanism) in zip(rows, expected):
        try:
            ok = _row_ok(row, point, mechanism, shots)
        except (KeyError, ValueError, TypeError):
            ok = False
        res.failed += not ok
    return res


# ---------------------------------------------------------------------------
# tetra-check
# ---------------------------------------------------------------------------

def rebuild_correlations(seed: int, samples: int) -> tuple:
    """Correlation vectors (samples, 3) of the audited channels and states.

    The mechanisms are drawn from the same seed children as the program
    draws them (Haar channels by QR of a complex Ginibre matrix with the
    phases of ``R``'s diagonal divided out; Hilbert-Schmidt states as
    normalised ``G G^dag``).  Correlations are computed here: the diagonal of
    the channel's Bloch rotation, ``C_kk = Tr[s_k U s_k U^dag] / 2``, and
    ``C_kk = Re Tr[rho s_k (x) s_k]`` for states.
    """
    children = np.random.SeedSequence(seed).spawn(2 * samples)
    units, rhos = [], []
    for i in range(samples):
        rng = np.random.default_rng(children[2 * i])
        z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        units.append(q * (d / np.abs(d)))
        rng = np.random.default_rng(children[2 * i + 1])
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rhos.append(rho / np.trace(rho).real)
    u = np.array(units)
    rotated = np.einsum("nab,kbc,ndc->nkad", u, _PAULI, u.conj())
    c_dc = 0.5 * np.einsum("kda,nkad->nk", _PAULI, rotated).real
    pairs = np.einsum("kab,kcd->kacbd", _PAULI, _PAULI).reshape(3, 4, 4)
    c_cc = np.einsum("nab,kba->nk", np.array(rhos), pairs).real
    return c_dc, c_cc


def check_tetra(text: str, samples: int, seed: int) -> CheckResult:
    """No membership violations, both vertex sets exact, worst weights agree.

    The worst weights are recomputed here from the rebuilt mechanisms; a
    rebuilt mechanism whose correlation vector lies outside its tetrahedron
    by more than 1e-9 fails on its own.
    """
    doc = json.loads(text)
    res = CheckResult()
    if doc["samples"] != samples:
        res.problems.append(f"samples {doc['samples']} != {samples} requested")
    if doc["dc_violations"] or doc["cc_violations"]:
        res.problems.append(
            f"membership violations: {doc['dc_violations']} DC, {doc['cc_violations']} CC"
        )
    if doc["pauli_vertices_ok"] is not True or doc["bell_vertices_ok"] is not True:
        res.problems.append("a vertex flag is not true")
    c_dc, c_cc = rebuild_correlations(seed, samples)
    for key, points, vertices in (("worst_dc_weight", c_dc, _DC_VERTICES),
                                  ("worst_cc_weight", c_cc, _CC_VERTICES)):
        lowest = barycentric_weights(points, vertices).min(axis=1)
        res.failed += int(np.count_nonzero(lowest < -1e-9))
        want = float(max(0.0, -lowest.min()))
        if not abs(float(doc[key]) - want) <= 1e-9:
            res.problems.append(f"{key} {doc[key]!r} differs from recomputed {want!r}")
    return res
