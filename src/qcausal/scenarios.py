"""Scenario families, random ensembles and scenario documents.

The two sweep families deliberately produce mechanism pairs whose plain
Pauli correlations coincide, so round-zero data alone cannot tell them
apart: an edge of the ambiguous octahedron (``C22 - C11 = 1, C33 = 0``) and
the plane ``sum C_kk = 1`` where the alignment test can be mimicked.
The CLI reads and writes single scenarios as JSON documents.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib

import numpy as np

from .comb import CommonCause, DirectCause, Scenario, TwoQubitState
from .linalg import unitary_from_axis_angle

__all__ = [
    "bell_diagonal",
    "edge_dc",
    "edge_cc",
    "plane_dc",
    "plane_cc",
    "haar_unitary",
    "haar_unitary_matrix",
    "random_state",
    "ScenarioFormatError",
    "complex_to_pairs",
    "scenario_to_json",
    "scenario_from_json",
    "load_scenario",
]

#: Bell states phi+, phi-, psi+, psi-.
_BELL_KETS = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
)
_BELL_PROJECTORS = np.stack([np.outer(k, k.conj()) for k in _BELL_KETS])
_BELL_PROJECTORS.setflags(write=False)


def bell_diagonal(weights) -> CommonCause:
    """Mixture of the four Bell states with the given probabilities."""
    w = np.asarray(weights, dtype=float)
    # written so that NaN weights fail
    if w.shape != (4,) or not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("need 4 nonnegative weights summing to 1")
    rho = sum(max(float(p), 0.0) * proj for p, proj in zip(w, _BELL_PROJECTORS))
    # a nonnegative mixture of projectors is Hermitian and positive semidefinite, and
    # weights within the check above keep its trace within the density-matrix bound
    return CommonCause(TwoQubitState._trusted(rho))


def edge_dc(a: float) -> Scenario:
    """Channel realization of the octahedron-edge family, P = (-a, 1-a, 0)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"edge parameter must be in [0, 1], got {a}")
    axis = np.array([0.0, np.sqrt(1.0 / (1.0 + a)), np.sqrt(a / (1.0 + a))])
    return DirectCause(unitary_from_axis_angle(axis, float(np.arccos(-a))))


def edge_cc(a: float) -> Scenario:
    """Bell-diagonal realization of the same edge family, P = (-a, 1-a, 0)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"edge parameter must be in [0, 1], got {a}")
    return bell_diagonal([0.0, 0.5, (1.0 - a) / 2.0, a / 2.0])


def plane_dc(axis) -> Scenario:
    """Quarter-turn channel about ``axis``; its P = (n1^2, n2^2, n3^2) sums to 1."""
    n = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane family axis must be a unit vector")
    return DirectCause(unitary_from_axis_angle(n, np.pi / 2.0))


def plane_cc(weights) -> Scenario:
    """Mixture of phi+, phi-, psi+ with the given simplex weights.

    Its correlation vector ``(w1 - w2 + w3, -w1 + w2 + w3, w1 + w2 - w3)``
    always sums to 1.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("need 3 nonnegative weights summing to 1")
    return bell_diagonal([w[0], w[1], w[2], 0.0])


def haar_unitary_matrix(rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed 2x2 unitary: the Q of a complex Ginibre matrix Z = QR.

    Q is taken with R's diagonal positive and real, the convention that makes
    it Haar.  In 2x2 Gram-Schmidt is scalar: the first column is Z's first
    column normalised, and the second the unit vector orthogonal to it whose
    phase makes ``R[1, 1] = det(Z) / |Z[:, 0]|`` positive.
    """
    ar, br, cr, dr, ai, bi, ci, di = rng.normal(size=8).tolist()  # Z's real parts row by row, then imaginary
    a, b, c, d = complex(ar, ai), complex(br, bi), complex(cr, ci), complex(dr, di)
    norm = math.sqrt(abs(a) ** 2 + abs(c) ** 2)
    a, c = a / norm, c / norm
    det = a * d - b * c
    phase = det / abs(det)
    return np.array([a, -phase * c.conjugate(), c, phase * a.conjugate()]).reshape(2, 2)


def haar_unitary(seed=None) -> Scenario:
    """Direct-cause scenario with a Haar-random channel, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return DirectCause(haar_unitary_matrix(rng))


def random_state(kind: str = "mixed", seed=None) -> Scenario:
    """Common-cause scenario with a random state.

    ``pure`` draws a Haar-random state vector; ``mixed`` draws from the
    Hilbert-Schmidt ensemble (normalized ``G G^dag`` with Ginibre G).  One call
    draws the real parts, then the imaginary ones: the stream of two draws.
    ``mixed`` divides by the real diagonal summed as ``(d0 + d1) + (d2 + d3)``,
    the pairwise order in which ``ndarray.trace`` adds four complex entries.
    """
    rng = np.random.default_rng(seed)
    if kind == "pure":
        real, imag = rng.normal(size=(2, 4))
        ket = real + 1j * imag
        ket = ket / np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
    elif kind == "mixed":
        real, imag = rng.normal(size=(2, 4, 4))
        g = real + 1j * imag
        rho = g.dot(g.conj().T)
        d0, d1, d2, d3 = rho.diagonal().real.tolist()
        rho /= (d0 + d1) + (d2 + d3)
    else:
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    # Hermitian, unit-trace and positive semidefinite by construction
    return CommonCause(TwoQubitState._trusted(rho))


# ---------------------------------------------------------------------------
# Scenario documents (read and written by the CLI)
# ---------------------------------------------------------------------------

class ScenarioFormatError(ValueError):
    """Raised when a scenario document does not match the schema."""


def complex_to_pairs(m: np.ndarray) -> list:
    """A complex matrix as rows of ``[re, im]`` float pairs, the JSON form of a matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _reals(values, size: int | None = None) -> list:
    """The floats of a list of real numbers that are not ``bool``, ``size`` of them if given; else ``TypeError``."""
    if not isinstance(values, (list, tuple)) or len(values) != (size or len(values)) or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise TypeError(f"expected a list of real numbers, got {reprlib.repr(values)}")  # bounded, however large
    return [float(v) for v in values]


def _pairs_to_complex(rows, dim: int, what: str) -> np.ndarray:
    try:
        # an entry of anything but two real numbers raises ``TypeError``
        m = np.asarray([[complex(*_reals(entry, 2)) for entry in row] for row in rows], dtype=complex)
    except TypeError as exc:
        raise ScenarioFormatError(f"{what} entries must be [re, im] pairs of numbers") from exc
    if m.shape != (dim, dim):
        raise ScenarioFormatError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    return m


def _reject_unknown_keys(obj: dict, known, where: str) -> None:
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ScenarioFormatError(f"unknown keys {reprlib.repr(unknown)} in {where}")  # bounded, however many


def scenario_to_json(scenario: Scenario) -> dict:
    """Serialize a scenario to the JSON schema understood by the CLI."""
    if isinstance(scenario, DirectCause):
        return {"dc_matrix": complex_to_pairs(scenario.unitary)}
    if isinstance(scenario, CommonCause):
        return {"cc_matrix": complex_to_pairs(scenario.state.rho)}
    raise TypeError(f"unknown scenario type: {type(scenario).__name__}")


def scenario_from_json(doc: dict) -> Scenario:
    """Build a scenario from its JSON form.

    The document has exactly one key, ``dc``, ``dc_matrix``, ``cc_bell_diagonal`` or
    ``cc_matrix``, and a ``dc`` body exactly the keys ``axis`` and ``angle``.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    _reject_unknown_keys(doc, ("dc", "dc_matrix", "cc_bell_diagonal", "cc_matrix"), "the scenario document")
    if len(doc) != 1:
        raise ScenarioFormatError("expected exactly one of 'dc', 'dc_matrix', 'cc_bell_diagonal', 'cc_matrix'")
    ((key, body),) = doc.items()
    try:
        if key == "dc":
            if not isinstance(body, dict):
                raise ScenarioFormatError("'dc' must be an object with 'axis' and 'angle'")
            _reject_unknown_keys(body, ("axis", "angle"), "'dc'")
            missing = [k for k in ("axis", "angle") if k not in body]
            if missing:
                raise ScenarioFormatError(f"missing keys {missing} in 'dc'")
            (angle,) = _reals([body["angle"]])
            return DirectCause(unitary_from_axis_angle(_reals(body["axis"]), angle))
        if key == "dc_matrix":
            return DirectCause(_pairs_to_complex(body, 2, "dc_matrix"))
        if key == "cc_bell_diagonal":
            return bell_diagonal(_reals(body))
        return CommonCause(TwoQubitState(_pairs_to_complex(body, 4, "cc_matrix")))
    except ScenarioFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # an integer too large for a float overflows
        raise ScenarioFormatError(f"invalid scenario under {key!r}: {exc}") from exc


def _reject_constant(token: str):
    raise ScenarioFormatError(f"non-finite number {token} is not allowed")


def _reject_repeated_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # json.load would keep the last value silently
        raise ScenarioFormatError("a JSON object repeats a key")
    return obj


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file; ``NaN``, ``Infinity`` and repeated keys are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_reject_repeated_keys)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    return scenario_from_json(doc)
