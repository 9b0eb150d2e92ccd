"""Two-point measurement simulator for hidden causal mechanisms.

The hidden mechanism is either a direct cause (the system measured at X is
sent through a unitary channel to Y) or a common cause (X and Y measure the
two halves of a bipartite state).  Observers interact with it only through
pairs of single-qubit measurements whose bases may be modified by unitaries;
the first measurement reprepares its outcome eigenstate so the scheme stays
strictly observational (no signaling from X settings to Y marginals).

``MeasurementOracle`` packages a mechanism behind a query interface that
returns same-setting Pauli correlation vectors and counts queries, which is
the only access the identification algorithm gets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .linalg import pauli, rotation_from_unitary, unitary_from_axis_angle

__all__ = [
    "TwoQubitState",
    "DirectCause",
    "CommonCause",
    "Scenario",
    "ShotCounts",
    "OUTCOME_PAIRS",
    "pauli_vector",
    "MeasurementOracle",
    "make_oracle",
    "ScenarioFormatError",
    "scenario_to_json",
    "scenario_from_json",
]

_I2 = pauli(0)
_I2.setflags(write=False)  # unmodified queries record this very array in their history
#: Frame of ``_I2``, computed once; ``_measure_vector`` recognises ``_I2`` by identity.
_IDENTITY_FRAME = rotation_from_unitary(_I2)
_PAULIS = np.stack([pauli(k) for k in range(4)])
_SIGMA = _PAULIS[1:]

#: Outcome order used by joint distributions and shot counts.
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
#: Signs of x, y and x y (rows) of each outcome pair (columns).
_SIGNS = np.array([(x, y, x * y) for x, y in OUTCOME_PAIRS], dtype=float).T
_QUARTER_SIGNS, _PARITY = 0.25 * _SIGNS, _SIGNS[2]
#: Residual bound of a validated density matrix, per dimension.
_VALIDATION_TOL = 1e-9


def _check_density_matrix(rho: np.ndarray, dim: int, what: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{what} has non-finite entries")
    if np.linalg.norm(rho - rho.conj().T) > _VALIDATION_TOL * dim:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > _VALIDATION_TOL * dim:
        raise ValueError(f"{what} does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError(f"{what} has a negative eigenvalue")
    return rho


def _freeze(obj, **arrays):
    # derived arrays are stored read-only so no caller can edit a mechanism
    for name, value in arrays.items():
        value.setflags(write=False)
        object.__setattr__(obj, name, value)


#: Default input marginal of a direct cause, ``0.5 I``, and its Bloch vector:
#: validated once, shared read-only.
_MAXIMALLY_MIXED = _check_density_matrix(0.5 * _I2, 2, "input marginal")
_MAXIMALLY_MIXED_R = np.zeros(3)
_MAXIMALLY_MIXED.setflags(write=False)
_MAXIMALLY_MIXED_R.setflags(write=False)
#: Unitarity bound of a channel matrix (Frobenius norm of ``u^dag u - I``).
_CHANNEL_TOL = _VALIDATION_TOL * 10


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated 4x4 density matrix of the X and Y subsystems.

    Construction also stores the local Bloch vectors ``s`` (X side), ``t``
    (Y side) and the correlation matrix ``T[k, l] = Tr[rho sigma_k (x) sigma_l]``:
    for directions ``a``, ``b``, ``p(x, y) = (1 + x a.s + y b.t + x y a^T T b) / 4``.
    """

    rho: np.ndarray
    s: np.ndarray = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._store(_check_density_matrix(self.rho, 4, "two-qubit state"))

    @classmethod
    def _trusted(cls, rho: np.ndarray) -> TwoQubitState:
        """Wrap a complex 4x4 density matrix built as one by construction, without re-validating it."""
        state = object.__new__(cls)
        state._store(rho)
        return state

    def _store(self, rho: np.ndarray) -> None:
        object.__setattr__(self, "rho", rho)
        # m[a, b] = Tr[rho sigma_a (x) sigma_b], with sigma_0 the identity
        m = np.einsum("ijkl,aki,blj->ab", rho.reshape(2, 2, 2, 2), _PAULIS, _PAULIS).real
        _freeze(self, s=m[1:, 0], t=m[0, 1:], T=m[1:, 1:])


@dataclass(frozen=True, eq=False)
class DirectCause:
    """Mechanism sending the X system through a unitary channel to Y.

    The input marginal defaults to the maximally mixed state, the regime in
    which the X-side repreparation introduces no signaling; that default is
    one shared read-only array, validated once, while a caller-supplied
    marginal is validated in full.  Construction also stores the input Bloch
    vector ``r`` and the rotation ``R`` of the unitary: for directions ``a``,
    ``b``, ``p(x, y) = (1 + x a.r) (1 + x y b^T R a) / 4``.
    """

    unitary: np.ndarray
    input_marginal: np.ndarray = field(default_factory=lambda: _MAXIMALLY_MIXED)
    r: np.ndarray = field(init=False, repr=False)
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"channel unitary must be 2x2, got shape {u.shape}")
        try:
            R = rotation_from_unitary(u, _CHANNEL_TOL)
        except ValueError:
            raise ValueError("channel matrix is not unitary within tolerance") from None
        object.__setattr__(self, "unitary", u)
        if self.input_marginal is _MAXIMALLY_MIXED:
            object.__setattr__(self, "r", _MAXIMALLY_MIXED_R)
        else:
            rho_in = _check_density_matrix(self.input_marginal, 2, "input marginal")
            object.__setattr__(self, "input_marginal", rho_in)
            _freeze(self, r=np.einsum("ij,kji->k", rho_in, _SIGMA).real)
        _freeze(self, R=R)


@dataclass(frozen=True, eq=False)
class CommonCause:
    """Mechanism distributing one bipartite state to X and Y."""

    state: TwoQubitState

    def __post_init__(self):
        if not isinstance(self.state, TwoQubitState):
            object.__setattr__(self, "state", TwoQubitState(np.asarray(self.state)))


Scenario = Union[DirectCause, CommonCause]


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Coincidence counts per outcome pair from a finite-shot run."""

    counts: np.ndarray
    shots: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (4,) or c.min() < 0:
            raise ValueError("counts must be 4 nonnegative integers")
        if int(c.sum()) != int(self.shots):
            raise ValueError(f"counts sum to {int(c.sum())}, expected {self.shots}")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "shots", int(self.shots))

    @classmethod
    def _trusted(cls, counts: np.ndarray, shots: int) -> ShotCounts:
        """Wrap a row just drawn by ``rng.multinomial(shots, p)`` without re-validating it."""
        sc = object.__new__(cls)
        object.__setattr__(sc, "counts", counts)
        object.__setattr__(sc, "shots", shots)
        return sc


def _probability_table(scenario, ox, oy) -> np.ndarray:
    """Outcome probabilities of the three settings, rows ordered as ``OUTCOME_PAIRS``.

    Setting k measures along ``a = ox[:, k]`` and ``b = oy[:, k]``, and
    ``p(x, y) = (1 + x mx + y my + x y c) / 4``: ``(mx, my, c)`` is
    ``(a.s, b.t, a^T T b)`` for a common cause and ``(a.r, c a.r, b^T R a)``
    for a direct cause, the expansion of ``(1 + x a.r) (1 + x y b^T R a) / 4``.
    """
    # Plain settings read the stored data: products with the exact identity frame only
    # add signed zeros, which ``0.25 + ...`` below absorbs, so the table has the same bytes.
    plain = ox is _IDENTITY_FRAME and oy is ox
    if isinstance(scenario, DirectCause):
        r, R = scenario.r, scenario.R
        mx = r if plain else r @ ox
        c = R.diagonal() if plain else ((R @ ox) * oy).sum(axis=0)
        my = mx * c
    elif isinstance(scenario, CommonCause):
        state = scenario.state
        mx, my = (state.s, state.t) if plain else (state.s @ ox, state.t @ oy)
        c = state.T.diagonal() if plain else ((state.T @ oy) * ox).sum(axis=0)
    else:
        raise TypeError(f"unknown scenario type: {type(scenario).__name__}")
    probs = np.maximum(0.25 + np.array([mx, my, c]).T @ _QUARTER_SIGNS, 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def _measure_vector(scenario, wx, wy, shots, rng):
    """Correlation vector for modifiers (wx, wy); returns counts in sampled mode."""
    ox = _IDENTITY_FRAME if wx is _I2 else rotation_from_unitary(wx)
    probs = _probability_table(scenario, ox, ox if wy is wx else rotation_from_unitary(wy))
    if not shots:
        return probs @ _PARITY, None
    rows = [rng.multinomial(shots, p) for p in probs]
    # integer parities n0 - n1 - n2 + n3 are exact; the division is the one rounding
    parities = [n0 - n1 - n2 + n3 for n0, n1, n2, n3 in (row.tolist() for row in rows)]
    return np.array(parities) / shots, [ShotCounts._trusted(row, shots) for row in rows]


def pauli_vector(scenario: Scenario, modifier_x=None, modifier_y=None) -> np.ndarray:
    """Exact correlation vector ``(C11, C22, C33)`` under modified Pauli settings.

    Entry ``k`` is the correlation of the observables ``Wx sigma_k Wx^dag``
    and ``Wy sigma_k Wy^dag``.  Sampled estimates come from ``make_oracle``.
    """
    wx = _I2 if modifier_x is None else np.asarray(modifier_x, dtype=complex)
    wy = _I2 if modifier_y is None else np.asarray(modifier_y, dtype=complex)
    return _measure_vector(scenario, wx, wy, 0, None)[0]


@dataclass(frozen=True, eq=False)
class OracleRecord:
    """One oracle query: the modifiers used, the result, and raw counts if sampled."""

    modifier_x: np.ndarray
    modifier_y: np.ndarray
    correlations: np.ndarray
    counts: list | None


class MeasurementOracle:
    """Query-only access to a hidden mechanism.

    ``query(wx, wy)`` measures the three same-setting correlations under the
    given basis modifiers and returns them as a length-3 array.  The
    underlying scenario is not exposed; a counter tracks the number of
    queries, and ``history`` keeps the observed data.
    """

    def __init__(self, scenario: Scenario, shots: int = 0, seed=None):
        if shots < 0:
            raise ValueError("shots must be >= 0 (0 means exact evaluation)")
        self.__scenario = scenario
        self.shots = int(shots)
        # exact mode draws nothing: skip the OS-entropy read of an unseeded generator
        self._rng = np.random.default_rng(seed) if shots or seed is not None else None
        self.history: list[OracleRecord] = []

    @property
    def query_count(self) -> int:
        return len(self.history)

    def query(self, modifier_x=None, modifier_y=None) -> np.ndarray:
        wx = _I2 if modifier_x is None else np.asarray(modifier_x, dtype=complex)
        wy = _I2 if modifier_y is None else np.asarray(modifier_y, dtype=complex)
        values, counts = _measure_vector(self.__scenario, wx, wy, self.shots, self._rng)
        self.history.append(OracleRecord(wx, wy, values, counts))
        return values


def make_oracle(scenario: Scenario, shots: int = 0, seed=None) -> MeasurementOracle:
    """Wrap a scenario in a measurement oracle (``shots = 0`` for exact mode)."""
    return MeasurementOracle(scenario, shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# Scenario serialization (shared with the CLI)
# ---------------------------------------------------------------------------

class ScenarioFormatError(ValueError):
    """Raised when a scenario document does not match the schema."""


def _complex_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _pairs_to_complex(rows, dim: int, what: str) -> np.ndarray:
    try:
        m = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError) as exc:
        raise ScenarioFormatError(f"{what} entries must be [re, im] pairs") from exc
    if m.shape != (dim, dim):
        raise ScenarioFormatError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    return m


def scenario_to_json(scenario: Scenario) -> dict:
    """Serialize a scenario to the JSON schema understood by the CLI."""
    if isinstance(scenario, DirectCause):
        return {"dc_matrix": _complex_to_pairs(scenario.unitary)}
    if isinstance(scenario, CommonCause):
        return {"cc_matrix": _complex_to_pairs(scenario.state.rho)}
    raise TypeError(f"unknown scenario type: {type(scenario).__name__}")


def scenario_from_json(doc: dict) -> Scenario:
    """Build a scenario from its JSON form.

    Exactly one of the keys ``dc``, ``dc_matrix``, ``cc_bell_diagonal`` or
    ``cc_matrix`` must be present.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    keys = [k for k in ("dc", "dc_matrix", "cc_bell_diagonal", "cc_matrix") if k in doc]
    if len(keys) != 1:
        raise ScenarioFormatError(
            "expected exactly one of 'dc', 'dc_matrix', 'cc_bell_diagonal', 'cc_matrix'"
        )
    key = keys[0]
    body = doc[key]
    try:
        if key == "dc":
            axis = np.asarray(body["axis"], dtype=float)
            angle = float(body["angle"])
            return DirectCause(unitary_from_axis_angle(axis, angle))
        if key == "dc_matrix":
            return DirectCause(_pairs_to_complex(body, 2, "dc_matrix"))
        if key == "cc_bell_diagonal":
            from .scenarios import bell_diagonal

            return bell_diagonal(body)
        return CommonCause(TwoQubitState(_pairs_to_complex(body, 4, "cc_matrix")))
    except ScenarioFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"invalid scenario under {key!r}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    return scenario_from_json(doc)
