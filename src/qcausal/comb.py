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

from .linalg import DEFAULT_TOL, is_unitary, pauli, rotation_from_unitary, unitary_from_axis_angle

__all__ = [
    "TwoQubitState",
    "DirectCause",
    "CommonCause",
    "Scenario",
    "ObservableSpec",
    "JointDistribution",
    "ShotCounts",
    "OUTCOME_PAIRS",
    "exact_joint",
    "sample_counts",
    "correlation",
    "pauli_vector",
    "MeasurementOracle",
    "make_oracle",
    "ScenarioFormatError",
    "scenario_to_json",
    "scenario_from_json",
]

_I2 = pauli(0)
_PAULIS = np.stack([pauli(k) for k in range(4)])
_SIGMA = _PAULIS[1:]

#: Outcome order used by joint distributions and shot counts.
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
#: Signs of x, y and x y (rows) of each outcome pair (columns).
_SIGNS = np.array([(x, y, x * y) for x, y in OUTCOME_PAIRS], dtype=float).T
_QUARTER_SIGNS, _PARITY = 0.25 * _SIGNS, _SIGNS[2]


def _check_density_matrix(rho: np.ndarray, dim: int, what: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{what} has non-finite entries")
    if np.linalg.norm(rho - rho.conj().T) > DEFAULT_TOL.validation * dim:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL.validation * dim:
        raise ValueError(f"{what} does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError(f"{what} has a negative eigenvalue")
    return rho


def _freeze(obj, **arrays):
    # derived arrays are stored read-only so no caller can edit a mechanism
    for name, value in arrays.items():
        value.setflags(write=False)
        object.__setattr__(obj, name, value)


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
        rho = _check_density_matrix(self.rho, 4, "two-qubit state")
        object.__setattr__(self, "rho", rho)
        # m[a, b] = Tr[rho sigma_a (x) sigma_b], with sigma_0 the identity
        m = np.einsum("ijkl,aki,blj->ab", rho.reshape(2, 2, 2, 2), _PAULIS, _PAULIS).real
        _freeze(self, s=m[1:, 0], t=m[0, 1:], T=m[1:, 1:])

    def correlation_matrix(self) -> np.ndarray:
        """3x3 matrix ``T[k, l] = Tr[rho sigma_k (x) sigma_l]`` (read-only)."""
        return self.T


@dataclass(frozen=True, eq=False)
class DirectCause:
    """Mechanism sending the X system through a unitary channel to Y.

    The input marginal defaults to the maximally mixed state, the regime in
    which the X-side repreparation introduces no signaling.  Construction
    also stores the input Bloch vector ``r`` and the rotation ``R`` of the
    unitary: for directions ``a``, ``b``, ``p(x, y) = (1 + x a.r) (1 + x y b^T R a) / 4``.
    """

    unitary: np.ndarray
    input_marginal: np.ndarray = field(default_factory=lambda: 0.5 * _I2)
    r: np.ndarray = field(init=False, repr=False)
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"channel unitary must be 2x2, got shape {u.shape}")
        if not is_unitary(u, DEFAULT_TOL.validation * 10):
            raise ValueError("channel matrix is not unitary within tolerance")
        rho_in = _check_density_matrix(self.input_marginal, 2, "input marginal")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "input_marginal", rho_in)
        _freeze(self, r=np.einsum("ij,kji->k", rho_in, _SIGMA).real, R=rotation_from_unitary(u))


@dataclass(frozen=True, eq=False)
class CommonCause:
    """Mechanism distributing one bipartite state to X and Y."""

    state: TwoQubitState

    def __post_init__(self):
        if not isinstance(self.state, TwoQubitState):
            object.__setattr__(self, "state", TwoQubitState(np.asarray(self.state)))


Scenario = Union[DirectCause, CommonCause]


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Dichotomic observable ``W sigma_k W^dag`` for a modifier W and k in 1..3."""

    modifier: np.ndarray
    pauli_index: int

    def __post_init__(self):
        w = np.asarray(self.modifier, dtype=complex)
        if w.shape != (2, 2) or not is_unitary(w, DEFAULT_TOL.validation * 10):
            raise ValueError("observable modifier must be a 2x2 unitary")
        if self.pauli_index not in (1, 2, 3):
            raise ValueError(f"Pauli index must be 1..3, got {self.pauli_index!r}")
        object.__setattr__(self, "modifier", w)

    def bloch_direction(self) -> np.ndarray:
        """Bloch direction of the +1 eigenstate of the observable."""
        return rotation_from_unitary(self.modifier)[:, self.pauli_index - 1]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome probabilities, ordered as ``OUTCOME_PAIRS``."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (4,):
            raise ValueError(f"expected 4 probabilities, got shape {p.shape}")
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "p", np.clip(p, 0.0, None))

    def marginal_x(self) -> np.ndarray:
        """Probabilities of x = +1, -1."""
        return np.array([self.p[0] + self.p[1], self.p[2] + self.p[3]])

    def marginal_y(self) -> np.ndarray:
        """Probabilities of y = +1, -1."""
        return np.array([self.p[0] + self.p[2], self.p[1] + self.p[3]])


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

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def _projector(direction: np.ndarray, outcome: int) -> np.ndarray:
    n_dot_sigma = np.tensordot(direction, _SIGMA, axes=1)
    return 0.5 * (_I2 + outcome * n_dot_sigma)


def _joint_probs(scenario, ax, ay) -> np.ndarray:
    """Joint probabilities for measurement directions ax (X side), ay (Y side)."""
    proj_x = {s: _projector(ax, s) for s in (1, -1)}
    proj_y = {s: _projector(ay, s) for s in (1, -1)}
    probs = np.empty(4)
    if isinstance(scenario, DirectCause):
        u = scenario.unitary
        ud = u.conj().T
        for i, (x, y) in enumerate(OUTCOME_PAIRS):
            if i % 2 == 0:  # propagate each X outcome once
                px = np.sum(proj_x[x].T * scenario.input_marginal).real
                propagated = u @ proj_x[x] @ ud
            probs[i] = px * np.sum(proj_y[y].T * propagated).real
    elif isinstance(scenario, CommonCause):
        rho = scenario.state.rho
        for i, (x, y) in enumerate(OUTCOME_PAIRS):
            probs[i] = np.sum(np.kron(proj_x[x], proj_y[y]).T * rho).real
    else:
        raise TypeError(f"unknown scenario type: {type(scenario).__name__}")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def exact_joint(scenario: Scenario, obs_x: ObservableSpec, obs_y: ObservableSpec) -> JointDistribution:
    """Exact joint outcome distribution of the two measurements.

    For a direct cause the X measurement projects, the outcome eigenstate is
    reprepared, and the channel propagates it to Y:
    ``p(x, y) = Tr[P_x rho_in] Tr[P_y U P_x U^dag]``.  For a common cause
    ``p(x, y) = Tr[rho (P_x (x) P_y)]``.
    """
    return JointDistribution(_joint_probs(scenario, obs_x.bloch_direction(), obs_y.bloch_direction()))


def sample_counts(dist: JointDistribution, shots: int, seed=None) -> ShotCounts:
    """Draw one multinomial sample of ``shots`` outcomes, deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(shots), dist.p / dist.p.sum())
    return ShotCounts(counts, int(shots))


def correlation(src: Union[JointDistribution, ShotCounts]) -> float:
    """Same-setting correlation ``p(x = y) - p(x != y)``."""
    if isinstance(src, JointDistribution):
        f = src.p
    elif isinstance(src, ShotCounts):
        f = src.frequencies()
    else:
        raise TypeError(f"expected JointDistribution or ShotCounts, got {type(src).__name__}")
    return float(f[0] + f[3] - f[1] - f[2])


def _probability_table(scenario, ox, oy) -> np.ndarray:
    """Outcome probabilities of the three settings, rows ordered as ``OUTCOME_PAIRS``.

    Setting k measures along ``a = ox[:, k]`` and ``b = oy[:, k]``, and
    ``p(x, y) = (1 + x mx + y my + x y c) / 4``: ``(mx, my, c)`` is
    ``(a.s, b.t, a^T T b)`` for a common cause and ``(a.r, c a.r, b^T R a)``
    for a direct cause, the expansion of ``(1 + x a.r) (1 + x y b^T R a) / 4``.
    """
    if isinstance(scenario, DirectCause):
        mx = scenario.r @ ox
        c = ((scenario.R @ ox) * oy).sum(axis=0)
        my = mx * c
    elif isinstance(scenario, CommonCause):
        state = scenario.state
        mx, my = state.s @ ox, state.t @ oy
        c = ((state.T @ oy) * ox).sum(axis=0)
    else:
        raise TypeError(f"unknown scenario type: {type(scenario).__name__}")
    probs = np.maximum(0.25 + np.array([mx, my, c]).T @ _QUARTER_SIGNS, 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def _measure_vector(scenario, wx, wy, shots, rng):
    """Correlation vector for modifiers (wx, wy); returns counts in sampled mode."""
    ox = rotation_from_unitary(wx)
    probs = _probability_table(scenario, ox, ox if wy is wx else rotation_from_unitary(wy))
    if not shots:
        return probs @ _PARITY, None
    counts = [ShotCounts(rng.multinomial(shots, p), shots) for p in probs]
    return np.array([sc.counts for sc in counts]) @ _PARITY / shots, counts


def pauli_vector(scenario: Scenario, modifier_x=None, modifier_y=None, shots: int = 0, seed=None) -> np.ndarray:
    """Correlation vector ``(C11, C22, C33)`` under modified Pauli settings.

    Entry ``k`` is the correlation of the observables ``Wx sigma_k Wx^dag``
    and ``Wy sigma_k Wy^dag``.  With ``shots = 0`` the values are exact;
    otherwise each setting is estimated from one multinomial sample.
    """
    wx = _I2 if modifier_x is None else np.asarray(modifier_x, dtype=complex)
    wy = _I2 if modifier_y is None else np.asarray(modifier_y, dtype=complex)
    rng = np.random.default_rng(seed) if shots else None
    return _measure_vector(scenario, wx, wy, int(shots), rng)[0]


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
        self._rng = np.random.default_rng(seed)
        self._queries = 0
        self.history: list[OracleRecord] = []

    @property
    def query_count(self) -> int:
        return self._queries

    def query(self, modifier_x=None, modifier_y=None) -> np.ndarray:
        wx = _I2 if modifier_x is None else np.asarray(modifier_x, dtype=complex)
        wy = _I2 if modifier_y is None else np.asarray(modifier_y, dtype=complex)
        self._queries += 1
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
