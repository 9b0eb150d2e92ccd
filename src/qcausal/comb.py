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

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .linalg import pauli, rotation_from_unitary

__all__ = [
    "TwoQubitState",
    "DirectCause",
    "CommonCause",
    "Scenario",
    "pauli_vector",
    "delta_std",
    "MeasurementOracle",
    "make_oracle",
]

_I2 = pauli(0)
#: Frame of ``_I2``, computed once; ``_measure`` recognises ``_I2`` by identity.
_IDENTITY_FRAME = rotation_from_unitary(_I2)
# unmodified queries record these very arrays in their history
_I2.setflags(write=False)
_IDENTITY_FRAME.setflags(write=False)
_PAULIS = np.stack([pauli(k) for k in range(4)])

#: Residual bound of a validated density matrix, per dimension.
_VALIDATION_TOL = 1e-9
#: Unitarity bound of a channel matrix (Frobenius norm of ``u^dag u - I``).
_CHANNEL_TOL = _VALIDATION_TOL * 10


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"two-qubit state must be 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("two-qubit state has non-finite entries")
    if np.linalg.norm(rho - rho.conj().T) > _VALIDATION_TOL * 4:
        raise ValueError("two-qubit state is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > _VALIDATION_TOL * 4:
        raise ValueError("two-qubit state does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("two-qubit state has a negative eigenvalue")
    return rho


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
        self._store(_check_density_matrix(self.rho))

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
        m.setflags(write=False)  # read-only, as are its slices s, t and T: no caller can edit a mechanism
        object.__setattr__(self, "s", m[1:, 0])
        object.__setattr__(self, "t", m[0, 1:])
        object.__setattr__(self, "T", m[1:, 1:])


@dataclass(frozen=True, eq=False)
class DirectCause:
    """Mechanism sending the X system through a unitary channel to Y.

    The channel's input is maximally mixed: an input with Bloch vector ``r`` would give
    ``p(x, y) = (1 + x r.a) (1 + x y b^T R a) / 4`` for directions ``a``, ``b``, with the
    correlations ``b^T R a`` of every ``r`` and a Y marginal ``(1 + y (r.a) b^T R a) / 2``
    that moves with X's setting unless ``r = 0``, which is signalling.  Construction
    stores the rotation ``R`` of the unitary, so ``p(x, y) = (1 + x y b^T R a) / 4``.
    """

    unitary: np.ndarray
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"channel unitary must be 2x2, got shape {u.shape}")
        try:
            R = rotation_from_unitary(u, _CHANNEL_TOL)
        except ValueError:
            raise ValueError("channel matrix is not unitary within tolerance") from None
        R.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True, eq=False)
class CommonCause:
    """Mechanism distributing one bipartite state to X and Y."""

    state: TwoQubitState

    def __post_init__(self):
        if not isinstance(self.state, TwoQubitState):
            raise TypeError(f"common cause needs a TwoQubitState, got {type(self.state).__name__}")


Scenario = Union[DirectCause, CommonCause]


def _is_count(n) -> bool:
    """A non-boolean integer in ``[0, 2**53]``, past which a parity / shots stops matching numpy's division."""
    return not isinstance(n, (bool, np.bool_)) and 0 <= n <= 2**53 and n == int(n)  # NaN, inf fail the range


def _column_sums(m: np.ndarray, o: np.ndarray) -> list:
    """``c_k = sum_i m[i, k] o[i, k]`` as floats, summed as numpy's axis-0 reduce sums."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m.tolist()
    (d0, d1, d2), (e0, e1, e2), (f0, f1, f2) = o.tolist()
    return [(a0 * d0 + b0 * e0) + c0 * f0, (a1 * d1 + b1 * e1) + c1 * f1, (a2 * d2 + b2 * e2) + c2 * f2]


def _row(x: float, y: float, z: float) -> list:
    """Probabilities of one setting from ``(x, y, z) = (mx, my, c) / 4``, clipped and normalised."""
    p0, p1 = 0.25 + ((x + y) + z), 0.25 + ((x - y) - z)
    p2, p3 = 0.25 + ((y - x) - z), 0.25 + (z - (x + y))
    p0, p1 = (0.0 if p0 < 0.0 else p0), (0.0 if p1 < 0.0 else p1)
    p2, p3 = (0.0 if p2 < 0.0 else p2), (0.0 if p3 < 0.0 else p3)
    total = ((p0 + p1) + p2) + p3
    return [p0 / total, p1 / total, p2 / total, p3 / total]


def _probability_table(scenario, ox, oy) -> list:
    """Outcome probabilities of the three settings, each row ordered ``(x, y) = (1, 1), (1, -1), (-1, 1), (-1, -1)``.

    Setting k measures along ``a = ox[:, k]`` and ``b = oy[:, k]``, and
    ``p(x, y) = (1 + x mx + y my + x y c) / 4``: ``(mx, my, c)`` is
    ``(a.s, b.t, a^T T b)`` for a common cause and ``(0, 0, b^T R a)`` for a direct cause.
    """
    # Only the frame products go through BLAS: products with the signs +-1/4 are exact, and
    # ``_column_sums`` and ``_row`` sum in the order of the gemm kernel and numpy's reduces, as
    # the array form in ``tests/reference.py`` does.  Plain settings read the stored data: the
    # exact identity frame only adds signed zeros, which ``0.25 + ...`` absorbs.
    plain = ox is _IDENTITY_FRAME and oy is ox
    if isinstance(scenario, DirectCause):
        R = scenario.R
        c = R.diagonal().tolist() if plain else _column_sums(R.dot(ox), oy)
        return [_row(0.0, 0.0, 0.25 * k) for k in c]  # p0 = p3 and p1 = p2
    if not isinstance(scenario, CommonCause):
        raise TypeError(f"unknown scenario type: {type(scenario).__name__}")
    state = scenario.state
    s, t = (state.s, state.t) if plain else (state.s.dot(ox), state.t.dot(oy))
    mx, my = s.tolist(), t.tolist()
    c = state.T.diagonal().tolist() if plain else _column_sums(state.T.dot(oy), ox)
    return [_row(0.25 * a, 0.25 * b, 0.25 * k) for a, b, k in zip(mx, my, c)]


def _measure(scenario, wx, wy, shots, rng) -> OracleRecord:
    """One query under modifiers (wx, wy): its frames, correlations and, in sampled mode, counts."""
    ox = _IDENTITY_FRAME if wx is _I2 else rotation_from_unitary(wx)
    oy = ox if wy is wx else rotation_from_unitary(wy)
    table = _probability_table(scenario, ox, oy)
    if not shots:
        # parity signs (1, -1, -1, 1), summed in the order of the BLAS gemv kernel
        correlations = np.array([(p0 - p2) + (p3 - p1) for p0, p1, p2, p3 in table])
        return OracleRecord(wx, wy, correlations, None, ox, oy)
    # each setting draws only its count of equal outcomes, the one number its correlation reads.  numpy's
    # binomial branches at q = 0 and q = 1/2 and on floor((n + 1) q): on a 2**-42 grid the kernels' last-bit
    # residues vanish.  ``_row`` yields q = p0 + p3 within an ulp of [0, 1] or NaN, and doubles in [1024, 1025]
    # lie 2**-42 apart: q + 1024 rounds q to the grid, ties to even, as ``np.rint(q * 2**42) / 2**42`` does (sums
    # up to 1 + 2**-43 to 1, as ``binomial`` needs q <= 1), the subtraction is exact (Sterbenz) and NaN stays NaN
    same = tuple(rng.binomial(shots, ((p0 + p3) + 1024.0) - 1024.0) for p0, _, _, p3 in table)
    # integer parities 2 same - shots are exact; the division is the one rounding, and
    # Python's int / int rounds as numpy's float64 division of the same integers <= 2**53 does
    correlations = [(2 * n - shots) / shots for n in same]
    return OracleRecord(wx, wy, np.array(correlations), same, ox, oy)


def delta_std(correlations, shots: int, gradient) -> float:
    """Delta-method ``sqrt(sum_k g_k^2 (1 - C_k^2) / N)`` of a quantity with gradient ``g`` in one query's ``C_k``.

    ``_measure`` draws each setting's parity count independently, from ``Binomial(N, (1 + C_k) / 2)``.  Squares are
    ``g ** 2``, the bytes the sweep's deviations are pinned to: libm's ``pow`` and ``g * g`` can differ in the last bit.
    """
    terms = zip(np.asarray(gradient, dtype=float).tolist(), np.asarray(correlations, dtype=float).tolist())
    return math.sqrt(sum(g ** 2 * (1.0 - c * c) / shots for g, c in terms))


def pauli_vector(scenario: Scenario) -> np.ndarray:
    """Exact correlation vector ``(C11, C22, C33)`` under the plain Pauli settings.

    Modified settings and sampled estimates are queries of ``make_oracle(scenario)``.
    """
    return _measure(scenario, _I2, _I2, 0, None).correlations


class OracleRecord(NamedTuple):
    """One oracle query: the modifiers used, the result, parity counts if sampled, and the frames.

    ``counts`` holds, per setting, the number of shots whose two outcomes agreed (``None`` in exact mode).
    ``ox`` and ``oy`` are the rotations of ``modifier_x`` and ``modifier_y``,
    one object when both sides passed the same modifier.
    """

    modifier_x: np.ndarray
    modifier_y: np.ndarray
    correlations: np.ndarray
    counts: tuple | None
    ox: np.ndarray
    oy: np.ndarray


class MeasurementOracle:
    """Query-only access to a hidden mechanism.

    ``query(wx, wy)`` measures the three same-setting correlations under the
    given basis modifiers and returns them as a length-3 array.  The
    underlying scenario is not exposed; a counter tracks the number of
    queries, and ``history`` keeps the observed data.
    """

    def __init__(self, scenario: Scenario, shots: int = 0, seed=None):
        # a fraction would truncate, 0.5 to exact mode
        if not _is_count(shots):
            raise ValueError(f"shots must be an integer in [0, 2**53] (0 for exact evaluation), got {shots!r}")
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
        record = _measure(self.__scenario, wx, wy, self.shots, self._rng)
        self.history.append(record)
        return record.correlations


def make_oracle(scenario: Scenario, shots: int = 0, seed=None) -> MeasurementOracle:
    """Wrap a scenario in a measurement oracle (``shots = 0`` for exact mode)."""
    return MeasurementOracle(scenario, shots=shots, seed=seed)
