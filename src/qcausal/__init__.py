"""Two-point quantum causal structure identification.

Simulates direct-cause (unitary channel) and common-cause (bipartite state)
mechanisms behind an observational measurement oracle and identifies which
one generated an observed Pauli correlation, using the geometry of the
reachable correlation tetrahedra.
"""

from .linalg import pauli, rotation_from_unitary, unitary_from_axis_angle
from .comb import (
    CommonCause,
    DirectCause,
    MeasurementOracle,
    Scenario,
    TwoQubitState,
    make_oracle,
    pauli_vector,
)
from .geometry import (
    CC_TETRA,
    CC_VERTICES,
    DC_TETRA,
    DC_VERTICES,
    barycentric,
    distance,
    plane_gap,
)
from .identify import (
    AlgoConfig,
    ClassificationResult,
    SECOND_ROUND_TARGET,
    alignment_scan,
    axis_candidates,
    identify,
    modifier_from_axis,
    second_round,
)
from .scenarios import (
    bell_diagonal,
    edge_cc,
    edge_dc,
    haar_unitary,
    load_scenario,
    plane_cc,
    plane_dc,
    random_state,
    scenario_from_json,
    scenario_to_json,
)
from .bench import (
    ConfusionMatrix,
    SweepRecord,
    TetraReport,
    exact_margin,
    run_random_bench,
    run_sweep,
    run_tetra_check,
)

__version__ = "0.1.0"
