"""Two-point quantum causal structure identification.

Simulates direct-cause (unitary channel) and common-cause (bipartite state)
mechanisms behind an observational measurement oracle and identifies which
one generated an observed Pauli correlation, using the geometry of the
reachable correlation tetrahedra.  The package exports the README quick
start; every other name is imported from the module that defines it.
"""

from .comb import make_oracle, pauli_vector
from .identify import AlgoConfig, identify
from .scenarios import edge_cc, edge_dc

__version__ = "0.1.0"
