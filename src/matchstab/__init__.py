"""matchstab: stabilizing edge-weighted graphs for network bargaining games.

Exact-rational fractional matchings with LP-duality certificates, basic
optima with the fewest odd cycles, minimum vertex-stabilizers with the 2/3
matching-value guarantee, O(Delta)-approximate edge-stabilizers,
2-approximate M-vertex-stabilizers, and desk-scale brute-force oracles.
"""

from .cycles import reduce_cycles
from .graph import (
    AlternatingWalk,
    BasicFractionalMatching,
    FractionalVertexCover,
    Matching,
    WeightedGraph,
    complement,
    decompose,
    round_cycles,
    tight_edges,
    walk_value,
)
from .lp import solve_fractional
from .mstab import m_vertex_stabilizer
from .stabilizers import edge_stabilizer_approx, min_vertex_stabilizer
from .walks import first_pass_scan, optimal_walks, reconstruct_walk, second_pass_scan

__all__ = [
    "AlternatingWalk",
    "BasicFractionalMatching",
    "FractionalVertexCover",
    "Matching",
    "WeightedGraph",
    "complement",
    "decompose",
    "edge_stabilizer_approx",
    "first_pass_scan",
    "m_vertex_stabilizer",
    "min_vertex_stabilizer",
    "optimal_walks",
    "reconstruct_walk",
    "reduce_cycles",
    "round_cycles",
    "second_pass_scan",
    "solve_fractional",
    "tight_edges",
    "walk_value",
]

__version__ = "0.1.0"
