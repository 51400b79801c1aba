"""Vertex- and edge-stabilizers with exact certificates.

The vertex stabilizer removes, from every remaining support cycle of a
cycle-minimal optimal solution, the vertex with the smallest cover value;
that is optimal in cardinality and keeps at least two thirds of the maximum
matching weight. The edge stabilizer deletes the stars of those vertices.
Their shared certificate, a matching and a fractional cover of G - S with
equal totals, is checked once by `certify.verify_stable_subgraph`, the checks
`matchstab verify` runs on it. Neither stabilizer computes nu(G), which the
certificate does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import verify_stable_subgraph
from .cycles import reduce_cycles
from .graph import FractionalVertexCover, Matching, WeightedGraph, round_cycles


@dataclass(frozen=True)
class VertexStabilizerResult:
    """Minimum vertex-stabilizer with its survival certificate.

    `surviving_matching` is a maximum-weight matching of the stabilized graph
    and `surviving_cover` a fractional cover of it with the same total, 0 on
    the removed vertices, so stability of the residual graph can be
    re-checked by pure arithmetic. `nu_after` is that total, nu(G - S).
    """

    removed: tuple[int, ...]
    gamma: int
    nu_after: Fraction
    surviving_matching: Matching
    surviving_cover: FractionalVertexCover


def min_vertex_stabilizer(graph: WeightedGraph) -> VertexStabilizerResult:
    """Remove the least-covered vertex of each cycle of a gamma-cycle optimum.

    |S| equals gamma(G), which is a lower bound for any vertex-stabilizer, and
    nu(G - S) >= (2/3) nu(G). Ties on the cover value break to the lowest
    vertex index. nu(G) itself is not computed here.
    """
    reduction = reduce_cycles(graph)
    bfm, cover = reduction.solution, reduction.cover
    a = list(cover.int_values)  # q.y orders the vertices as y does
    removed = [min(cycle, key=lambda v: (a[v], v)) for cycle in bfm.odd_cycles]
    survivors = round_cycles(bfm, list(zip(bfm.odd_cycles, removed))).matched
    for v in removed:
        a[v] = 0
    surviving_cover = FractionalVertexCover(tuple(a), cover.scale)
    verify_stable_subgraph(graph.delete_stars(removed), survivors, surviving_cover)
    return VertexStabilizerResult(
        removed=tuple(sorted(removed)),
        gamma=reduction.gamma,
        nu_after=survivors.weight(graph),
        surviving_matching=survivors,
        surviving_cover=surviving_cover,
    )


@dataclass(frozen=True)
class EdgeStabilizerResult:
    """O(Delta)-approximate edge-stabilizer derived from the vertex one.

    Deleting the removed edges isolates the chosen vertices, so the vertex
    result's certificate still certifies stability. The true optimum is
    sandwiched: ceil(gamma/2) <= OPT <= |F| <= gamma * Delta.
    """

    removed_edges: tuple[int, ...]
    gamma: int
    lower_bound: int
    upper_bound: int
    vertex_result: VertexStabilizerResult


def edge_stabilizer_approx(graph: WeightedGraph) -> EdgeStabilizerResult:
    """Delete every edge incident to the minimum vertex-stabilizer."""
    vertex_result = min_vertex_stabilizer(graph)
    removed_edges: set[int] = set()
    for v in vertex_result.removed:
        removed_edges.update(graph.incident_edges(v))
    gamma = vertex_result.gamma
    return EdgeStabilizerResult(
        removed_edges=tuple(sorted(removed_edges)),
        gamma=gamma,
        lower_bound=-(-gamma // 2),
        upper_bound=gamma * graph.max_degree,
        vertex_result=vertex_result,
    )

