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

from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .certify import verify_stable_subgraph
from .cycles import reduce_cycles
from .graph import FractionalVertexCover, Matching, WeightedGraph, near_perfect_matching


class VertexStabilizerResult(NamedTuple):
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
    return _vertex_stabilizer_and_stars(graph)[0]


def _vertex_stabilizer_and_stars(
    graph: WeightedGraph,
) -> tuple[VertexStabilizerResult, frozenset[int]]:
    """`min_vertex_stabilizer`'s result and the indices of the edges at its
    S, which its certificate check reads and the edge stabilizer deletes."""
    reduction = reduce_cycles(graph)
    bfm, cover = reduction.solution, reduction.cover
    a = list(cover.int_values)  # q.y orders the vertices as y does
    removed = [min(cycle, key=lambda v: (a[v], v)) for cycle in bfm.odd_cycles]
    # M(x) plus, on each cycle, the near-perfect matching that avoids its
    # removed vertex; `verify_stable_subgraph` proves it below
    survivors = Matching.from_pairs(chain(bfm.matched.pairs, *(
        near_perfect_matching(cycle, v) for cycle, v in zip(bfm.odd_cycles, removed)
    )))
    for v in removed:
        a[v] = 0
    surviving_cover = FractionalVertexCover(tuple(a), cover.scale)
    stars = graph.stars(removed)
    verify_stable_subgraph(graph, stars, survivors, surviving_cover)
    result = VertexStabilizerResult(
        removed=tuple(sorted(removed)),
        gamma=reduction.gamma,
        nu_after=survivors.weight(graph),
        surviving_matching=survivors,
        surviving_cover=surviving_cover,
    )
    return result, stars


class EdgeStabilizerResult(NamedTuple):
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
    vertex_result, stars = _vertex_stabilizer_and_stars(graph)
    gamma = vertex_result.gamma
    return EdgeStabilizerResult(
        removed_edges=tuple(sorted(stars)),
        gamma=gamma,
        lower_bound=-(-gamma // 2),
        upper_bound=gamma * graph.max_degree,
        vertex_result=vertex_result,
    )

