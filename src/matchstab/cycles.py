"""Minimize the number of odd cycles in an optimal basic fractional matching.

The search graph has a helper vertex z, a shadow vertex v' for every exposed
zero-cover vertex, and one pseudonode per half-valued odd cycle. An augmenting
path from an exposed pseudonode maps back to a tight alternating path in the
original graph, along which alternate rounding plus complementing removes one
or two cycles without losing weight. The search graph G' and its edits
live in `edmonds`, beside the search that reads it; this module makes the
moves on x. G' is built once, from the entry pair. After that, x is kept
in place as its half counts and G' as its rows, M' and the two maps
between pseudonodes and cycle vertices: an augmentation changes x on its
path and its one or two cycles only, and edits G' only around them. The
live pseudonodes are x's cycles, so no other list of them is kept. x is
validated, and the pair proven optimal, once after the last move. A
frustrated tree's nodes are marked dead and stay dead, since node ids
never change; a pseudonode with no live neighbour is its own frustrated
tree, found without a search. When no live exposed pseudonode remains,
the cycle count has reached its minimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .certify import verify_optimal_pair
from .edmonds import AugmentingPath, AuxiliaryGraph, TreeSearch, build_auxiliary, grow_tree
from .errors import EndpointNotRecognized, NotOptimalPair, PathNotAugmenting
from .graph import (
    BasicFractionalMatching,
    FractionalVertexCover,
    WeightedGraph,
    decompose,
    near_perfect_matching,
    tight_edges,
)
from .lp import solve_fractional


class AugmentationEvent(NamedTuple):
    """One weight-preserving move: which cycles died, where they were
    rounded, and the tight path (original vertex ids) that was complemented."""

    kind: str  # "cycle_zero_cover" | "two_cycles" | "path_to_covered" | "path_to_exposed"
    cycles: tuple[tuple[int, ...], ...]
    rounded_at: tuple[int, ...]
    path: tuple[int, ...]


class FrustrationEvent(NamedTuple):
    kind = "frustrated_tree"  # the event's name in a document: a class attribute, not a field

    root_cycle: tuple[int, ...]
    deleted_vertices: tuple[int, ...]


def _entry_vertex(
    graph: WeightedGraph, cover: FractionalVertexCover, tight: frozenset[int],
    aux: AuxiliaryGraph, pseudonode: int, neighbor: int,
) -> int:
    """The vertex of the pseudonode's cycle that its search edge to
    `neighbor` stands for: for z, the cycle's lowest zero-cover vertex;
    for any other node, the cycle's end of the least edge (by its ends)
    among the tight edges between the cycle and the vertices that node
    stands for."""
    cycle = aux.cycle_of[pseudonode]
    if neighbor == aux.n:
        return min(v for v in cycle if cover.int_values[v] == 0)
    node_of = aux.node_of
    u, v = min(
        graph.ends[idx] for c in cycle for w, idx in graph.adjacency[c]
        if idx in tight and node_of.get(w, w) == neighbor
    )
    return u if node_of.get(u) == pseudonode else v


def _validate_alternating(aux: AuxiliaryGraph, path: Sequence[int]) -> None:
    if len(path) < 2:
        raise PathNotAugmenting("path must have at least one edge")
    if aux.mate[path[0]] is not None or aux.mate[path[-1]] is not None:
        raise PathNotAugmenting("endpoints must be exposed in the search graph")
    flags = []
    for a, b in zip(path, path[1:]):
        if b not in aux.adjacency[a]:
            raise PathNotAugmenting(f"({a},{b}) is not a search-graph edge")
        flags.append(aux.mate[a] == b)
    if flags[-1]:  # the first edge is unmatched: path[0] is exposed
        raise PathNotAugmenting("path must start and end with unmatched edges")
    for f, g in zip(flags, flags[1:]):
        if f == g:
            raise PathNotAugmenting("path does not alternate with M'")


def _set_edge(aux: AuxiliaryGraph, halves: list[int], idx: int, a: int, b: int, new: int) -> None:
    """Set 2x on the edge idx = ab to `new`, keeping M' in step."""
    old, halves[idx] = halves[idx], new
    mate = aux.mate
    if old == 2:  # unless the move already matched a or b anew
        if mate[a] == b:
            mate[a] = None
        if mate[b] == a:
            mate[b] = None
    if new == 2:
        mate[a], mate[b] = b, a


def apply_augmentation(
    graph: WeightedGraph,
    cover: FractionalVertexCover,
    tight: frozenset[int],
    aux: AuxiliaryGraph,
    halves: list[int],
    path: Sequence[int],
) -> AugmentationEvent:
    """Map a search-graph augmenting path back to G and perform the move on
    x (its half counts `halves`), G' and M' in place.

    The path starts at a pseudonode and ends at a second pseudonode or at z.
    Each end cycle is rounded at the vertex its path edge enters (for a
    pseudonode-z edge, the zero-cover vertex that edge stands for), and the
    tight alternating path between them in G, which drops a trailing shadow
    node and z, is complemented. The endpoint shape only names the event.
    The entry vertices are read off G and the cover (`_entry_vertex`)
    before G' changes.

    x changes only on the end cycles and on the path, and G' only around
    them: each end pseudonode is expanded into its cycle's vertices, which
    take back their tight edges, and each zero-cover vertex whose load
    changed (a vertex of an end cycle, or the path's last vertex before z)
    gets its z edge or shadow gadget anew, from its load summed over
    `halves`, through the edits of `AuxiliaryGraph`. An end cycle leaves
    `aux.cycle_of` with its pseudonode. The caller validates x and proves
    the pair after its last move.
    """
    _validate_alternating(aux, path)
    start, end = path[0], path[-1]
    if aux.kind(start) != "cycle":
        raise PathNotAugmenting("path must start at a pseudonode")
    ends = [(start, path[1])]
    if aux.kind(end) == "cycle":
        ends.append((end, path[-2]))
    elif aux.kind(end) != "z":
        raise EndpointNotRecognized(f"endpoint {end} is neither a pseudonode nor z")
    picks = [(aux.cycle_of[p], _entry_vertex(graph, cover, tight, aux, p, q)) for p, q in ends]
    rounded_at = tuple(v for _c, v in picks)
    inner = tuple(node for node in path[1:-1] if aux.kind(node) == "vertex")
    g_path = rounded_at[:1] + inner + rounded_at[1:]
    last = []  # the path's last vertex before z, whose load changes
    if len(ends) == 2:
        kind = "two_cycles"
    elif not inner:
        kind, g_path = "cycle_zero_cover", ()
    else:
        kind = "path_to_exposed" if aux.kind(path[-2]) == "shadow" else "path_to_covered"
        last = [g_path[-1]]

    edge_index = graph.edge_index
    for cycle, v in picks:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            _set_edge(aux, halves, edge_index(a, b), a, b, 0)
        for a, b in near_perfect_matching(cycle, v):
            _set_edge(aux, halves, edge_index(a, b), a, b, 2)
    for a, b in zip(g_path, g_path[1:]):  # no path edge is on a cycle
        idx = edge_index(a, b)
        _set_edge(aux, halves, idx, a, b, 2 - halves[idx])

    joined = [v for node, _q in ends for v in aux.expand(node)]  # the end cycles' vertices
    for v in last:  # its z edge or shadow gadget goes
        aux.detach(v)
    for v in joined:
        for w, idx in graph.adjacency[v]:
            if idx in tight:
                aux.link(v, aux.node_of.get(w, w))
    for v in joined + last:
        if cover.int_values[v] == 0:
            aux.attach(v, sum(halves[idx] for _w, idx in graph.adjacency[v]))
    return AugmentationEvent(kind, tuple(c for c, _v in picks), rounded_at, g_path)


class ReduceCyclesResult(NamedTuple):
    """Final solution with gamma cycles plus the move-by-move certificate."""

    solution: BasicFractionalMatching
    cover: FractionalVertexCover
    gamma: int
    events: tuple

    @property
    def weight(self) -> Fraction:
        return self.solution.weight


def reduce_cycles(
    graph: WeightedGraph,
    start: Optional[tuple[BasicFractionalMatching, FractionalVertexCover]] = None,
) -> ReduceCyclesResult:
    """Optimal basic fractional matching with the fewest odd cycles.

    Solves the LP (unless a complementary-slack pair is supplied), then runs
    the pseudonode search: augment, or mark a frustrated tree's nodes dead,
    until no live exposed pseudonode is left. The cover is fixed throughout,
    so its tight edges are computed once, when x has a cycle, and G' is
    built once, from the entry pair. An augmentation updates x, G' and M'
    in place (`apply_augmentation`); a frustrated tree changes none of
    them. Node ids never change, so a dead node stays dead, and every tree
    shares one `TreeSearch`, so each costs time in its own size. A root
    whose row holds no live node is its own frustrated tree, as a search
    would find, since a tree grows only through a live neighbour of its
    root; it is recorded, with no vertex deleted, without a search.

    The roots are x's cycles in their sorted order, taken from a copy of
    `aux.cycle_of`'s keys; a root whose cycle a move already removed is
    skipped. A frustrated tree holds no pseudonode but its root, and a move
    removes the root's cycle and at most one live cycle after it, so each
    tree is rooted at the first cycle whose pseudonode is live: the order a
    rescan from the first cycle after each augmentation would give.

    No certificate covers the search itself, so two of its invariants are
    explicit checks that raise NotOptimalPair, also under `python -O`: a
    frustrated tree holds its root as its one pseudonode, and after the
    moves x's cycles are G''s live pseudonodes.

    The entry pair is proven optimal by `solve_fractional` (or here, when
    `start` is given). The moves change x but not the cover, so when any
    move ran, x is validated by one `decompose` and the final pair proven
    once more after the last move.
    """
    if start is None:
        bfm, cover = solve_fractional(graph)
    else:
        bfm, cover = start
        verify_optimal_pair(graph, bfm, cover)
    events: list = []
    if bfm.odd_cycles:
        tight = tight_edges(graph, cover)
        aux = build_auxiliary(graph, bfm, cover, tight)
        halves = list(bfm.halves)
        search = TreeSearch(aux.adjacency, aux.mate)
        dead: set[int] = set()
        for root in list(aux.cycle_of):
            if root not in aux.cycle_of:
                continue  # an earlier move removed its cycle
            if dead.issuperset(aux.adjacency[root]):
                # a tree grows only through a live neighbour of its root, so
                # the root alone is the frustrated tree a search would find
                dead.add(root)
                events.append(FrustrationEvent(aux.cycle_of[root], ()))
            elif isinstance(outcome := grow_tree(search, root, dead), AugmentingPath):
                path = outcome.vertices
                events.append(apply_augmentation(graph, cover, tight, aux, halves, path))
            else:
                deleted = sorted(v for v in outcome.nodes if aux.kind(v) == "vertex")
                # z and shadows cannot join a frustrated tree, nor a second cycle
                if outcome.nodes - set(deleted) != {root}:
                    raise NotOptimalPair("not a frustrated tree: holds_one_pseudonode failed")
                dead.update(outcome.nodes)
                events.append(FrustrationEvent(aux.cycle_of[root], tuple(deleted)))
        if len(aux.cycle_of) < len(bfm.odd_cycles):
            bfm = decompose(graph, halves)
            if bfm.odd_cycles != tuple(aux.cycle_of.values()):
                raise NotOptimalPair("not the x of G': cycles_are_live_pseudonodes failed")
            verify_optimal_pair(graph, bfm, cover)
    return ReduceCyclesResult(bfm, cover, len(bfm.odd_cycles), tuple(events))
