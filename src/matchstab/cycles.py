"""Minimize the number of odd cycles in an optimal basic fractional matching.

The search graph has a helper vertex z, a shadow vertex v' for every exposed
zero-cover vertex, and one pseudonode per half-valued odd cycle. An augmenting
path from an exposed pseudonode maps back to a tight alternating path in the
original graph, along which alternate rounding plus complementing removes one
or two cycles without losing weight. The search graph is built once per x:
at entry and after each augmentation. A frustrated tree's nodes are marked
dead and stay dead, since node ids do not change between builds; when no live
exposed pseudonode remains, the cycle count has reached its minimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .certify import verify_optimal_pair
from .edmonds import AugmentingPath, FrustratedTree, TreeSearch, grow_tree
from .errors import EndpointNotRecognized, PathNotAugmenting
from .graph import (
    BasicFractionalMatching,
    FractionalVertexCover,
    WeightedGraph,
    complement,
    round_cycles,
    tight_edges,
)
from .lp import solve_fractional


class AuxiliaryGraph(NamedTuple):
    """The unweighted search graph G' with its matching M' and back-maps.

    Node ids give the kind: original vertices keep their ids, z is `n`, the
    shadow of v is `n + 1 + v`, and the pseudonode of a cycle is `2n + 1`
    plus the cycle's lowest vertex, so a node keeps its id when G' is
    rebuilt for a new x; an id that stands for no node has no edge. `mate`
    is M' over all ids: the pairs of x, and v-v' for each shadow.
    `provenance` maps each search edge to the least original object it
    stands for (an edge endpoint pair, or a cycle vertex for a pseudonode-z
    edge); expansion uses that one.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    mate: list[Optional[int]]
    cycle_of: dict[int, tuple[int, ...]]
    provenance: dict[tuple[int, int], object]

    def kind(self, node: int) -> str:
        n = self.n
        if node < n:
            return "vertex"
        if node == n:
            return "z"
        if node <= 2 * n:
            return "shadow"
        return "cycle"


def _build_auxiliary(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
    tight: frozenset[int],
) -> AuxiliaryGraph:
    """Construct G' and M' from a pair already proven optimal under `cover`,
    whose tight edge set is `tight`.

    Only tight edges survive; vz edges appear at covered zero-cover vertices,
    shadow gadgets at exposed zero-cover vertices, and every support cycle is
    shrunk into a pseudonode.
    """
    n = graph.n
    z = n
    cycle_of = {2 * n + 1 + c[0]: c for c in bfm.odd_cycles}
    # a cycle vertex stands for its pseudonode, any other vertex for itself
    node_of = {v: node for node, c in cycle_of.items() for v in c}

    adjacency: list[set[int]] = [set() for _ in range(3 * n + 1)]
    provenance: dict[tuple[int, int], object] = {}

    def add_edge(a: int, b: int, item) -> None:
        adjacency[a].add(b)
        adjacency[b].add(a)
        key = (min(a, b), max(a, b))
        provenance[key] = min(item, provenance.get(key, item))

    for idx in tight:
        u, v = graph.ends[idx]
        a, b = node_of.get(u, u), node_of.get(v, v)
        if a == b:
            continue  # intra-cycle edge or chord of a shrunk cycle
        add_edge(a, b, (u, v))

    mate: list[Optional[int]] = [None] * (3 * n + 1)
    for u, v in bfm.matched.pairs:
        mate[u], mate[v] = v, u
    for v in range(n):
        if cover.int_values[v] != 0:
            continue
        load = bfm.vertex_halves[v]  # 2 x(delta(v))
        if load == 2:
            add_edge(node_of.get(v, v), z, v)
        elif load == 0:
            shadow = n + 1 + v
            add_edge(v, shadow, v)
            add_edge(shadow, z, v)
            mate[v], mate[shadow] = shadow, v

    return AuxiliaryGraph(
        n=n,
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        mate=mate,
        cycle_of=cycle_of,
        provenance=provenance,
    )


class AugmentationEvent(NamedTuple):
    """One weight-preserving move: which cycles died, where they were
    rounded, and the tight path (original vertex ids) that was complemented."""

    kind: str  # "cycle_zero_cover" | "two_cycles" | "path_to_covered" | "path_to_exposed"
    cycles: tuple[tuple[int, ...], ...]
    rounded_at: tuple[int, ...]
    path: tuple[int, ...]


class FrustrationEvent(NamedTuple):
    root_cycle: tuple[int, ...]
    deleted_vertices: tuple[int, ...]


def _entry_vertex(aux: AuxiliaryGraph, pseudonode: int, neighbor: int) -> int:
    """The vertex of the pseudonode's cycle that its search edge to
    `neighbor` stands for."""
    rep = aux.provenance[(min(pseudonode, neighbor), max(pseudonode, neighbor))]
    if isinstance(rep, int):
        return rep  # a pseudonode-z edge stands for a zero-cover cycle vertex
    u, v = rep
    return u if u in aux.cycle_of[pseudonode] else v


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
    if flags[0] or flags[-1]:
        raise PathNotAugmenting("path must start and end with unmatched edges")
    for f, g in zip(flags, flags[1:]):
        if f == g:
            raise PathNotAugmenting("path does not alternate with M'")


def apply_augmentation(
    bfm: BasicFractionalMatching,
    aux: AuxiliaryGraph,
    path: Sequence[int],
) -> tuple[BasicFractionalMatching, AugmentationEvent]:
    """Map a search-graph augmenting path back to G and perform the move.

    The path starts at a pseudonode and ends at a second pseudonode or at z.
    Each end cycle is rounded at the vertex its path edge enters (for a
    pseudonode-z edge, the zero-cover vertex that edge stands for), and the
    tight alternating path between them in G, which drops a trailing shadow
    node and z, is complemented. The endpoint shape only names the event.
    The caller proves the resulting pair optimal.
    """
    graph = bfm.graph
    _validate_alternating(aux, path)
    start, end = path[0], path[-1]
    if aux.kind(start) != "cycle":
        raise PathNotAugmenting("path must start at a pseudonode")
    ends = [(start, path[1])]
    if aux.kind(end) == "cycle":
        ends.append((end, path[-2]))
    elif aux.kind(end) != "z":
        raise EndpointNotRecognized(f"endpoint {end} is neither a pseudonode nor z")
    picks = [(aux.cycle_of[p], _entry_vertex(aux, p, q)) for p, q in ends]
    rounded_at = tuple(v for _c, v in picks)
    inner = tuple(node for node in path[1:-1] if aux.kind(node) == "vertex")
    g_path = rounded_at[:1] + inner + rounded_at[1:]
    if len(ends) == 2:
        kind = "two_cycles"
    elif not inner:
        kind, g_path = "cycle_zero_cover", ()
    elif aux.kind(path[-2]) == "shadow":
        kind = "path_to_exposed"
    else:
        kind = "path_to_covered"

    rounded = round_cycles(bfm, picks)
    flips = [graph.edge_index(a, b) for a, b in zip(g_path, g_path[1:])]
    new = complement(rounded, flips)
    event = AugmentationEvent(kind, tuple(c for c, _v in picks), rounded_at, g_path)
    assert set(bfm.odd_cycles) - set(new.odd_cycles) == set(event.cycles)
    assert set(new.odd_cycles) <= set(bfm.odd_cycles)
    return new, event


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
    the pseudonode search: augment and update, or mark a frustrated tree's
    nodes dead, until no live exposed pseudonode is left. The cover is fixed
    throughout, so its tight edges are computed once, and G' is built once
    per x that has a cycle: at entry and after each augmentation. A
    frustrated tree changes neither x nor the cover, and its nodes keep
    their ids in every later G'. The trees of one G' share its
    `TreeSearch`, so each costs time in its own size.

    Each turn roots its tree at the first cycle of `bfm.odd_cycles` whose
    pseudonode is live, found by a cursor into that list: while G' stands,
    x and its cycles do not change and a dead node stays dead, so a cycle
    the cursor has passed is never live again. The cursor goes back to the
    first cycle only when an augmentation makes G' anew.

    The entry pair is proven optimal by `solve_fractional` (or here, when
    `start` is given). The moves change x but not the cover, so the final
    pair is proven once more after the search, when any move ran.
    """
    if start is None:
        bfm, cover = solve_fractional(graph)
    else:
        bfm, cover = start
        verify_optimal_pair(graph, bfm, cover)
    tight = tight_edges(graph, cover)

    aux: Optional[AuxiliaryGraph] = None
    dead: set[int] = set()
    events: list = []
    cursor = 0  # cycles before it are dead in the current G'
    while cursor < len(bfm.odd_cycles):
        if aux is None:
            aux = _build_auxiliary(graph, bfm, cover, tight)
            search = TreeSearch(aux.adjacency, aux.mate)
        root = 2 * graph.n + 1 + bfm.odd_cycles[cursor][0]
        if root in dead:
            cursor += 1
            continue
        outcome = grow_tree(search, root, dead)
        if isinstance(outcome, AugmentingPath):
            bfm, event = apply_augmentation(bfm, aux, outcome.vertices)
            events.append(event)
            # x changed, so the next turn builds G' anew and scans its
            # cycles from the first
            aux, cursor = None, 0
        else:
            tree: FrustratedTree = outcome
            deleted = sorted(v for v in tree.nodes if aux.kind(v) == "vertex")
            # z and shadows cannot join a frustrated tree, nor a second cycle
            assert tree.nodes - set(deleted) == {root}
            dead.update(tree.nodes)
            events.append(FrustrationEvent(aux.cycle_of[root], tuple(deleted)))
    if any(isinstance(e, AugmentationEvent) for e in events):
        verify_optimal_pair(graph, bfm, cover)
    return ReduceCyclesResult(bfm, cover, len(bfm.odd_cycles), tuple(events))
