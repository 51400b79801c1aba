"""Minimize the number of odd cycles in an optimal basic fractional matching.

The search graph has a helper vertex z, a shadow vertex v' for every exposed
zero-cover vertex, and one pseudonode per half-valued odd cycle. An augmenting
path from an exposed pseudonode maps back to a tight alternating path in the
original graph, along which alternate rounding plus complementing removes one
or two cycles without losing weight. Frustrated trees are deleted from the
search graph and stay deleted; when no exposed pseudonode remains, the cycle
count has reached its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .edmonds import AugmentingPath, FrustratedTree, grow_tree
from .errors import EndpointNotRecognized, PathNotAugmenting
from .graph import (
    BasicFractionalMatching,
    FractionalVertexCover,
    Matching,
    WeightedGraph,
    _round_cycles,
    alternate_round,
    complement,
    decompose,
    tight_edges,
)
from .lp import solve_fractional, verify_optimal_pair


@dataclass(frozen=True)
class AuxiliaryGraph:
    """The unweighted search graph G' with its matching M' and back-maps.

    Node ids: original vertices keep their ids, z is `n`, the shadow of v is
    `n + 1 + v`, pseudonodes come after. `provenance` maps each search edge to
    the sorted tuple of original objects it stands for (edge endpoint pairs,
    or cycle vertices for pseudonode-z edges); expansion picks the minimum.
    """

    graph: WeightedGraph
    adjacency: tuple[tuple[int, ...], ...]
    matching: Matching
    z: int
    cycle_of: dict[int, tuple[int, ...]]
    pseudonode_of: dict[tuple[int, ...], int]
    shadow_vertex: dict[int, int]  # shadow node id -> original vertex
    provenance: dict[tuple[int, int], tuple]

    def kind(self, node: int) -> str:
        n = self.graph.n
        if node < n:
            return "vertex"
        if node == n:
            return "z"
        if node in self.shadow_vertex:
            return "shadow"
        if node in self.cycle_of:
            return "cycle"
        return "unused"


def build_auxiliary(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
    excluded_vertices: frozenset[int] = frozenset(),
    dead_cycles: frozenset[tuple[int, ...]] = frozenset(),
) -> AuxiliaryGraph:
    """Construct G' and M' from a complementary-slack optimal pair.

    Only tight edges survive; vz edges appear at covered zero-cover vertices,
    shadow gadgets at exposed zero-cover vertices, and every live support
    cycle is shrunk into a pseudonode. `excluded_vertices` and `dead_cycles`
    are the parts already deleted as frustrated trees. The pair is checked
    in full here; `reduce_cycles` builds through `_build_auxiliary` instead,
    because every pair it holds has already been checked.
    """
    verify_optimal_pair(graph, bfm, cover)
    return _build_auxiliary(
        graph, bfm, cover, tight_edges(graph, cover), excluded_vertices, dead_cycles
    )


def _build_auxiliary(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
    tight: frozenset[int],
    excluded_vertices: frozenset[int],
    dead_cycles: frozenset[tuple[int, ...]],
) -> AuxiliaryGraph:
    """`build_auxiliary` for a pair already proven optimal under `cover`,
    whose tight edge set is `tight`."""
    n = graph.n
    live_cycles = sorted(c for c in bfm.odd_cycles if c not in dead_cycles)
    dead_vertices = {v for c in dead_cycles for v in c}
    gone = set(excluded_vertices) | dead_vertices

    z = n
    pseudonode_of = {c: 2 * n + 1 + j for j, c in enumerate(live_cycles)}
    cycle_of = {node: c for c, node in pseudonode_of.items()}
    on_live_cycle: dict[int, tuple[int, ...]] = {
        v: c for c in live_cycles for v in c
    }

    def node_of(v: int) -> int:
        c = on_live_cycle.get(v)
        return pseudonode_of[c] if c is not None else v

    n_nodes = 2 * n + 1 + len(live_cycles)
    adjacency: list[set[int]] = [set() for _ in range(n_nodes)]
    provenance: dict[tuple[int, int], list] = {}

    def add_edge(a: int, b: int, item) -> None:
        adjacency[a].add(b)
        adjacency[b].add(a)
        provenance.setdefault((min(a, b), max(a, b)), []).append(item)

    for idx in sorted(tight):
        u, v, _w = graph.edges[idx]
        if u in gone or v in gone:
            continue
        a, b = node_of(u), node_of(v)
        if a == b:
            continue  # intra-cycle edge or chord of a shrunk cycle
        add_edge(a, b, (u, v))

    matching_pairs: list[tuple[int, int]] = []
    shadow_vertex: dict[int, int] = {}
    for v in range(n):
        if v in gone or cover.values[v] != 0:
            continue
        load = bfm.vertex_load(v)
        if load == 1:
            add_edge(node_of(v), z, v)
        elif load == 0:
            shadow = n + 1 + v
            shadow_vertex[shadow] = v
            add_edge(v, shadow, v)
            add_edge(shadow, z, v)
            matching_pairs.append((v, shadow))

    for u, v in bfm.matched.pairs:
        # a frustrated tree holds each of its odd nodes with its mate, so a
        # matched pair leaves the search graph whole or not at all
        if u in gone and v in gone:
            continue
        assert u not in gone and v not in gone, "matched edge touches deleted node"
        matching_pairs.append((u, v))

    return AuxiliaryGraph(
        graph=graph,
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        matching=Matching.from_pairs(matching_pairs),
        z=z,
        cycle_of=cycle_of,
        pseudonode_of=pseudonode_of,
        shadow_vertex=shadow_vertex,
        provenance={k: tuple(sorted(v)) for k, v in provenance.items()},
    )


@dataclass(frozen=True)
class AugmentationEvent:
    """One weight-preserving move: which cycles died, where they were
    rounded, and the tight path (original vertex ids) that was complemented."""

    kind: str  # "cycle_zero_cover" | "two_cycles" | "path_to_covered" | "path_to_exposed"
    cycles: tuple[tuple[int, ...], ...]
    rounded_at: tuple[int, ...]
    path: tuple[int, ...]


@dataclass(frozen=True)
class FrustrationEvent:
    root_cycle: tuple[int, ...]
    deleted_vertices: tuple[int, ...]


def _representative(aux: AuxiliaryGraph, a: int, b: int):
    return aux.provenance[(min(a, b), max(a, b))][0]


def _entry_vertex(aux: AuxiliaryGraph, pseudonode: int, first_inner: int) -> int:
    """Original endpoint on the pseudonode's cycle of the search edge."""
    cycle = set(aux.cycle_of[pseudonode])
    rep = _representative(aux, pseudonode, first_inner)
    u, v = rep
    if u in cycle:
        return u
    assert v in cycle
    return v


def _validate_alternating(aux: AuxiliaryGraph, path: Sequence[int]) -> None:
    if len(path) < 2:
        raise PathNotAugmenting("path must have at least one edge")
    if aux.matching.covers(path[0]) or aux.matching.covers(path[-1]):
        raise PathNotAugmenting("endpoints must be exposed in the search graph")
    flags = []
    for a, b in zip(path, path[1:]):
        if b not in aux.adjacency[a]:
            raise PathNotAugmenting(f"({a},{b}) is not a search-graph edge")
        flags.append(aux.matching.contains_edge(a, b))
    if flags[0] or flags[-1]:
        raise PathNotAugmenting("path must start and end with unmatched edges")
    for f, g in zip(flags, flags[1:]):
        if f == g:
            raise PathNotAugmenting("path does not alternate with M'")


def apply_augmentation(
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
    aux: AuxiliaryGraph,
    path: Sequence[int],
) -> tuple[BasicFractionalMatching, AugmentationEvent]:
    """Map a search-graph augmenting path back to G and perform the move.

    Rounds the endpoint cycles at their path-entry vertices and complements
    along the tight alternating path; the result is re-validated and has the
    same weight. The three endpoint shapes (second pseudonode, z through a
    covered vertex, z through a shadow gadget) follow the update rules of the
    minimization algorithm.
    """
    graph = bfm.graph
    _validate_alternating(aux, path)
    start, end = path[0], path[-1]
    if aux.kind(start) != "cycle":
        raise PathNotAugmenting("path must start at a pseudonode")
    cycle_r = aux.cycle_of[start]

    def path_edges(vertices: Sequence[int]) -> list[int]:
        return [graph.edge_index(a, b) for a, b in zip(vertices, vertices[1:])]

    if aux.kind(end) == "cycle":
        cycle_s = aux.cycle_of[end]
        if len(path) == 2:
            rep = _representative(aux, start, end)
            u = rep[0] if rep[0] in set(cycle_r) else rep[1]
            v = rep[1] if u == rep[0] else rep[0]
            assert v in set(cycle_s)
            g_path = [u, v]
        else:
            inner = list(path[1:-1])
            assert all(aux.kind(x) == "vertex" for x in inner)
            u = _entry_vertex(aux, start, inner[0])
            v = _entry_vertex(aux, end, inner[-1])
            g_path = [u] + inner + [v]
        rounded = _round_cycles(bfm, [(cycle_r, u), (cycle_s, v)])
        new = decompose(graph, complement(rounded, path_edges(g_path)))
        event = AugmentationEvent(
            "two_cycles", (cycle_r, cycle_s), (u, v), tuple(g_path)
        )
    elif aux.kind(end) == "z":
        before = path[-2]
        if aux.kind(before) == "cycle":
            # direct pseudonode-z edge: some cycle vertex has zero cover value
            if len(path) != 2:
                raise PathNotAugmenting("z reached from a pseudonode mid-path")
            v0 = _representative(aux, before, end)
            new = alternate_round(bfm, cycle_r, v0)
            event = AugmentationEvent("cycle_zero_cover", (cycle_r,), (v0,), ())
        elif aux.kind(before) == "shadow":
            v = aux.shadow_vertex[before]
            inner = list(path[1:-2])
            assert inner and inner[-1] == v
            assert all(aux.kind(x) == "vertex" for x in inner)
            u = _entry_vertex(aux, start, inner[0])
            g_path = [u] + inner
            rounded = alternate_round(bfm, cycle_r, u)
            new = decompose(graph, complement(rounded, path_edges(g_path)))
            event = AugmentationEvent(
                "path_to_exposed", (cycle_r,), (u,), tuple(g_path)
            )
        else:
            assert aux.kind(before) == "vertex"
            inner = list(path[1:-1])
            assert all(aux.kind(x) == "vertex" for x in inner)
            u = _entry_vertex(aux, start, inner[0])
            g_path = [u] + inner
            rounded = alternate_round(bfm, cycle_r, u)
            new = decompose(graph, complement(rounded, path_edges(g_path)))
            event = AugmentationEvent(
                "path_to_covered", (cycle_r,), (u,), tuple(g_path)
            )
    else:
        raise EndpointNotRecognized(f"endpoint {end} is neither a pseudonode nor z")

    verify_optimal_pair(graph, new, cover)
    expected_gone = set(event.cycles)
    assert set(bfm.odd_cycles) - set(new.odd_cycles) == expected_gone
    assert set(new.odd_cycles) <= set(bfm.odd_cycles)
    return new, event


@dataclass(frozen=True)
class ReduceCyclesResult:
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
    the pseudonode search: augment and update, or delete a frustrated tree,
    until no exposed pseudonode is left. The cover is fixed throughout, so
    its tight edges are computed once.

    Every pair the search holds is proven optimal exactly once: the entry
    pair by `solve_fractional` (or here, when `start` is given), and each
    augmented pair by `apply_augmentation`. A frustrated tree changes
    neither x nor the cover, so the search graph is rebuilt without a
    second check.
    """
    if start is None:
        bfm, cover = solve_fractional(graph)
    else:
        bfm, cover = start
        verify_optimal_pair(graph, bfm, cover)
    tight = tight_edges(graph, cover)

    excluded: set[int] = set()
    dead: set[tuple[int, ...]] = set()
    events: list = []
    while True:
        live = [c for c in bfm.odd_cycles if c not in dead]
        if not live:
            break
        aux = _build_auxiliary(
            graph, bfm, cover, tight, frozenset(excluded), frozenset(dead)
        )
        root = aux.pseudonode_of[min(live)]
        outcome = grow_tree(aux.adjacency, aux.matching, root)
        if isinstance(outcome, AugmentingPath):
            bfm, event = apply_augmentation(bfm, cover, aux, outcome.vertices)
            events.append(event)
        else:
            tree: FrustratedTree = outcome
            removed_vertices: list[int] = []
            removed_cycles: list[tuple[int, ...]] = []
            for node in sorted(tree.nodes):
                kind = aux.kind(node)
                if kind == "vertex":
                    removed_vertices.append(node)
                elif kind == "cycle":
                    removed_cycles.append(aux.cycle_of[node])
                else:  # pragma: no cover - z/shadows cannot join a frustrated tree
                    raise AssertionError(f"unexpected {kind} node in frustrated tree")
            assert removed_cycles == [aux.cycle_of[root]]
            assert not (set(removed_vertices) & excluded)
            excluded.update(removed_vertices)
            dead.update(removed_cycles)
            events.append(
                FrustrationEvent(aux.cycle_of[root], tuple(removed_vertices))
            )
    return ReduceCyclesResult(bfm, cover, len(bfm.odd_cycles), tuple(events))
