"""Exact combinatorial solver for the fractional matching LP and its dual.

The primal is solved on the bipartite duplicate of the graph (two copies of
every vertex, two copies of every edge) with a Hungarian-style primal-dual
method that keeps exact Fraction potentials. Averaging the two copies yields a
half-integral optimum of the original LP and a minimum fractional w-vertex
cover satisfying complementary slackness bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotOptimalPair, WeightLoss
from .graph import (
    HALF,
    ONE,
    ZERO,
    BasicFractionalMatching,
    FractionalVertexCover,
    WeightedGraph,
    decompose,
    tight_edges,
)


@dataclass(frozen=True)
class BipartiteDuplicate:
    """Bipartite double cover used to solve (P) without an LP solver.

    Vertex v has a left copy and a right copy; each original edge uv turns
    into the two bipartite edges (u, v') and (v, u'), both of weight w_uv.
    """

    graph: WeightedGraph
    # per left vertex: tuple of (right_vertex, weight, original_edge_index)
    adjacency: tuple[tuple[tuple[int, Fraction, int], ...], ...]

    @staticmethod
    def of(graph: WeightedGraph) -> "BipartiteDuplicate":
        adj: list[list[tuple[int, Fraction, int]]] = [[] for _ in range(graph.n)]
        for idx, (u, v, w) in enumerate(graph.edges):
            adj[u].append((v, w, idx))
            adj[v].append((u, w, idx))
        return BipartiteDuplicate(graph, tuple(tuple(sorted(a)) for a in adj))

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class DualPotentials:
    """Feasible bipartite potentials certifying the duplicate's optimum.

    Matched edges are tight and every exposed copy has potential zero, which
    is what makes the averaged vertex cover minimum.
    """

    left: tuple[Fraction, ...]
    right: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.left, start=ZERO) + sum(self.right, start=ZERO)


@dataclass(frozen=True)
class BipartiteMatchingResult:
    # match_left[u] = right partner of left copy u, or None
    match_left: tuple[Optional[int], ...]
    match_right: tuple[Optional[int], ...]
    weight: Fraction
    potentials: DualPotentials


def bipartite_max_weight_matching(dup: BipartiteDuplicate) -> BipartiteMatchingResult:
    """Maximum-weight matching on the duplicate with an exact dual certificate.

    Primal-dual phases rooted at exposed left copies with positive potential.
    A phase ends by augmenting to an exposed right copy, by the root potential
    reaching zero (the root retires exposed), or by a matched left node's
    potential reaching zero, in which case the matching is flipped along the
    alternating tree so that node retires exposed instead. All three keep the
    invariants: feasible potentials, tight matched edges, exposed right copies
    at potential zero.
    """
    n = dup.n
    p_left: list[Fraction] = [
        max(
            (w for _r, w, _i in dup.adjacency[u] if w > 0),
            default=ZERO,
        )
        for u in range(n)
    ]
    p_right: list[Fraction] = [ZERO] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n

    def run_phase(root: int) -> None:
        even: list[int] = [root]
        even_set = {root}
        odd_set: set[int] = set()
        parent_right: dict[int, int] = {}

        def rematch_chain(r: int, u: int) -> None:
            # give right r to even node u, cascading along the tree to the root
            while True:
                next_r = match_l[u]  # None exactly at the root
                match_l[u] = r
                match_r[r] = u
                if next_r is None:
                    return
                r = next_r
                u = parent_right[r]

        while True:
            grew = True
            while grew:
                grew = False
                for u in list(even):
                    for r, w, _i in dup.adjacency[u]:
                        if r in odd_set or p_left[u] + p_right[r] != w:
                            continue
                        if match_r[r] is None:
                            rematch_chain(r, u)  # augmenting path
                            return
                        odd_set.add(r)
                        parent_right[r] = u
                        mate = match_r[r]
                        assert mate not in even_set
                        even_set.add(mate)
                        even.append(mate)
                        grew = True
            # stuck on tight edges: adjust the duals
            delta_edge: Optional[Fraction] = None
            for u in even:
                for r, w, _i in dup.adjacency[u]:
                    if r in odd_set:
                        continue
                    slack = p_left[u] + p_right[r] - w
                    if delta_edge is None or slack < delta_edge:
                        delta_edge = slack
            zero_at = min(even, key=lambda u: (p_left[u], u))
            delta = p_left[zero_at]
            if delta_edge is not None and delta_edge < delta:
                delta = delta_edge
            for u in even:
                p_left[u] -= delta
            for r in odd_set:
                p_right[r] += delta
            if p_left[zero_at] == 0:
                if zero_at == root:
                    return  # root retires exposed at potential zero
                # flip the matching along the tree: zero_at retires exposed
                r = match_l[zero_at]
                assert r is not None
                match_l[zero_at] = None
                rematch_chain(r, parent_right[r])
                return
            # a new tight edge appeared; keep growing

    while True:
        root = next(
            (u for u in range(n) if match_l[u] is None and p_left[u] > 0), None
        )
        if root is None:
            break
        run_phase(root)

    weight = ZERO
    for u in range(n):
        r = match_l[u]
        if r is not None:
            weight += dup.graph.weight(u, r)
    potentials = DualPotentials(tuple(p_left), tuple(p_right))

    # invariant checks: feasibility, tight matched edges, exposed copies at zero
    for u in range(n):
        for r, w, _i in dup.adjacency[u]:
            assert p_left[u] + p_right[r] >= w
        r = match_l[u]
        if r is None:
            assert p_left[u] == 0
        else:
            assert p_left[u] + p_right[r] == dup.graph.weight(u, r)
    for r in range(n):
        if match_r[r] is None:
            assert p_right[r] == 0
    assert potentials.total == weight

    return BipartiteMatchingResult(tuple(match_l), tuple(match_r), weight, potentials)


def symmetrize(
    dup: BipartiteDuplicate, result: BipartiteMatchingResult
) -> tuple[Fraction, ...]:
    """Average the two bipartite copies back into a half-integral vector.

    x_uv gets 1/2 per matched copy of uv, so both copies matched means 1.
    """
    graph = dup.graph
    values = [ZERO] * graph.m
    for u in range(graph.n):
        r = result.match_left[u]
        if r is not None:
            values[graph.edge_index(u, r)] += HALF
    return tuple(values)


def _ordered_component(
    graph: WeightedGraph,
    adjmap: dict[int, list[tuple[int, int]]],
    is_cycle: bool,
) -> list[int]:
    """Edge indices of a half-valued path or cycle in traversal order."""
    if is_cycle:
        start = min(adjmap)
        second = min(nbr for nbr, _i in adjmap[start])
    else:
        endpoints = sorted(v for v, nbrs in adjmap.items() if len(nbrs) == 1)
        start = endpoints[0]
        second = adjmap[start][0][0]
    ordered = [graph.edge_index(start, second)]
    prev, cur = start, second
    while True:
        if is_cycle and cur == start:
            break
        nxt = [(nbr, idx) for nbr, idx in adjmap[cur] if nbr != prev]
        if not nxt:
            break  # end of a path
        nbr, idx = nxt[0]
        ordered.append(idx)
        prev, cur = cur, nbr
    return ordered


def normalize_to_basic(
    graph: WeightedGraph, values: Sequence[Fraction]
) -> BasicFractionalMatching:
    """Round half-valued paths and even cycles so only odd cycles stay at 1/2.

    Each connected half-valued structure is evaluated under both of its 0/1
    alternations and the heavier one is kept; for an optimal input this never
    changes the weight. Ties go to the alternation containing the component's
    lowest edge index.
    """
    vec = list(Fraction(x) for x in values)
    adjmap_all: dict[int, list[tuple[int, int]]] = {}
    for idx, x in enumerate(vec):
        if x == HALF:
            u, v, _w = graph.edges[idx]
            adjmap_all.setdefault(u, []).append((v, idx))
            adjmap_all.setdefault(v, []).append((u, idx))
    seen: set[int] = set()
    for seed, x in enumerate(vec):
        if x != HALF or seed in seen:
            continue
        comp: set[int] = set()
        stack = [seed]
        while stack:
            e = stack.pop()
            if e in comp:
                continue
            comp.add(e)
            u, v, _w = graph.edges[e]
            for endpoint in (u, v):
                for _nbr, e2 in adjmap_all[endpoint]:
                    if e2 not in comp:
                        stack.append(e2)
        seen |= comp
        comp_vertices = {v for e in comp for v in graph.edges[e][:2]}
        adjmap = {v: adjmap_all[v] for v in comp_vertices}
        is_cycle = all(len(nbrs) == 2 for nbrs in adjmap.values())
        if is_cycle and len(comp) % 2 == 1:
            continue  # odd cycle: already basic
        ordered = _ordered_component(graph, adjmap, is_cycle)
        assert len(ordered) == len(comp)
        evens = tuple(ordered[0::2])
        odds = tuple(ordered[1::2])
        w_even = sum((graph.edges[i][2] for i in evens), start=ZERO)
        w_odd = sum((graph.edges[i][2] for i in odds), start=ZERO)
        if 2 * max(w_even, w_odd) < w_even + w_odd:
            raise WeightLoss("both alternations lose weight; upstream bug")
        if w_even > w_odd:
            keep = set(evens)
        elif w_odd > w_even:
            keep = set(odds)
        elif odds and min(odds) < min(evens):
            keep = set(odds)
        else:
            keep = set(evens)
        for i in comp:
            vec[i] = ONE if i in keep else ZERO
    return decompose(graph, vec)


def verify_optimal_pair(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
) -> None:
    """Raise NotOptimalPair unless (x, y) satisfy exact duality and slackness."""
    if not cover.is_feasible_for(graph):
        raise NotOptimalPair("cover is not feasible")
    if bfm.weight != cover.total:
        raise NotOptimalPair(
            f"strong duality fails: w.x = {bfm.weight}, sum y = {cover.total}"
        )
    tight = tight_edges(graph, cover)
    for i, x in enumerate(bfm.values):
        if x != 0 and i not in tight:
            u, v, _w = graph.edges[i]
            raise NotOptimalPair(f"supported edge ({u},{v}) is not tight")
    for v in range(graph.n):
        if cover.values[v] > 0 and bfm.vertex_load(v) != 1:
            raise NotOptimalPair(f"vertex {v} has y_v > 0 but x(delta(v)) != 1")


def solve_fractional(
    graph: WeightedGraph,
) -> tuple[BasicFractionalMatching, FractionalVertexCover]:
    """Basic maximum-weight fractional matching plus a minimum fractional cover.

    The pair satisfies w.x = sum(y) and complementary slackness with exact
    arithmetic; both facts are asserted before returning.
    """
    dup = BipartiteDuplicate.of(graph)
    result = bipartite_max_weight_matching(dup)
    raw = symmetrize(dup, result)
    cover = FractionalVertexCover(
        tuple(
            (result.potentials.left[v] + result.potentials.right[v]) / 2
            for v in range(graph.n)
        )
    )
    bfm = normalize_to_basic(graph, raw)
    verify_optimal_pair(graph, bfm, cover)
    return bfm, cover
