"""Brute-force ground truth at desk scale.

Everything here is an independent verifier: values come from enumeration over
basic solutions (matchings plus vertex-disjoint odd cycle packings) and from
exhaustive subset/walk search, never from the production solvers.

Every call builds its own tables on the integers D.w (`WeightedGraph.int_weights`)
and keeps nothing once it returns. Both are keyed by vertex mask, so one call's
tables answer for every induced subgraph, which is what makes the stabilizer
subset searches affordable. ν is a lazy memo filled top-down: it holds only
the masks its recursion reaches from the masks asked for, 377 of the 4096 for
ν of K_12, each with the choice at its lowest vertex that attains D.ν, and
`exact_nu` follows those choices to its witness. ν_f and γ come from a
bottom-up table of (2D.ν_f, γ) over all 2^n masks, which reads the heaviest
odd cycle on each vertex set from a Held-Karp path table built once per
call, O(2^n.n^2) work.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import BudgetExceeded
from .graph import ZERO, Matching, WeightedGraph

# Hard size limits; the oracle refuses anything bigger.
MAX_VERTICES = 12
MAX_SUBSET_VERTICES = 8
MAX_WALK_LENGTH = 12


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BudgetExceeded(message)


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _nu_at(graph: WeightedGraph, memo: dict, mask: int) -> int:
    """D.ν of the subgraph induced by mask, through the memo, which maps
    masks to (D.ν, choice) with D = `graph.scale` and starts as
    {0: (0, None)}.

    With v the lowest vertex of the mask and rest the mask without v,
    ν(mask) = max(ν(rest), max over u in N(v) & rest of D.w_vu + ν(rest - u)).
    The choice is the u that attains it, the first in `adjacency` order,
    or None when leaving v exposed does, ties included. Every mask stored
    has the submask its choice leaves stored too, which is what `exact_nu`
    follows to its witness. Each call drops at least one vertex, so the
    recursion is at most n deep.
    """
    entry = memo.get(mask)
    if entry is None:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        value, choice = _nu_at(graph, memo, rest), None
        weights = graph.int_weights
        for u, idx in graph.adjacency[v]:
            if rest >> u & 1:
                cand = weights[idx] + _nu_at(graph, memo, rest & ~(1 << u))
                if cand > value:
                    value, choice = cand, u
        entry = memo[mask] = (value, choice)
    return entry[0]


def _cycle_weights(graph: WeightedGraph) -> list[Optional[int]]:
    """cycles[C] = D.w of the heaviest cycle through every vertex of C, for
    each odd vertex set C with |C| >= 3 that has one; None elsewhere.

    Held-Karp on paths rooted at r = min(C): paths[mask][u] is the heaviest
    path from the lowest vertex of mask to u through exactly the vertices of
    mask. Paths only grow to bigger vertices, so each mask is complete when
    the loop reaches it, and is dropped once it has been extended.
    """
    weights, adjacency = graph.int_weights, graph.adjacency
    cycles: list[Optional[int]] = [None] * (1 << graph.n)
    paths: dict[int, dict[int, int]] = {}
    for mask in range(1, 1 << graph.n):
        low = mask & -mask
        r = low.bit_length() - 1
        ends = {r: 0} if mask == low else paths.pop(mask, None)
        if not ends:
            continue
        if bin(mask).count("1") % 2:  # odd; one vertex alone closes no cycle
            closed = [ends[u] + weights[idx] for u, idx in adjacency[r] if u in ends]
            cycles[mask] = max(closed, default=None)
        for end, value in ends.items():
            for u, idx in adjacency[end]:
                if u > r and not mask >> u & 1:
                    grown = paths.setdefault(mask | 1 << u, {})
                    grown[u] = max(grown.get(u, 0), value + weights[idx])  # weights are >= 0
    return cycles


def _basic_table(graph: WeightedGraph) -> list[tuple[int, int]]:
    """table[mask] = (2D.value, cycles) of the best basic fractional matching
    inside mask, fewest cycles among the best.

    Enumerates every basic structure: at the lowest vertex v of the mask,
    either leave it exposed, match it (x = 1, adding 2D.w_vu), or put it on
    an odd cycle on a vertex set C with min(C) = v (x = 1/2, adding D.w(C)).
    Only the heaviest cycle on each C can be optimal, so it is the only one
    tried.
    """
    weights, adjacency = graph.int_weights, graph.adjacency
    cycles = _cycle_weights(graph)
    table: list[tuple[int, int]] = [(0, 0)] * (1 << graph.n)
    for mask in range(1, 1 << graph.n):
        low = mask & -mask
        rest = mask ^ low
        best_val, best_cyc = table[rest]
        for u, idx in adjacency[low.bit_length() - 1]:
            if rest >> u & 1:
                val, cyc = table[rest & ~(1 << u)]
                val += 2 * weights[idx]
                if val > best_val or (val == best_val and cyc < best_cyc):
                    best_val, best_cyc = val, cyc
        sub = rest
        while sub:  # the other vertices of each C, as submasks of rest
            weight = cycles[sub | low]
            if weight is not None:
                val, cyc = table[rest ^ sub]
                val, cyc = val + weight, cyc + 1
                if val > best_val or (val == best_val and cyc < best_cyc):
                    best_val, best_cyc = val, cyc
            sub = (sub - 1) & rest
        table[mask] = (best_val, best_cyc)
    return table


def exact_nu(graph: WeightedGraph) -> tuple[Fraction, Matching]:
    """Maximum-weight matching value and one witness, by enumeration."""
    _require(graph.n <= MAX_VERTICES, f"nu oracle limited to {MAX_VERTICES} vertices")
    memo = {0: (0, None)}
    full = _full_mask(graph.n)
    nu = _nu_at(graph, memo, full)
    # follow the choices from the full mask: v stays exposed, or takes u
    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        v = (mask & -mask).bit_length() - 1
        u = memo[mask][1]
        mask &= ~(1 << v)
        if u is not None:
            pairs.append((v, u))
            mask &= ~(1 << u)
    return Fraction(nu, graph.scale), Matching.from_pairs(pairs)


def exact_nu_f(graph: WeightedGraph) -> Fraction:
    """Maximum basic fractional matching value, by structure enumeration."""
    _require(graph.n <= MAX_VERTICES, f"nu_f oracle limited to {MAX_VERTICES} vertices")
    return Fraction(_basic_table(graph)[-1][0], 2 * graph.scale)


def brute_gamma(graph: WeightedGraph) -> int:
    """Fewest odd cycles over all optimal basic fractional matchings."""
    _require(graph.n <= MAX_VERTICES, f"gamma oracle limited to {MAX_VERTICES} vertices")
    return _basic_table(graph)[-1][1]


def is_stable(graph: WeightedGraph) -> bool:
    """nu(G) == nu_f(G), both by enumeration."""
    _require(graph.n <= MAX_VERTICES, f"nu oracle limited to {MAX_VERTICES} vertices")
    return _mask_stable(graph, {0: (0, None)}, _basic_table(graph), _full_mask(graph.n))


def _mask_stable(graph: WeightedGraph, memo: dict, table: list, mask: int) -> bool:
    """ν == ν_f on the subgraph induced by mask, as 2.(D.ν) == 2D.ν_f."""
    return 2 * _nu_at(graph, memo, mask) == table[mask][0]


def _smallest_subset(items, stabilizes) -> Optional[frozenset[int]]:
    """The first subset of `items` that `stabilizes`, by size and then
    lexicographically, or None when none does."""
    for k in range(len(items) + 1):
        for subset in combinations(items, k):
            if stabilizes(subset):
                return frozenset(subset)
    return None


def _mask_without(graph: WeightedGraph, subset) -> int:
    return _full_mask(graph.n) & ~sum(1 << v for v in subset)


def brute_min_vertex_stabilizer(graph: WeightedGraph) -> frozenset[int]:
    """Smallest vertex set whose removal is stabilizing; lexicographic ties.
    The empty graph is stable, so there is one."""
    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"vertex-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    memo, table = {0: (0, None)}, _basic_table(graph)
    return _smallest_subset(
        range(graph.n), lambda s: _mask_stable(graph, memo, table, _mask_without(graph, s))
    )


def brute_min_edge_stabilizer(graph: WeightedGraph) -> frozenset[int]:
    """Smallest edge-index set whose removal is stabilizing; lexicographic
    ties. The edgeless graph is stable, so there is one."""
    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"edge-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    return _smallest_subset(range(graph.m), lambda s: is_stable(graph.delete_edges(s)))


INFEASIBLE = "infeasible"


def brute_min_m_stabilizer(
    graph: WeightedGraph, matching: Matching
) -> "frozenset[int] | str":
    """Smallest exposed-vertex set S with G-S stable and M still maximum-weight.

    Returns the INFEASIBLE sentinel when no subset of exposed vertices works.
    """
    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"M-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    exposed = [v for v in range(graph.n) if not matching.covers(v)]
    target = matching.int_weight(graph)
    memo, table = {0: (0, None)}, _basic_table(graph)

    def stabilizes(subset) -> bool:
        mask = _mask_without(graph, subset)
        return _nu_at(graph, memo, mask) == target and _mask_stable(graph, memo, table, mask)

    found = _smallest_subset(exposed, stabilizes)
    return INFEASIBLE if found is None else found


def enumerate_valid_walks(
    graph: WeightedGraph, matching: Matching, source: int, k: int
) -> list[tuple[int, Fraction, tuple[int, ...]]]:
    """Every valid alternating walk from the source, depth-first, length <= k.

    Yields (endpoint, value, vertex sequence) for each point at which the walk
    may validly stop: exposed current vertex, or just after a matched edge.
    """
    _require(k <= MAX_WALK_LENGTH, f"walk oracle limited to length {MAX_WALK_LENGTH}")
    out: list[tuple[int, Fraction, tuple[int, ...]]] = []
    source_exposed = not matching.covers(source)

    def record(vertices: tuple[int, ...], value: Fraction) -> None:
        out.append((vertices[-1], value, vertices))

    def dfs(cur: int, last_matched: Optional[bool], value: Fraction, vertices: tuple[int, ...]) -> None:
        stoppable = (not matching.covers(cur)) or last_matched is True
        if stoppable:
            record(vertices, value)
        if len(vertices) - 1 >= k:
            return
        for nbr, idx in graph.adjacency[cur]:
            edge_matched = matching.contains_edge(cur, nbr)
            if last_matched is None:
                # first step: a walk from a covered source starts with its
                # matched edge; an exposed source has none
                if not source_exposed and not edge_matched:
                    continue
            elif edge_matched == last_matched:
                continue
            w = graph.edges[idx][2]
            dfs(nbr, edge_matched, value + (-w if edge_matched else w), vertices + (nbr,))

    dfs(source, None, ZERO, (source,))
    return out


def optimal_walk_values(
    graph: WeightedGraph, matching: Matching, source: int, k: int
) -> dict[int, dict[int, Optional[Fraction]]]:
    """Per-length brute maxima: result[length][v] = best valid sv-walk value.

    result[i][v] is None when no valid walk of length <= i ends at v. Ground
    truth for the walk DP's table entries at every iteration up to k.
    """
    walks = enumerate_valid_walks(graph, matching, source, k)
    best: dict[int, dict[int, Optional[Fraction]]] = {
        i: {v: None for v in range(graph.n)} for i in range(k + 1)
    }
    for endpoint, value, vertices in walks:
        length = len(vertices) - 1
        for i in range(length, k + 1):
            cur = best[i][endpoint]
            if cur is None or value > cur:
                best[i][endpoint] = value
    return best
