"""Brute-force ground truth at desk scale.

Everything here is an independent verifier: values come from enumeration over
basic solutions (matchings plus vertex-disjoint odd cycle packings) and from
exhaustive subset/walk search, never from the production solvers. The mask
tables double as per-induced-subgraph answers, which is what makes the
stabilizer subset searches affordable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import BudgetExceeded
from .graph import HALF, ZERO, Matching, WeightedGraph

# Hard size limits; the oracle refuses anything bigger.
MAX_VERTICES = 12
MAX_SUBSET_VERTICES = 8
MAX_WALK_LENGTH = 12

# Callers ask for one graph's tables repeatedly before moving on to the next
# graph, so a few entries keep every hit and bound memory in batch runs.
TABLE_CACHE_SIZE = 4


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BudgetExceeded(message)


def _full_mask(n: int) -> int:
    return (1 << n) - 1


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _nu_table(graph: WeightedGraph) -> tuple[Fraction, ...]:
    """table[mask] = maximum matching weight inside the induced subgraph."""
    n = graph.n
    table: list[Fraction] = [ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        best = table[mask & ~(1 << v)]
        for u, idx in graph.adjacency[v]:
            if mask >> u & 1:
                cand = graph.edges[idx][2] + table[mask & ~(1 << v) & ~(1 << u)]
                if cand > best:
                    best = cand
        table[mask] = best
    return tuple(table)


def _cycles_from(
    graph: WeightedGraph, v: int, mask: int
) -> list[tuple[Fraction, int]]:
    """All odd cycles through v inside mask as (weight, vertex_mask).

    v is the smallest vertex of the mask, so walking paths out of v and only
    closing when the path's second vertex is below its last counts every odd
    cycle exactly once.
    """
    out: list[tuple[Fraction, int]] = []

    def dfs(cur: int, second: int, used: int, weight: Fraction, length: int) -> None:
        if length >= 2 and length % 2 == 0 and graph.has_edge(cur, v) and second < cur:
            close_w = graph.weight(cur, v)
            out.append((weight + close_w, used))
        for u, idx in graph.adjacency[cur]:
            if u != v and (mask >> u & 1) and not (used >> u & 1):
                dfs(u, second, used | (1 << u), weight + graph.edges[idx][2], length + 1)

    for u, idx in graph.adjacency[v]:
        if mask >> u & 1:
            dfs(u, u, (1 << v) | (1 << u), graph.edges[idx][2], 1)
    return out


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _basic_table(graph: WeightedGraph) -> tuple[tuple[Fraction, int], ...]:
    """table[mask] = (best basic value, fewest cycles among best) inside mask.

    Enumerates every basic structure: at the smallest vertex of the mask,
    either leave it exposed, match it, or put it on an odd cycle.
    """
    n = graph.n
    table: list[tuple[Fraction, int]] = [(ZERO, 0)] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        best_val, best_cyc = table[rest]
        for u, idx in graph.adjacency[v]:
            if mask >> u & 1:
                val, cyc = table[rest & ~(1 << u)]
                val = val + graph.edges[idx][2]
                if val > best_val or (val == best_val and cyc < best_cyc):
                    best_val, best_cyc = val, cyc
        for cyc_weight, cyc_mask in _cycles_from(graph, v, mask):
            val, cyc = table[mask & ~cyc_mask]
            val = val + cyc_weight * HALF
            cyc += 1
            if val > best_val or (val == best_val and cyc < best_cyc):
                best_val, best_cyc = val, cyc
        table[mask] = (best_val, best_cyc)
    return tuple(table)


def exact_nu(graph: WeightedGraph) -> tuple[Fraction, Matching]:
    """Maximum-weight matching value and one witness, by enumeration."""
    _require(graph.n <= MAX_VERTICES, f"nu oracle limited to {MAX_VERTICES} vertices")
    table = _nu_table(graph)
    # reconstruct one optimal matching deterministically
    pairs: list[tuple[int, int]] = []
    mask = _full_mask(graph.n)
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        if table[mask] == table[rest]:
            mask = rest
            continue
        for u, idx in graph.adjacency[v]:
            if mask >> u & 1 and table[mask] == graph.edges[idx][2] + table[rest & ~(1 << u)]:
                pairs.append((v, u))
                mask = rest & ~(1 << u)
                break
        else:  # pragma: no cover - table reconstruction cannot fail
            raise AssertionError("nu table reconstruction failed")
    return table[_full_mask(graph.n)], Matching.from_pairs(pairs)


def exact_nu_f(graph: WeightedGraph) -> Fraction:
    """Maximum basic fractional matching value, by structure enumeration."""
    _require(graph.n <= MAX_VERTICES, f"nu_f oracle limited to {MAX_VERTICES} vertices")
    return _basic_table(graph)[_full_mask(graph.n)][0]


def brute_gamma(graph: WeightedGraph) -> int:
    """Fewest odd cycles over all optimal basic fractional matchings."""
    _require(graph.n <= MAX_VERTICES, f"gamma oracle limited to {MAX_VERTICES} vertices")
    return _basic_table(graph)[_full_mask(graph.n)][1]


def is_stable(graph: WeightedGraph) -> bool:
    """nu(G) == nu_f(G), both by enumeration."""
    value, _m = exact_nu(graph)
    return value == exact_nu_f(graph)


def _mask_stable(graph: WeightedGraph, mask: int) -> bool:
    return _nu_table(graph)[mask] == _basic_table(graph)[mask][0]


def brute_min_vertex_stabilizer(graph: WeightedGraph) -> frozenset[int]:
    """Smallest vertex set whose removal is stabilizing; lexicographic ties."""
    from itertools import combinations

    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"vertex-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    full = _full_mask(graph.n)
    for k in range(graph.n + 1):
        for subset in combinations(range(graph.n), k):
            mask = full
            for v in subset:
                mask &= ~(1 << v)
            if _mask_stable(graph, mask):
                return frozenset(subset)
    raise AssertionError("empty graph is stable")  # pragma: no cover


def brute_min_edge_stabilizer(graph: WeightedGraph) -> frozenset[int]:
    """Smallest edge-index set whose removal is stabilizing; lexicographic ties."""
    from itertools import combinations

    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"edge-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    for k in range(graph.m + 1):
        for subset in combinations(range(graph.m), k):
            if is_stable(graph.delete_edges(subset)):
                return frozenset(subset)
    raise AssertionError("edgeless graph is stable")  # pragma: no cover


INFEASIBLE = "infeasible"


def brute_min_m_stabilizer(
    graph: WeightedGraph, matching: Matching
) -> "frozenset[int] | str":
    """Smallest exposed-vertex set S with G-S stable and M still maximum-weight.

    Returns the INFEASIBLE sentinel when no subset of exposed vertices works.
    """
    from itertools import combinations

    _require(
        graph.n <= MAX_SUBSET_VERTICES,
        f"M-stabilizer oracle limited to {MAX_SUBSET_VERTICES} vertices",
    )
    exposed = [v for v in range(graph.n) if not matching.covers(v)]
    target = matching.weight(graph)
    full = _full_mask(graph.n)
    nu_tab = _nu_table(graph)
    for k in range(len(exposed) + 1):
        for subset in combinations(exposed, k):
            mask = full
            for v in subset:
                mask &= ~(1 << v)
            if nu_tab[mask] == target and _mask_stable(graph, mask):
                return frozenset(subset)
    return INFEASIBLE


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
                # first step: a valid walk starts exposed or with a matched edge
                if not source_exposed and not edge_matched:
                    continue
                if source_exposed and edge_matched:
                    continue  # exposed vertices have no matched edge anyway
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
