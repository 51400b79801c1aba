"""Exact combinatorial solver for the fractional matching LP and its dual.

One path, on the graph's own incidence lists: `bipartite_max_weight_matching`
runs a Hungarian-style primal-dual method on the bipartite duplicate of the
graph (a left and a right copy of every vertex, and for every edge uv the
two edges (u, v') and (v, u') of weight w_uv), without building the
duplicate. Its kernel runs on the integer weights D.w that the graph
computes once (`WeightedGraph.scale` is D, the lcm of the weight
denominators, and `WeightedGraph.int_weights` the D.w), with a
per-right-copy slack array so that each even row is scanned once per
phase, and returns its potentials as those integers too.
`solve_fractional` counts the matched copies of each edge into the half
counts 2x of a half-integral optimum x, which stay ints through
`normalize_to_basic` (it rounds the half-valued paths and even cycles of
x) and `graph.decompose`, and averages the two potentials of each vertex
into one `Fraction` of a minimum fractional w-vertex cover y.

Both certificates are checked here, once per result and also under
`python -O`, by the named checks `matchstab verify` reports:
`optimal_pair_checks` for the pair of `solve_fractional` and for the pair
`reduce_cycles` returns after its moves (one check, not one per move), and
`stable_subgraph_checks` for the results of `min_vertex_stabilizer` and
`m_vertex_stabilizer`. Every check runs on scaled integers: the graph's
D.w, the cover's common denominator q and integers q.y
(`FractionalVertexCover.scaled`), and the half counts 2x that
`graph.decompose` keeps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DegreeConstraintViolated, InfeasibleCover, NotOptimalPair
from .graph import (
    ZERO,
    BasicFractionalMatching,
    FractionalVertexCover,
    Matching,
    WeightedGraph,
    decompose,
)


def bipartite_max_weight_matching(
    graph: WeightedGraph,
) -> tuple[list[Optional[int]], list[int], list[int]]:
    """Maximum-weight matching on the duplicate with an exact dual certificate.

    Returns the right partner of every left copy (or None) and the left and
    right potentials, scaled by D (see below). Primal-dual phases are rooted
    at exposed left copies with positive potential. A phase ends by
    augmenting to an exposed right copy, by the root potential reaching zero
    (the root retires exposed), or by a matched left node's potential
    reaching zero, in which case the matching is flipped along the
    alternating tree so that node retires exposed instead. All three keep
    the invariants: feasible potentials, tight matched edges, exposed right
    copies at potential zero.

    The kernel runs on the graph's integers D.w, D the lcm of the weight
    denominators; the potentials start at such integers and move by integer
    slacks, so they stay integral and are returned as they are: D times the
    potentials of the duplicate's dual. A phase scans each even row once, in
    the order the rows joined, and keeps per right copy the least slack from
    an even row and the first row that attains it, so a dual adjustment
    needs no rescan.
    """
    n = graph.n
    adjacency = graph.adjacency
    weight = graph.int_weights
    p_left = [
        max((weight[i] for _r, i in adjacency[u] if weight[i] > 0), default=0)
        for u in range(n)
    ]
    p_right = [0] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n

    def run_phase(root: int) -> None:
        even: list[int] = []
        position: dict[int, int] = {}  # even left copy -> its place in `even`
        odd: set[int] = set()
        parent_right: dict[int, int] = {}
        # every right copy reached from an even row but not odd: its least
        # slack, and the first even row in `even` order that attains it
        slack: dict[int, int] = {}
        arg: dict[int, int] = {}

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

        def take(r: int, u: int) -> bool:
            # follow the tight edge (u, r); True if it augmented
            mate = match_r[r]
            if mate is None:
                rematch_chain(r, u)
                return True
            odd.add(r)
            parent_right[r] = u
            slack.pop(r, None)
            assert mate not in position
            position[mate] = len(even)
            even.append(mate)
            return False

        position[root] = 0
        even.append(root)
        scanned = 0
        while True:
            while scanned < len(even):
                u = even[scanned]
                scanned += 1
                pu = p_left[u]
                for r, i in adjacency[u]:
                    if r in odd:
                        continue
                    s = pu + p_right[r] - weight[i]
                    if s == 0:
                        if take(r, u):
                            return
                    elif r not in slack or s < slack[r]:
                        slack[r] = s
                        arg[r] = u
            # stuck on tight edges: adjust the duals
            zero_at = min(even, key=lambda u: (p_left[u], u))
            delta = p_left[zero_at]
            delta_edge = min(slack.values(), default=None)
            if delta_edge is not None and delta_edge < delta:
                delta = delta_edge
            for u in even:
                p_left[u] -= delta
            for r in odd:
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
            # new tight edges, taken in the order a rescan of the even rows
            # would meet them: by row position, then by right copy
            for r in slack:
                slack[r] -= delta
            tight = sorted(
                (r for r, s in slack.items() if s == 0), key=lambda r: (position[arg[r]], r)
            )
            for r in tight:
                if take(r, arg[r]):
                    return

    while True:
        root = next(
            (u for u in range(n) if match_l[u] is None and p_left[u] > 0), None
        )
        if root is None:
            break
        run_phase(root)
    return match_l, p_left, p_right


def normalize_to_basic(
    graph: WeightedGraph, halves: Sequence[int]
) -> BasicFractionalMatching:
    """Round half-valued paths and even cycles so only odd cycles stay at 1/2.

    x comes and goes as half counts 2x_i (see `graph.decompose`).

    Each half-valued path, walked from one of its endpoints, and then each
    half-valued cycle is split into its two 0/1 alternations and the heavier
    one is kept; for an optimal input this never changes the weight. Ties go
    to the alternation containing the lowest edge index. A vertex with more
    than two half-valued edges raises DegreeConstraintViolated. The two
    alternations are compared on the graph's integer weights; `decompose`
    validates the result.
    """
    vec = list(halves)
    weight = graph.int_weights
    half: dict[int, list[tuple[int, int]]] = {}
    for idx, h in enumerate(vec):
        if h == 1:
            u, v, _w = graph.edges[idx]
            half.setdefault(u, []).append((v, idx))
            half.setdefault(v, []).append((u, idx))
    for v, nbrs in half.items():
        if len(nbrs) > 2:
            raise DegreeConstraintViolated(f"vertex {v} has {len(nbrs)} half-valued edges")
    seen: set[int] = set()
    # paths from their endpoints first; every vertex left then is on a cycle
    for start in [v for v, nbrs in half.items() if len(nbrs) == 1] + list(half):
        if start in seen:
            continue
        ordered: list[int] = []  # edge indices in walking order
        prev, cur = -1, start
        while True:
            seen.add(cur)
            step = [(nbr, i) for nbr, i in half[cur] if i != prev]
            if not step:
                break  # far end of a path
            cur, prev = step[0]
            ordered.append(prev)
            if cur == start:
                break  # back around a cycle
        if cur == start and len(ordered) % 2 == 1:
            continue  # odd cycle: already basic
        keep, drop = ordered[0::2], ordered[1::2]
        w_keep = sum(weight[i] for i in keep)
        w_drop = sum(weight[i] for i in drop)
        if w_drop > w_keep or (w_drop == w_keep and drop and min(drop) < min(keep)):
            keep, drop = drop, keep
        for i in keep:
            vec[i] = 2
        for i in drop:
            vec[i] = 0
    return decompose(graph, vec)


def optimal_pair_checks(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
) -> list[tuple[str, bool]]:
    """The exact conditions that make (x, y) an optimal primal-dual pair.

    Returns `cover_is_feasible` (y_u + y_v >= w_uv on every edge),
    `strong_duality` (w.x = sum y) and `complementary_slackness` (every
    supported edge is tight, and x(delta(v)) = 1 wherever y_v > 0), each with
    its result. All three are decided on integers: the graph's D.w, the
    cover's q.y and the half counts 2x of `decompose`.
    """
    if len(cover.values) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    q, a = cover.scaled
    d, weight, edges = graph.scale, graph.int_weights, graph.edges
    loads = bfm.vertex_halves
    slack_ok = all(
        (a[edges[i][0]] + a[edges[i][1]]) * d == weight[i] * q for i in bfm.support
    ) and all(a_v == 0 or loads[v] == 2 for v, a_v in enumerate(a))
    return [
        ("cover_is_feasible", cover.is_feasible_for(graph)),
        ("strong_duality", bfm.weight == cover.total),
        ("complementary_slackness", slack_ok),
    ]


def verify_optimal_pair(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
) -> None:
    """Raise NotOptimalPair, naming the failed checks, unless (x, y) passes
    every one of `optimal_pair_checks`."""
    failed = [name for name, ok in optimal_pair_checks(graph, bfm, cover) if not ok]
    if failed:
        raise NotOptimalPair(f"not an optimal pair: {', '.join(failed)} failed")


def stable_subgraph_checks(
    residual: WeightedGraph, matching: Matching,
    cover: Mapping[int, Fraction], removed: Iterable[int],
) -> list[tuple[str, bool]]:
    """The exact conditions under which a matching and a fractional w-vertex
    cover of equal totals prove nu = nu_f on `residual`, by weak duality.

    `residual` keeps the original vertex ids and loses the stabilizer's edges
    (delta(S) for a vertex set S, F for an edge set); `cover` omits vertices
    of value 0. Returns `matching_lives_in_residual`,
    `cover_feasible_on_residual`, `matching_weight_equals_cover` and
    `cover_only_on_residual` (no value on `removed`), each with its result.
    """
    y = FractionalVertexCover(tuple(cover.get(v, ZERO) for v in range(residual.n)))
    lives = matching.is_matching_in(residual)
    return [
        ("matching_lives_in_residual", lives),
        ("cover_feasible_on_residual", y.is_feasible_for(residual)),
        ("matching_weight_equals_cover", lives and matching.weight(residual) == y.total),
        ("cover_only_on_residual", set(cover).isdisjoint(removed)),
    ]


def verify_stable_subgraph(
    residual: WeightedGraph, matching: Matching,
    cover: Mapping[int, Fraction], removed: Iterable[int],
) -> None:
    """Raise NotOptimalPair, naming the failed checks, unless the result
    passes every one of `stable_subgraph_checks`."""
    checks = stable_subgraph_checks(residual, matching, cover, removed)
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise NotOptimalPair(f"not a stable subgraph: {', '.join(failed)} failed")


def solve_fractional(
    graph: WeightedGraph,
) -> tuple[BasicFractionalMatching, FractionalVertexCover]:
    """Basic maximum-weight fractional matching plus a minimum fractional cover.

    x_uv gets 1/2 per matched copy of uv in the duplicate, counted as the
    half count 2x_uv, and y_v is the mean of v's two potentials. The pair
    satisfies w.x = sum(y) and complementary slackness with exact
    arithmetic; both facts are checked before returning.
    """
    match_left, p_left, p_right = bipartite_max_weight_matching(graph)
    halves = [0] * graph.m  # matched copies of each edge, 0, 1 or 2
    for u, r in enumerate(match_left):
        if r is not None:
            halves[graph.edge_index(u, r)] += 1
    double = 2 * graph.scale
    cover = FractionalVertexCover(
        tuple(Fraction(p_left[v] + p_right[v], double) for v in range(graph.n))
    )
    bfm = normalize_to_basic(graph, halves)
    verify_optimal_pair(graph, bfm, cover)
    return bfm, cover
