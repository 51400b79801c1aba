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

The pair is proven optimal once per result, also under `python -O`, by
`certify.verify_optimal_pair`, the checks `matchstab verify` reports on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .certify import verify_optimal_pair
from .errors import DegreeConstraintViolated
from .graph import BasicFractionalMatching, FractionalVertexCover, WeightedGraph, decompose


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

    The roots are taken in one pass over 0..n-1, which picks the same roots
    in the same order as a rescan from 0 before each phase, because a left
    copy that is not eligible never becomes eligible again: a potential
    only falls, a left copy loses its partner only by retiring at potential
    zero, and a root leaves its phase matched or retired.

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

    for root in range(n):
        if match_l[root] is None and p_left[root] > 0:
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
