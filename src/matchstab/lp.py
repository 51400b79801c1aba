"""Exact combinatorial solver for the fractional matching LP and its dual.

One path, on the graph's own incidence lists: `bipartite_max_weight_matching`
runs a Hungarian-style primal-dual method on the bipartite duplicate of the
graph (a left and a right copy of every vertex, and for every edge uv the
two edges (u, v') and (v, u') of weight w_uv), without building the
duplicate. Its kernel runs on the integer weights D.w that the graph
stores (`WeightedGraph.scale` is D, the lcm of the weight denominators,
and `WeightedGraph.int_weights` the D.w), and returns its potentials as
those integers too. A root with a tight edge to an exposed right copy is
matched directly; every other root runs one phase, whose state lives for
that call, is sized by the tree and scans each even row once.
`solve_fractional` counts the matched copies of each edge into the half
counts 2x of a half-integral optimum x, which stay ints through
`graph.decompose` (and `normalize_to_basic`, which rounds the half-valued
paths and even cycles of x, when x is not basic), and adds the two
potentials of each vertex into 2D.y_v: the integers, over q = 2D, of a
minimum fractional w-vertex cover y, which `graph.FractionalVertexCover`
stores as they are, reduced by their gcd.

The pair is proven optimal once per result, also under `python -O`, by
`certify.verify_optimal_pair`, the checks `matchstab verify` reports on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .certify import verify_optimal_pair
from .errors import DegreeConstraintViolated, NotBasic
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
    zero, and a root leaves its phase matched or retired. A root with a
    tight edge to an exposed right copy is matched to the first one in its
    row with no phase, as its phase would do first; the others run
    `_run_phase`.

    The kernel runs on the graph's integers D.w, D the lcm of the weight
    denominators; the potentials start at such integers and move by integer
    slacks, so they stay integral and are returned as they are: D times the
    potentials of the duplicate's dual.
    """
    n = graph.n
    adjacency = graph.adjacency
    weight = graph.int_weights
    p_left = [0] * n  # the heaviest edge at each vertex, or 0
    for (u, v), w in zip(graph.ends, weight):
        if w > p_left[u]:
            p_left[u] = w
        if w > p_left[v]:
            p_left[v] = w
    p_right = [0] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n
    for root in range(n):
        pu = p_left[root]
        if match_l[root] is None and pu > 0:
            for r, i in adjacency[root]:
                if match_r[r] is None and pu + p_right[r] == weight[i]:
                    match_l[root], match_r[r] = r, root  # the direct match
                    break
            else:
                _run_phase(root, adjacency, weight, p_left, p_right, match_l, match_r)
    return match_l, p_left, p_right


def _run_phase(
    root: int, adjacency: Sequence[Sequence[tuple[int, int]]], weight: Sequence[int],
    p_left: list[int], p_right: list[int],
    match_l: list[Optional[int]], match_r: list[Optional[int]],
) -> None:
    """One primal-dual phase from the exposed left copy `root`, updating the
    potentials and the matching in place. Its state lives for this call and
    is sized by the tree. It scans each even row once, in the order the rows
    joined, and keeps per right copy the least slack from an even row and
    the first row that attains it, so a dual adjustment needs no rescan.
    """
    even = [root]
    position = {root: 0}  # even left copy -> its place in `even`
    parent_right: dict[int, int] = {}  # odd right copy -> the even row that reached it
    # every right copy reached from an even row but not odd: its least
    # slack, and the first even row in `even` order that attains it
    slack: dict[int, int] = {}
    arg: dict[int, int] = {}
    scanned = 0
    while True:
        # grow the tree along tight edges until one reaches an exposed copy
        while scanned < len(even):
            u = even[scanned]
            scanned += 1
            pu = p_left[u]
            for r, i in adjacency[u]:
                if r in parent_right:
                    continue
                s = pu + p_right[r] - weight[i]
                if s == 0:
                    mate = match_r[r]
                    if mate is None:
                        break
                    parent_right[r] = u
                    slack.pop(r, None)
                    assert mate not in position
                    position[mate] = len(even)
                    even.append(mate)
                elif r not in slack or s < slack[r]:
                    slack[r] = s
                    arg[r] = u
            else:
                continue
            break  # the tight edge (u, r) augments
        else:
            # stuck on tight edges: adjust the duals
            floor = min(map(p_left.__getitem__, even))
            delta = min(floor, min(slack.values(), default=floor))
            for u in even:
                p_left[u] -= delta
            for r in parent_right:
                p_right[r] += delta
            if delta < floor:
                # new tight edges, taken in the order a rescan of the even
                # rows would meet them: by row position, then by right copy
                tight = []
                for r, s in slack.items():
                    slack[r] = s - delta
                    if s == delta:
                        tight.append((position[arg[r]], r))
                tight.sort()
                for _pos, r in tight:
                    u = arg[r]
                    mate = match_r[r]
                    if mate is None:
                        break
                    parent_right[r] = u
                    del slack[r]
                    assert mate not in position
                    position[mate] = len(even)
                    even.append(mate)
                else:
                    continue
            else:
                # the lowest even node at potential zero retires exposed
                u = min(u for u in even if p_left[u] == 0)
                if u == root:
                    return
                # flip the matching along the tree from u's parent
                r = match_l[u]
                assert r is not None
                match_l[u] = None
                u = parent_right[r]
        # give right r to even node u, cascading along the tree to the root
        while True:
            match_r[r] = u
            match_l[u], r = r, match_l[u]  # u's old partner, None exactly at the root
            if r is None:
                return
            u = parent_right[r]


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
            u, v = graph.ends[idx]
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
    half count 2x_uv, and y_v is the mean of v's two potentials, kept as
    their integer sum over 2D. x is rounded by `normalize_to_basic`, the
    identity on a basic x, only if `decompose` raises NotBasic, its one
    error here (each count is 0, 1 or 2, each load at most 2). The pair
    satisfies w.x = sum(y) and complementary slackness with exact
    arithmetic; both facts are checked before returning.
    """
    match_left, p_left, p_right = bipartite_max_weight_matching(graph)
    halves = [0] * graph.m  # matched copies of each edge, 0, 1 or 2
    for u, r in enumerate(match_left):
        if r is not None:
            halves[graph.edge_index(u, r)] += 1
    cover = FractionalVertexCover(
        tuple(p_left[v] + p_right[v] for v in range(graph.n)), 2 * graph.scale
    )
    try:
        bfm = decompose(graph, halves)
    except NotBasic:
        bfm = normalize_to_basic(graph, halves)
    verify_optimal_pair(graph, bfm, cover)
    return bfm, cover
