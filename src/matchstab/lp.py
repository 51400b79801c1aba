"""Exact combinatorial solver for the fractional matching LP and its dual.

One path: `bipartite_max_weight_matching` runs a Hungarian-style
primal-dual method on the bipartite duplicate of the graph (a left and a
right copy of every vertex, and for every edge uv the two edges (u, v') and
(v, u') of weight w_uv), without building the duplicate. Its kernel runs on
the integer weights D.w that the graph stores (`WeightedGraph.scale` is D,
the lcm of the weight denominators, and `WeightedGraph.int_weights` the
D.w), and returns its potentials as those integers too. It scans rows it
builds once per call from the graph's edge list: the row of a left copy
holds (right copy, D.w) for each of its edges, in the order of
`WeightedGraph.adjacency`, which it neither reads nor builds. A root with a
tight edge to an exposed right copy is matched directly; every other root
runs one phase, which scans each even row once. A phase keeps its state per
right copy in flat arrays indexed by the copy, allocated once per call of
the kernel, and resets exactly the entries it touched when it ends, so it
costs time in its tree, not in n. It keys each reached copy's least slack,
and the potentials of its tree, against the sum of its dual steps so far,
so a step changes no key and visits no tree node, and one pass over the
reached copies finds the next step and the copies it makes tight.
`solve_fractional` reads a basic optimum x, as the half counts 2x, off
the components of the kernel's matching in one walk, `_basic_x`: a matched
pair is an edge at 1, an odd cycle stays at 1/2, and a half-valued path or
even cycle is rounded to its heavier alternation, ties going to the one
that holds the lowest edge index, a rule symmetric in the two alternations.
So a basic x passes unchanged, and the LP runs no `graph.decompose`, the
validator that `verify` checks its documents with. It adds the two
potentials of each vertex into 2D.y_v: the integers, over q = 2D, of a
minimum fractional w-vertex cover y, which `graph.FractionalVertexCover`
stores as they are, reduced by their gcd.

The pair is proven optimal once per result, also under `python -O`, by
`certify.verify_optimal_pair`, the checks `matchstab verify` reports on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .certify import verify_optimal_pair
from .errors import NotOptimalPair
from .graph import BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph


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
    `_run_phase`, on three arrays of n entries allocated here once and
    handed back empty by every phase.

    The kernel runs on the graph's integers D.w, D the lcm of the weight
    denominators; the potentials start at such integers and move by integer
    slacks, so they stay integral and are returned as they are: D times the
    potentials of the duplicate's dual.
    """
    n = graph.n
    rows, p_left = _start(graph)
    p_right = [0] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n
    # the phases' state per right copy, all None between phases
    parent: list[Optional[int]] = [None] * n
    key: list[Optional[int]] = [None] * n
    arg: list[Optional[int]] = [None] * n
    for root in range(n):
        pu = p_left[root]
        if match_l[root] is None and pu > 0:
            for r, w in rows[root]:
                if match_r[r] is None and pu + p_right[r] == w:
                    match_l[root], match_r[r] = r, root  # the direct match
                    break
            else:
                _run_phase(root, rows, p_left, p_right, match_l, match_r, parent, key, arg)
    return match_l, p_left, p_right


def _start(graph: WeightedGraph) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """The kernel's rows and its starting left potentials, in one pass over
    the edges: the row of left copy u holds (v, D.w_uv) for every edge uv,
    sorted by v, which is the order of `graph.adjacency`; u's potential is
    the heaviest D.w at u, or 0."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    p_left = [0] * graph.n
    for (u, v), w in zip(graph.ends, graph.int_weights):
        rows[u].append((v, w))
        rows[v].append((u, w))
        if w > p_left[u]:
            p_left[u] = w
        if w > p_left[v]:
            p_left[v] = w
    for row in rows:
        row.sort()
    return rows, p_left


def _run_phase(
    root: int, rows: Sequence[Sequence[tuple[int, int]]],
    p_left: list[int], p_right: list[int],
    match_l: list[Optional[int]], match_r: list[Optional[int]],
    parent: list[Optional[int]], key: list[Optional[int]], arg: list[Optional[int]],
) -> None:
    """One primal-dual phase from the exposed left copy `root`, updating the
    potentials and the matching in place.

    It scans each even row once, in the order the rows joined, and keeps
    per right copy r, in the caller's arrays indexed by r: `parent[r]`, the
    even row that reached r once r is odd; and while r is reached but not
    odd, `key[r]`, its least slack from an even row plus `shift`, and
    `arg[r]`, the place in `even` of the first row that attains it.
    `shift` is the sum of the phase's dual steps so far. A step of delta
    lowers every even potential, and so every slack of a copy reached and
    not odd, by delta, raises every odd potential by delta, and raises
    `shift` by delta. So the phase keys the tree's potentials against
    `shift` too: while u is even, `p_left[u]` holds its potential plus
    `shift`, and while r is odd, `p_right[r]` its potential minus `shift`.
    A step then changes no key and no keyed potential, one pass over the
    keys finds the step and the copies it makes tight, the least even
    potential plus `shift` is a running minimum, and the true potentials
    are written back when the phase ends. Every entry of the arrays is
    None outside a phase: the phase lists the right copies it touches and
    resets exactly those when it ends, so it costs time in its tree, not
    in n.
    """
    even = [root]
    odd: list[int] = []  # the odd right copies
    reached: list[int] = []  # every right copy given a key, odd since or not
    scanned, shift, floor = 0, 0, p_left[root]  # floor: the least keyed even potential
    while True:
        # grow the tree along tight edges until one reaches an exposed copy
        while scanned < len(even):
            u = even[scanned]
            pu = p_left[u]
            for r, w in rows[u]:
                if parent[r] is not None:
                    continue
                k = pu + p_right[r] - w  # the slack of (u, r), plus shift
                if k == shift:
                    mate = match_r[r]
                    if mate is None:
                        break
                    parent[r] = u
                    odd.append(r)
                    p_right[r] -= shift
                    key[r] = None
                    even.append(mate)
                    p_left[mate] += shift
                    if p_left[mate] < floor:
                        floor = p_left[mate]
                else:
                    least = key[r]
                    if least is None:
                        reached.append(r)
                    elif k >= least:
                        continue
                    key[r] = k
                    arg[r] = scanned
            else:
                scanned += 1
                continue
            break  # the tight edge (u, r) augments
        else:
            # stuck on tight edges: adjust the duals by the least even
            # potential or the least slack of a copy reached and not odd
            # (a plain loop: from CPython 3.11 on it beats `min` over a `map`)
            least = floor
            tight: list[int] = []  # the copies whose key is `least`
            for r in reached:
                k = key[r]
                if k is not None and k <= least:
                    if k < least:
                        least, tight = k, [r]
                    else:
                        tight.append(r)
            shift = least
            if least < floor:
                # the new tight edges, taken in the order a rescan of the
                # even rows would meet them: by row position, then by copy
                for row, r in sorted([(arg[r], r) for r in tight]):
                    u = even[row]
                    mate = match_r[r]
                    if mate is None:
                        break
                    # r turns odd, its mate turns even: the step of the scan
                    # above, written out again on purpose. One local closure
                    # for both would make `shift` and `floor` cell variables
                    # of this hot loop: it slowed this kernel on two seeded
                    # rounds each of the dense-lp and tri-chain graphs, median
                    # 19.7 -> 20.6 and 20.3 -> 21.8 ms over 60 alternating
                    # in-process runs (Python 3.11.7, 2-CPU Xeon).
                    parent[r] = u
                    odd.append(r)
                    p_right[r] -= shift
                    key[r] = None
                    even.append(mate)
                    p_left[mate] += shift
                    if p_left[mate] < floor:
                        floor = p_left[mate]
                else:
                    continue
            else:
                # the lowest even node at potential zero (keyed `floor`, now
                # `shift`) retires exposed
                u = min(u for u in even if p_left[u] == floor)
                if u == root:
                    break
                # flip the matching along the tree from u's parent
                r = match_l[u]
                match_l[u] = None
                u = parent[r]
        # give right r to even node u, cascading along the tree to the root
        while True:
            match_r[r] = u
            match_l[u], r = r, match_l[u]  # u's old partner, None exactly at the root
            if r is None:
                break
            u = parent[r]
        break
    # write the true potentials back and hand the arrays back empty
    for u in even:
        p_left[u] -= shift
    for r in odd:
        p_right[r] += shift
        parent[r] = None
    for r in reached:
        key[r] = arg[r] = None


def solve_fractional(
    graph: WeightedGraph,
) -> tuple[BasicFractionalMatching, FractionalVertexCover]:
    """Basic maximum-weight fractional matching plus a minimum fractional cover.

    x_uv gets 1/2 per matched copy of uv in the duplicate, and y_v is the
    mean of v's two potentials, kept as their integer sum over 2D. x is
    read off the components of the kernel's matching by `_basic_x`, which
    keeps its matched pairs and odd cycles as they are and rounds its
    half-valued paths and even cycles, by a tie rule that does not depend
    on the direction of the walk. The pair satisfies w.x = sum(y) and
    complementary slackness with exact arithmetic; both facts are checked
    before returning.
    """
    match_left, p_left, p_right = bipartite_max_weight_matching(graph)
    cover = FractionalVertexCover(
        tuple(p_left[v] + p_right[v] for v in range(graph.n)), 2 * graph.scale
    )
    bfm = _basic_x(graph, match_left)
    verify_optimal_pair(graph, bfm, cover)
    return bfm, cover


def _basic_x(graph: WeightedGraph, match_left: Sequence[Optional[int]]) -> BasicFractionalMatching:
    """The basic x of the kernel's matching, in one walk of its components.

    u -> `match_left[u]` gives each vertex at most one successor and, once
    inverted, at most one predecessor; a right copy matched twice raises
    NotOptimalPair. So the map splits into matched pairs u -> v -> u, the
    edges at 1, taken as they come, and paths and cycles, whose edges are
    at 1/2. Each path is walked from its start, and then each cycle from
    its lowest vertex. An odd cycle stays at 1/2, written from its lowest
    vertex toward its lower neighbour, as `graph.decompose` writes it. A
    path or an even cycle is rounded to its heavier alternation, compared
    on the graph's integer weights, ties going to the one that holds the
    lowest edge index; its two alternations are the same two edge sets
    whichever way it is walked, so the walk's direction changes nothing,
    and for an optimal x the weight does not change.
    """
    n, ends, weight, index_of = graph.n, graph.ends, graph.int_weights, graph._index_of
    match_right: list[Optional[int]] = [None] * n
    halves, vertex_halves = [0] * graph.m, [0] * n
    pairs: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []
    rest: list[int] = []  # the vertices with a successor on a path or a cycle
    for u, r in enumerate(match_left):
        if r is None:
            continue
        if match_right[r] is not None:
            raise NotOptimalPair(
                "not a matching of the duplicate: right_copies_matched_once failed"
            )
        match_right[r] = u
        if match_left[r] != u:
            rest.append(u)
        elif u < r:
            halves[index_of[u, r]] = 2
            vertex_halves[u] = vertex_halves[r] = 2
            pairs.append((u, r))
    # the paths from their starts first; a walk leaves a load on every inner
    # vertex it passes, so the first vertex of a cycle met is its lowest
    for start in sorted(rest, key=lambda u: match_right[u] is not None):
        if vertex_halves[start]:
            continue
        order, edges, a, v = [start], [], start, match_left[start]
        while v is not None:  # to a path's end, or once around a cycle
            edges.append(index_of[(a, v) if a < v else (v, a)])
            if v == start:
                break
            order.append(v)
            a, v = v, match_left[v]
        if v is not None and len(edges) % 2:  # an odd cycle
            for a, i in zip(order, edges):
                vertex_halves[a], halves[i] = 2, 1
            cycles.append(tuple(order) if order[1] < order[-1] else (start, *order[:0:-1]))
            continue
        lowest = min(edges)
        alternations = edges[0::2], edges[1::2]
        for i in max(alternations, key=lambda alt: (sum(weight[i] for i in alt), lowest in alt)):
            (a, b), halves[i] = ends[i], 2
            vertex_halves[a] = vertex_halves[b] = 2
            pairs.append((a, b))
    return BasicFractionalMatching(
        graph, tuple(halves), Matching(frozenset(pairs)), tuple(cycles), tuple(vertex_halves)
    )
