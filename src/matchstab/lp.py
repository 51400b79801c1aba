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
`solve_fractional` counts the matched copies of each edge into the half
counts 2x of a half-integral optimum x, which stay ints through
`normalize_to_basic`: one `graph.decompose` walk, after one counting pass,
that keeps the odd cycles of x and rounds its half-valued paths and even
cycles, so a basic x passes unchanged. It adds the two potentials of each
vertex into 2D.y_v: the integers, over q = 2D, of a minimum fractional
w-vertex cover y, which `graph.FractionalVertexCover` stores as they are,
reduced by their gcd.

The pair is proven optimal once per result, also under `python -O`, by
`certify.verify_optimal_pair`, the checks `matchstab verify` reports on it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .certify import verify_optimal_pair
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


def normalize_to_basic(graph: WeightedGraph, halves: Sequence[int]) -> BasicFractionalMatching:
    """Round half-valued paths and even cycles so only odd cycles stay at 1/2.

    x comes and goes as half counts 2x_i (see `graph.decompose`); a basic x
    comes back unchanged.

    Each half-valued path and even cycle is split into its two 0/1
    alternations and the heavier one is kept; for an optimal input this
    never changes the weight. Ties go to the alternation containing the
    lowest edge index. The two alternations are compared on the graph's
    integer weights, in the one walk of `decompose`, which also validates
    the result.
    """
    weight = graph.int_weights

    def heavier(edges: list[int]) -> list[int]:
        keep, drop = edges[0::2], edges[1::2]
        w_keep = sum(weight[i] for i in keep)
        w_drop = sum(weight[i] for i in drop)
        if w_drop > w_keep or (w_drop == w_keep and drop and min(drop) < min(keep)):
            return drop
        return keep

    return decompose(graph, halves, heavier)


def solve_fractional(
    graph: WeightedGraph,
) -> tuple[BasicFractionalMatching, FractionalVertexCover]:
    """Basic maximum-weight fractional matching plus a minimum fractional cover.

    x_uv gets 1/2 per matched copy of uv in the duplicate, counted as the
    half count 2x_uv, and y_v is the mean of v's two potentials, kept as
    their integer sum over 2D. x is validated and made basic by one call of
    `normalize_to_basic`, which counts it once, keeps a basic x as it is and
    rounds the half-valued paths and even cycles of any other. The pair
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
    bfm = normalize_to_basic(graph, halves)
    verify_optimal_pair(graph, bfm, cover)
    return bfm, cover
