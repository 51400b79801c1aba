"""Two-table dynamic program for optimal valid alternating walks.

For a source s and length bound k, iteration i improves y1(v) through
unmatched edges out of y2 and y2(v) through matched edges out of y1, with a
synchronous buffer so iteration i only sees length-(i-1) walks. After k
iterations, y2 at a covered vertex (and y1 at an exposed one) is the best
value of a valid alternating sv-walk of length at most k, with a None
sentinel when no such walk exists.

Each iteration relaxes only the arcs out of the entries that changed in the
iteration before: the queue (changed-vertex) form of Bellman-Ford (Moore,
"The shortest path through a maze", 1959). It still reads only the entries
of the iteration before, and it commits exactly what relaxing every arc
would. Entries never decrease, and an entry that did not change offers the
same candidate it offered one iteration earlier, which was then committed
or beaten; so every strict improvement comes from a changed entry. y2(v)
reads only y1 of v's partner, so the matched arc is relaxed only from a y1
that changed. y1(v) is recomputed, as the maximum over all of v's free
arcs, only when some free neighbour's y2 changed: where it is recomputed
it gets the full sweep's value, and where it is not the full sweep would
not commit either.

The DP runs on integers: it reads the weights D.w that the graph stores
(`WeightedGraph.scale` is D, the lcm of the weight denominators, and
`WeightedGraph.int_weights` the D.w), so no scan scales the weights
itself. That is exact and keeps every sign and every order, so
an entry is converted back as Fraction(entry, D) only where a caller reads
it. `WalkArcs` holds the matched and free arcs with these integer weights;
one set of arcs serves every DP run on the same G and M, and `WalkArcs.run`
is the one driver of the DP. Only `optimal_walks` keeps the per-iteration
snapshots. The DP records no walk and no predecessor, since the
M-vertex-stabilizer decides by the values alone; a walk follows from the
snapshots, as the tests' trace-back `tests/walk_traceback.py` shows. The
M-vertex-stabilizer's two scans, `first_pass_scan` and `second_pass_scan`,
keep no history and stop as soon as their verdict is fixed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Iterator, NamedTuple, Optional

from .errors import MNotAMatching, VertexNotExposed
from .graph import Matching, WeightedGraph

Entry = Optional[Fraction]  # None is the -infinity sentinel

# (vertex, new value) for one strict improvement
_Commit = tuple[int, int]
# (i, y1, y2, commits1, commits2) after iteration i of one DP run
_Step = tuple[int, list[Optional[int]], list[Optional[int]], list[_Commit], list[_Commit]]


class WalkTables(NamedTuple):
    """DP state for one (source, k) run: every iteration's entries.

    `history1[i][v]` is y1(v) after i iterations (same for history2).
    y1 values at covered vertices other than the source are intermediate DP
    state, not walk values; only y1 at exposed vertices and y2 at covered
    vertices carry the optimal-walk meaning.
    """

    graph: WeightedGraph
    matching: Matching
    source: int
    k: int
    history1: tuple[tuple[Entry, ...], ...]
    history2: tuple[tuple[Entry, ...], ...]

    @property
    def y1(self) -> tuple[Entry, ...]:
        return self.history1[-1]

    @property
    def y2(self) -> tuple[Entry, ...]:
        return self.history2[-1]


class WalkArcs:
    """The integer arcs of (G, M) that the walk DP relaxes.

    `matched[v]` is (partner, D.w) for a covered v and None for an exposed
    one; `free[v]` lists (u, D.w) for each unmatched edge uv in v's
    adjacency order. Building the arcs checks once that M is a matching of
    G; every DP run on them relies on it. The M-vertex-stabilizer builds
    them once per call and runs all of its scans on them.
    """

    def __init__(self, graph: WeightedGraph, matching: Matching):
        if not matching.is_matching_in(graph):
            raise MNotAMatching("matching uses edges outside the graph")
        self.n = graph.n
        scaled = graph.int_weights
        self.matched: list[Optional[tuple[int, int]]] = [None] * graph.n
        self.free: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
        for v in range(graph.n):
            partner = matching.partner(v)
            for u, idx in graph.adjacency[v]:
                if u == partner:
                    self.matched[v] = (u, scaled[idx])
                else:
                    self.free[v].append((u, scaled[idx]))

    def run(self, source: int, k: int) -> Iterator[_Step]:
        """Run the DP from the source for at most k iterations.

        Yields (i, y1, y2, commits1, commits2) at the start (i = 0, with no
        commits) and after each iteration i that commits; y1 and y2 are the
        entries as ints (None is -infinity), one pair of lists updated in
        place. An iteration reads only the entries of the one before, so
        once one commits no strict improvement every later one would repeat
        it: the run ends there, before k when it comes sooner. Every vertex
        is relaxed: an exposed vertex other than the source is a dead end,
        so no deleted set needs blocking (see `mstab`). The first step
        raises ValueError for k < 0 or a source that is not a vertex of the
        graph.
        """
        if k < 0:
            raise ValueError("length bound must be nonnegative")
        if not 0 <= source < self.n:
            raise ValueError(f"vertex {source} is not in the graph")
        matched, free = self.matched, self.free
        y1: list[Optional[int]] = [None] * self.n
        y2: list[Optional[int]] = [None] * self.n
        y1[source] = 0
        changed1, changed2 = [source], []
        if matched[source] is None:
            y2[source] = 0
            changed2.append(source)
        yield 0, y1, y2, [], []
        for i in range(1, k + 1):
            commits2 = []
            for u in changed1:
                arc = matched[u]
                if arc is not None:
                    v, w = arc
                    cand = y1[u] - w
                    if y2[v] is None or cand > y2[v]:
                        commits2.append((v, cand))
            commits1 = []
            for v in {v for u in changed2 for v, _w in free[u]}:
                best = None
                for u, w in free[v]:
                    if y2[u] is not None:
                        cand = y2[u] + w
                        if best is None or cand > best:
                            best = cand
                if best is not None and (y1[v] is None or best > y1[v]):
                    commits1.append((v, best))
            if not commits1 and not commits2:
                return
            for v, value in commits1:
                y1[v] = value
            for v, value in commits2:
                y2[v] = value
            changed1 = [v for v, _value in commits1]
            changed2 = [v for v, _value in commits2]
            yield i, y1, y2, commits1, commits2

    def first_pass_scan(self, root: int, k: int) -> tuple[bool, Optional[int]]:
        """`first_pass_scan` on these arcs."""
        steps = self.run(root, k)
        _i, y1, y2, _commits1, _commits2 = next(steps)
        if self.matched[root] is not None:
            raise VertexNotExposed(f"vertex {root} is covered")
        if any(y1[root] > 0 for _step in steps):
            return True, None
        covered = (v for v in range(self.n) if self.matched[v] is not None)
        return False, next((v for v in covered if y2[v] is not None and y2[v] > 0), None)

    def second_pass_scan(self, root: int, k: int, deleted: AbstractSet[int]) -> Optional[int]:
        """`second_pass_scan` on these arcs, with `deleted` unchecked: S
        only filters the targets."""
        steps = self.run(root, k)
        _i, y1, _y2, _commits1, _commits2 = next(steps)
        if self.matched[root] is not None:
            raise VertexNotExposed(f"vertex {root} is covered")
        for _step in steps:
            pass
        exposed = (v for v in range(self.n) if self.matched[v] is None and v not in deleted)
        return next((v for v in exposed if v != root and y1[v] is not None and y1[v] > 0), None)


def optimal_walks(
    graph: WeightedGraph, matching: Matching, source: int, k: int
) -> WalkTables:
    """Run the synchronous DP for k iterations from the source.

    When the DP reaches its fixpoint before k, both histories are padded
    with that snapshot to k + 1 entries, as a full k-iteration run would
    leave them.
    """
    history1: list[tuple[Entry, ...]] = []
    history2: list[tuple[Entry, ...]] = []
    for _i, y1, y2, _commits1, _commits2 in WalkArcs(graph, matching).run(source, k):
        for history, y in ((history1, y1), (history2, y2)):
            history.append(tuple(None if e is None else Fraction(e, graph.scale) for e in y))
    for history in (history1, history2):
        history += [history[-1]] * (k + 1 - len(history))
    return WalkTables(graph, matching, source, k, tuple(history1), tuple(history2))


def first_pass_scan(
    graph: WeightedGraph, matching: Matching, root: int, k: int
) -> tuple[bool, Optional[int]]:
    """(flower_at_root, walk_to_covered) for an exposed root and walk length
    bound k; the M-vertex-stabilizer passes k = 3|V|.

    flower_at_root: an augmenting root-root walk of length <= k exists.
    walk_to_covered: when there is no such flower, the lowest covered v
    reached by an augmenting walk of length <= k, else None.

    Entries never decrease, so the scan stops as soon as y1(root) > 0: the
    flower verdict is then fixed and outranks any walk to a covered vertex,
    which is reported as None. A walk to a covered vertex does not stop the
    scan, because a later flower still outranks it.
    """
    return WalkArcs(graph, matching).first_pass_scan(root, k)


def second_pass_scan(
    graph: WeightedGraph, matching: Matching, root: int, k: int, deleted: AbstractSet[int]
) -> Optional[int]:
    """The lowest exposed v other than the root and not in `deleted` that an
    augmenting walk of length <= k reaches from the exposed root, or None;
    the M-vertex-stabilizer passes k = n.

    `deleted` is a set S of exposed vertices other than the root, whose
    stars count as deleted: the scan gives the verdict of G - delta(S)
    without building it, since an exposed vertex is a dead end of every
    walk and S only filters the targets (see `mstab`). A root or a covered
    vertex in S raises VertexNotExposed, because a covered vertex in S
    would change the interior of walks.
    """
    for v in deleted:
        if v == root or not 0 <= v < graph.n or matching.covers(v):
            raise VertexNotExposed(f"deleted vertex {v} is the root or not an exposed vertex")
    return WalkArcs(graph, matching).second_pass_scan(root, k, deleted)
