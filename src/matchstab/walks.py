"""Two-table dynamic program for optimal valid alternating walks.

For a source s and length bound k, iteration i improves y1(v) through
unmatched edges out of y2 and y2(v) through matched edges out of y1, with a
synchronous buffer so iteration i only sees length-(i-1) walks. After k
iterations, y2 at a covered vertex (and y1 at an exposed one) is the best
value of a valid alternating sv-walk of length at most k, with a None
sentinel when no such walk exists.

Each iteration relaxes only the arcs out of the entries that changed in the
iteration before: the queue (changed-vertex) form of Bellman-Ford (Moore,
"The shortest path through a maze", 1959). Entries never decrease, and an
entry that did not change offers the same candidate it offered one
iteration earlier, which was then committed or beaten; so every strict
improvement comes from a changed entry. A y1 entry is recomputed over all
of its vertex's free arcs, in adjacency order, so it gets the full sweep's
value and the full sweep's `pred1` tie-break. Each iteration therefore
commits exactly what relaxing every arc would (see `_IntegerDP`).

The DP runs on integers: it reads the weights D.w that the graph stores
(`WeightedGraph.scale` is D, the lcm of the weight denominators, and
`WeightedGraph.int_weights` the D.w), so no scan scales the weights
itself. That is exact and keeps every sign and every order, so
an entry is converted back as Fraction(entry, D) only where a caller reads
it. `WalkArcs` holds the matched and free arcs with these integer weights;
one set of arcs serves every DP run on the same G and M. Only
`optimal_walks` keeps the per-iteration snapshots and predecessor records
that `reconstruct_walk` needs. The M-vertex-stabilizer's two scans,
`first_pass_scan` and `second_pass_scan`, keep no history and stop as soon
as their verdict is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterator, Optional

from .errors import (
    EntryIsMinusInfinity,
    InconsistentWalkTables,
    MNotAMatching,
    VertexNotExposed,
)
from .graph import (
    AlternatingWalk,
    Matching,
    WeightedGraph,
    walk_value,
)

Entry = Optional[Fraction]  # None is the -infinity sentinel

# (vertex, predecessor, new value) for one strict improvement
_Commit = tuple[int, int, int]


@dataclass(frozen=True)
class WalkTables:
    """DP state for one (source, k) run, including everything needed to
    rebuild optimal walks.

    `history1[i][v]` is y1(v) after i iterations (same for history2); `pred1`
    holds, for each committed strict improvement of y1(v) at iteration i, the
    neighbor u whose y2 value triggered it (and symmetrically for pred2).
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
    pred1: dict[tuple[int, int], int]
    pred2: dict[tuple[int, int], int]

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
    adjacency order, which is the order `pred1` ties break in. Building the
    arcs checks once that M is a matching of G; every DP run on them relies
    on it. The M-vertex-stabilizer builds them once per call and runs all of
    its scans on them.
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

    def first_pass_scan(
        self, root: int, k: int, deleted: AbstractSet[int]
    ) -> tuple[bool, Optional[int]]:
        """`first_pass_scan` on these arcs, run on G - delta(S) for the set
        S = `deleted` of exposed vertices other than the root."""
        dp = self._exposed_root_dp(root, k, deleted)
        for _iteration in dp.iterations(k):
            if dp.y1[root] > 0:
                return True, None
        y2 = dp.y2
        walk_to_covered = next(
            (
                v
                for v in range(self.n)
                if self.matched[v] is not None and y2[v] is not None and y2[v] > 0
            ),
            None,
        )
        return False, walk_to_covered

    def second_pass_scan(self, root: int, k: int, deleted: AbstractSet[int]) -> Optional[int]:
        """`second_pass_scan` on these arcs."""
        dp = self._exposed_root_dp(root, k, deleted)
        for _iteration in dp.iterations(k):
            pass
        y1 = dp.y1
        return next(
            (
                v
                for v in range(self.n)
                if v != root and self.matched[v] is None and y1[v] is not None and y1[v] > 0
            ),
            None,
        )

    def _exposed_root_dp(self, root: int, k: int, deleted: AbstractSet[int]) -> _IntegerDP:
        if k < 0:
            raise ValueError("length bound must be nonnegative")
        if self.matched[root] is not None:
            raise VertexNotExposed(f"vertex {root} is covered")
        return _IntegerDP(self, root, deleted)


class _IntegerDP:
    """The DP on the graph's integer weights, started at the source.

    `y1` and `y2` hold the current entries as ints (None is -infinity). The
    DP writes no entry at a vertex of `deleted`, a set S of exposed
    vertices other than the source, so it runs exactly as on G - delta(S):
    an exposed vertex gets no y2 entry, so with no y1 entry either it
    carries nothing along its arcs, as if it had none.

    An iteration relaxes only the arcs out of entries that changed in the
    iteration before (the queue form of Bellman-Ford), and it still reads
    only the entries of the iteration before. It commits exactly what
    relaxing every arc would commit. Entries never decrease. An entry that
    did not change offers the same candidate as in the iteration before,
    and that iteration committed it or already held a value at least as
    large. So only a changed entry can give a strict improvement. y2(v)
    reads only y1 of v's partner, so the matched arc is relaxed only from a
    y1 that changed. y1(v) is recomputed, as the first maximum over all of
    v's free arcs in adjacency order, only when some free neighbour's y2
    changed. Where it is recomputed, it gets the full sweep's value and the
    full sweep's `pred1` tie-break; where it is not, the full sweep would
    not commit either.
    """

    def __init__(self, arcs: WalkArcs, source: int, deleted: AbstractSet[int] = frozenset()):
        self.arcs = arcs
        self.source = source
        self.deleted = deleted
        self.y1: list[Optional[int]] = [None] * arcs.n
        self.y2: list[Optional[int]] = [None] * arcs.n
        self.y1[source] = 0
        if arcs.matched[source] is None:
            self.y2[source] = 0

    def iterations(self, k: int) -> Iterator[tuple[int, list[_Commit], list[_Commit]]]:
        """Run iterations 1..k, yielding (i, commits1, commits2) after each.

        An iteration reads only the previous entries, so once one commits no
        strict improvement every later one would repeat it: the run ends
        there, before k when it comes sooner.
        """
        y1, y2, deleted = self.y1, self.y2, self.deleted
        matched, free = self.arcs.matched, self.arcs.free
        changed1 = [self.source]
        changed2 = [self.source] if y2[self.source] is not None else []
        for i in range(1, k + 1):
            commits2 = []
            for u in changed1:
                arc = matched[u]
                if arc is not None:
                    v, w = arc
                    cand = y1[u] - w
                    if y2[v] is None or cand > y2[v]:
                        commits2.append((v, u, cand))
            commits1 = []
            targets = {v for u in changed2 for v, _w in free[u]}
            if deleted:
                targets.difference_update(deleted)
            for v in targets:
                best = None
                for u, w in free[v]:
                    if y2[u] is not None:
                        cand = y2[u] + w
                        if best is None or cand > best:
                            best, arg = cand, u
                if best is not None and (y1[v] is None or best > y1[v]):
                    commits1.append((v, arg, best))
            if not commits1 and not commits2:
                return
            for v, _u, value in commits1:
                y1[v] = value
            for v, _u, value in commits2:
                y2[v] = value
            changed1 = [v for v, _u, _value in commits1]
            changed2 = [v for v, _u, _value in commits2]
            yield i, commits1, commits2


def optimal_walks(
    graph: WeightedGraph, matching: Matching, source: int, k: int
) -> WalkTables:
    """Run the synchronous DP for k iterations from the source.

    When the DP reaches its fixpoint before k, both histories are padded
    with that snapshot to k + 1 entries; the predecessor records are the
    ones a full k-iteration run would make.
    """
    if k < 0:
        raise ValueError("length bound must be nonnegative")
    dp = _IntegerDP(WalkArcs(graph, matching), source)

    def snapshot(y: list[Optional[int]]) -> tuple[Entry, ...]:
        return tuple(None if e is None else Fraction(e, graph.scale) for e in y)

    history1 = [snapshot(dp.y1)]
    history2 = [snapshot(dp.y2)]
    pred1: dict[tuple[int, int], int] = {}
    pred2: dict[tuple[int, int], int] = {}
    for i, commits1, commits2 in dp.iterations(k):
        for v, u, _value in commits1:
            pred1[(i, v)] = u
        for v, u, _value in commits2:
            pred2[(i, v)] = u
        history1.append(snapshot(dp.y1))
        history2.append(snapshot(dp.y2))
    history1 += [history1[-1]] * (k + 1 - len(history1))
    history2 += [history2[-1]] * (k + 1 - len(history2))
    return WalkTables(
        graph, matching, source, k,
        tuple(history1), tuple(history2), pred1, pred2,
    )


def reconstruct_walk(tables: WalkTables, v: int, table: int) -> AlternatingWalk:
    """An sv-walk whose value equals the requested table entry.

    Follows predecessor records backward through iteration snapshots; the
    result re-evaluates to the entry and has length at most k. Validity is
    guaranteed for the characterized entries (table 1 at exposed vertices,
    table 2 at covered ones).
    """
    if table not in (1, 2):
        raise ValueError("table must be 1 or 2")
    final = (tables.y1 if table == 1 else tables.y2)[v]
    if final is None:
        raise EntryIsMinusInfinity(f"y{table}({v}) is -infinity")

    vertices = [v]
    vertex, tab, bound, target = v, table, tables.k, final
    while True:
        history = tables.history1 if tab == 1 else tables.history2
        first = next(
            (i for i in range(bound + 1) if history[i][vertex] == target), None
        )
        if first is None:
            raise InconsistentWalkTables(
                f"y{tab}({vertex}) is never {target} within {bound} iterations"
            )
        if first == 0:
            if vertex != tables.source:
                raise InconsistentWalkTables(
                    f"the walk to {v} starts at {vertex}, not at the source {tables.source}"
                )
            break
        pred = (tables.pred1 if tab == 1 else tables.pred2)[(first, vertex)]
        w = tables.graph.weight(pred, vertex)
        if tab == 1:
            tab, target = 2, target - w
        else:
            tab, target = 1, target + w
        vertex, bound = pred, first - 1
        vertices.append(vertex)
    vertices.reverse()
    walk = AlternatingWalk.from_vertices(tables.graph, tables.matching, vertices)
    value = walk_value(walk, tables.graph, tables.matching)
    if value != final:
        raise InconsistentWalkTables(
            f"the walk to {v} has value {value}, not y{table}({v}) = {final}"
        )
    # each step back takes a smaller iteration, so the trace above cannot
    # exceed the bound; this guards the trace itself
    if len(walk) > tables.k:
        raise InconsistentWalkTables(
            f"the walk to {v} has length {len(walk)} > k = {tables.k}"
        )
    return walk


def first_pass_scan(
    graph: WeightedGraph, matching: Matching, root: int, k: int
) -> tuple[bool, Optional[int]]:
    """(flower_at_root, walk_to_covered) for an exposed root and walk length
    bound k; the M-vertex-stabilizer passes k = 3n.

    flower_at_root: an augmenting root-root walk of length <= k exists.
    walk_to_covered: when there is no such flower, the lowest covered v
    reached by an augmenting walk of length <= k, else None.

    Entries never decrease, so the scan stops as soon as y1(root) > 0: the
    flower verdict is then fixed and outranks any walk to a covered vertex,
    which is reported as None. A walk to a covered vertex does not stop the
    scan, because a later flower still outranks it.
    """
    return WalkArcs(graph, matching).first_pass_scan(root, k, frozenset())


def second_pass_scan(
    graph: WeightedGraph, matching: Matching, root: int, k: int, deleted: AbstractSet[int]
) -> Optional[int]:
    """The lowest exposed v other than the root and not in `deleted` that an
    augmenting walk of length <= k reaches from the exposed root, or None;
    the M-vertex-stabilizer passes k = n.

    `deleted` is a set S of exposed vertices other than the root, whose
    stars count as deleted: the scan runs on the graph as given but writes
    no DP entry at S, so it makes the iterations and returns the verdict of
    the graph without the edges at S (see `mstab`).
    """
    return WalkArcs(graph, matching).second_pass_scan(root, k, deleted)
