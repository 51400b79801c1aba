"""The walk trace-back: an optimal walk rebuilt from the walk DP's histories.

`matchstab.walks.optimal_walks` returns the DP's per-iteration tables and no
walk: the M-vertex-stabilizer decides each deletion by the value of an
optimal walk alone. The tests rebuild the walks themselves here, from the
histories, as the reference for what a table entry means.

A commit at iteration i is a change from `history[i - 1]` to `history[i]`,
and its predecessor follows from the two snapshots:

- a y2 commit at v came through v's matched arc, so its predecessor is v's
  partner;
- a y1 commit at v came through a free arc, as the first maximum of
  y2_{i-1}(u) + w_uv over v's free neighbours u in `graph.adjacency`
  order, so its predecessor is the first neighbour u there with
  y2_{i-1}(u) + w_uv = y1_i(v). v's partner never qualifies on the DP's
  tables: its y2 came from a y1(v) of an earlier iteration, which is below
  y1_i(v). So this is the first free one, the DP's own tie-break.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from matchstab.errors import GraphError, MatchstabError
from matchstab.graph import Matching, WeightedGraph, _Value
from matchstab.walks import WalkTables


class NotAlternating(MatchstabError, ValueError):
    """Walk edges do not alternate between matched and unmatched."""


class EntryIsMinusInfinity(MatchstabError, ValueError):
    """Requested walk-table entry is the -infinity sentinel."""


class InconsistentWalkTables(MatchstabError, ValueError):
    """Walk tables do not rebuild a walk from the source with the entry's
    value and a length within the bound."""


class AlternatingWalk(_Value):
    """A walk with per-edge matched flags relative to some matching.

    Vertices may repeat; edges are implied by consecutive vertices.
    """

    _fields = ("vertices", "matched_flags")

    def __init__(self, vertices: tuple[int, ...], matched_flags: tuple[bool, ...]) -> None:
        self.vertices, self.matched_flags = vertices, matched_flags

    @staticmethod
    def from_vertices(
        graph: WeightedGraph, matching: Matching, vertices: Sequence[int]
    ) -> "AlternatingWalk":
        verts = tuple(vertices)
        flags = []
        for a, b in zip(verts, verts[1:]):
            if not graph.has_edge(a, b):
                raise GraphError(f"walk step ({a},{b}) is not an edge")
            flags.append(matching.contains_edge(a, b))
        return AlternatingWalk(verts, tuple(flags))

    def __len__(self) -> int:
        return len(self.matched_flags)

    @property
    def is_alternating(self) -> bool:
        return all(a != b for a, b in zip(self.matched_flags, self.matched_flags[1:]))


def walk_value(walk: AlternatingWalk, graph: WeightedGraph, matching: Matching) -> Fraction:
    """w(walk \\ M) - w(walk ∩ M), counting repeated edges with multiplicity."""
    if not walk.is_alternating:
        raise NotAlternating("walk edges do not alternate with the matching")
    total = Fraction(0)
    for (a, b), flag in zip(zip(walk.vertices, walk.vertices[1:]), walk.matched_flags):
        if flag != matching.contains_edge(a, b):
            raise NotAlternating("walk flags disagree with the matching")
        w = graph.weight(a, b)
        total += -w if flag else w
    return total


def first_predecessor(arcs, y2, value) -> Optional[int]:
    """The first u of `arcs`, (u, w) pairs in adjacency order, with
    y2[u] + w == value; None when there is none."""
    return next((u for u, w in arcs if y2[u] is not None and y2[u] + w == value), None)


def predecessor(tables: WalkTables, v: int, table: int, i: int) -> Optional[int]:
    """The predecessor of the commit to y`table`(v) at iteration i >= 1;
    None for a y1 commit that no neighbour explains."""
    if table == 2:
        return tables.matching.partner(v)
    graph = tables.graph
    arcs = [(u, graph.weight(u, v)) for u, _idx in graph.adjacency[v]]
    return first_predecessor(arcs, tables.history2[i - 1], tables.history1[i][v])


def predecessors(tables: WalkTables) -> tuple[dict, dict]:
    """(pred1, pred2): for each commit to y1, and to y2, at iteration i,
    {(i, v): its predecessor}, read off the histories."""
    out: tuple[dict, dict] = ({}, {})
    for table, (history, pred) in enumerate(zip((tables.history1, tables.history2), out), 1):
        for i in range(1, len(history)):
            for v, (old, new) in enumerate(zip(history[i - 1], history[i])):
                if new != old:
                    pred[(i, v)] = predecessor(tables, v, table, i)
    return out


def reconstruct_walk(tables: WalkTables, v: int, table: int) -> AlternatingWalk:
    """An sv-walk whose value equals the requested table entry.

    Steps back through the iteration snapshots, from each commit to its
    predecessor; the result re-evaluates to the entry and has length at
    most k. Validity is guaranteed for the characterized entries (table 1
    at exposed vertices, table 2 at covered ones).
    """
    if table not in (1, 2):
        raise ValueError("table must be 1 or 2")
    if not 0 <= v < tables.graph.n:
        raise ValueError(f"vertex {v} is not in the graph")
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
        pred = predecessor(tables, vertex, tab, first)
        if pred is None:
            raise InconsistentWalkTables(
                f"y{tab}({vertex}) = {target} at iteration {first} comes from no neighbour"
            )
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
