"""Two-table dynamic program for optimal valid alternating walks.

For a source s and length bound k, iteration i improves y1(v) through
unmatched edges out of y2 and y2(v) through matched edges out of y1, with a
synchronous buffer so iteration i only sees length-(i-1) walks. After k
iterations, y2 at a covered vertex (and y1 at an exposed one) is the best
value of a valid alternating sv-walk of length at most k, with a None
sentinel when no such walk exists. Per-iteration snapshots and predecessor
records allow reconstructing an optimal walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EntryIsMinusInfinity, MNotAMatching, VertexNotExposed
from .graph import (
    AlternatingWalk,
    Matching,
    WeightedGraph,
    walk_value,
)

Entry = Optional[Fraction]  # None is the -infinity sentinel


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


def optimal_walks(
    graph: WeightedGraph, matching: Matching, source: int, k: int
) -> WalkTables:
    """Run the synchronous DP for k iterations from the source.

    An iteration reads only the previous snapshot, so once one commits no
    strict improvement, every later one would repeat it. The DP stops there
    and pads both histories with that snapshot to k + 1 entries; the
    predecessor records are the ones a full k-iteration run would make.
    """
    if k < 0:
        raise ValueError("length bound must be nonnegative")
    if not matching.is_matching_in(graph):
        raise MNotAMatching("matching uses edges outside the graph")
    n = graph.n
    zero = Fraction(0)
    # Each vertex's matched edge (partner, weight) or None, and its unmatched
    # edges in adjacency order, which is the order `pred1` ties break in.
    mate: list[Optional[tuple[int, Fraction]]] = [None] * n
    free: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for v in range(n):
        partner = matching.partner(v)
        for u, idx in graph.adjacency[v]:
            w = graph.edges[idx][2]
            if u == partner:
                mate[v] = (u, w)
            else:
                free[v].append((u, w))
    y1: list[Entry] = [None] * n
    y2: list[Entry] = [None] * n
    y1[source] = zero
    if not matching.covers(source):
        y2[source] = zero
    history1 = [tuple(y1)]
    history2 = [tuple(y2)]
    pred1: dict[tuple[int, int], int] = {}
    pred2: dict[tuple[int, int], int] = {}
    for i in range(1, k + 1):
        z1: list[Entry] = [None] * n
        z2: list[Entry] = [None] * n
        arg1: list[int] = [-1] * n
        for v in range(n):
            if mate[v] is not None:
                u, w = mate[v]
                if y1[u] is not None:
                    z2[v] = y1[u] - w
            best = None
            for u, w in free[v]:
                if y2[u] is not None:
                    cand = y2[u] + w
                    if best is None or cand > best:
                        best = cand
                        arg1[v] = u
            z1[v] = best
        changed = False
        for v in range(n):
            if z1[v] is not None and (y1[v] is None or z1[v] > y1[v]):
                y1[v] = z1[v]
                pred1[(i, v)] = arg1[v]
                changed = True
            if z2[v] is not None and (y2[v] is None or z2[v] > y2[v]):
                y2[v] = z2[v]
                pred2[(i, v)] = mate[v][0]
                changed = True
        if not changed:
            break
        history1.append(tuple(y1))
        history2.append(tuple(y2))
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
            i for i in range(bound + 1) if history[i][vertex] == target
        )
        if first == 0:
            assert vertex == tables.source
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
    assert walk_value(walk, tables.graph, tables.matching) == final
    assert len(walk) <= tables.k
    return walk


@dataclass(frozen=True)
class StructureScan:
    """What the walk DP found from one exposed root.

    flower_at_root: an augmenting uu-walk of length <= 3n exists.
    walk_to_covered: lowest covered v reachable by an augmenting walk (<= 3n).
    walk_to_exposed: lowest other exposed v with an augmenting walk (<= n).
    short_tables is the first n iterations of long_tables.
    """

    root: int
    flower_at_root: bool
    walk_to_covered: Optional[int]
    walk_to_exposed: Optional[int]
    long_tables: WalkTables
    short_tables: WalkTables


def detect_structures(
    graph: WeightedGraph, matching: Matching, root: int
) -> StructureScan:
    """Scan for augmenting structures anchored at an exposed vertex.

    One DP runs to 3n. The DP's iterations do not depend on its bound, so
    the n-table is that run's prefix: the first n + 1 snapshots and the
    predecessor records of iterations up to n, equal to a separate run to n.
    """
    if matching.covers(root):
        raise VertexNotExposed(f"vertex {root} is covered")
    n = graph.n
    long_tables = optimal_walks(graph, matching, root, 3 * n)
    flower = long_tables.y1[root] is not None and long_tables.y1[root] > 0
    walk_to_covered = next(
        (
            v
            for v in range(n)
            if matching.covers(v)
            and long_tables.y2[v] is not None
            and long_tables.y2[v] > 0
        ),
        None,
    )
    short_tables = WalkTables(
        graph, matching, root, n,
        long_tables.history1[: n + 1],
        long_tables.history2[: n + 1],
        {key: u for key, u in long_tables.pred1.items() if key[0] <= n},
        {key: u for key, u in long_tables.pred2.items() if key[0] <= n},
    )
    walk_to_exposed = next(
        (
            v
            for v in range(n)
            if v != root
            and not matching.covers(v)
            and short_tables.y1[v] is not None
            and short_tables.y1[v] > 0
        ),
        None,
    )
    return StructureScan(
        root, flower, walk_to_covered, walk_to_exposed, long_tables, short_tables
    )


# ---------------------------------------------------------------------------
# Walk decomposition (diagnostics and tests only): any augmenting walk must
# contain an augmenting path, cycle, flower at an endpoint, or bi-cycle.


@dataclass(frozen=True)
class AugmentingStructure:
    kind: str  # "path" | "cycle" | "flower" | "bicycle"
    # vertex sequences; blossoms are closed (first == last), paths are open
    pieces: tuple[tuple[int, ...], ...]
    root: Optional[int] = None


def _segments(
    verts: tuple[int, ...], flags: tuple[bool, ...]
) -> list[tuple[str, tuple[int, ...], tuple[bool, ...]]]:
    """Split a walk at its first repeated vertex, then the rest the same way.

    Segment kinds: open alternating "path", even alternating "cycle", odd
    "blossom" (closed, both end edges unmatched).
    """
    out: list[tuple[str, tuple[int, ...], tuple[bool, ...]]] = []
    while len(verts) > 1:
        seen: dict[int, int] = {}
        split = None
        for j, v in enumerate(verts):
            if v in seen:
                split = (seen[v], j)
                break
            seen[v] = j
        if split is None:
            out.append(("path", verts, flags))
            break
        i, j = split
        if i > 0:
            out.append(("path", verts[: i + 1], flags[:i]))
        kind = "cycle" if (j - i) % 2 == 0 else "blossom"
        out.append((kind, verts[i : j + 1], flags[i:j]))
        verts, flags = verts[j:], flags[j:]
    return out


def _piece_value(
    graph: WeightedGraph, verts: tuple[int, ...], flags: tuple[bool, ...]
) -> Fraction:
    total = Fraction(0)
    for (a, b), matched in zip(zip(verts, verts[1:]), flags):
        w = graph.weight(a, b)
        total += -w if matched else w
    return total


def extract_augmenting_structure(
    graph: WeightedGraph, matching: Matching, walk: AlternatingWalk
) -> AugmentingStructure:
    """Pull one augmenting path/cycle/flower/bi-cycle out of an augmenting walk."""
    verts, flags = walk.vertices, walk.matched_flags
    assert walk_value(walk, graph, matching) > 0, "walk must be augmenting"

    while True:
        segs = _segments(verts, flags)
        for kind, sv, sf in segs:
            if kind == "cycle" and _piece_value(graph, sv, sf) > 0:
                return AugmentingStructure("cycle", (sv,))
        if not any(kind == "cycle" for kind, _sv, _sf in segs):
            break
        new_verts: list[int] = [segs[0][1][0]]
        for kind, sv, _sf in segs:
            if kind == "cycle":
                continue
            new_verts.extend(sv[1:])
        verts = tuple(new_verts)
        rebuilt = AlternatingWalk.from_vertices(graph, matching, verts)
        flags = rebuilt.matched_flags

    candidates: list[AugmentingStructure] = []
    if len(segs) == 1:
        kind, sv, sf = segs[0]
        if kind == "path":
            candidates.append(AugmentingStructure("path", (sv,)))
        else:
            candidates.append(AugmentingStructure("flower", (sv, (sv[0],)), root=sv[0]))
    else:
        # only the end pairs are flowers rooted at the walk's endpoints
        first, second = segs[0], segs[1]
        if first[0] == "path" and second[0] == "blossom":
            candidates.append(
                AugmentingStructure("flower", (second[1], first[1]), root=first[1][0])
            )
        last, before = segs[-1], segs[-2]
        if before[0] == "blossom" and last[0] == "path":
            candidates.append(
                AugmentingStructure("flower", (before[1], last[1]), root=last[1][-1])
            )
        for a, b, c in zip(segs, segs[1:], segs[2:]):
            if a[0] == "blossom" and b[0] == "path" and c[0] == "blossom":
                candidates.append(AugmentingStructure("bicycle", (a[1], b[1], c[1])))

    for cand in candidates:
        if _structure_is_augmenting(graph, matching, cand):
            return cand
    raise AssertionError("augmenting walk without an augmenting structure")


def _structure_is_augmenting(
    graph: WeightedGraph, matching: Matching, structure: AugmentingStructure
) -> bool:
    def split(piece: tuple[int, ...]) -> tuple[Fraction, Fraction]:
        out_w = Fraction(0)
        in_w = Fraction(0)
        for a, b in zip(piece, piece[1:]):
            w = graph.weight(a, b)
            if matching.contains_edge(a, b):
                in_w += w
            else:
                out_w += w
        return out_w, in_w

    if structure.kind == "path":
        out_w, in_w = split(structure.pieces[0])
        return out_w > in_w
    if structure.kind == "cycle":
        out_w, in_w = split(structure.pieces[0])
        return out_w > in_w
    if structure.kind == "flower":
        blossom, path = structure.pieces
        c_out, c_in = split(blossom)
        p_out, p_in = split(path)
        return c_out + 2 * p_out > c_in + 2 * p_in
    blossom_a, path, blossom_b = structure.pieces
    a_out, a_in = split(blossom_a)
    p_out, p_in = split(path)
    b_out, b_in = split(blossom_b)
    return a_out + 2 * p_out + b_out > a_in + 2 * p_in + b_in
