"""Edmonds' alternating-tree search with blossom shrinking, tree-local, and
the auxiliary graph G' that the cycle minimizer runs it on.

The search is rooted: it either returns an augmenting path from the root
(fully expanded through all shrunken blossoms, simple in the input graph)
or a frustrated-tree certificate whose nodes the caller marks dead. A later
search never enters a dead node, as if it were deleted from the graph.

The arrays of a search (`TreeSearch`) are allocated once per graph and
matching and shared by every tree grown there. A search reads and writes
only the entries of its own tree's nodes and puts them back when it ends,
so it costs time in the size of its tree, not of the graph.

G' (`AuxiliaryGraph`) is built from an optimal pair alone
(`build_auxiliary`), so a checker can rebuild it without the solver: this
module reads only `graph` and `errors` of the package. Each row of G' has
one form, a sorted list, or the shared `()` while its node has no edge.
The build collects each row and sorts it once; after that, the edits a
move makes (link, unlink, expanding a pseudonode, attaching or detaching a
zero-cover vertex's z edge or shadow gadget) insert and delete in place
with `bisect`, so a move costs time in the rows it touches, and a G' after
a move equals the one rebuilt from the new pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from typing import AbstractSet, NamedTuple, Optional, Sequence, Union

from .errors import VertexNotExposed
from .graph import BasicFractionalMatching, FractionalVertexCover, WeightedGraph


class AugmentingPath(NamedTuple):
    """Simple alternating path between two exposed vertices, root first."""

    vertices: tuple[int, ...]


class FrustratedTree(NamedTuple):
    """Alternating tree with no augmenting edge leaving its even side.

    It is read off the arrays of the graph's `TreeSearch` just before
    `grow_tree` resets the tree's entries, so it holds the tree's nodes and
    nothing else. `even`/`odd` classify them by their distance parity from
    the root in the shrunken sense: blossom vertices all count as even.
    `base` maps each tree node to its blossom base at termination (a node
    outside the tree is its own base), so the frustration condition can be
    checked edge by edge (an even vertex may neighbor another even vertex
    only inside its own blossom).
    """

    nodes: frozenset[int]
    even: frozenset[int]
    odd: frozenset[int]
    base: dict[int, int]


GrowResult = Union[AugmentingPath, FrustratedTree]


class TreeSearch:
    """The arrays of the search on one graph and matching, shared by every
    tree grown there.

    `adjacency` is the unweighted graph as sorted neighbor lists (scan order
    is by lowest index, so results are deterministic) and `match` the
    matching as a mate table, `match[v]` being v's mate or None; both are
    kept as given and never written. Between searches the other arrays hold
    their initial state: `used` all False, `parent` all None, `base[v] = v`
    and `mark` all False. A search writes them only at its own tree's
    nodes, and `grow_tree` resets exactly those entries before it returns.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], match: Sequence[Optional[int]]) -> None:
        n = len(adjacency)
        self.adjacency, self.match = adjacency, match
        self.used = [False] * n
        self.parent: list[Optional[int]] = [None] * n
        self.base = list(range(n))
        self.mark = [False] * n


def _find_alternating(
    search: TreeSearch, root: int, dead: AbstractSet[int]
) -> tuple[int, list[int]]:
    """Core BFS with implicit blossom contraction via base classes.

    Returns (endpoint, nodes): endpoint is -1 when the tree is frustrated,
    and nodes are the tree's nodes in the order they joined it (the
    endpoint last). `search.used` marks even vertices, `search.parent` holds
    discovery edges for odd vertices (rewritten inside blossoms so path
    recovery works). `search.mark` is scratch space, clear again on return.
    """
    adjacency, match = search.adjacency, search.match
    used, parent, base, mark = search.used, search.parent, search.base, search.mark
    nodes = [root]
    used[root] = True
    queue: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        seen = []
        x = a
        while True:
            x = base[x]
            mark[x] = True
            seen.append(x)
            if match[x] is None:
                break
            x = parent[match[x]]  # type: ignore[index]
        x = b
        while True:
            x = base[x]
            if mark[x]:
                break
            x = parent[match[x]]  # type: ignore[index]
        for y in seen:
            mark[y] = False
        return x

    def mark_path(v: int, b: int, child: int, in_blossom: list[int]) -> None:
        while base[v] != b:
            mate: int = match[v]  # type: ignore[assignment]
            for x in (base[v], base[mate]):
                mark[x] = True
                in_blossom.append(x)
            parent[v] = child
            child = mate
            v = parent[mate]  # type: ignore[assignment]

    while queue:
        v = queue.popleft()
        for to in adjacency[v]:
            if to in dead or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] is not None and parent[match[to]] is not None):
                # edge between two even vertices: contract the blossom. Only
                # tree nodes have a marked base, and the new even ones join
                # the queue in increasing order, as a scan of all nodes
                # would queue them
                cur_base = lca(v, to)
                in_blossom: list[int] = []
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                joined = []
                for i in nodes:
                    if mark[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            joined.append(i)
                for x in in_blossom:
                    mark[x] = False
                for i in sorted(joined):
                    used[i] = True
                    queue.append(i)
            elif parent[to] is None:
                parent[to] = v
                nodes.append(to)
                mate = match[to]
                if mate is None:
                    return to, nodes
                used[mate] = True
                nodes.append(mate)
                queue.append(mate)
    return -1, nodes


def grow_tree(search: TreeSearch, root: int, dead: AbstractSet[int]) -> GrowResult:
    """Grow an alternating tree at an exposed root; augment or frustrate.

    `search` holds the graph, the matching and the arrays that earlier
    trees on them were grown with; they are back in their initial state
    when this returns. The tree never enters a node of `dead`, which must
    hold no node matched to a live one; the result is then the one on the
    graph with `dead` cut out.
    """
    match = search.match
    if match[root] is not None:
        raise VertexNotExposed(f"root {root} is covered")
    used, parent, base = search.used, search.parent, search.base
    endpoint, nodes = _find_alternating(search, root, dead)
    result: GrowResult
    if endpoint >= 0:
        path = [endpoint]
        v: Optional[int] = endpoint
        while True:
            pv: int = parent[v]  # type: ignore[index, assignment]
            path.append(pv)
            if match[pv] is None:
                break
            path.append(match[pv])
            v = match[pv]
        path.reverse()
        result = AugmentingPath(tuple(path))
    else:
        even = frozenset(i for i in nodes if used[i])
        odd = frozenset(i for i in nodes if not used[i])
        result = FrustratedTree(even | odd, even, odd, {i: base[i] for i in nodes})
    for i in nodes:
        used[i] = False
        parent[i] = None
        base[i] = i
    return result


# ---------------------------------------------------------------------------
# the auxiliary graph G' of the cycle minimizer


class AuxiliaryGraph(NamedTuple):
    """The unweighted search graph G' with its matching M' and back-maps.

    Node ids give the kind: original vertices keep their ids, z is `n`, the
    shadow of v is `n + 1 + v`, and the pseudonode of a cycle is `2n + 1`
    plus the cycle's lowest vertex, so a node keeps its id while G' changes
    with x. `adjacency` holds a row for each id: a sorted list that the
    edits below change in place, or the shared `()` for an id without an
    edge, as every id that stands for no node is. `mate` is M' over all
    ids: the pairs of x, and v-v' for each shadow. `cycle_of` maps each
    pseudonode to its cycle, in the sorted order of x's cycles, and
    `node_of` each cycle vertex to its pseudonode. Which vertex of a cycle
    a search edge at its pseudonode stands for is not kept: a move works
    it out where it reads it (`cycles._entry_vertex`).
    """

    n: int
    adjacency: list[Sequence[int]]
    mate: list[Optional[int]]
    cycle_of: dict[int, tuple[int, ...]]
    node_of: dict[int, int]

    def kind(self, node: int) -> str:
        n = self.n
        if node < n:
            return "vertex"
        if node == n:
            return "z"
        if node <= 2 * n:
            return "shadow"
        return "cycle"

    def link(self, a: int, b: int) -> None:
        """Add the edge ab, unless G' has it."""
        for p, q in ((a, b), (b, a)):
            row = self.adjacency[p] or []
            i = bisect_left(row, q)
            if i == len(row) or row[i] != q:
                row.insert(i, q)
                self.adjacency[p] = row

    def unlink(self, a: int, b: int) -> None:
        """Remove the edge ab, if G' has it; a row left empty becomes `()`."""
        for p, q in ((a, b), (b, a)):
            row = self.adjacency[p]
            i = bisect_left(row, q)
            if i < len(row) and row[i] == q:
                del row[i]
                self.adjacency[p] = row or ()

    def expand(self, node: int) -> tuple[int, ...]:
        """Remove the pseudonode `node` with its edges and return its cycle,
        whose vertices stand for themselves again, with no edge yet."""
        row, self.adjacency[node] = self.adjacency[node], ()
        for b in row:
            self.unlink(b, node)
        cycle = self.cycle_of.pop(node)
        for v in cycle:
            del self.node_of[v]
        return cycle

    def _gadget(self, v: int, load: int) -> tuple[tuple[int, int], ...]:
        """The edges of the zero-cover vertex v, whose load 2x(delta(v)) is
        `load`: the z edge of the node v stands for when v is covered, or
        the gadget v-v'-z of an exposed v, whose v-v' this puts in M'."""
        z = self.n
        if load:
            return ((self.node_of.get(v, v), z),)
        shadow = z + 1 + v
        self.mate[v], self.mate[shadow] = shadow, v
        return ((v, shadow), (shadow, z))

    def attach(self, v: int, load: int) -> None:
        """Give the zero-cover vertex v of load `load` its z edge or shadow
        gadget."""
        for a, b in self._gadget(v, load):
            self.link(a, b)

    def detach(self, v: int) -> None:
        """Take the vertex v's z edge or shadow gadget, whichever it has, out
        of G', and its shadow out of M'."""
        z, shadow = self.n, self.n + 1 + v
        for a, b in ((v, z), (v, shadow), (shadow, z)):
            self.unlink(a, b)
        self.mate[shadow] = None


def build_auxiliary(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
    tight: frozenset[int],
) -> AuxiliaryGraph:
    """Construct G' and M' from a pair already proven optimal under `cover`,
    whose tight edge set is `tight`.

    Only tight edges survive; vz edges appear at covered zero-cover vertices,
    shadow gadgets at exposed zero-cover vertices, and every support cycle is
    shrunk into a pseudonode. Each row is collected and sorted once, and
    only the nodes with an edge get a row of their own.
    """
    n = graph.n
    cycle_of = {2 * n + 1 + c[0]: c for c in bfm.odd_cycles}
    # a cycle vertex stands for its pseudonode, any other vertex for itself
    node_of = {v: node for node, c in cycle_of.items() for v in c}
    aux = AuxiliaryGraph(n, [()] * (3 * n + 1), [None] * (3 * n + 1), cycle_of, node_of)
    for u, v in bfm.matched.pairs:
        aux.mate[u], aux.mate[v] = v, u
    edges = [(node_of.get(u, u), node_of.get(v, v)) for u, v in map(graph.ends.__getitem__, tight)]
    for v, a_v in enumerate(cover.int_values):
        if a_v == 0:
            edges += aux._gadget(v, bfm.vertex_halves[v])
    rows: defaultdict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        if a != b:  # else an intra-cycle edge or a chord of a shrunk cycle
            rows[a].add(b)
            rows[b].add(a)
    for a, row in rows.items():
        aux.adjacency[a] = sorted(row)
    return aux
