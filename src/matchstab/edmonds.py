"""Edmonds' alternating-tree search with blossom shrinking, tree-local.

Used by the cycle minimizer to search the unweighted auxiliary graph. The
search is rooted: it either returns an augmenting path from the root (fully
expanded through all shrunken blossoms, simple in the input graph) or a
frustrated-tree certificate whose nodes the caller marks dead. A later search
never enters a dead node, as if it were deleted from the graph.

The arrays of a search (`TreeSearch`) are allocated once per graph and
matching and shared by every tree grown there. A search reads and writes
only the entries of its own tree's nodes and puts them back when it ends,
so it costs time in the size of its tree, not of the graph.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, NamedTuple, Optional, Sequence, Union

from .errors import VertexNotExposed


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
            mate = match[v]
            assert mate is not None
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
            pv = parent[v]  # type: ignore[index]
            assert pv is not None
            path.append(pv)
            if match[pv] is None:
                break
            path.append(match[pv])
            v = match[pv]
        path.reverse()
        assert path[0] == root
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
