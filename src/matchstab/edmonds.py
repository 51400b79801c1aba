"""Edmonds' alternating-tree search with blossom shrinking, desk-scale.

Used by the cycle minimizer to search the unweighted auxiliary graph. The
search is rooted: it either returns an augmenting path from the root (fully
expanded through all shrunken blossoms, simple in the input graph) or a
frustrated-tree certificate whose nodes the caller marks dead. A later search
never enters a dead node, as if it were deleted from the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence, Union

from .errors import VertexNotExposed
from .graph import Matching


@dataclass(frozen=True)
class AugmentingPath:
    """Simple alternating path between two exposed vertices, root first."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class FrustratedTree:
    """Alternating tree with no augmenting edge leaving its even side.

    `even`/`odd` classify nodes by their distance parity from the root in the
    shrunken sense: blossom vertices all count as even. `base` maps each tree
    vertex to its blossom base at termination, so the frustration condition
    can be checked edge by edge (an even vertex may neighbor another even
    vertex only inside its own blossom).
    """

    nodes: frozenset[int]
    even: frozenset[int]
    odd: frozenset[int]
    base: tuple[int, ...]


GrowResult = Union[AugmentingPath, FrustratedTree]


def _find_alternating(
    adjacency: Sequence[Sequence[int]],
    match: list[Optional[int]],
    root: int,
    dead: AbstractSet[int],
) -> tuple[int, list[Optional[int]], list[bool], list[int]]:
    """Core BFS with implicit blossom contraction via base classes.

    Returns (endpoint, parent, used, base); endpoint is -1 when the tree is
    frustrated. `used` marks even vertices, `parent` holds discovery edges for
    odd vertices (rewritten inside blossoms so path recovery works).
    """
    n = len(adjacency)
    used = [False] * n
    parent: list[Optional[int]] = [None] * n
    base = list(range(n))
    used[root] = True
    queue: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] is None:
                break
            x = parent[match[x]]  # type: ignore[index]
        x = b
        while True:
            x = base[x]
            if seen[x]:
                return x
            x = parent[match[x]]  # type: ignore[index]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            mate = match[v]
            assert mate is not None
            in_blossom[base[mate]] = True
            parent[v] = child
            child = mate
            v = parent[mate]  # type: ignore[assignment]

    while queue:
        v = queue.popleft()
        for to in adjacency[v]:
            if to in dead or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] is not None and parent[match[to]] is not None):
                # edge between two even vertices: contract the blossom
                cur_base = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] is None:
                parent[to] = v
                if match[to] is None:
                    return to, parent, used, base
                used[match[to]] = True
                queue.append(match[to])
    return -1, parent, used, base


def grow_tree(
    adjacency: Sequence[Sequence[int]],
    matching: Matching,
    root: int,
    dead: AbstractSet[int],
) -> GrowResult:
    """Grow an alternating tree at an exposed root; augment or frustrate.

    `adjacency` is the unweighted graph as sorted neighbor lists (scan order
    is by lowest index, so results are deterministic). The tree never enters
    a node of `dead`, which must hold no node matched to a live one; the
    result is then the one on the graph with `dead` cut out.
    """
    n = len(adjacency)
    if matching.covers(root):
        raise VertexNotExposed(f"root {root} is covered")
    match: list[Optional[int]] = [None] * n
    for u, v in matching.pairs:
        match[u] = v
        match[v] = u
    endpoint, parent, used, base = _find_alternating(adjacency, match, root, dead)
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
        return AugmentingPath(tuple(path))
    even = frozenset(i for i in range(n) if used[i])
    odd = frozenset(i for i in range(n) if parent[i] is not None and not used[i])
    return FrustratedTree(even | odd, even, odd, tuple(base))
