from __future__ import annotations

import itertools
import random
from collections import Counter, deque

import pytest

import matchstab.cycles
from conftest import bench_families
from matchstab.cycles import reduce_cycles
from matchstab.edmonds import AugmentingPath, FrustratedTree, TreeSearch, grow_tree
from matchstab.errors import VertexNotExposed
from matchstab.graph import Matching
from matchstab.instance import parse_instance


def _adjacency(n, pairs):
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def _augment(matching, path):
    """Symmetric difference of a matching with an augmenting path."""
    pairs = set(matching.pairs)
    for a, b in zip(path.vertices, path.vertices[1:]):
        pairs ^= {(min(a, b), max(a, b))}
    return Matching.from_pairs(pairs)


def _maximum_cardinality_matching(adjacency):
    """Grow trees from exposed vertices, lowest index first, until none
    augments."""
    matching = Matching.from_pairs([])
    improved = True
    while improved:
        improved = False
        for r in range(len(adjacency)):
            if not matching.covers(r):
                result = grow_tree(TreeSearch(adjacency, matching), r, frozenset())
                if isinstance(result, AugmentingPath):
                    matching = _augment(matching, result)
                    improved = True
    return matching


def test_isolated_root_is_frustrated():
    result = grow_tree(TreeSearch(_adjacency(1, []), Matching.from_pairs([])), 0, frozenset())
    assert isinstance(result, FrustratedTree)
    assert result.nodes == {0}


def test_three_path_with_matched_far_edge_is_frustrated():
    adj = _adjacency(3, [(0, 1), (1, 2)])
    result = grow_tree(TreeSearch(adj, Matching.from_pairs([(1, 2)])), 0, frozenset())
    assert isinstance(result, FrustratedTree)
    assert result.nodes == {0, 1, 2}
    assert result.even == {0, 2} and result.odd == {1}


def test_blossom_then_pendant_augments():
    # triangle {0,1,2} with 1-2 matched plus pendant 2-3; path must expand
    adj = _adjacency(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    result = grow_tree(TreeSearch(adj, Matching.from_pairs([(1, 2)])), 0, frozenset())
    assert isinstance(result, AugmentingPath)
    path = result.vertices
    assert path[0] == 0 and path[-1] == 3
    assert len(set(path)) == len(path)  # simple after blossom expansion
    new = _augment(Matching.from_pairs([(1, 2)]), result)
    assert len(new) == 2


def test_grow_tree_rejects_covered_root():
    m = Matching.from_pairs([(1, 2)])
    with pytest.raises(VertexNotExposed):
        grow_tree(TreeSearch(_adjacency(3, [(0, 1), (1, 2)]), m), 1, frozenset())


def _brute_max_matching_size(n, pairs):
    from functools import lru_cache

    adj = {v: [] for v in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)

    @lru_cache(maxsize=None)
    def best(mask):
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        out = best(mask & ~(1 << v))
        for u in adj[v]:
            if mask >> u & 1:
                out = max(out, 1 + best(mask & ~(1 << v) & ~(1 << u)))
        return out

    return best((1 << n) - 1)


def test_matches_brute_force_cardinality_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(1, 10)
        possible = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(possible, rng.randint(0, len(possible)))
        adj = _adjacency(n, pairs)
        matching = _maximum_cardinality_matching(adj)
        assert all(v in adj[u] for u, v in matching.pairs)
        assert len(matching) == _brute_max_matching_size(n, pairs)


def test_frustrated_tree_condition_and_path_shape():
    rng = random.Random(77)
    draw_dead = random.Random(78)  # its own stream, so the graphs stay the same
    for _ in range(120):
        n = rng.randint(1, 9)
        possible = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(possible, rng.randint(0, len(possible)))
        adj = _adjacency(n, pairs)
        matching = Matching.from_pairs([])
        # grow a partial matching greedily, then probe every exposed vertex
        for u, v in pairs:
            if not matching.covers(u) and not matching.covers(v) and rng.random() < 0.6:
                matching = Matching.from_pairs(list(matching.pairs) + [(u, v)])
        for r in range(n):
            if matching.covers(r):
                continue
            result = grow_tree(TreeSearch(adj, matching), r, frozenset())
            # a dead set of whole matched pairs and exposed vertices, never
            # the root, acts as if those nodes were cut out of the graph
            units = [
                pair for pair in sorted(matching.pairs) if draw_dead.random() < 0.3
            ] + [
                (v,) for v in range(n)
                if v != r and not matching.covers(v) and draw_dead.random() < 0.3
            ]
            dead = frozenset(v for unit in units for v in unit)
            cut = [
                [] if u in dead else [v for v in a if v not in dead]
                for u, a in enumerate(adj)
            ]
            assert grow_tree(TreeSearch(adj, matching), r, dead) == grow_tree(
                TreeSearch(cut, matching), r, frozenset()
            )
            if isinstance(result, AugmentingPath):
                verts = result.vertices
                assert verts[0] == r and len(verts) % 2 == 0
                assert len(set(verts)) == len(verts)
                assert not matching.covers(verts[-1])
                for i, (a, b) in enumerate(zip(verts, verts[1:])):
                    assert b in adj[a]
                    assert matching.contains_edge(a, b) == (i % 2 == 1)
            else:
                # every edge out of the even side returns to the odd side,
                # up to vertices merged into the same blossom
                for u in result.even:
                    for v in adj[u]:
                        assert (
                            v in result.odd or result.base[u] == result.base[v]
                        ), (pairs, sorted(matching.pairs), r, u, v)


def _reference_find_alternating(adjacency, match, root, dead):
    """The search as it ran before `TreeSearch`: every array is allocated
    over all nodes per call, and a blossom contraction scans every node."""
    n = len(adjacency)
    used = [False] * n
    parent = [None] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lca(a, b):
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] is None:
                break
            x = parent[match[x]]
        x = b
        while True:
            x = base[x]
            if seen[x]:
                return x
            x = parent[match[x]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            mate = match[v]
            in_blossom[base[mate]] = True
            parent[v] = child
            child = mate
            v = parent[mate]

    while queue:
        v = queue.popleft()
        for to in adjacency[v]:
            if to in dead or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] is not None and parent[match[to]] is not None):
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


def _reference_grow_tree(adjacency, matching, root, dead):
    """`grow_tree` as it ran before `TreeSearch`, on the same arguments as
    the `TreeSearch` it is compared with. Returns the path, or the tree's
    nodes, even and odd sides and its base over all nodes."""
    n = len(adjacency)
    match = [None] * n
    for u, v in matching.pairs:
        match[u] = v
        match[v] = u
    endpoint, parent, used, base = _reference_find_alternating(adjacency, match, root, dead)
    if endpoint >= 0:
        path = [endpoint]
        v = endpoint
        while True:
            pv = parent[v]
            path.append(pv)
            if match[pv] is None:
                break
            path.append(match[pv])
            v = match[pv]
        path.reverse()
        return tuple(path)
    even = frozenset(i for i in range(n) if used[i])
    odd = frozenset(i for i in range(n) if parent[i] is not None and not used[i])
    return even | odd, even, odd, tuple(base)


class _RecordedSearch(TreeSearch):
    """A `TreeSearch` that keeps the matching it was built from, so the
    reference can be run on the same arguments, and counts its searches."""

    def __init__(self, adjacency, matching):
        super().__init__(adjacency, matching)
        self.matching = matching
        self.searches = 0


def _checked_grow_tree(search: _RecordedSearch, root, dead, seen: Counter):
    """`grow_tree` on the shared arrays, after asserting that it returns
    what a fresh reference search returns and leaves every array of the
    `TreeSearch` in its initial state."""
    n = len(search.adjacency)
    match = list(search.match)
    expected = _reference_grow_tree(search.adjacency, search.matching, root, dead)
    result = grow_tree(search, root, dead)
    reused = search.searches > 0
    search.searches += 1
    if isinstance(result, AugmentingPath):
        assert result.vertices == expected
        seen["augmenting"] += 1
        seen["augmenting on reused arrays"] += reused
    else:
        nodes, even, odd, base = expected
        assert (result.nodes, result.even, result.odd) == (nodes, even, odd)
        assert result.base == {i: base[i] for i in nodes}
        blossom = any(b != i for i, b in result.base.items())
        seen["frustrated"] += 1
        seen["blossom"] += blossom
        seen["blossom on reused arrays"] += blossom and reused
    seen["reused arrays"] += reused
    assert search.match == match
    assert search.used == [False] * n
    assert search.parent == [None] * n
    assert search.base == list(range(n))
    assert search.mark == [False] * n
    return result


def _reduce_cycles_checked(monkeypatch, graphs) -> Counter:
    """Run `reduce_cycles` on every graph, checking each of its searches
    with `_checked_grow_tree`."""
    seen: Counter = Counter()
    monkeypatch.setattr(matchstab.cycles, "TreeSearch", _RecordedSearch)
    monkeypatch.setattr(
        matchstab.cycles, "grow_tree",
        lambda search, root, dead: _checked_grow_tree(search, root, dead, seen),
    )
    for g in graphs:
        reduce_cycles(g)
    return seen


def test_tree_search_matches_the_reference_in_reduce_cycles(monkeypatch, property_suite):
    seen = _reduce_cycles_checked(monkeypatch, property_suite)
    assert seen["augmenting"] and seen["blossom"], seen


def test_tree_search_matches_the_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator
    families = bench_families(monkeypatch)
    graphs = [
        parse_instance(inst.to_json()).graph
        for workload in families.LADDERS
        for inst in families.Generator(workload, 7).round()
    ]
    seen = _reduce_cycles_checked(monkeypatch, graphs)
    assert seen["frustrated"] and seen["reused arrays"], seen


def test_tree_search_matches_the_reference_from_every_root():
    # one TreeSearch per graph and matching, grown from every exposed root
    # in turn, with each frustrated tree dead for the later ones, as
    # reduce_cycles does with its pseudonodes
    rng = random.Random(18)
    seen: Counter = Counter()
    for _ in range(300):
        n = rng.randint(1, 20)
        possible = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(possible, rng.randint(0, min(len(possible), 3 * n)))
        used: set[int] = set()
        matched = []
        for u, v in pairs:
            if u not in used and v not in used and rng.random() < 0.6:
                matched.append((u, v))
                used.update((u, v))
        search = _RecordedSearch(_adjacency(n, pairs), Matching.from_pairs(matched))
        dead: set[int] = set()
        for r in range(n):
            if r not in used and r not in dead:
                result = _checked_grow_tree(search, r, dead, seen)
                if isinstance(result, FrustratedTree):
                    dead.update(result.nodes)
    assert seen["augmenting on reused arrays"] and seen["blossom on reused arrays"], seen


def test_blossom_queues_its_new_even_nodes_in_index_order():
    # the smallest graph found where queueing a blossom's new even nodes in
    # the order they joined the tree, not by index, changes the result
    pairs = [
        (2, 3), (4, 6), (4, 5), (6, 7), (3, 5), (1, 8), (6, 8), (2, 7),
        (2, 10), (1, 9), (4, 9), (5, 9), (1, 3), (1, 10), (4, 7), (1, 6),
    ]
    matching = Matching.from_pairs([(2, 3), (4, 6), (1, 8), (5, 9)])
    search = _RecordedSearch(_adjacency(11, pairs), matching)
    result = _checked_grow_tree(search, 7, frozenset(), Counter())
    assert isinstance(result, AugmentingPath)
