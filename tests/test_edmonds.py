from __future__ import annotations

import itertools
import random

import pytest

from matchstab.edmonds import AugmentingPath, FrustratedTree, grow_tree
from matchstab.errors import VertexNotExposed
from matchstab.graph import Matching


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
    matching = Matching.empty()
    improved = True
    while improved:
        improved = False
        for r in range(len(adjacency)):
            if not matching.covers(r):
                result = grow_tree(adjacency, matching, r, frozenset())
                if isinstance(result, AugmentingPath):
                    matching = _augment(matching, result)
                    improved = True
    return matching


def test_isolated_root_is_frustrated():
    result = grow_tree(_adjacency(1, []), Matching.empty(), 0, frozenset())
    assert isinstance(result, FrustratedTree)
    assert result.nodes == {0}


def test_three_path_with_matched_far_edge_is_frustrated():
    adj = _adjacency(3, [(0, 1), (1, 2)])
    result = grow_tree(adj, Matching.from_pairs([(1, 2)]), 0, frozenset())
    assert isinstance(result, FrustratedTree)
    assert result.nodes == {0, 1, 2}
    assert result.even == {0, 2} and result.odd == {1}


def test_blossom_then_pendant_augments():
    # triangle {0,1,2} with 1-2 matched plus pendant 2-3; path must expand
    adj = _adjacency(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    result = grow_tree(adj, Matching.from_pairs([(1, 2)]), 0, frozenset())
    assert isinstance(result, AugmentingPath)
    path = result.vertices
    assert path[0] == 0 and path[-1] == 3
    assert len(set(path)) == len(path)  # simple after blossom expansion
    new = _augment(Matching.from_pairs([(1, 2)]), result)
    assert len(new) == 2


def test_grow_tree_rejects_covered_root():
    m = Matching.from_pairs([(1, 2)])
    with pytest.raises(VertexNotExposed):
        grow_tree(_adjacency(3, [(0, 1), (1, 2)]), m, 1, frozenset())


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
        matching = Matching.empty()
        # grow a partial matching greedily, then probe every exposed vertex
        for u, v in pairs:
            if not matching.covers(u) and not matching.covers(v) and rng.random() < 0.6:
                matching = Matching.from_pairs(list(matching.pairs) + [(u, v)])
        for r in range(n):
            if matching.covers(r):
                continue
            result = grow_tree(adj, matching, r, frozenset())
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
            assert grow_tree(adj, matching, r, dead) == grow_tree(
                cut, matching, r, frozenset()
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
