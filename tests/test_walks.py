from __future__ import annotations

import inspect
import random
import sys

import pytest

from conftest import random_graph, random_matching
from matchstab import oracle
from matchstab.errors import EntryIsMinusInfinity, VertexNotExposed
from matchstab.graph import AlternatingWalk, Matching, WeightedGraph, walk_value
from matchstab.walks import (
    detect_structures,
    extract_augmenting_structure,
    optimal_walks,
    reconstruct_walk,
)


def _triangle_flower():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    return g, Matching.from_pairs([(1, 2)])


def test_k0_exposed_source():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 0)
    assert t.y1[0] == 0 and t.y2[0] == 0
    assert t.y1[1] is None and t.y2[1] is None


def test_single_edge_walk():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    t = optimal_walks(g, Matching.empty(), 0, 1)
    assert t.y1[1] == 5
    walk = reconstruct_walk(t, 1, 1)
    assert walk.vertices == (0, 1)


def test_triangle_flower_value():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 3)
    assert t.y1[0] == 2
    walk = reconstruct_walk(t, 0, 1)
    assert walk_value(walk, g, m) == 2
    assert walk.vertices[0] == walk.vertices[-1] == 0
    assert len(walk) <= 3


def test_reconstruct_empty_walk_and_sentinel():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 0)
    assert reconstruct_walk(t, 0, 1).vertices == (0,)
    with pytest.raises(EntryIsMinusInfinity):
        reconstruct_walk(t, 1, 1)


def test_tables_are_monotone():
    rng = random.Random(321)
    for _ in range(40):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        t = optimal_walks(g, m, s, 7)
        for history in (t.history1, t.history2):
            for earlier, later in zip(history, history[1:]):
                for a, b in zip(earlier, later):
                    assert a is None or (b is not None and b >= a)


def test_dp_equals_enumeration_per_iteration():
    rng = random.Random(424)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        k = rng.randint(0, 8)
        t = optimal_walks(g, m, s, k)
        brute = oracle.optimal_walk_values(g, m, s, k)
        for i in range(k + 1):
            for v in range(g.n):
                got = t.history2[i][v] if m.covers(v) else t.history1[i][v]
                assert brute[i][v] == got


def test_reconstruction_matches_entries_and_is_valid():
    rng = random.Random(88)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        k = rng.randint(0, 8)
        t = optimal_walks(g, m, s, k)
        for v in range(g.n):
            table = 2 if m.covers(v) else 1
            entry = (t.y2 if table == 2 else t.y1)[v]
            if entry is None:
                continue
            walk = reconstruct_walk(t, v, table)
            assert walk.is_valid(m)
            assert walk_value(walk, g, m) == entry
            assert len(walk) <= k


def test_reconstruct_long_walk_without_recursion():
    # a 200-edge augmenting path: 0-1 unmatched (2), 1-2 matched (1), ...
    n = 201
    g = WeightedGraph.from_edges(n, [(i, i + 1, 2 if i % 2 == 0 else 1) for i in range(n - 1)])
    m = Matching.from_pairs((i, i + 1) for i in range(1, n - 1, 2))
    t = optimal_walks(g, m, 0, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        walk = reconstruct_walk(t, n - 1, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert walk.vertices == tuple(range(n))
    assert walk_value(walk, g, m) == 100


def test_extract_structure_from_long_walk_without_recursion():
    # 400 edges around the 4-cycle 0-1-2-3 (3, 1, 3, 1), M = {12, 03}
    g = WeightedGraph.from_edges(4, [(0, 1, 3), (1, 2, 1), (2, 3, 3), (0, 3, 1)])
    m = Matching.from_pairs([(1, 2), (0, 3)])
    walk = AlternatingWalk.from_vertices(g, m, [i % 4 for i in range(401)])
    assert walk_value(walk, g, m) == 400
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        structure = extract_augmenting_structure(g, m, walk)
    finally:
        sys.setrecursionlimit(limit)
    assert structure.kind == "cycle"
    assert structure.pieces == ((0, 1, 2, 3, 0),)


def test_short_tables_are_the_prefix_of_the_long_run(property_suite):
    rng = random.Random(515)
    for g in property_suite:
        m = random_matching(rng, g)
        for root in range(g.n):
            if m.covers(root):
                continue
            short = detect_structures(g, m, root).short_tables
            alone = optimal_walks(g, m, root, g.n)
            assert (short.source, short.k) == (alone.source, alone.k)
            assert short.history1 == alone.history1
            assert short.history2 == alone.history2
            assert short.pred1 == alone.pred1
            assert short.pred2 == alone.pred2


def test_run_stopped_at_fixpoint_keeps_k_plus_one_snapshots():
    g, m = _triangle_flower()
    k = 50
    t = optimal_walks(g, m, 0, k)
    assert len(t.history1) == len(t.history2) == k + 1
    # nothing improves after the flower closes at iteration 3
    assert all(h == t.history1[3] for h in t.history1[3:])
    assert all(h == t.history2[3] for h in t.history2[3:])
    assert max(i for i, _v in (*t.pred1, *t.pred2)) <= 3
    assert t.y1[0] == 2
    assert oracle.optimal_walk_values(g, m, 0, 8)[8][0] == t.y1[0]


def test_detect_structures_examples():
    g, m = _triangle_flower()
    scan = detect_structures(g, m, 0)
    assert scan.flower_at_root
    assert scan.walk_to_covered is None

    single = WeightedGraph.from_edges(2, [(0, 1, 3)])
    scan = detect_structures(single, Matching.empty(), 0)
    assert scan.walk_to_exposed == 1 and not scan.flower_at_root

    path = WeightedGraph.from_edges(3, [(0, 1, 3), (1, 2, 2)])
    scan = detect_structures(path, Matching.from_pairs([(1, 2)]), 0)
    assert scan.walk_to_covered == 2

    with pytest.raises(VertexNotExposed):
        detect_structures(path, Matching.from_pairs([(1, 2)]), 1)


def test_flower_extraction_from_triangle():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 3)
    walk = reconstruct_walk(t, 0, 1)
    structure = extract_augmenting_structure(g, m, walk)
    assert structure.kind == "flower" and structure.root == 0


def test_every_augmenting_walk_decomposes():
    rng = random.Random(999)
    found = 0
    for _ in range(120):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        for u in exposed:
            scan = detect_structures(g, m, u)
            targets = []
            if scan.flower_at_root:
                targets.append((u, 1, scan.long_tables))
            if scan.walk_to_covered is not None:
                targets.append((scan.walk_to_covered, 2, scan.long_tables))
            if scan.walk_to_exposed is not None:
                targets.append((scan.walk_to_exposed, 1, scan.short_tables))
            for v, table, tables in targets:
                walk = reconstruct_walk(tables, v, table)
                if walk_value(walk, g, m) <= 0:
                    continue
                structure = extract_augmenting_structure(g, m, walk)
                assert structure.kind in ("path", "cycle", "flower", "bicycle")
                if structure.kind == "flower":
                    assert structure.root in (walk.vertices[0], walk.vertices[-1])
                if structure.kind == "path":
                    assert {structure.pieces[0][0], structure.pieces[0][-1]} == \
                        {walk.vertices[0], walk.vertices[-1]}
                found += 1
    assert found > 50  # the random suite must actually exercise the extractor
