from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import delete_vertices, fig8, fig9, random_graph, random_matching
from matchstab import oracle
from matchstab.errors import BudgetExceeded
from matchstab.graph import Matching, WeightedGraph


def test_nu_values():
    assert oracle.exact_nu(fig8())[0] == 8
    assert oracle.exact_nu(fig9())[0] == 5
    assert oracle.exact_nu(WeightedGraph.from_edges(0, []))[0] == 0


def test_nu_f_values():
    assert oracle.exact_nu_f(fig8()) == 9
    assert oracle.exact_nu_f(WeightedGraph.from_edges(2, [(0, 1, 7)])) == 7


def test_weak_duality_self_consistency():
    rng = random.Random(111)
    for _ in range(100):
        g = random_graph(rng)
        assert oracle.exact_nu(g)[0] <= oracle.exact_nu_f(g)


def test_nu_witness_is_a_maximum_matching():
    rng = random.Random(222)
    for _ in range(50):
        g = random_graph(rng)
        value, witness = oracle.exact_nu(g)
        assert witness.is_matching_in(g)
        assert witness.weight(g) == value


def test_stability_fixtures():
    assert not oracle.is_stable(fig8())
    g = fig8().delete_edges([0])  # remove qr
    assert oracle.is_stable(g)
    assert oracle.exact_nu(g)[0] == 7
    assert oracle.is_stable(WeightedGraph.from_edges(2, [(0, 1, 1)]))


def test_fig8_single_edge_deletions():
    g = fig8()
    for i in range(g.m):
        assert oracle.is_stable(g.delete_edges([i])) == (i == 0)
    # pq is index 2, pr is index 6
    assert oracle.exact_nu_f(g.delete_edges([2])) == Fraction(17, 2)
    assert oracle.exact_nu_f(g.delete_edges([6])) == Fraction(17, 2)
    # deleting st leaves nu = 7 and nu_f = 8
    st = g.delete_edges([1])
    assert oracle.exact_nu(st)[0] == 7
    assert oracle.exact_nu_f(st) == 8


def test_fig9_vertex_deletions():
    g = fig9()
    for v in (0, 1, 2):
        rest, _keep = delete_vertices(g, [v])
        assert oracle.exact_nu(rest)[0] == 4


def test_min_stabilizer_fixtures():
    assert oracle.brute_min_vertex_stabilizer(fig9()) == frozenset({0})
    assert len(oracle.brute_min_edge_stabilizer(fig8())) == 1
    assert oracle.brute_min_edge_stabilizer(fig8()) == frozenset({0})  # qr
    m = Matching.from_pairs([(1, 2), (0, 3)])
    assert oracle.brute_min_m_stabilizer(fig9(), m) == oracle.INFEASIBLE


def test_budgets_fail_loudly():
    big = WeightedGraph.from_edges(13, [(0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        oracle.exact_nu(big)
    mid = WeightedGraph.from_edges(9, [(0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        oracle.brute_min_vertex_stabilizer(mid)
    with pytest.raises(BudgetExceeded):
        oracle.enumerate_valid_walks(
            WeightedGraph.from_edges(2, [(0, 1, 1)]), Matching.from_pairs([]), 0, 99
        )


def test_table_caches_stay_bounded():
    # the edge search builds the ν memo and the table of one edge-deleted
    # graph per subset; two disjoint triangles need two deletions, so it
    # tries ten subsets
    two_triangles = WeightedGraph.from_edges(
        6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
    )
    tables = (oracle._nu_memo, oracle._basic_table)
    for table in tables:
        table.cache_clear()
    assert len(oracle.brute_min_edge_stabilizer(two_triangles)) == 2
    for table in tables:
        info = table.cache_info()
        assert info.misses > oracle.TABLE_CACHE_SIZE
        assert info.currsize <= oracle.TABLE_CACHE_SIZE


def test_walk_enumeration_examples():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    walks = oracle.enumerate_valid_walks(g, Matching.from_pairs([]), 0, 1)
    assert (0, Fraction(0), (0,)) in walks
    assert (1, Fraction(5), (0, 1)) in walks

    tri = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    m = Matching.from_pairs([(1, 2)])
    values = oracle.optimal_walk_values(tri, m, 0, 3)
    assert values[3][0] == 2

    covered_source = oracle.enumerate_valid_walks(tri, m, 1, 0)
    assert covered_source == []  # covered source: the empty walk is invalid


def test_walks_start_and_end_validly():
    rng = random.Random(333)
    for _ in range(40):
        g = random_graph(rng, n_max=6)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        for endpoint, _value, verts in oracle.enumerate_valid_walks(g, m, s, 5):
            assert verts[0] == s and verts[-1] == endpoint
            if len(verts) == 1:
                assert not m.covers(s)
                continue
            first_matched = m.contains_edge(verts[0], verts[1])
            last_matched = m.contains_edge(verts[-2], verts[-1])
            assert (not m.covers(s)) or first_matched
            assert (not m.covers(endpoint)) or last_matched
