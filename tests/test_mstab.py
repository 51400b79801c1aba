from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    count_calls,
    delete_vertices,
    fig9,
    m_vertex_stabilizer_rebuilding,
    random_graph,
    random_matching,
)
from matchstab import oracle, walks
from matchstab.errors import MNotAMatching
from matchstab.graph import Matching, WeightedGraph
from matchstab.mstab import FEASIBLE, INFEASIBLE, m_vertex_stabilizer
from matchstab.walks import WalkArcs, first_pass_scan, second_pass_scan


def test_fig9_with_maximum_matching_is_infeasible():
    result = m_vertex_stabilizer(fig9(), Matching.from_pairs([(1, 2), (0, 3)]))
    assert result.status == INFEASIBLE
    assert result.removed == ()
    assert result.matching_weight == 5 and result.residual_nu_f == 6


def test_triangle_flower_root_removed():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    result = m_vertex_stabilizer(g, Matching.from_pairs([(1, 2)]))
    assert result.status == FEASIBLE
    assert result.removed == (0,) and result.first_phase == (0,)
    assert result.diagnostics[0][0] == "flower"


def test_single_edge_empty_matching_two_approximation_boundary():
    g = WeightedGraph.from_edges(2, [(0, 1, 3)])
    result = m_vertex_stabilizer(g, Matching.from_pairs([]))
    assert result.status == FEASIBLE
    assert result.second_phase == (0, 1) and result.removed == (0, 1)
    assert len(oracle.brute_min_m_stabilizer(g, Matching.from_pairs([]))) == 1


def test_rejects_non_matching():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(MNotAMatching):
        m_vertex_stabilizer(g, Matching.from_pairs([(0, 2)]))


def test_first_phase_is_order_independent():
    # relabelling v -> n-1-v makes the ascending scan visit the exposed
    # vertices in the opposite order
    rng = random.Random(515)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        flip = g.n - 1
        g_rev = WeightedGraph.from_edges(g.n, [(flip - u, flip - v, w) for u, v, w in g.edges])
        m_rev = Matching.from_pairs((flip - u, flip - v) for u, v in m.pairs)
        forward = m_vertex_stabilizer(g, m)
        backward = m_vertex_stabilizer(g_rev, m_rev)
        assert set(forward.first_phase) == {flip - v for v in backward.first_phase}
        assert forward.status == backward.status


def test_feasible_results_verified_by_oracle():
    rng = random.Random(616)
    feasible = infeasible = 0
    for _ in range(80):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        result = m_vertex_stabilizer(g, m)
        brute = oracle.brute_min_m_stabilizer(g, m)
        if brute == oracle.INFEASIBLE:
            assert result.status == INFEASIBLE
            infeasible += 1
            continue
        feasible += 1
        assert result.status == FEASIBLE
        assert len(result.removed) <= 2 * len(brute)
        if not result.second_phase:
            assert len(result.removed) == len(brute)
        residual, keep = delete_vertices(g, result.removed)
        remap = {old: new for new, old in enumerate(keep)}
        m_res = Matching.from_pairs((remap[u], remap[v]) for u, v in m.pairs)
        # (a) M is maximum-weight in the residual graph
        assert oracle.exact_nu(residual)[0] == m_res.weight(residual)
        # (b) the residual graph is stable
        assert oracle.is_stable(residual)
        # (c) no augmenting structure is left at any exposed vertex
        for v in range(residual.n):
            if m_res.covers(v):
                continue
            assert first_pass_scan(residual, m_res, v, 3 * residual.n) == (False, None)
            assert second_pass_scan(residual, m_res, v, residual.n, set()) is None
    assert feasible > 20 and infeasible > 5


def test_walk_bounds_count_only_the_vertices_left():
    # after 1 and 5 are deleted, n = 5 and the first-pass bound is 15: the
    # augmenting walk from 6 to the covered 3 is then found (3 * 7 = 21
    # would find one to 0 instead)
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    result = m_vertex_stabilizer(g, Matching.from_pairs([(0, 4), (2, 3)]))
    assert result.status == INFEASIBLE
    assert result.diagnostics == (
        ("walk_to_covered", 1, 2),
        ("walk_to_covered", 5, 2),
        ("walk_to_covered", 6, 3),
    )


def test_residual_graph_is_built_once(monkeypatch):
    # the instance above deletes three vertices, yet G - delta(S) is built
    # only once, for the final check
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    calls = count_calls(monkeypatch, WeightedGraph, "delete_stars")
    m_vertex_stabilizer(g, Matching.from_pairs([(0, 4), (2, 3)]))
    assert calls == [1]


def test_walk_arcs_are_built_once(monkeypatch):
    # the instance above runs a first-pass scan from each of its three
    # exposed roots, all on one set of arcs
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    calls = count_calls(monkeypatch, WalkArcs, "__init__")
    scans = count_calls(monkeypatch, walks._IntegerDP, "__init__")
    m_vertex_stabilizer(g, Matching.from_pairs([(0, 4), (2, 3)]))
    assert calls == [1]
    assert scans == [3]


def _random_instance(rng):
    """A graph with n in 2..14 and integer weights, or half the time the same
    edges with fractional weights, and a random matching of it."""
    g = random_graph(rng, n_max=14)
    if rng.random() < 0.5:
        g = WeightedGraph.from_edges(
            g.n,
            [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 6))) for u, v, _w in g.edges],
        )
    return g, random_matching(rng, g)


def test_scans_on_g_give_the_verdicts_of_g_minus_the_stars_of_s():
    # S holds exposed vertices other than the root: scanning G with S
    # skipped gives what scanning G - delta(S) gives
    rng = random.Random(1212)
    skipped = 0
    for _ in range(300):
        g, m = _random_instance(rng)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        for root in exposed:
            others = [v for v in exposed if v != root]
            deleted = set(rng.sample(others, rng.randint(0, len(others))))
            rest = g.delete_stars(deleted)
            for k in (0, 1, g.n, 3 * g.n):
                assert first_pass_scan(g, m, root, k) == first_pass_scan(rest, m, root, k)
                on_rest = second_pass_scan(rest, m, root, k, set())
                assert second_pass_scan(g, m, root, k, deleted) == on_rest
                skipped += second_pass_scan(g, m, root, k, set()) != on_rest
    # without the deleted set the scan on G often reports a vertex of S
    assert skipped > 500


def test_same_result_as_rebuilding_the_residual_after_every_deletion():
    rng = random.Random(1313)
    second = 0
    for _ in range(2000):
        g, m = _random_instance(rng)
        result = m_vertex_stabilizer(g, m)
        assert repr(result) == repr(m_vertex_stabilizer_rebuilding(g, m))
        second += bool(result.second_phase)
    assert second >= 400
