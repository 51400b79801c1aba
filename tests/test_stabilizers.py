from __future__ import annotations

import random
from fractions import Fraction

from conftest import count_calls, fig6, fig7, fig9, random_graph, tri_chain
import matchstab.graph
import matchstab.stabilizers
from matchstab import oracle
from matchstab.cycles import reduce_cycles
from matchstab.graph import WeightedGraph
from matchstab.stabilizers import (
    edge_stabilizer_approx,
    gamma_lower_bounds,
    min_vertex_stabilizer,
)


def test_min_vertex_stabilizer_fig9():
    result = min_vertex_stabilizer(fig9())
    assert result.removed == (0,)  # tie on the triangle breaks to p
    assert result.gamma == 1
    assert result.nu_before == 5
    assert result.nu_after == 4
    assert 3 * result.nu_after >= 2 * result.nu_before


def test_min_vertex_stabilizer_fig7():
    result = min_vertex_stabilizer(fig7())
    assert result.removed == (0,)
    assert result.nu_before == Fraction(11, 4)
    assert result.nu_after == 2
    assert result.surviving_matching.pairs == frozenset({(1, 2)})


def test_min_vertex_stabilizer_stable_graph():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    result = min_vertex_stabilizer(g)
    assert result.removed == ()
    assert result.nu_after == result.nu_before == 5


def test_certificate_totals_match():
    for g in (fig6(), fig7(), fig9()):
        result = min_vertex_stabilizer(g)
        total = sum(result.surviving_cover.values(), start=Fraction(0))
        assert result.nu_after == total == result.surviving_matching.weight(g)


def test_edge_stabilizer_fig6():
    result = edge_stabilizer_approx(fig6())
    g = fig6()
    # S = {1, 6} in instance labels; F is their incident stars, deduplicated
    assert result.vertex_result.removed == (0, 5)
    pairs = {tuple(sorted((g.label_of(g.edges[i][0]), g.label_of(g.edges[i][1]))))
             for i in result.removed_edges}
    assert pairs == {("1", "2"), ("1", "3"), ("1", "4"), ("5", "6"), ("6", "7"), ("6", "8")}
    assert len(result.removed_edges) == 6 <= result.upper_bound == 6
    assert result.lower_bound == 1
    # the residual graph is stable
    rest = g.delete_edges(result.removed_edges)
    assert oracle.is_stable(rest)


def test_edge_stabilizer_fig9_and_stable():
    result = edge_stabilizer_approx(fig9())
    assert len(result.removed_edges) == 3  # delta(p)
    assert edge_stabilizer_approx(WeightedGraph.from_edges(2, [(0, 1, 1)])).removed_edges == ()


def test_gamma_lower_bounds_values():
    b = gamma_lower_bounds(WeightedGraph.from_edges(2, [(0, 1, 1)]))
    assert (b.gamma, b.vertex_lower_bound, b.edge_lower_bound) == (0, 0, 0)
    b = gamma_lower_bounds(fig6())
    assert (b.gamma, b.vertex_lower_bound, b.edge_lower_bound) == (2, 2, 1)
    b = gamma_lower_bounds(fig9())
    assert (b.gamma, b.vertex_lower_bound, b.edge_lower_bound) == (1, 1, 1)


def test_edge_result_sandwich_on_sub_suite():
    # brute edge-stabilizer search is exponential in m, so this property runs
    # on a reduced suite (n <= 7, sparse) rather than the full 240 instances
    rng = random.Random(606)
    count = 0
    while count < 60:
        g = random_graph(rng, n_max=7)
        if g.m > 10:
            continue
        count += 1
        result = edge_stabilizer_approx(g)
        opt = len(oracle.brute_min_edge_stabilizer(g))
        assert result.lower_bound <= opt <= len(result.removed_edges) <= result.upper_bound
        rest = g.delete_edges(result.removed_edges)
        assert oracle.is_stable(rest)


def test_rounding_decomposes_once(monkeypatch):
    g = tri_chain(random.Random(12), 12)
    reduction = reduce_cycles(g)
    assert reduction.gamma == 12
    monkeypatch.setattr(matchstab.stabilizers, "reduce_cycles", lambda _g: reduction)
    decomposes = count_calls(monkeypatch, matchstab.graph, "decompose")
    result = min_vertex_stabilizer(g)
    assert decomposes[0] == 1
    assert len(result.removed) == 12
    assert result.nu_after == 48
