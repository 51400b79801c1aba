from __future__ import annotations

import random
from fractions import Fraction

from chord_path import chord_path
from conftest import count_calls, fig6, fig7, fig9, random_graph, round_cycles, tri_chain
import matchstab.graph
import matchstab.stabilizers
from matchstab import oracle
from matchstab.cycles import reduce_cycles
from matchstab.graph import WeightedGraph
from matchstab.stabilizers import edge_stabilizer_approx, min_vertex_stabilizer


def test_min_vertex_stabilizer_fig9():
    g = fig9()
    result = min_vertex_stabilizer(g)
    nu_before = oracle.exact_nu(g)[0]
    assert result.removed == (0,)  # tie on the triangle breaks to p
    assert result.gamma == 1
    assert nu_before == 5
    assert result.nu_after == 4
    assert 3 * result.nu_after >= 2 * nu_before


def test_min_vertex_stabilizer_fig7():
    g = fig7()
    result = min_vertex_stabilizer(g)
    assert result.removed == (0,)
    assert oracle.exact_nu(g)[0] == Fraction(11, 4)
    assert result.nu_after == 2
    assert result.surviving_matching.pairs == frozenset({(1, 2)})


def test_min_vertex_stabilizer_stable_graph():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    result = min_vertex_stabilizer(g)
    assert result.removed == ()
    assert result.nu_after == oracle.exact_nu(g)[0] == 5


def test_certificate_totals_match():
    for g in (fig6(), fig7(), fig9()):
        result = min_vertex_stabilizer(g)
        total = sum(result.surviving_cover.values)
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
    def bounds(g):
        r = edge_stabilizer_approx(g)
        return (r.gamma, len(r.vertex_result.removed), r.lower_bound)

    assert bounds(WeightedGraph.from_edges(2, [(0, 1, 1)])) == (0, 0, 0)
    assert bounds(fig6()) == (2, 2, 1)
    assert bounds(fig9()) == (1, 1, 1)


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


def test_survivors_need_no_decompose(monkeypatch):
    g = tri_chain(random.Random(12), 12)
    reduction = reduce_cycles(g)
    assert reduction.gamma == 12
    monkeypatch.setattr(matchstab.stabilizers, "reduce_cycles", lambda _g: reduction)
    decomposes = count_calls(monkeypatch, matchstab.graph, "decompose")
    result = min_vertex_stabilizer(g)
    assert decomposes[0] == 0
    assert len(result.removed) == 12
    assert result.nu_after == 48


def test_survivors_are_the_rounded_cycles_plus_the_matching(property_suite):
    # the survivors are read off M(x) and the cycles; rounding x at the
    # removed vertices, validated by `decompose`, gives the same matching
    graphs = list(property_suite) + [tri_chain(random.Random(5), 20), chord_path(600)]
    for g in graphs:
        reduction = reduce_cycles(g)
        result = min_vertex_stabilizer(g)
        bfm = reduction.solution
        picks = [(c, v) for c in bfm.odd_cycles for v in c if v in result.removed]
        assert len(picks) == len(bfm.odd_cycles) == len(result.removed)
        assert result.surviving_matching == round_cycles(bfm, picks).matched
