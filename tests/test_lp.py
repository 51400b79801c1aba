from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import fig6, fig8, fig9, random_graph
from matchstab import oracle
from matchstab.errors import DegreeConstraintViolated, NotOptimalPair
from matchstab.graph import FractionalVertexCover, WeightedGraph, decompose, tight_edges
from matchstab.lp import (
    bipartite_max_weight_matching,
    normalize_to_basic,
    optimal_pair_checks,
    solve_fractional,
    verify_optimal_pair,
)

H = Fraction(1, 2)


def _duplicate_weight_and_total(g):
    """Weight of the duplicate's matching and the sum of its potentials."""
    match_left, p_left, p_right = bipartite_max_weight_matching(g)
    weight = sum(
        (g.weight(u, r) for u, r in enumerate(match_left) if r is not None),
        start=Fraction(0),
    )
    return weight, sum(p_left, start=Fraction(0)) + sum(p_right, start=Fraction(0))


def _averaged(g):
    """The duplicate's matching averaged back onto g: 1/2 per matched copy."""
    match_left, _p_left, _p_right = bipartite_max_weight_matching(g)
    values = [Fraction(0)] * g.m
    for u, r in enumerate(match_left):
        if r is not None:
            values[g.edge_index(u, r)] += H
    return values


def test_bipartite_empty_and_single_edge():
    empty = WeightedGraph.from_edges(0, [])
    assert _duplicate_weight_and_total(empty) == (0, 0)

    single = WeightedGraph.from_edges(2, [(0, 1, 7)])
    # both copies of the edge are matched: bipartite optimum 14 = 2 * nu_f
    assert _duplicate_weight_and_total(single) == (14, 14)


def test_bipartite_fig9_value_doubles_nu_f():
    assert _duplicate_weight_and_total(fig9())[0] == 12


def test_averaged_unit_triangle():
    tri = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    values = _averaged(tri)
    assert sum(w * x for (_u, _v, w), x in zip(tri.edges, values)) == Fraction(3, 2)
    assert all(x in (Fraction(0), H, Fraction(1)) for x in values)


def test_normalize_identity_on_basic():
    tri = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    out = normalize_to_basic(tri, (H, H, H))
    assert out.values == (H, H, H)


def test_normalize_even_cycle_ties_break_by_edge_index():
    g4 = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    out = normalize_to_basic(g4, (H, H, H, H))
    assert out.weight == 2
    assert out.values[0] == 1  # lowest-index edge wins the tie


def test_normalize_half_path():
    g = WeightedGraph.from_edges(3, [(0, 1, 3), (1, 2, 3)])
    out = normalize_to_basic(g, (H, H))
    assert out.weight == 3
    assert out.values[0] == 1 and out.values[1] == 0


def test_normalize_rejects_three_half_edges_at_a_vertex():
    claw = WeightedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    with pytest.raises(DegreeConstraintViolated):
        normalize_to_basic(claw, (H, H, H))


def test_solve_fractional_fixture_values():
    bfm9, cover9 = solve_fractional(fig9())
    assert bfm9.weight == 6
    assert cover9.values == (Fraction(2), Fraction(2), Fraction(2), Fraction(0))
    assert bfm9.odd_cycles == ((0, 1, 2),)

    bfm8, _cover8 = solve_fractional(fig8())
    assert bfm8.weight == 9

    bfm6, _cover6 = solve_fractional(fig6())
    assert bfm6.weight == Fraction(13, 2)


def test_duality_and_slackness_on_random_suite(property_suite):
    for g in property_suite:
        bfm, cover = solve_fractional(g)
        assert bfm.weight == cover.total
        tight = tight_edges(g, cover)
        assert all(i in tight for i in bfm.support)
        assert all(
            cover.values[v] == 0 or bfm.vertex_load(v) == 1 for v in range(g.n)
        )
        # solver value equals the enumeration oracle
        assert bfm.weight == oracle.exact_nu_f(g)
        # the result round-trips through decompose bit-exactly
        assert decompose(g, bfm.values).values == bfm.values


def test_normalize_never_changes_weight():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng)
        raw = _averaged(g)
        raw_weight = sum(
            (w * x for (_u, _v, w), x in zip(g.edges, raw)), start=Fraction(0)
        )
        assert normalize_to_basic(g, raw).weight == raw_weight


def test_zero_weight_edges_are_harmless():
    g = WeightedGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    bfm, cover = solve_fractional(g)
    assert bfm.weight == 0 and cover.total == 0

    mixed = WeightedGraph.from_edges(4, [(0, 1, 3), (1, 2, 0), (2, 3, 2)])
    bfm, cover = solve_fractional(mixed)
    assert bfm.weight == 5 == cover.total
    from matchstab.cycles import reduce_cycles

    assert reduce_cycles(mixed).gamma == 0


def test_pair_checks_reject_a_negative_cover():
    # path 0-2-3-1 with weights 1, 3, 1: x = {02, 13} weighs 2 < nu_f = 3, yet
    # y = (-2, -2, 3, 3) covers every edge, sums to 2 and is complementary
    g = WeightedGraph.from_edges(4, [(0, 2, 1), (1, 3, 1), (2, 3, 3)])
    bfm = decompose(g, (1, 1, 0))
    cover = FractionalVertexCover(tuple(Fraction(y) for y in (-2, -2, 3, 3)))
    assert dict(optimal_pair_checks(g, bfm, cover)) == {
        "cover_is_feasible": False,
        "strong_duality": True,
        "complementary_slackness": True,
    }
    with pytest.raises(NotOptimalPair, match="cover_is_feasible"):
        verify_optimal_pair(g, bfm, cover)
