from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import count_calls, cover_of, fig6, fig9, random_graph, tri_chain
import matchstab.cycles
from matchstab import oracle
from matchstab.cycles import (
    AugmentationEvent,
    FrustrationEvent,
    _build_auxiliary,
    apply_augmentation,
    reduce_cycles,
)
from matchstab.edmonds import AugmentingPath, TreeSearch, grow_tree
from matchstab.errors import NotOptimalPair, PathNotAugmenting
from matchstab.graph import (
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.lp import solve_fractional, verify_optimal_pair

H = Fraction(1, 2)


def build_auxiliary(g, bfm, cover):
    """The search graph G' of a pair, after checking in full that the pair
    is optimal."""
    verify_optimal_pair(g, bfm, cover)
    return _build_auxiliary(g, bfm, cover, tight_edges(g, cover))


def _two_triangles_bridged() -> WeightedGraph:
    # unit triangles {0,1,2} and {3,4,5} joined by the edge 2-3
    return WeightedGraph.from_edges(
        6,
        [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)],
    )


def test_build_auxiliary_stable_graph_is_bare():
    g = WeightedGraph.from_edges(2, [(0, 1, 3)])
    bfm, cover = solve_fractional(g)
    assert not bfm.odd_cycles
    aux = build_auxiliary(g, bfm, cover)
    assert aux.cycle_of == {}
    assert aux.matching.pairs == bfm.matched.pairs
    # z has no incident edges: both endpoints carry positive cover values
    assert aux.adjacency[aux.z] == ()


def test_build_auxiliary_fig9():
    g = fig9()
    bfm, cover = solve_fractional(g)
    aux = build_auxiliary(g, bfm, cover)
    shadow = g.n + 1 + 3
    pseudo = aux.pseudonode_of[(0, 1, 2)]
    # s is exposed with zero cover: shadow gadget s-s'-z
    assert aux.shadow_vertex == {shadow: 3}
    assert aux.adjacency[3] == (shadow,)
    assert set(aux.adjacency[shadow]) == {3, aux.z}
    assert aux.matching.contains_edge(3, shadow)
    # ps is slack, so the pseudonode is isolated
    assert aux.adjacency[pseudo] == ()


def test_build_auxiliary_fig6_with_alternate_cover():
    g = fig6()
    x = [0] * g.m  # half counts 2x
    for pair in [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7)]:
        x[g.edge_index(*pair)] = 1
    x[g.edge_index(3, 4)] = 2
    bfm = decompose(g, x)
    cover = cover_of([1, 1, 1, H, 0, 1, 1, 1])
    aux = build_auxiliary(g, bfm, cover)
    # internal vertex 4 (label 5) is covered with zero cover value: edge to z
    assert aux.z in aux.adjacency[4]
    assert len(aux.cycle_of) == 2
    assert not aux.shadow_vertex
    # the edge labelled 1-4 is slack, so the left pseudonode is isolated
    left = aux.pseudonode_of[(0, 1, 2)]
    assert aux.adjacency[left] == ()


def test_build_auxiliary_rejects_non_optimal_pair():
    g = fig9()
    bfm, _cover = solve_fractional(g)
    bad = cover_of([4, 4, 4, 1])
    with pytest.raises(NotOptimalPair):
        build_auxiliary(g, bfm, bad)


def test_apply_augmentation_two_cycles():
    g = _two_triangles_bridged()
    x = [0] * g.m
    for pair in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        x[g.edge_index(*pair)] = 1
    bfm = decompose(g, x)
    cover = cover_of([H] * 6)
    aux = build_auxiliary(g, bfm, cover)
    root = aux.pseudonode_of[(0, 1, 2)]
    other = aux.pseudonode_of[(3, 4, 5)]
    outcome = grow_tree(TreeSearch(aux.adjacency, aux.matching), root, frozenset())
    assert isinstance(outcome, AugmentingPath)
    assert outcome.vertices == (root, other)
    new, event = apply_augmentation(bfm, aux, outcome.vertices)
    assert event.kind == "two_cycles"
    assert event.rounded_at == (2, 3)
    assert new.odd_cycles == ()
    assert new.matched.pairs == frozenset({(0, 1), (2, 3), (4, 5)})
    assert new.weight == 3


def test_apply_augmentation_rejects_garbage_path():
    g = _two_triangles_bridged()
    x = [0] * g.m
    for pair in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        x[g.edge_index(*pair)] = 1
    bfm = decompose(g, x)
    cover = cover_of([H] * 6)
    aux = build_auxiliary(g, bfm, cover)
    with pytest.raises(PathNotAugmenting):
        apply_augmentation(bfm, aux, (0, 1))


def test_reduce_cycles_fixtures():
    assert reduce_cycles(fig6()).gamma == 2
    assert reduce_cycles(fig9()).gamma == 1
    result = reduce_cycles(_two_triangles_bridged())
    assert result.gamma == 0 and result.weight == 3


def test_reduce_cycles_identity_when_no_augmentation_exists():
    g = fig9()
    result = reduce_cycles(g)
    assert result.gamma == 1
    assert result.solution.odd_cycles == ((0, 1, 2),)
    assert all(isinstance(e, FrustrationEvent) for e in result.events)


def _forced_start(g, half_cycles, matched_pairs, cover_values):
    x = [0] * g.m  # half counts 2x
    for cycle in half_cycles:
        k = len(cycle)
        for i in range(k):
            x[g.edge_index(cycle[i], cycle[(i + 1) % k])] = 1
    for pair in matched_pairs:
        x[g.edge_index(*pair)] = 2
    return decompose(g, x), cover_of(cover_values)


def test_direct_rounding_at_zero_cover_cycle_vertex():
    # triangle with weights 1,1,2: the half triangle ties the matching {12},
    # and the cover zero at vertex 0 lets the cycle round away directly
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
    start = _forced_start(g, [(0, 1, 2)], [], [0, 1, 1])
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 2
    assert result.events == (
        AugmentationEvent("cycle_zero_cover", ((0, 1, 2),), (0,), ()),
    )
    assert result.solution.values == (0, 0, 1)
    assert result.solution.matched.pairs == frozenset({(1, 2)})


def test_path_to_covered_zero_cover_vertex():
    # weight-2 triangle, tight stem 0-3 (w=2), matched tail 3-4 (w=1, cover 0)
    g = WeightedGraph.from_edges(
        5, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, 2), (3, 4, 1)]
    )
    start = _forced_start(g, [(0, 1, 2)], [(3, 4)], [1, 1, 1, 1, 0])
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 4
    assert result.events == (
        AugmentationEvent("path_to_covered", ((0, 1, 2),), (0,), (0, 3, 4)),
    )
    assert result.solution.values == (0, 0, 1, 1, 0)
    assert result.solution.matched.pairs == frozenset({(1, 2), (0, 3)})


def test_two_cycles_linked_through_interior_matched_path():
    # weight-2 triangles {0,1,2} and {5,6,7} joined by the tight path
    # 2-3, 3-4 (matched), 4-5: the augmenting move must expand through the
    # interior vertices and complement three edges
    g = WeightedGraph.from_edges(
        8,
        [
            (0, 1, 2), (0, 2, 2), (1, 2, 2),
            (2, 3, 2), (3, 4, 2), (4, 5, 2),
            (5, 6, 2), (5, 7, 2), (6, 7, 2),
        ],
    )
    start = _forced_start(g, [(0, 1, 2), (5, 6, 7)], [(3, 4)], [1] * 8)
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 8
    assert result.events == (
        AugmentationEvent(
            "two_cycles", ((0, 1, 2), (5, 6, 7)), (2, 5), (2, 3, 4, 5)
        ),
    )
    assert result.solution.values == (1, 0, 0, 1, 0, 1, 0, 0, 1)
    assert result.solution.matched.pairs == frozenset(
        {(0, 1), (2, 3), (4, 5), (6, 7)}
    )


def test_path_to_exposed_zero_cover_vertex():
    # unit triangle with a half-weight pendant: exposed pendant vertex has
    # cover zero, reached through its shadow gadget
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, H)]
    )
    start = _forced_start(g, [(0, 1, 2)], [], [H, H, H, 0])
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == Fraction(3, 2)
    assert result.events == (
        AugmentationEvent("path_to_exposed", ((0, 1, 2),), (0,), (0, 3)),
    )
    assert result.solution.values == (0, 0, 1, 1)
    assert result.solution.matched.pairs == frozenset({(1, 2), (0, 3)})


def test_events_account_for_every_cycle():
    rng = random.Random(314)
    for _ in range(80):
        g = random_graph(rng)
        result = reduce_cycles(g)
        initial, _cover = solve_fractional(g)
        killed = sum(
            len(e.cycles) for e in result.events if isinstance(e, AugmentationEvent)
        )
        frustrated = sum(
            1 for e in result.events if isinstance(e, FrustrationEvent)
        )
        assert len(initial.odd_cycles) == result.gamma + killed
        assert frustrated == len(result.solution.odd_cycles)
        # frustrated deletions never overlap
        seen: set[int] = set()
        for e in result.events:
            if isinstance(e, FrustrationEvent):
                assert not (set(e.deleted_vertices) & seen)
                seen.update(e.deleted_vertices)


def test_weight_and_slackness_invariant_along_the_run(property_suite):
    for g in property_suite[:60]:
        result = reduce_cycles(g)
        assert result.weight == result.cover.total
        assert result.gamma == len(result.solution.odd_cycles)


def test_frustrated_tree_deletes_matched_pair_whole():
    # smallest graph found whose first frustrated tree takes the matched edge
    # (4, 7) with it; the pair turns dead whole, and the search goes on
    g = WeightedGraph.from_edges(
        8,
        [
            (3, 6, 4), (1, 5, 4), (0, 6, 3), (2, 5, 4), (2, 7, 1), (0, 2, 2),
            (0, 3, 4), (4, 6, 3), (4, 7, 3), (0, 1, 2), (3, 5, 4), (1, 2, 2),
            (5, 6, 3), (0, 5, 2), (2, 6, 1), (4, 5, 3),
        ],
    )
    result = reduce_cycles(g)
    first = result.events[0]
    assert isinstance(first, FrustrationEvent)
    assert {4, 7} <= set(first.deleted_vertices)
    assert result.solution.matched.contains_edge(4, 7)
    assert result.gamma == oracle.brute_gamma(g)
    assert result.weight == oracle.exact_nu_f(g)
    verify_optimal_pair(g, result.solution, result.cover)


def test_pair_checks_do_not_grow_with_gamma(monkeypatch):
    g = tri_chain(random.Random(12), 12)
    start = solve_fractional(g)
    checks = count_calls(monkeypatch, matchstab.cycles, "verify_optimal_pair")
    tights = count_calls(monkeypatch, matchstab.cycles, "tight_edges")
    builds = count_calls(monkeypatch, matchstab.cycles, "_build_auxiliary")
    for given in (None, start):
        checks[0] = tights[0] = builds[0] = 0
        result = reduce_cycles(g, start=given)
        assert result.gamma == 12
        assert len(result.events) == 12
        assert all(isinstance(e, FrustrationEvent) for e in result.events)
        assert checks[0] <= 2 and tights[0] <= 2
        # a frustrated tree marks nodes dead; only an augmentation rebuilds G'
        assert builds[0] == 1
