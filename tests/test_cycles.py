from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chord_path import chord_path
from conftest import (
    bench_families, complement, count_calls, cover_of, fig6, fig9, random_graph, round_cycles,
    tri_chain,
)
import matchstab.cycles
import matchstab.edmonds
from matchstab import oracle
from matchstab.certify import verify_optimal_pair
from matchstab.cycles import (
    AugmentationEvent,
    FrustrationEvent,
    _validate_alternating,
    apply_augmentation,
    reduce_cycles,
)
from matchstab.edmonds import (
    AugmentingPath, AuxiliaryGraph, FrustratedTree, TreeSearch, build_auxiliary, grow_tree,
)
from matchstab.errors import EndpointNotRecognized, NotOptimalPair, PathNotAugmenting
from matchstab.graph import (
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.instance import parse_instance
from matchstab.lp import solve_fractional

H = Fraction(1, 2)


def verified_auxiliary(g, bfm, cover):
    """The search graph G' of a pair, after checking in full that the pair
    is optimal."""
    verify_optimal_pair(g, bfm, cover)
    return build_auxiliary(g, bfm, cover, tight_edges(g, cover))


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
    aux = verified_auxiliary(g, bfm, cover)
    assert aux.cycle_of == {}
    assert aux.mate == [1, 0] + [None] * 5
    # z has no incident edges: both endpoints carry positive cover values
    assert aux.adjacency[aux.n] == ()


def test_build_auxiliary_fig9():
    g = fig9()
    bfm, cover = solve_fractional(g)
    aux = verified_auxiliary(g, bfm, cover)
    shadow = g.n + 1 + 3
    pseudo = 2 * g.n + 1 + 0
    assert aux.cycle_of[pseudo] == (0, 1, 2)
    # s is exposed with zero cover: shadow gadget s-s'-z, the only shadow
    assert [v for v in range(g.n + 1, 2 * g.n + 1) if aux.adjacency[v]] == [shadow]
    assert aux.adjacency[3] == [shadow]
    assert aux.adjacency[shadow] == [3, aux.n]
    assert aux.mate[3] == shadow and aux.mate[shadow] == 3
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
    aux = verified_auxiliary(g, bfm, cover)
    # internal vertex 4 (label 5) is covered with zero cover value: edge to z
    assert aux.n in aux.adjacency[4]
    assert len(aux.cycle_of) == 2
    assert not any(aux.adjacency[v] for v in range(g.n + 1, 2 * g.n + 1))
    # the edge labelled 1-4 is slack, so the left pseudonode is isolated
    left = 2 * g.n + 1 + 0
    assert aux.cycle_of[left] == (0, 1, 2)
    assert aux.adjacency[left] == ()


def test_build_auxiliary_rejects_non_optimal_pair():
    g = fig9()
    bfm, _cover = solve_fractional(g)
    bad = cover_of([4, 4, 4, 1])
    with pytest.raises(NotOptimalPair):
        verified_auxiliary(g, bfm, bad)


def test_apply_augmentation_two_cycles():
    g = _two_triangles_bridged()
    x = [0] * g.m
    for pair in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        x[g.edge_index(*pair)] = 1
    bfm = decompose(g, x)
    cover = cover_of([H] * 6)
    aux = verified_auxiliary(g, bfm, cover)
    root = 2 * aux.n + 1 + 0
    other = 2 * aux.n + 1 + 3
    assert (aux.cycle_of[root], aux.cycle_of[other]) == ((0, 1, 2), (3, 4, 5))
    outcome = grow_tree(TreeSearch(aux.adjacency, aux.mate), root, frozenset())
    assert isinstance(outcome, AugmentingPath)
    assert outcome.vertices == (root, other)
    halves = list(bfm.halves)
    event = apply_augmentation(g, cover, tight_edges(g, cover), aux, halves, outcome.vertices)
    new = decompose(g, halves)
    assert event.kind == "two_cycles"
    assert event.rounded_at == (2, 3)
    assert new.odd_cycles == ()
    assert new.matched.pairs == frozenset({(0, 1), (2, 3), (4, 5)})
    assert new.weight == 3


# paths in the search graph of `_covered_zero_cover_vertex`: the pseudonode
# 11 of the triangle, its edge 11-3, the M' edge 3-4 and the edge 4-z, z = 5,
# whose one augmenting path is (11, 3, 4, 5). Each row is (path, the nodes
# whose M' partner is dropped first, the refusal). In an M' that pairs both
# ends, an exposed end lies on no M' edge and no exposed node is a vertex,
# so the last two rows drop one or both ends of 3-4 to reach their branch.
GARBAGE_PATHS = {
    "one node": ((11,), (), PathNotAugmenting, "at least one edge"),
    "matched end": ((11, 3), (), PathNotAugmenting, "endpoints must be exposed"),
    "cycle vertices": ((0, 1), (), PathNotAugmenting, r"\(0,1\) is not a search-graph edge"),
    "two unmatched edges in a row": ((11, 3, 11), (), PathNotAugmenting, "does not alternate"),
    "start at z": ((5, 4, 3, 11), (), PathNotAugmenting, "must start at a pseudonode"),
    "end on an M' edge": (
        (5, 4, 3), (3,), PathNotAugmenting, "must start and end with unmatched edges"
    ),
    "end at a vertex": (
        (11, 3), (3, 4), EndpointNotRecognized, "endpoint 3 is neither a pseudonode nor z"
    ),
}


@pytest.mark.parametrize("path,unmatched,error,message", GARBAGE_PATHS.values(),
                         ids=GARBAGE_PATHS.keys())
def test_apply_augmentation_rejects_garbage_path(path, unmatched, error, message):
    g, (bfm, cover) = _covered_zero_cover_vertex()
    aux = verified_auxiliary(g, bfm, cover)
    for node in unmatched:
        aux.mate[node] = None
    with pytest.raises(error, match=message):
        apply_augmentation(g, cover, tight_edges(g, cover), aux, list(bfm.halves), path)


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


def _zero_cover_cycle_vertex():
    # triangle with weights 1,1,2: the half triangle ties the matching {12},
    # and the cover zero at vertex 0 lets the cycle round away directly
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
    return g, _forced_start(g, [(0, 1, 2)], [], [0, 1, 1])


def _two_zero_cover_cycle_vertices():
    # a 5-cycle tight under the cover (0, 1, 1, 0, 1): its pseudonode-z edge
    # stands for both zero-cover vertices 0 and 3, and the lower one is used
    g = WeightedGraph.from_edges(5, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 1), (0, 4, 1)])
    return g, _forced_start(g, [(0, 1, 2, 3, 4)], [], [0, 1, 1, 0, 1])


def _covered_zero_cover_vertex():
    # weight-2 triangle, tight stem 0-3 (w=2), matched tail 3-4 (w=1, cover 0)
    g = WeightedGraph.from_edges(
        5, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, 2), (3, 4, 1)]
    )
    return g, _forced_start(g, [(0, 1, 2)], [(3, 4)], [1, 1, 1, 1, 0])


def _two_cycles_and_interior_matched_path():
    # weight-2 triangles {0,1,2} and {5,6,7} joined by the tight path
    # 2-3, 3-4 (matched), 4-5
    g = WeightedGraph.from_edges(
        8,
        [
            (0, 1, 2), (0, 2, 2), (1, 2, 2),
            (2, 3, 2), (3, 4, 2), (4, 5, 2),
            (5, 6, 2), (5, 7, 2), (6, 7, 2),
        ],
    )
    return g, _forced_start(g, [(0, 1, 2), (5, 6, 7)], [(3, 4)], [1] * 8)


def _exposed_zero_cover_vertex():
    # unit triangle with a half-weight pendant: exposed pendant vertex has
    # cover zero, reached through its shadow gadget
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, H)]
    )
    return g, _forced_start(g, [(0, 1, 2)], [], [H, H, H, 0])


def test_direct_rounding_at_zero_cover_cycle_vertex():
    g, start = _zero_cover_cycle_vertex()
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 2
    assert result.events == (
        AugmentationEvent("cycle_zero_cover", ((0, 1, 2),), (0,), ()),
    )
    assert result.solution.values == (0, 0, 1)
    assert result.solution.matched.pairs == frozenset({(1, 2)})


def test_rounding_at_the_lowest_zero_cover_cycle_vertex():
    g, start = _two_zero_cover_cycle_vertices()
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 3
    assert result.events == (
        AugmentationEvent("cycle_zero_cover", ((0, 1, 2, 3, 4),), (0,), ()),
    )
    assert result.solution.matched.pairs == frozenset({(1, 2), (3, 4)})


def test_path_to_covered_zero_cover_vertex():
    g, start = _covered_zero_cover_vertex()
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == 4
    assert result.events == (
        AugmentationEvent("path_to_covered", ((0, 1, 2),), (0,), (0, 3, 4)),
    )
    assert result.solution.values == (0, 0, 1, 1, 0)
    assert result.solution.matched.pairs == frozenset({(1, 2), (0, 3)})


def test_two_cycles_linked_through_interior_matched_path():
    # the augmenting move must expand through the interior vertices and
    # complement three edges
    g, start = _two_cycles_and_interior_matched_path()
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
    g, start = _exposed_zero_cover_vertex()
    result = reduce_cycles(g, start=start)
    assert result.gamma == 0 == oracle.brute_gamma(g)
    assert result.weight == Fraction(3, 2)
    assert result.events == (
        AugmentationEvent("path_to_exposed", ((0, 1, 2),), (0,), (0, 3)),
    )
    assert result.solution.values == (0, 0, 1, 1)
    assert result.solution.matched.pairs == frozenset({(1, 2), (0, 3)})


# the kinds at the two ends of a G' edge: vertex-vertex, vertex-cycle,
# cycle-cycle, vertex-z, cycle-z, vertex-shadow and shadow-z
_EDGE_KINDS = {
    frozenset(ends)
    for ends in [
        ("vertex",), ("vertex", "cycle"), ("cycle",), ("vertex", "z"),
        ("cycle", "z"), ("vertex", "shadow"), ("shadow", "z"),
    ]
}


def _edge_kinds_of_auxiliary(g, bfm, cover) -> set:
    """Assert that G' names its nodes by id arithmetic alone; return the
    kinds of its edges."""
    aux = verified_auxiliary(g, bfm, cover)
    n = aux.n
    assert n == g.n and len(aux.adjacency) == len(aux.mate) == 3 * n + 1
    assert aux.cycle_of == {2 * n + 1 + c[0]: c for c in bfm.odd_cycles}
    shadows = {
        n + 1 + v for v in range(n)
        if cover.int_values[v] == 0 and bfm.vertex_halves[v] == 0
    }
    # M' is an involution that leaves z exposed: the pairs of x, plus v-v'
    # for each exposed zero-cover vertex v
    assert aux.mate[n] is None
    pairs = set()
    for a, b in enumerate(aux.mate):
        if b is not None:
            assert aux.mate[b] == a
            pairs.add((min(a, b), max(a, b)))
    assert pairs == set(bfm.matched.pairs) | {(s - n - 1, s) for s in shadows}
    seen = set()
    for a, neighbors in enumerate(aux.adjacency):
        for b in neighbors:
            assert a in aux.adjacency[b]
            ends = frozenset((aux.kind(a), aux.kind(b)))
            assert ends in _EDGE_KINDS, (a, b)
            seen.add(ends)
            for node in (a, b):
                assert aux.kind(node) != "cycle" or node in aux.cycle_of
                assert aux.kind(node) != "shadow" or node in shadows
    return seen


def test_auxiliary_node_kinds_come_from_their_ids(property_suite):
    seen = set()
    for g in property_suite:
        seen |= _edge_kinds_of_auxiliary(g, *solve_fractional(g))
    for forced in (
        _zero_cover_cycle_vertex, _covered_zero_cover_vertex,
        _two_cycles_and_interior_matched_path, _exposed_zero_cover_vertex,
    ):
        g, start = forced()
        seen |= _edge_kinds_of_auxiliary(g, *start)
    # the one pair here whose G' has a cycle-cycle edge
    g = _two_triangles_bridged()
    start = _forced_start(g, [(0, 1, 2), (3, 4, 5)], [], [H] * 6)
    seen |= _edge_kinds_of_auxiliary(g, *start)
    assert seen == _EDGE_KINDS


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
        assert result.weight == sum(result.cover.values)
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
    builds = count_calls(monkeypatch, matchstab.cycles, "build_auxiliary")
    for given in (None, start):
        checks[0] = tights[0] = builds[0] = 0
        result = reduce_cycles(g, start=given)
        assert result.gamma == 12
        assert len(result.events) == 12
        assert all(isinstance(e, FrustrationEvent) for e in result.events)
        assert checks[0] <= 2 and tights[0] <= 2
        # a frustrated tree marks nodes dead; only an augmentation rebuilds G'
        assert builds[0] == 1


# ---------------------------------------------------------------------------
# The search as it ran when x and G' were made anew after every
# augmentation: the move rounds and complements whole vectors, each
# validated by `decompose`, and G' is rebuilt from the new pair. The entry
# vertices come from a provenance map built from the pair, the map G' kept
# before `_entry_vertex` derived them from G and the cover.
# The in-place moves must give the same events and the same x.


def _reference_provenance(bfm, cover, tight) -> dict:
    """Each search edge at a pseudonode, keyed by its ends, mapped to the
    least original object it stands for: the least endpoint pair of its
    tight edges, or for a pseudonode-z edge the least zero-cover vertex of
    the cycle."""
    graph, n = bfm.graph, bfm.graph.n
    node_of = {v: 2 * n + 1 + c[0] for c in bfm.odd_cycles for v in c}
    pseudonodes = set(node_of.values())
    provenance: dict = {}

    def add(a, b, item):
        if a in pseudonodes or b in pseudonodes:
            key = (min(a, b), max(a, b))
            provenance[key] = min(item, provenance.get(key, item))

    for idx in tight:
        u, v = graph.ends[idx]
        a, b = node_of.get(u, u), node_of.get(v, v)
        if a != b:
            add(a, b, (u, v))
    for v, a_v in enumerate(cover.int_values):
        if a_v == 0 and bfm.vertex_halves[v] == 2:
            add(node_of.get(v, v), n, v)
    return provenance


def _reference_entry_vertex(provenance, aux, pseudonode, neighbor):
    rep = provenance[(min(pseudonode, neighbor), max(pseudonode, neighbor))]
    if isinstance(rep, int):
        return rep  # a pseudonode-z edge stands for a zero-cover cycle vertex
    u, v = rep
    return u if aux.node_of.get(u) == pseudonode else v


def _reference_move(bfm, cover, tight, aux, path):
    """Map a search-graph augmenting path back to G and return the new x,
    made by `round_cycles` and `complement`, with the move's event."""
    graph = bfm.graph
    provenance = _reference_provenance(bfm, cover, tight)
    _validate_alternating(aux, path)
    start, end = path[0], path[-1]
    if aux.kind(start) != "cycle":
        raise PathNotAugmenting("path must start at a pseudonode")
    ends = [(start, path[1])]
    if aux.kind(end) == "cycle":
        ends.append((end, path[-2]))
    elif aux.kind(end) != "z":
        raise EndpointNotRecognized(f"endpoint {end} is neither a pseudonode nor z")
    picks = [
        (aux.cycle_of[p], _reference_entry_vertex(provenance, aux, p, q)) for p, q in ends
    ]
    rounded_at = tuple(v for _c, v in picks)
    inner = tuple(node for node in path[1:-1] if aux.kind(node) == "vertex")
    g_path = rounded_at[:1] + inner + rounded_at[1:]
    if len(ends) == 2:
        kind = "two_cycles"
    elif not inner:
        kind, g_path = "cycle_zero_cover", ()
    elif aux.kind(path[-2]) == "shadow":
        kind = "path_to_exposed"
    else:
        kind = "path_to_covered"
    rounded = round_cycles(bfm, picks)
    new = complement(rounded, [graph.edge_index(a, b) for a, b in zip(g_path, g_path[1:])])
    event = AugmentationEvent(kind, tuple(c for c, _v in picks), rounded_at, g_path)
    assert set(bfm.odd_cycles) - set(new.odd_cycles) == set(event.cycles)
    assert set(new.odd_cycles) <= set(bfm.odd_cycles)
    return new, event


def reduce_cycles_rebuilding(graph, start=None):
    """The final x and the events of `reduce_cycles`, with G' built anew
    from a decomposed x after each augmentation."""
    bfm, cover = solve_fractional(graph) if start is None else start
    tight = tight_edges(graph, cover)
    aux = None
    dead: set[int] = set()
    events: list = []
    cursor = 0
    while cursor < len(bfm.odd_cycles):
        if aux is None:
            aux = build_auxiliary(graph, bfm, cover, tight)
            search = TreeSearch(aux.adjacency, aux.mate)
        root = 2 * graph.n + 1 + bfm.odd_cycles[cursor][0]
        if root in dead:
            cursor += 1
            continue
        outcome = grow_tree(search, root, dead)
        if isinstance(outcome, AugmentingPath):
            bfm, event = _reference_move(bfm, cover, tight, aux, outcome.vertices)
            events.append(event)
            aux, cursor = None, 0
        else:
            assert isinstance(outcome, FrustratedTree)
            deleted = sorted(v for v in outcome.nodes if aux.kind(v) == "vertex")
            dead.update(outcome.nodes)
            events.append(FrustrationEvent(aux.cycle_of[root], tuple(deleted)))
    return bfm, tuple(events)


_FORCED_STARTS = (
    _zero_cover_cycle_vertex, _two_zero_cover_cycle_vertices, _covered_zero_cover_vertex,
    _two_cycles_and_interior_matched_path, _exposed_zero_cover_vertex,
)


def _chord_like(rng: random.Random, n: int, extra: int) -> WeightedGraph:
    """A chord path with its own path weights and `extra` random edges of
    weight 1..3 (fewer where n leaves no room): the family on which the
    search augments most often."""
    edges = {(i, i + 1): rng.randint(1, 3) for i in range(n - 1)}
    edges.update({(i, i + 2): 2 for i in range(0, n - 2, 3)})
    extra = min(extra, n * (n - 1) // 2 - len(edges))
    while extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, 3)
            extra -= 1
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])


def _moving_graphs(property_suite):
    """(graph, start) pairs whose searches augment, in all four kinds of
    move: the property suite, the forced starts, random graphs, chord paths
    and chord-like graphs."""
    rng = random.Random(31)
    cases = [(g, None) for g in property_suite]
    cases += [forced() for forced in _FORCED_STARTS]
    cases += [(random_graph(rng, n_max=12), None) for _ in range(150)]
    cases += [(chord_path(n), None) for n in range(2, 60)]
    cases += [(_chord_like(rng, 60, k % 11), None) for k in range(240)]
    cases.append((chord_path(1500), None))
    return cases


def test_in_place_moves_match_the_rebuilding_reference(property_suite):
    kinds: set[str] = set()
    for g, start in _moving_graphs(property_suite):
        result = reduce_cycles(g, start=start)
        bfm, events = reduce_cycles_rebuilding(g, start)
        assert result.events == events, g
        assert result.solution == bfm and result.gamma == len(bfm.odd_cycles)
        kinds |= {e.kind for e in events if isinstance(e, AugmentationEvent)}
    assert kinds == {"cycle_zero_cover", "two_cycles", "path_to_covered", "path_to_exposed"}


def _assert_well_formed(aux) -> None:
    """Every row of G' is `()` or a nonempty, strictly increasing list, b is
    in a's row exactly when a is in b's, and M' is symmetric."""
    rows = aux.adjacency
    for a, row in enumerate(rows):
        if type(row) is tuple:
            assert row == (), a
        else:
            assert type(row) is list and row, a
            assert all(p < q for p, q in zip(row, row[1:])), (a, row)
        assert all(a in rows[b] for b in row), a
    assert all(b is None or aux.mate[b] == a for a, b in enumerate(aux.mate))


def test_each_move_leaves_what_a_rebuild_makes(monkeypatch, property_suite):
    # G' is well formed after the build and after every augmentation; and
    # then G', M', the half counts and the live cycles, in their sorted
    # order, equal `build_auxiliary` and `decompose` on the pair the
    # reference move makes
    build, move = matchstab.cycles.build_auxiliary, matchstab.cycles.apply_augmentation
    builds, moves = [0], [0]

    def checked_build(graph, bfm, cover, tight):
        aux = build(graph, bfm, cover, tight)
        _assert_well_formed(aux)
        builds[0] += 1
        return aux

    def checked(graph, cover, tight, aux, halves, path):
        before = decompose(graph, halves)
        assert tuple(aux.cycle_of.values()) == before.odd_cycles
        assert aux == build(graph, before, cover, tight)
        new, expected = _reference_move(before, cover, tight, aux, path)
        event = move(graph, cover, tight, aux, halves, path)
        assert event == expected
        assert halves == list(new.halves)
        assert tuple(aux.cycle_of.values()) == new.odd_cycles
        _assert_well_formed(aux)
        assert aux == build(graph, new, cover, tight)
        moves[0] += 1
        return event

    monkeypatch.setattr(matchstab.cycles, "build_auxiliary", checked_build)
    monkeypatch.setattr(matchstab.cycles, "apply_augmentation", checked)
    for g, start in _moving_graphs(property_suite):
        reduce_cycles(g, start=start)
    assert moves[0] > 150 and builds[0] > 150


def test_lone_roots_match_the_rebuilding_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator; a
    # root with no live neighbour in G' is its own frustrated tree, recorded
    # without a search, and on tri-chain every root is one
    families = bench_families(monkeypatch)
    searches = count_calls(monkeypatch, matchstab.cycles, "grow_tree")
    for workload in families.LADDERS:
        searches[0] = trees = 0
        for inst in families.Generator(workload, 7).round():
            g = parse_instance(inst.to_json()).graph
            result = reduce_cycles(g)
            bfm, events = reduce_cycles_rebuilding(g)
            assert result.events == events and result.solution == bfm, g
            trees += sum(isinstance(e, FrustrationEvent) for e in events)
        if workload == "tri-chain":
            assert searches[0] == 0 and trees > 0


def test_a_lone_root_costs_no_search(monkeypatch):
    g = tri_chain(random.Random(40), 40)
    searches = count_calls(monkeypatch, matchstab.cycles, "grow_tree")
    result = reduce_cycles(g)
    assert result.events == tuple(FrustrationEvent(c, ()) for c in result.solution.odd_cycles)
    assert result.gamma == 40 and searches[0] == 0


def test_row_work_grows_linearly_on_the_chord_path(monkeypatch):
    # the row edits (two rows per `link` or `unlink`, each a bisect and at
    # most one insert or delete in place) plus the entries sorted, summed
    # over a run with the pair given: the build sorts each row once, and no
    # move copies a row, z's included, which holds about n/16 nodes
    work = [0]

    def counted(edit):
        def edit_rows(aux, a, b):
            work[0] += 2
            edit(aux, a, b)
        return edit_rows

    def counted_sorted(items):
        out = sorted(items)
        work[0] += len(out)
        return out

    for name in ("link", "unlink"):
        monkeypatch.setattr(AuxiliaryGraph, name, counted(getattr(AuxiliaryGraph, name)))
    monkeypatch.setattr(matchstab.edmonds, "sorted", counted_sorted, raising=False)
    totals = []
    for n in (6000, 12000, 24000, 48000):
        g = chord_path(n)
        start = solve_fractional(g)
        work[0] = 0
        reduce_cycles(g, start=start)
        totals.append(work[0])
    assert all(b <= 2.2 * a for a, b in zip(totals, totals[1:])), totals


def test_gamma_on_small_chord_paths_matches_the_oracle():
    # every chord path up to 12 vertices is stable (gamma 0); the chord-like
    # graphs of that size also have cycles left, and some searches augment
    rng = random.Random(8)
    graphs = [chord_path(n) for n in range(2, 13)]
    graphs += [_chord_like(rng, rng.randint(4, 12), rng.randint(0, 4)) for _ in range(150)]
    gammas, moves = [], 0
    for g in graphs:
        result = reduce_cycles(g)
        assert result.gamma == oracle.brute_gamma(g), g
        assert result.weight == oracle.exact_nu_f(g)
        gammas.append(result.gamma)
        moves += sum(isinstance(e, AugmentationEvent) for e in result.events)
    assert max(gammas) > 0 and moves > 0


def test_tight_edges_only_when_x_has_a_cycle(monkeypatch):
    tights = count_calls(monkeypatch, matchstab.cycles, "tight_edges")
    path = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
    assert reduce_cycles(path).gamma == 0
    assert reduce_cycles(fig9()).gamma == 1
    assert tights[0] == 1
