from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from complete_graph import complete_graph
from conftest import (
    bench_families, count_calls, cover_of, fig6, fig8, fig9, random_graph, tri_chain,
    weight_denominator_graphs,
)
from matchstab import graph as graph_module, lp, oracle
from matchstab.errors import DegreeConstraintViolated, NotHalfIntegral, NotOptimalPair
from matchstab.graph import (
    ZERO,
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.certify import optimal_pair_checks, verify_optimal_pair
from matchstab.instance import parse_instance
from matchstab.lp import bipartite_max_weight_matching, solve_fractional
from test_half_counts import _reference_normalize_to_basic

H = Fraction(1, 2)


def _reference_hungarian(
    graph: WeightedGraph, on_integers: bool = False,
) -> tuple[list[Optional[int]], list[Fraction], list[Fraction]]:
    """The Hungarian method on Fraction potentials that rescans every even
    row on each growth pass: the reference the integer kernel must match.
    With `on_integers` it runs the same method on the graph's integers D.w
    and int potentials, which it returns scaled by D, as the kernel does:
    fast enough for K_120.

    Maximum-weight matching on the duplicate with an exact dual certificate.

    Returns the right partner of every left copy (or None) and the left and
    right potentials. Primal-dual phases are rooted at exposed left copies
    with positive potential. A phase ends by augmenting to an exposed right
    copy, by the root potential reaching zero (the root retires exposed), or
    by a matched left node's potential reaching zero, in which case the
    matching is flipped along the alternating tree so that node retires
    exposed instead. All three keep the invariants: feasible potentials,
    tight matched edges, exposed right copies at potential zero.
    """
    n = graph.n
    adjacency = graph.adjacency
    if on_integers:
        weight, zero = list(graph.int_weights), 0
    else:
        weight, zero = [w for _u, _v, w in graph.edges], ZERO
    p_left: list[Fraction] = [
        max((weight[i] for _r, i in adjacency[u] if weight[i] > 0), default=zero)
        for u in range(n)
    ]
    p_right: list[Fraction] = [zero] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n

    def run_phase(root: int) -> None:
        even: list[int] = [root]
        even_set = {root}
        odd_set: set[int] = set()
        parent_right: dict[int, int] = {}

        def rematch_chain(r: int, u: int) -> None:
            # give right r to even node u, cascading along the tree to the root
            while True:
                next_r = match_l[u]  # None exactly at the root
                match_l[u] = r
                match_r[r] = u
                if next_r is None:
                    return
                r = next_r
                u = parent_right[r]

        while True:
            grew = True
            while grew:
                grew = False
                for u in list(even):
                    for r, i in adjacency[u]:
                        if r in odd_set or p_left[u] + p_right[r] != weight[i]:
                            continue
                        if match_r[r] is None:
                            rematch_chain(r, u)  # augmenting path
                            return
                        odd_set.add(r)
                        parent_right[r] = u
                        mate = match_r[r]
                        assert mate not in even_set
                        even_set.add(mate)
                        even.append(mate)
                        grew = True
            # stuck on tight edges: adjust the duals
            delta_edge: Optional[Fraction] = None
            for u in even:
                for r, i in adjacency[u]:
                    if r in odd_set:
                        continue
                    slack = p_left[u] + p_right[r] - weight[i]
                    if delta_edge is None or slack < delta_edge:
                        delta_edge = slack
            zero_at = min(even, key=lambda u: (p_left[u], u))
            delta = p_left[zero_at]
            if delta_edge is not None and delta_edge < delta:
                delta = delta_edge
            for u in even:
                p_left[u] -= delta
            for r in odd_set:
                p_right[r] += delta
            if p_left[zero_at] == 0:
                if zero_at == root:
                    return  # root retires exposed at potential zero
                # flip the matching along the tree: zero_at retires exposed
                r = match_l[zero_at]
                assert r is not None
                match_l[zero_at] = None
                rematch_chain(r, parent_right[r])
                return
            # a new tight edge appeared; keep growing

    while True:
        root = next(
            (u for u in range(n) if match_l[u] is None and p_left[u] > 0), None
        )
        if root is None:
            break
        run_phase(root)
    return match_l, p_left, p_right


def _next_root_kernel(
    graph: WeightedGraph,
) -> tuple[list[Optional[int]], list[int], list[int]]:
    """The integer kernel as it ran before its single pass over the roots:
    before each phase it scans for the lowest eligible left copy from 0.
    The reference the kernel must match."""
    n = graph.n
    adjacency = graph.adjacency
    weight = graph.int_weights
    p_left = [
        max((weight[i] for _r, i in adjacency[u] if weight[i] > 0), default=0)
        for u in range(n)
    ]
    p_right = [0] * n
    match_l: list[Optional[int]] = [None] * n
    match_r: list[Optional[int]] = [None] * n

    def run_phase(root: int) -> None:
        even: list[int] = []
        position: dict[int, int] = {}  # even left copy -> its place in `even`
        odd: set[int] = set()
        parent_right: dict[int, int] = {}
        # every right copy reached from an even row but not odd: its least
        # slack, and the first even row in `even` order that attains it
        slack: dict[int, int] = {}
        arg: dict[int, int] = {}

        def rematch_chain(r: int, u: int) -> None:
            # give right r to even node u, cascading along the tree to the root
            while True:
                next_r = match_l[u]  # None exactly at the root
                match_l[u] = r
                match_r[r] = u
                if next_r is None:
                    return
                r = next_r
                u = parent_right[r]

        def take(r: int, u: int) -> bool:
            # follow the tight edge (u, r); True if it augmented
            mate = match_r[r]
            if mate is None:
                rematch_chain(r, u)
                return True
            odd.add(r)
            parent_right[r] = u
            slack.pop(r, None)
            assert mate not in position
            position[mate] = len(even)
            even.append(mate)
            return False

        position[root] = 0
        even.append(root)
        scanned = 0
        while True:
            while scanned < len(even):
                u = even[scanned]
                scanned += 1
                pu = p_left[u]
                for r, i in adjacency[u]:
                    if r in odd:
                        continue
                    s = pu + p_right[r] - weight[i]
                    if s == 0:
                        if take(r, u):
                            return
                    elif r not in slack or s < slack[r]:
                        slack[r] = s
                        arg[r] = u
            # stuck on tight edges: adjust the duals
            zero_at = min(even, key=lambda u: (p_left[u], u))
            delta = p_left[zero_at]
            delta_edge = min(slack.values(), default=None)
            if delta_edge is not None and delta_edge < delta:
                delta = delta_edge
            for u in even:
                p_left[u] -= delta
            for r in odd:
                p_right[r] += delta
            if p_left[zero_at] == 0:
                if zero_at == root:
                    return  # root retires exposed at potential zero
                # flip the matching along the tree: zero_at retires exposed
                r = match_l[zero_at]
                assert r is not None
                match_l[zero_at] = None
                rematch_chain(r, parent_right[r])
                return
            # new tight edges, taken in the order a rescan of the even rows
            # would meet them: by row position, then by right copy
            for r in slack:
                slack[r] -= delta
            tight = sorted(
                (r for r, s in slack.items() if s == 0), key=lambda r: (position[arg[r]], r)
            )
            for r in tight:
                if take(r, arg[r]):
                    return

    while True:
        root = next(
            (u for u in range(n) if match_l[u] is None and p_left[u] > 0), None
        )
        if root is None:
            break
        run_phase(root)
    return match_l, p_left, p_right


def _duplicate_weight_and_total(g):
    """Weight of the duplicate's matching and the sum of its potentials,
    which the kernel returns scaled by D."""
    match_left, p_left, p_right = bipartite_max_weight_matching(g)
    weight = sum(
        (g.weight(u, r) for u, r in enumerate(match_left) if r is not None),
        start=Fraction(0),
    )
    return weight, Fraction(sum(p_left) + sum(p_right), g.scale)


def _averaged(g):
    """The duplicate's matching averaged back onto g: 1/2 per matched copy,
    as half counts 2x."""
    match_left, _p_left, _p_right = bipartite_max_weight_matching(g)
    halves = [0] * g.m
    for u, r in enumerate(match_left):
        if r is not None:
            halves[g.edge_index(u, r)] += 1
    return halves


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
    halves = _averaged(tri)
    assert sum(w * h for (_u, _v, w), h in zip(tri.edges, halves)) == 3  # 2 w.x
    assert all(h in (0, 1, 2) for h in halves)


def _seeded_graphs() -> list[WeightedGraph]:
    """400 random graphs, n = 3-12, with up to 2n edges of weight 1-3. Their
    kernel matchings hold every kind of component, half paths and tied even
    cycles among them."""
    rng = random.Random(1)
    graphs = []
    for _ in range(400):
        n = rng.randint(3, 12)
        possible = list(itertools.combinations(range(n), 2))
        m = rng.randint(0, min(len(possible), 2 * n))
        edges = [(u, v, rng.randint(1, 3)) for u, v in rng.sample(possible, m)]
        graphs.append(WeightedGraph.from_edges(n, edges))
    return graphs


def _kernel_components(g) -> list[tuple[str, list[int]]]:
    """The components of the kernel's matching u -> match_left[u], each as
    its kind ("pair", "odd cycle", "half path" or "even cycle") and its
    edge indices in the map's order. Each is walked by following the map
    from a vertex with no predecessor, or else from its lowest vertex: a
    walk that returns after two arcs is a pair, one that returns after
    more is a cycle, and one that stops is a path."""
    succ = {u: r for u, r in enumerate(bipartite_max_weight_matching(g)[0]) if r is not None}
    pred = {r: u for u, r in succ.items()}
    out, seen = [], set()
    for v in sorted(set(succ) | set(pred)):
        if v in seen:
            continue
        start = v  # a path's start, or v itself on a cycle
        while start in pred and pred[start] != v:
            start = pred[start]
        if pred.get(start) == v:
            start = v
        walk = [start]
        while walk[-1] in succ and (len(walk) == 1 or walk[-1] != start):
            walk.append(succ[walk[-1]])
        seen.update(walk)
        arcs = len(walk) - 1
        if walk[-1] != start:
            kind = "half path"
        elif arcs == 2:
            kind = "pair"
        else:
            kind = "odd cycle" if arcs % 2 else "even cycle"
        out.append((kind, [g.edge_index(a, b) for a, b in zip(walk, walk[1:])]))
    return out


def test_solve_fractional_keeps_a_basic_kernel_x():
    tri = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert [kind for kind, _edges in _kernel_components(tri)] == ["odd cycle"]
    assert solve_fractional(tri)[0].values == (H, H, H)
    basic = 0
    for g in _seeded_graphs():
        if all(kind in ("pair", "odd cycle") for kind, _edges in _kernel_components(g)):
            basic += 1
            assert solve_fractional(g)[0].halves == tuple(_averaged(g)), g
    assert basic >= 300


def test_even_cycles_and_half_paths_keep_their_heavier_alternation():
    # ties go to the alternation that holds the component's lowest edge index
    tied = Counter()
    for g in _seeded_graphs():
        halves = solve_fractional(g)[0].halves
        weight = g.int_weights
        for kind, edges in _kernel_components(g):
            if kind not in ("even cycle", "half path"):
                continue
            first, second = edges[0::2], edges[1::2]
            w_first = sum(weight[i] for i in first)
            w_second = sum(weight[i] for i in second)
            if w_first == w_second:
                tied[kind] += 1
                kept = first if min(edges) in first else second
            else:
                kept = first if w_first > w_second else second
            assert [halves[i] for i in edges] == [2 if i in kept else 0 for i in edges], g
    assert tied["even cycle"] and tied["half path"], tied


def test_a_half_path_is_rounded():
    g = WeightedGraph.from_edges(3, [(0, 1, 3), (1, 2, 3)])
    assert [kind for kind, _edges in _kernel_components(g)] == ["half path"]
    out = solve_fractional(g)[0]
    assert out.weight == 3
    assert out.values[0] == 1 and out.values[1] == 0


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
        assert bfm.weight == sum(cover.values)
        tight = tight_edges(g, cover)
        assert all(i in tight for i in bfm.support)
        assert all(
            cover.values[v] == 0 or bfm.vertex_halves[v] == 2 for v in range(g.n)
        )
        # solver value equals the enumeration oracle
        assert bfm.weight == oracle.exact_nu_f(g)
        # the result round-trips through decompose bit-exactly
        assert decompose(g, bfm.halves) == bfm


def test_rounding_never_changes_weight():
    rng = random.Random(7)
    graphs = [random_graph(rng) for _ in range(60)] + _seeded_graphs()
    for g in graphs:
        raw = _averaged(g)
        raw_weight = sum(
            (w * h for (_u, _v, w), h in zip(g.edges, raw)), start=Fraction(0)
        ) / 2
        assert solve_fractional(g)[0].weight == raw_weight


def test_zero_weight_edges_are_harmless():
    g = WeightedGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    bfm, cover = solve_fractional(g)
    assert bfm.weight == 0 and sum(cover.values) == 0

    mixed = WeightedGraph.from_edges(4, [(0, 1, 3), (1, 2, 0), (2, 3, 2)])
    bfm, cover = solve_fractional(mixed)
    assert bfm.weight == 5 == sum(cover.values)
    from matchstab.cycles import reduce_cycles

    assert reduce_cycles(mixed).gamma == 0


def test_pair_checks_reject_a_negative_cover():
    # path 0-2-3-1 with weights 1, 3, 1: x = {02, 13} weighs 2 < nu_f = 3, yet
    # y = (-2, -2, 3, 3) covers every edge, sums to 2 and is complementary
    g = WeightedGraph.from_edges(4, [(0, 2, 1), (1, 3, 1), (2, 3, 3)])
    bfm = decompose(g, (2, 2, 0))
    cover = cover_of((-2, -2, 3, 3))
    assert dict(optimal_pair_checks(g, bfm, cover)) == {
        "cover_is_feasible": False,
        "strong_duality": True,
        "complementary_slackness": True,
    }
    with pytest.raises(NotOptimalPair, match="cover_is_feasible"):
        verify_optimal_pair(g, bfm, cover)


def test_pair_checks_refuse_an_x_on_another_graph():
    # x and y are optimal on g1, and every check would pass on g2, whose
    # edges are others: the pair would prove a matching g2 does not have
    g1 = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    g2 = WeightedGraph.from_edges(4, [(0, 2, 1), (1, 3, 1)])
    bfm, cover = solve_fractional(g1)
    with pytest.raises(NotOptimalPair, match="another graph"):
        optimal_pair_checks(g2, bfm, cover)
    from matchstab.cycles import reduce_cycles

    with pytest.raises(NotOptimalPair, match="another graph"):
        reduce_cycles(g2, start=(bfm, cover))
    # an equal graph built anew is the same graph
    same = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    assert all(ok for _name, ok in optimal_pair_checks(same, bfm, cover))


def _sparse(rng, draw):
    n = rng.randint(2, 10)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.from_edges(
        n, [(u, v, draw(rng)) for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
    )


def test_root_pass_matches_the_next_root_kernel(monkeypatch, property_suite):
    families = bench_families(monkeypatch)
    graphs = list(property_suite)
    graphs += [  # one round of every workload of the benchmark's instance generator
        parse_instance(inst.to_json()).graph
        for workload in families.LADDERS
        for inst in families.Generator(workload, 7).round()
    ]
    n, edges = families._sparse(random.Random(1), 1600)
    graphs.append(WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in sorted(edges.items())]))
    for g in graphs:
        assert bipartite_max_weight_matching(g) == _next_root_kernel(g), g


def test_kernel_matches_the_fraction_reference(property_suite):
    rng = random.Random(10)
    graphs = list(property_suite)
    graphs += [complete_graph(rng, n, 1000) for n in range(4, 41, 4)]
    graphs += [_sparse(rng, lambda r: r.choice((0, 0, 1, 2, 3))) for _ in range(60)]
    graphs += [
        _sparse(rng, lambda r: Fraction(r.randint(0, 12), r.randint(2, 6))) for _ in range(60)
    ]
    for g in graphs:
        # the kernel's potentials are the reference's scaled by D
        match_left, p_left, p_right = _reference_hungarian(g)
        d = g.scale
        assert bipartite_max_weight_matching(g) == (
            match_left, [p * d for p in p_left], [p * d for p in p_right]
        ), g


def test_kernel_matches_both_references_on_larger_complete_graphs():
    # the bench times K_36..K_44 with weights 1-1000; weights 1-20 give
    # many ties between slacks and between potentials, and weights 1-2 and
    # 1-3 leave almost every root a direct match
    cases = [(n, high) for n in (60, 90, 120) for high in (1000, 20)]
    cases += [(n, high) for n in (40, 80) for high in (2, 3)]
    for n, high in cases:
        g = complete_graph(random.Random(n), n, high)
        got = bipartite_max_weight_matching(g)
        assert got == _next_root_kernel(g) == _reference_hungarian(g, on_integers=True)
        if high <= 20:  # the Fraction reference, fast enough where ties abound
            match_left, p_left, p_right = _reference_hungarian(g)
            assert got == (match_left, p_left, p_right) and g.scale == 1


def _degree_six(rng: random.Random, n: int, high: int) -> WeightedGraph:
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 3 * n:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    return WeightedGraph.from_edges(n, [(u, v, rng.randint(1, high)) for u, v in sorted(pairs)])


def test_kernel_takes_tied_tight_copies_as_the_references_do(monkeypatch):
    # on sparse graphs with small weights most dual steps make several
    # edges tight at once; they must be taken by row position, then by
    # copy, which is the order a rescan of the even rows would meet them
    families = bench_families(monkeypatch)
    rng = random.Random(6)
    graphs = [
        _degree_six(rng, n, high) for n in (40, 80) for high in (2, 3, 5) for _ in range(30)
    ]
    graphs += [  # one round of the benchmark's sparse workloads
        parse_instance(inst.to_json()).graph
        for workload in ("tri-chain", "mstab-sparse")
        for inst in families.Generator(workload, 7).round()
    ]
    for g in graphs:
        got = bipartite_max_weight_matching(g)
        assert got == _next_root_kernel(g) == _reference_hungarian(g, on_integers=True), g


def test_a_phase_leaves_the_per_call_arrays_empty(monkeypatch, property_suite):
    families = bench_families(monkeypatch)
    run_phase = lp._run_phase
    arrays: set[int] = set()

    def checked(root, rows, p_left, p_right, match_l, match_r, parent, key, arg):
        run_phase(root, rows, p_left, p_right, match_l, match_r, parent, key, arg)
        state = (parent, key, arg)  # indexed by right copy
        arrays.update(map(id, state))
        for entries in state:
            assert entries == [None] * len(entries)

    monkeypatch.setattr(lp, "_run_phase", checked)
    graphs = list(property_suite)
    graphs += [  # one round of every workload of the benchmark's instance generator
        parse_instance(inst.to_json()).graph
        for workload in families.LADDERS
        for inst in families.Generator(workload, 7).round()
    ]
    for g in graphs:
        arrays.clear()
        assert bipartite_max_weight_matching(g) == _next_root_kernel(g), g
        assert len(arrays) in (0, 3)  # allocated once per call, not per phase


class _CountingRows(tuple):
    """A tuple of rows that counts the rows read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_kernel_reads_each_even_row_once_per_phase(monkeypatch):
    g = complete_graph(random.Random(1), 40, 1000)
    build = lp._start
    made: list[_CountingRows] = []

    def counted(graph):
        rows, p_left = build(graph)
        made.append(_CountingRows(rows))
        return made[-1], p_left

    monkeypatch.setattr(lp, "_start", counted)
    got = bipartite_max_weight_matching(g)
    # the kernel's rows are built once per call and are the only rows it
    # reads: one per root for the direct match plus one per even row per
    # phase (225 in all); rescanning the even rows on every growth pass
    # reads 2639
    assert len(made) == 1 and "adjacency" not in g.__dict__
    assert made[0].reads <= 400
    assert got == _next_root_kernel(g)


def test_a_phase_starts_only_where_no_direct_match_exists(monkeypatch):
    run_phase = lp._run_phase
    phases = [0]

    def checked(root, rows, p_left, p_right, match_l, match_r, *state):
        assert match_l[root] is None and p_left[root] > 0
        assert not any(
            match_r[r] is None and p_left[root] + p_right[r] == w for r, w in rows[root]
        ), root
        phases[0] += 1
        run_phase(root, rows, p_left, p_right, match_l, match_r, *state)

    monkeypatch.setattr(lp, "_run_phase", checked)
    tri = tri_chain(random.Random(1), 40)
    dense = complete_graph(random.Random(1), 40, 1000)
    # each of the 120 and 40 roots starts a phase in the kernel without
    # direct matches; 80 and 17 of them are matched directly here
    for g, expected in ((tri, 40), (dense, 23)):
        phases[0] = 0
        assert bipartite_max_weight_matching(g) == _next_root_kernel(g)
        assert phases[0] == expected


def _rounded_graphs(monkeypatch, property_suite) -> list[WeightedGraph]:
    """The property suite, one seed-7 round of every workload of the
    benchmark's instance generator, and `weight_denominator_graphs`."""
    families = bench_families(monkeypatch)
    graphs = list(property_suite)
    graphs += [
        parse_instance(inst.to_json()).graph
        for workload in families.LADDERS
        for inst in families.Generator(workload, 7).round()
    ]
    return graphs + weight_denominator_graphs(random.Random(16))


def test_solve_fractional_x_equals_the_fraction_reference_rounding(monkeypatch, property_suite):
    # the reference rounds the kernel's averaged x with `Fraction` entries,
    # as the LP did before half counts
    for g in _rounded_graphs(monkeypatch, property_suite):
        expected = _reference_normalize_to_basic(g, [Fraction(h, 2) for h in _averaged(g)])
        assert solve_fractional(g)[0].values == expected.values, g


def test_every_lp_x_is_what_decompose_makes_of_it(monkeypatch, property_suite):
    kinds = Counter()
    for g in _rounded_graphs(monkeypatch, property_suite) + _seeded_graphs():
        bfm = solve_fractional(g)[0]
        checked = decompose(g, bfm.halves)
        assert checked == bfm and checked.vertex_halves == bfm.vertex_halves, g
        kinds.update(kind for kind, _edges in _kernel_components(g))
    assert all(kinds[kind] for kind in ("pair", "odd cycle", "half path", "even cycle")), kinds


def test_solve_fractional_reaches_no_decompose(monkeypatch):
    """x is read off the kernel's matching: no counting pass and no
    `decompose` call, for a basic x or a rounded one."""
    passes = count_calls(monkeypatch, graph_module, "_count_halves")
    calls = [0]
    decompose_of_graph = graph_module.decompose

    def counted(*args):
        calls[0] += 1
        return decompose_of_graph(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "decompose", None) is decompose_of_graph:
            monkeypatch.setattr(module, "decompose", counted)
    path = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)], labels=["a", "b", "c"])
    assert _averaged(path) == [1, 1]  # a half-valued path, not basic
    for g in (
        tri_chain(random.Random(1), 40),
        complete_graph(random.Random(1), 40, 1000),
        path,
    ):
        bfm, _cover = solve_fractional(g)
        assert passes[0] == calls[0] == 0, g
    assert bfm.halves == (2, 0)
    assert decompose(path, bfm.halves) == bfm and calls[0] == 1


def test_decompose_degree_message_names_the_load():
    path = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(DegreeConstraintViolated) as exc:
        decompose(path, (2, 1))
    assert str(exc.value) == "vertex 1 carries x(delta(v)) = 3/2"
    with pytest.raises(DegreeConstraintViolated) as exc:
        decompose(path, (2, 2))
    assert str(exc.value) == "vertex 1 carries x(delta(v)) = 2"


def test_pair_checks_on_tampered_fig8_pairs():
    g = fig8()
    bfm, cover = solve_fractional(g)
    y = list(cover.values)
    y[0] = Fraction(0)  # p's cover value
    assert optimal_pair_checks(g, bfm, cover_of(y)) == [
        ("cover_is_feasible", False),
        ("strong_duality", False),
        ("complementary_slackness", False),
    ]
    # x_qr = 3/4 (the half count 3/2) is refused before any pair check,
    # ahead of q's load 5/4
    x = list(bfm.halves)
    x[0] = Fraction(3, 2)
    with pytest.raises(NotHalfIntegral) as exc:
        decompose(g, x)
    assert str(exc.value) == "edge 0 has value 3/4, expected 0, 1/2 or 1"
    # a basic x of weight 8 < nu_f that leaves p (y_p = 1) exposed
    assert optimal_pair_checks(g, decompose(g, (2, 2, 0, 0, 0, 0, 0)), cover) == [
        ("cover_is_feasible", True),
        ("strong_duality", False),
        ("complementary_slackness", False),
    ]
