from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

import pytest

from conftest import (
    bench_families, count_calls, fig6, fig8, fig9, random_graph, tri_chain,
    weight_denominator_graphs,
)
from matchstab import lp, oracle
from matchstab.errors import DegreeConstraintViolated, NotHalfIntegral, NotOptimalPair
from matchstab.graph import (
    ZERO,
    FractionalVertexCover,
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.certify import optimal_pair_checks, verify_optimal_pair
from matchstab.instance import parse_instance
from matchstab.lp import bipartite_max_weight_matching, normalize_to_basic, solve_fractional

H = Fraction(1, 2)


def _reference_hungarian(
    graph: WeightedGraph,
) -> tuple[list[Optional[int]], list[Fraction], list[Fraction]]:
    """The Hungarian method on Fraction potentials that rescans every even
    row on each growth pass: the reference the integer kernel must match.

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
    weight = [w for _u, _v, w in graph.edges]
    p_left: list[Fraction] = [
        max((weight[i] for _r, i in adjacency[u] if weight[i] > 0), default=ZERO)
        for u in range(n)
    ]
    p_right: list[Fraction] = [ZERO] * n
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


def test_normalize_identity_on_basic():
    tri = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    out = normalize_to_basic(tri, (1, 1, 1))
    assert out.values == (H, H, H)


def test_normalize_even_cycle_ties_break_by_edge_index():
    g4 = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    out = normalize_to_basic(g4, (1, 1, 1, 1))
    assert out.weight == 2
    assert out.values[0] == 1  # lowest-index edge wins the tie


def test_normalize_half_path():
    g = WeightedGraph.from_edges(3, [(0, 1, 3), (1, 2, 3)])
    out = normalize_to_basic(g, (1, 1))
    assert out.weight == 3
    assert out.values[0] == 1 and out.values[1] == 0


def test_normalize_rejects_three_half_edges_at_a_vertex():
    claw = WeightedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    with pytest.raises(DegreeConstraintViolated):
        normalize_to_basic(claw, (1, 1, 1))


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
            cover.values[v] == 0 or bfm.vertex_halves[v] == 2 for v in range(g.n)
        )
        # solver value equals the enumeration oracle
        assert bfm.weight == oracle.exact_nu_f(g)
        # the result round-trips through decompose bit-exactly
        assert decompose(g, bfm.halves) == bfm


def test_normalize_never_changes_weight():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng)
        raw = _averaged(g)
        raw_weight = sum(
            (w * h for (_u, _v, w), h in zip(g.edges, raw)), start=Fraction(0)
        ) / 2
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
    bfm = decompose(g, (2, 2, 0))
    cover = FractionalVertexCover.from_values(Fraction(y) for y in (-2, -2, 3, 3))
    assert dict(optimal_pair_checks(g, bfm, cover)) == {
        "cover_is_feasible": False,
        "strong_duality": True,
        "complementary_slackness": True,
    }
    with pytest.raises(NotOptimalPair, match="cover_is_feasible"):
        verify_optimal_pair(g, bfm, cover)


def _complete(rng, n, draw):
    """K_n with the weight of each edge u < v drawn in order."""
    return WeightedGraph.from_edges(
        n, [(u, v, draw(rng)) for u in range(n) for v in range(u + 1, n)]
    )


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
    graphs += [_complete(rng, n, lambda r: r.randint(1, 1000)) for n in range(4, 41, 4)]
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


class _CountingRows(tuple):
    """An adjacency tuple that counts the rows read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_kernel_reads_each_even_row_once_per_phase():
    g = _complete(random.Random(1), 40, lambda r: r.randint(1, 1000))
    rows = _CountingRows(g.adjacency)
    g.__dict__["adjacency"] = rows
    bipartite_max_weight_matching(g)
    # one row per root for the direct match plus one per even row per phase
    # (225 in all); rescanning the even rows on every growth pass reads 2639
    assert rows.reads <= 400


def test_a_phase_starts_only_where_no_direct_match_exists(monkeypatch):
    run_phase = lp._run_phase
    phases = [0]

    def checked(root, adjacency, weight, p_left, p_right, match_l, match_r):
        assert match_l[root] is None and p_left[root] > 0
        assert not any(
            match_r[r] is None and p_left[root] + p_right[r] == weight[i]
            for r, i in adjacency[root]
        ), root
        phases[0] += 1
        run_phase(root, adjacency, weight, p_left, p_right, match_l, match_r)

    monkeypatch.setattr(lp, "_run_phase", checked)
    tri = tri_chain(random.Random(1), 40)
    dense = _complete(random.Random(1), 40, lambda r: r.randint(1, 1000))
    # each of the 120 and 40 roots starts a phase in the kernel without
    # direct matches; 80 and 17 of them are matched directly here
    for g, expected in ((tri, 40), (dense, 23)):
        phases[0] = 0
        assert bipartite_max_weight_matching(g) == _next_root_kernel(g)
        assert phases[0] == expected


def _always_rounded(g):
    """x as `solve_fractional` found it before it tried `decompose` first:
    `normalize_to_basic` on the kernel's half counts, also when they are
    basic already. The reference its x must equal."""
    return normalize_to_basic(g, _averaged(g))


def test_rounding_only_a_non_basic_x_matches_always_rounding(monkeypatch, property_suite):
    families = bench_families(monkeypatch)
    graphs = list(property_suite)
    graphs += [  # one round of every workload of the benchmark's instance generator
        parse_instance(inst.to_json()).graph
        for workload in families.LADDERS
        for inst in families.Generator(workload, 7).round()
    ]
    graphs += weight_denominator_graphs(random.Random(16))
    rounds = count_calls(monkeypatch, lp, "normalize_to_basic")
    for g in graphs:
        assert solve_fractional(g)[0] == _always_rounded(g), g
    assert 0 < rounds[0] < len(graphs)  # both branches ran


def test_a_basic_kernel_x_is_not_rounded(monkeypatch):
    rounds = count_calls(monkeypatch, lp, "normalize_to_basic")
    solve_fractional(tri_chain(random.Random(1), 40))
    solve_fractional(_complete(random.Random(1), 40, lambda r: r.randint(1, 1000)))
    assert rounds[0] == 0
    path = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)], labels=["a", "b", "c"])
    assert _averaged(path) == [1, 1]  # a half-valued path, not basic
    bfm, _cover = solve_fractional(path)
    assert rounds[0] == 1 and bfm.halves == (2, 0)


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
    assert optimal_pair_checks(g, bfm, FractionalVertexCover.from_values(y)) == [
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
