"""The oracle's integer tables against the `Fraction` tables they replaced.

`oracle.exact_nu` fills a memo of its own top-down on the integers D.w,
storing only the masks its recursion reaches, and rebuilds the witness from
it. The bottom-up `Fraction` table over all 2^n masks and the `exact_nu`
that read it are kept below as the reference: on every graph here both must
give the same value and the same witness pairs.

`oracle._basic_table` holds (2D.ν_f, γ) for every mask, reading the heaviest
odd cycle on each vertex set from a Held-Karp table. The `Fraction` table
that tried every odd cycle found by a depth-first search is kept below as its
reference: every mask must hold the same (ν_f, γ). The stabilizer searches
that read both tables for arbitrary masks must return the same sets as the
two references.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from conftest import bench_families, random_graph, random_matching
from matchstab import oracle
from matchstab.graph import HALF, Matching, WeightedGraph
from matchstab.instance import parse_instance

ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# The Fraction reference: the full table and the searches as they read it.


def _reference_nu_table(graph: WeightedGraph) -> list[Fraction]:
    """table[mask] = maximum matching weight inside the induced subgraph."""
    table: list[Fraction] = [ZERO] * (1 << graph.n)
    for mask in range(1, 1 << graph.n):
        v = (mask & -mask).bit_length() - 1
        best = table[mask & ~(1 << v)]
        for u, idx in graph.adjacency[v]:
            if mask >> u & 1:
                cand = graph.edges[idx][2] + table[mask & ~(1 << v) & ~(1 << u)]
                if cand > best:
                    best = cand
        table[mask] = best
    return table


def _reference_exact_nu(graph: WeightedGraph) -> tuple[Fraction, Matching, int]:
    """The value, the witness, and how many rebuild steps had a choice
    (v exposed or matched, or two optimal neighbours), which the
    tie-breaks settle."""
    table = _reference_nu_table(graph)
    full = (1 << graph.n) - 1
    pairs: list[tuple[int, int]] = []
    ties = 0
    mask = full
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        optimal = [
            u for u, idx in graph.adjacency[v]
            if mask >> u & 1 and table[mask] == graph.edges[idx][2] + table[rest & ~(1 << u)]
        ]
        exposed = table[mask] == table[rest]
        ties += exposed + len(optimal) > 1
        if exposed:
            mask = rest
            continue
        pairs.append((v, optimal[0]))
        mask = rest & ~(1 << optimal[0])
    return table[full], Matching.from_pairs(pairs), ties


def _reference_cycles_from(
    graph: WeightedGraph, v: int, mask: int
) -> list[tuple[Fraction, int]]:
    """All odd cycles through v inside mask as (weight, vertex_mask).

    v is the smallest vertex of the mask, so walking paths out of v and only
    closing when the path's second vertex is below its last counts every odd
    cycle exactly once.
    """
    out: list[tuple[Fraction, int]] = []

    def dfs(cur: int, second: int, used: int, weight: Fraction, length: int) -> None:
        if length >= 2 and length % 2 == 0 and graph.has_edge(cur, v) and second < cur:
            close_w = graph.weight(cur, v)
            out.append((weight + close_w, used))
        for u, idx in graph.adjacency[cur]:
            if u != v and (mask >> u & 1) and not (used >> u & 1):
                dfs(u, second, used | (1 << u), weight + graph.edges[idx][2], length + 1)

    for u, idx in graph.adjacency[v]:
        if mask >> u & 1:
            dfs(u, u, (1 << v) | (1 << u), graph.edges[idx][2], 1)
    return out


def _reference_basic_table(graph: WeightedGraph) -> list[tuple[Fraction, int]]:
    """table[mask] = (best basic value, fewest cycles among best) inside mask.

    Enumerates every basic structure: at the smallest vertex of the mask,
    either leave it exposed, match it, or put it on any odd cycle through it.
    """
    table: list[tuple[Fraction, int]] = [(ZERO, 0)] * (1 << graph.n)
    for mask in range(1, 1 << graph.n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        best_val, best_cyc = table[rest]
        for u, idx in graph.adjacency[v]:
            if mask >> u & 1:
                val, cyc = table[rest & ~(1 << u)]
                val = val + graph.edges[idx][2]
                if val > best_val or (val == best_val and cyc < best_cyc):
                    best_val, best_cyc = val, cyc
        for cyc_weight, cyc_mask in _reference_cycles_from(graph, v, mask):
            val, cyc = table[mask & ~cyc_mask]
            val = val + cyc_weight * HALF
            cyc += 1
            if val > best_val or (val == best_val and cyc < best_cyc):
                best_val, best_cyc = val, cyc
        table[mask] = (best_val, best_cyc)
    return table


def _reference_min_vertex_stabilizer(graph: WeightedGraph) -> frozenset[int]:
    nu, basic = _reference_nu_table(graph), _reference_basic_table(graph)
    full = (1 << graph.n) - 1
    for k in range(graph.n + 1):
        for subset in combinations(range(graph.n), k):
            mask = full & ~sum(1 << v for v in subset)
            if nu[mask] == basic[mask][0]:
                return frozenset(subset)
    raise AssertionError("empty graph is stable")


def _reference_min_m_stabilizer(graph: WeightedGraph, matching: Matching):
    nu, basic = _reference_nu_table(graph), _reference_basic_table(graph)
    exposed = [v for v in range(graph.n) if not matching.covers(v)]
    target = matching.weight(graph)
    full = (1 << graph.n) - 1
    for k in range(len(exposed) + 1):
        for subset in combinations(exposed, k):
            mask = full & ~sum(1 << v for v in subset)
            if nu[mask] == target and nu[mask] == basic[mask][0]:
                return frozenset(subset)
    return oracle.INFEASIBLE


# ---------------------------------------------------------------------------


def _assert_agree(graph: WeightedGraph) -> int:
    """exact_nu equals the reference; returns the reference's tie count."""
    value, witness = oracle.exact_nu(graph)
    ref_value, ref_witness, ties = _reference_exact_nu(graph)
    assert (value, witness.pairs) == (ref_value, ref_witness.pairs), graph
    return ties


def _assert_tables_agree(graph: WeightedGraph) -> None:
    """Every mask of the basic table equals the reference's (ν_f, γ)."""
    double_scale = 2 * graph.scale
    table = [(Fraction(value, double_scale), cycles) for value, cycles in oracle._basic_table(graph)]
    assert table == _reference_basic_table(graph), graph


def _assert_cycle_tables_agree(graph: WeightedGraph) -> None:
    """Each vertex set holds D.w of the heaviest of the reference's odd
    cycles on exactly those vertices, and no other set holds anything."""
    expected = [None] * (1 << graph.n)
    full = (1 << graph.n) - 1
    for v in range(graph.n):
        for weight, cycle_mask in _reference_cycles_from(graph, v, full & ~((1 << v) - 1)):
            scaled = weight * graph.scale
            if expected[cycle_mask] is None or scaled > expected[cycle_mask]:
                expected[cycle_mask] = scaled
    assert oracle._cycle_weights(graph) == expected, graph


def _fractional(rng: random.Random, base: WeightedGraph, denominator) -> WeightedGraph:
    return WeightedGraph.from_edges(
        base.n, [(u, v, Fraction(rng.randint(0, 12), denominator())) for u, v, _w in base.edges]
    )


def test_nu_memo_matches_the_reference_on_the_property_suite(property_suite):
    ties = sum(_assert_agree(g) for g in property_suite)
    assert ties >= 50  # the tie-breaks decide many witnesses here (79)


def test_nu_memo_matches_the_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator,
    # those with at most 12 vertices
    families = bench_families(monkeypatch)
    sizes = []
    for workload in families.LADDERS:
        for inst in families.Generator(workload, 7).round():
            if inst.n <= oracle.MAX_VERTICES:
                _assert_agree(parse_instance(inst.to_json()).graph)
                sizes.append(inst.n)
    assert max(sizes) == oracle.MAX_VERTICES


def test_nu_memo_matches_the_reference_on_weight_denominators_2_to_6():
    rng = random.Random(17)
    for d in range(2, 7):
        for _ in range(12):
            _assert_agree(_fractional(rng, random_graph(rng), lambda: d))
    for _ in range(40):  # denominators mixed within one graph
        _assert_agree(_fractional(rng, random_graph(rng), lambda: rng.randint(2, 6)))


def test_nu_memo_matches_the_reference_on_k12_and_the_edgeless_graph():
    rng = random.Random(12)
    pairs = list(combinations(range(12), 2))
    k12_unit = WeightedGraph.from_edges(12, [(u, v, 1) for u, v in pairs])
    k12 = WeightedGraph.from_edges(
        12, [(u, v, Fraction(rng.randint(1, 30), rng.randint(1, 6))) for u, v in pairs]
    )
    for g in (k12_unit, k12, WeightedGraph.from_edges(0, []), WeightedGraph.from_edges(5, [])):
        _assert_agree(g)


def test_basic_table_matches_the_reference_on_the_property_suite(property_suite):
    for g in property_suite:
        _assert_tables_agree(g)


def test_cycle_table_holds_the_heaviest_reference_cycle_on_each_vertex_set(property_suite):
    # a set of one or two vertices, or any even set, never beats leaving
    # its vertices exposed or matched, so the basic table cannot tell
    # whether it was tried; the cycle table itself must not hold it
    rng = random.Random(20)
    dense = [
        WeightedGraph.from_edges(n, [(u, v, rng.randint(0, 9)) for u, v in combinations(range(n), 2)])
        for n in range(1, 10)
    ]
    for g in property_suite + dense:
        _assert_cycle_tables_agree(g)


def test_basic_table_matches_the_reference_on_weight_denominators_2_to_6():
    rng = random.Random(19)
    for d in range(2, 7):
        for _ in range(8):
            _assert_tables_agree(_fractional(rng, random_graph(rng), lambda: d))
    for _ in range(20):  # denominators mixed within one graph
        _assert_tables_agree(_fractional(rng, random_graph(rng), lambda: rng.randint(2, 6)))


def test_basic_table_matches_the_reference_on_dense_k3_to_k9():
    rng = random.Random(9)
    for n in range(3, 10):
        _assert_tables_agree(WeightedGraph.from_edges(
            n, [(u, v, Fraction(rng.randint(1, 30), rng.randint(1, 6))) for u, v in combinations(range(n), 2)]
        ))


def test_basic_table_matches_the_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator,
    # those the Fraction reference enumerates in time
    families = bench_families(monkeypatch)
    sizes = []
    for workload in families.LADDERS:
        for inst in families.Generator(workload, 7).round():
            if inst.n <= 9:
                _assert_tables_agree(parse_instance(inst.to_json()).graph)
                sizes.append(inst.n)
    assert len(sizes) >= 10 and max(sizes) == 9


def test_stabilizer_searches_match_the_reference(property_suite):
    rng = random.Random(18)
    for g in property_suite:
        assert oracle.brute_min_vertex_stabilizer(g) == _reference_min_vertex_stabilizer(g)
        m = random_matching(rng, g)
        assert oracle.brute_min_m_stabilizer(g, m) == _reference_min_m_stabilizer(g, m)
    for _ in range(20):  # fractional weights
        g = _fractional(rng, random_graph(rng), lambda: rng.randint(1, 6))
        assert oracle.brute_min_vertex_stabilizer(g) == _reference_min_vertex_stabilizer(g)
        m = random_matching(rng, g)
        assert oracle.brute_min_m_stabilizer(g, m) == _reference_min_m_stabilizer(g, m)


def test_nu_memo_of_a_12_vertex_graph_stays_within_2_to_the_12():
    k12 = WeightedGraph.from_edges(12, [(u, v, 1) for u, v in combinations(range(12), 2)])
    memo = {0: 0}
    oracle._nu_at(k12, memo, (1 << 12) - 1)
    assert 0 < len(memo) < 1 << 12  # only the masks the recursion reaches
    for mask in range(1 << 12):  # every induced subgraph asked for
        oracle._nu_at(k12, memo, mask)
    assert len(memo) == 1 << 12
    assert all(0 <= mask < 1 << 12 for mask in memo)
