"""`decompose` on half counts against its `Fraction` version.

It reads x as the half counts 2x_i, ints 0, 1 or 2, and x becomes
`Fraction`s only in `BasicFractionalMatching.values`. The `Fraction` code
it replaced is kept below as the reference: on every vector here both must
give the same M(x), C(x), values and weight, or raise the same error class
with the same text. So is the `Fraction` rounding of the LP's x, which
`test_lp` compares `solve_fractional` with.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from conftest import bench_families, canonical_cycle, weight_denominator_graphs
from matchstab.errors import DegreeConstraintViolated, NotBasic, NotHalfIntegral
from matchstab.graph import Matching, WeightedGraph, decompose
from matchstab.instance import parse_instance
from matchstab.lp import bipartite_max_weight_matching, solve_fractional

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

# ---------------------------------------------------------------------------
# The Fraction reference: `decompose` and the LP's rounding as they were,
# comparing each entry of x with HALF and ONE, with w.x written out as a
# Fraction sum.


class _Reference(NamedTuple):
    values: tuple[Fraction, ...]
    matched: Matching
    odd_cycles: tuple[tuple[int, ...], ...]
    weight: Fraction


def _reference_decompose(graph: WeightedGraph, values) -> _Reference:
    """Validate a half-integral vector and split it into M(x) and C(x).

    Raises NotHalfIntegral / DegreeConstraintViolated / NotBasic when the
    vector is not a basic fractional matching.
    """
    if len(values) != graph.m:
        raise NotHalfIntegral("value vector length does not match edge count")
    vec = [ZERO] * graph.m  # each accepted entry as the shared ZERO, HALF or ONE
    vertex_halves = [0] * graph.n  # 2 x(delta(v)), counted over the nonzero entries
    matched_pairs: list[tuple[int, int]] = []
    half_adj: dict[int, list[int]] = {}
    for idx, x in enumerate(values):
        if x == 0:
            continue
        u, v, _w = graph.edges[idx]
        if x == ONE:
            vec[idx] = ONE
            matched_pairs.append((u, v))
            vertex_halves[u] += 2
            vertex_halves[v] += 2
        elif x == HALF:
            vec[idx] = HALF
            half_adj.setdefault(u, []).append(v)
            half_adj.setdefault(v, []).append(u)
            vertex_halves[u] += 1
            vertex_halves[v] += 1
        else:
            raise NotHalfIntegral(f"edge {idx} has value {x}, expected 0, 1/2 or 1")
    for v, h in enumerate(vertex_halves):
        if h > 2:
            raise DegreeConstraintViolated(
                f"vertex {v} carries x(delta(v)) = {Fraction(h, 2)}"
            )

    matched = Matching.from_pairs(matched_pairs)

    # Half-valued edges must form vertex-disjoint odd cycles.
    cycles: list[tuple[int, ...]] = []
    visited: set[int] = set()
    for start in sorted(half_adj):
        if start in visited:
            continue
        if len(half_adj[start]) != 2:
            raise NotBasic(f"vertex {start} has {len(half_adj[start])} half-edges")
        order = [start]
        visited.add(start)
        prev, cur = start, min(half_adj[start])
        while cur != start:
            if len(half_adj[cur]) != 2:
                raise NotBasic(f"vertex {cur} has {len(half_adj[cur])} half-edges")
            visited.add(cur)
            order.append(cur)
            nxt = half_adj[cur][0] if half_adj[cur][1] == prev else half_adj[cur][1]
            prev, cur = cur, nxt
        if len(order) % 2 == 0:
            raise NotBasic(f"half-edges around vertex {start} form an even cycle")
        cycles.append(canonical_cycle(order))
    cycles.sort()
    weight = sum((w * x for (_u, _v, w), x in zip(graph.edges, vec)), start=ZERO)
    return _Reference(tuple(vec), matched, tuple(cycles), weight)


def _reference_normalize_to_basic(graph: WeightedGraph, values) -> _Reference:
    """Round half-valued paths and even cycles so only odd cycles stay at 1/2.

    Each half-valued path, walked from one of its endpoints, and then each
    half-valued cycle is split into its two 0/1 alternations and the heavier
    one is kept. Ties go to the alternation containing the lowest edge
    index. A vertex with more than two half-valued edges raises
    DegreeConstraintViolated.
    """
    vec = list(values)
    weight = graph.int_weights
    half: dict[int, list[tuple[int, int]]] = {}
    for idx, x in enumerate(vec):
        if x == HALF:
            u, v, _w = graph.edges[idx]
            half.setdefault(u, []).append((v, idx))
            half.setdefault(v, []).append((u, idx))
    for v, nbrs in half.items():
        if len(nbrs) > 2:
            raise DegreeConstraintViolated(f"vertex {v} has {len(nbrs)} half-valued edges")
    seen: set[int] = set()
    # paths from their endpoints first; every vertex left then is on a cycle
    for start in [v for v, nbrs in half.items() if len(nbrs) == 1] + list(half):
        if start in seen:
            continue
        ordered: list[int] = []  # edge indices in walking order
        prev, cur = -1, start
        while True:
            seen.add(cur)
            step = [(nbr, i) for nbr, i in half[cur] if i != prev]
            if not step:
                break  # far end of a path
            cur, prev = step[0]
            ordered.append(prev)
            if cur == start:
                break  # back around a cycle
        if cur == start and len(ordered) % 2 == 1:
            continue  # odd cycle: already basic
        keep, drop = ordered[0::2], ordered[1::2]
        w_keep = sum(weight[i] for i in keep)
        w_drop = sum(weight[i] for i in drop)
        if w_drop > w_keep or (w_drop == w_keep and drop and min(drop) < min(keep)):
            keep, drop = drop, keep
        for i in keep:
            vec[i] = ONE
        for i in drop:
            vec[i] = ZERO
    return _reference_decompose(graph, vec)


# ---------------------------------------------------------------------------


def _halves(values) -> list:
    """2x_i: an int where x_i is a multiple of 1/2, else the Fraction 2x_i."""
    out = []
    for x in values:
        h = 2 * Fraction(x)
        out.append(h.numerator if h.denominator == 1 else h)
    return out


def _outcome(run):
    try:
        bfm = run()
    except (NotHalfIntegral, DegreeConstraintViolated, NotBasic) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(x) is Fraction for x in bfm.values)
    return "ok", bfm.matched, bfm.odd_cycles, bfm.values, bfm.weight


def _even_cycle(graph: WeightedGraph):
    """The edge indices of some 4-cycle of `graph`, or None."""
    adjacency = graph.adjacency
    for a, b, _w in graph.edges:
        for c, bc in adjacency[b]:
            if c == a:
                continue
            for d, cd in adjacency[c]:
                if d not in (a, b) and graph.has_edge(d, a):
                    return [graph.edge_index(a, b), bc, cd, graph.edge_index(d, a)]
    return None


def _vectors(graph: WeightedGraph) -> list[list[Fraction]]:
    """x vectors of `graph` as Fractions: the kernel's averaged x before and
    after rounding, x = 0 and the rounded x without its odd cycles; then
    x_0 = 3/4 on the rounded x, a load above 1 at a vertex, a one-edge and a
    two-edge half path, and a half-valued 4-cycle, wherever the graph has
    room for them."""
    match_left, _p_left, _p_right = bipartite_max_weight_matching(graph)
    raw = [ZERO] * graph.m
    for u, r in enumerate(match_left):
        if r is not None:
            raw[graph.edge_index(u, r)] += HALF
    basic = list(solve_fractional(graph)[0].values)
    zero = [ZERO] * graph.m
    vectors = [raw, basic, zero, [ZERO if x == HALF else x for x in basic]]
    if graph.m:
        vectors.append([Fraction(3, 4)] + basic[1:])
        vectors.append([HALF] + zero[1:])
    for v in range(graph.n):
        star = [idx for _u, idx in graph.adjacency[v]]
        if len(star) >= 2:
            for a, b in ((ONE, ONE), (ONE, HALF), (HALF, HALF)):
                x = list(zero)
                x[star[0]], x[star[1]] = a, b
                vectors.append(x)
            break
    cycle = _even_cycle(graph)
    if cycle is not None:
        x = list(zero)
        for i in cycle:
            x[i] = HALF
        vectors.append(x)
    return vectors


def _assert_agree(graph: WeightedGraph, seen: Counter) -> None:
    for values in _vectors(graph):
        halves = _halves(values)
        got = _outcome(lambda: decompose(graph, halves))
        assert got == _outcome(lambda: _reference_decompose(graph, values)), (graph, values)
        seen[got[0] if got[0] != "NotBasic" or "even" not in got[1] else "even cycle"] += 1


def _assert_every_kind(seen: Counter) -> None:
    """Every outcome was met, so the comparison was not vacuous."""
    for kind in ("ok", "NotHalfIntegral", "DegreeConstraintViolated", "NotBasic", "even cycle"):
        assert seen[kind], (kind, seen)


def test_half_counts_match_the_reference_on_the_property_suite(property_suite):
    seen: Counter = Counter()
    for g in property_suite:
        _assert_agree(g, seen)
    _assert_every_kind(seen)


def test_half_counts_match_the_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator
    families = bench_families(monkeypatch)
    seen: Counter = Counter()
    for workload in families.LADDERS:
        for inst in families.Generator(workload, 7).round():
            _assert_agree(parse_instance(inst.to_json()).graph, seen)
    _assert_every_kind(seen)


def test_half_counts_match_the_reference_on_weight_denominators_2_to_6():
    seen: Counter = Counter()
    for g in weight_denominator_graphs(random.Random(16)):
        _assert_agree(g, seen)
    _assert_every_kind(seen)


def test_half_counts_give_the_reference_error_texts():
    path = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    square = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    cases = [
        (path, [Fraction(3, 4), ZERO], "NotHalfIntegral",
         "edge 0 has value 3/4, expected 0, 1/2 or 1"),
        (path, [ONE, HALF], "DegreeConstraintViolated", "vertex 1 carries x(delta(v)) = 3/2"),
        (path, [HALF, HALF], "NotBasic", "vertex 0 has 1 half-edges"),
        (square, [HALF] * 4, "NotBasic", "half-edges around vertex 0 form an even cycle"),
        (path, [ZERO], "NotHalfIntegral", "value vector length does not match edge count"),
    ]
    for graph, values, kind, text in cases:
        assert _outcome(lambda: decompose(graph, _halves(values))) == (kind, text)
        assert _outcome(lambda: _reference_decompose(graph, values)) == (kind, text)
