"""The cover and optimal-pair checks on scaled integers against their
`Fraction` versions, and the integer cover against the `Fraction` one.

`FractionalVertexCover.is_feasible_for`, `tight_edges` and
`optimal_pair_checks` compare (q.y_u + q.y_v).D with D.w_uv.q, for q the
cover's common denominator and D the graph's. The `Fraction` code they
replaced is kept below as the reference: on every input here both must give
the same verdicts and raise the same `InfeasibleCover` text.

`FractionalVertexCover` stores q and the integers q.y, which
`solve_fractional` builds from the LP's potentials with no per-vertex
`Fraction`. The cover as it was built before, one `Fraction` per vertex and
their lcm, is kept below too: the solver's cover and the stabilizers' must
equal it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm

from conftest import (
    bench_families, count_calls, count_fractions, fig8, random_graph, random_matching,
)
import matchstab.graph as graph_module
from matchstab.certify import optimal_pair_checks
from matchstab.errors import InfeasibleCover
from matchstab.graph import (
    ZERO,
    FractionalVertexCover,
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.instance import parse_instance
from matchstab.lp import bipartite_max_weight_matching, solve_fractional
from matchstab.mstab import FEASIBLE, m_vertex_stabilizer
from matchstab.stabilizers import min_vertex_stabilizer

# ---------------------------------------------------------------------------
# The Fraction reference: the checks as they were, with the weight, loads
# and total of x and y they read written out as Fraction sums.


def _reference_support(values):
    return tuple(i for i, x in enumerate(values) if x != 0)


def _reference_weight(graph, values):
    edges = graph.edges
    return sum((edges[i][2] * values[i] for i in _reference_support(values)), start=ZERO)


def _reference_loads(graph, values):
    loads = [ZERO] * graph.n
    for i in _reference_support(values):
        u, v, _w = graph.edges[i]
        loads[u] += values[i]
        loads[v] += values[i]
    return loads


def _reference_is_feasible_for(y, graph):
    """y >= 0, and y_u + y_v >= w_uv on every edge of `graph`."""
    return (
        len(y) == graph.n
        and all(y_v >= 0 for y_v in y)
        and all(y[u] + y[v] >= w for u, v, w in graph.edges)
    )


def _reference_tight_edges(graph, y):
    """Edge indices where y_u + y_v equals w_uv exactly, found in one pass
    that raises InfeasibleCover at the first edge with y_u + y_v < w_uv."""
    if len(y) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    tight = []
    for i, (u, v, w) in enumerate(graph.edges):
        covered = y[u] + y[v]
        if covered < w:
            raise InfeasibleCover(f"edge ({u},{v}) violates the cover: {y[u]} + {y[v]} < {w}")
        if covered == w:
            tight.append(i)
    return frozenset(tight)


def _reference_optimal_pair_checks(graph, values, y):
    if len(y) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    loads = _reference_loads(graph, values)
    slack_ok = all(
        y[u] + y[v] == w for u, v, w in (graph.edges[i] for i in _reference_support(values))
    ) and all(y[v] == 0 or loads[v] == 1 for v in range(graph.n))
    return [
        ("cover_is_feasible", _reference_is_feasible_for(y, graph)),
        ("strong_duality", _reference_weight(graph, values) == sum(y, start=ZERO)),
        ("complementary_slackness", slack_ok),
    ]


# ---------------------------------------------------------------------------


def _outcome(run):
    try:
        return run()
    except InfeasibleCover as exc:
        return ("InfeasibleCover", str(exc))


def _covers_near(graph, y):
    """y itself, y with one entry moved by +-1/(2D) and by +-1/(6D), y with
    one entry negative, and y one entry short and one entry long."""
    d = graph.scale
    moves = (Fraction(1, 2 * d), Fraction(-1, 2 * d), Fraction(1, 6 * d), Fraction(-1, 6 * d))
    covers = [y]
    for v in range(graph.n):
        for step in moves:
            covers.append(y[:v] + (y[v] + step,) + y[v + 1 :])
    covers.append((Fraction(-1, 2 * d),) + y[1:])
    covers += [y[:-1], y + (ZERO,)]
    return covers


def _assert_checks_agree(graph, seen: Counter) -> None:
    """Compare the integer checks with the reference on the solver's pair,
    on x = 0 and on x with its odd cycles dropped, each under every cover
    of `_covers_near` the solver's y."""
    bfm, cover = solve_fractional(graph)
    xs = [
        bfm,
        decompose(graph, [0] * graph.m),
        decompose(graph, [0 if h == 1 else h for h in bfm.halves]),
    ]
    for y in _covers_near(graph, cover.values):
        candidate = FractionalVertexCover.from_values(y)
        feasible = candidate.is_feasible_for(graph)
        assert feasible == _reference_is_feasible_for(y, graph), (graph, y)
        tight = _outcome(lambda: tight_edges(graph, candidate))
        assert tight == _outcome(lambda: _reference_tight_edges(graph, y)), (graph, y)
        if len(y) == graph.n:
            assert candidate.total == sum(y, start=ZERO)
        seen["feasible", feasible] += 1
        seen["tight_edges raises", isinstance(tight, tuple)] += 1
        for x in xs:
            checks = _outcome(lambda: optimal_pair_checks(graph, x, candidate))
            expected = _outcome(lambda: _reference_optimal_pair_checks(graph, x.values, y))
            assert checks == expected, (graph, x.values, y)
            if isinstance(checks, list):
                seen.update(checks)


def _assert_both_verdicts(seen: Counter) -> None:
    """Every verdict of every check was met both ways, so the comparison
    was not vacuous."""
    for name in ("feasible", "tight_edges raises", "cover_is_feasible",
                 "strong_duality", "complementary_slackness"):
        assert seen[name, True] and seen[name, False], (name, seen)


def test_integer_checks_match_the_reference_on_the_property_suite(property_suite):
    seen: Counter = Counter()
    for g in property_suite:
        _assert_checks_agree(g, seen)
    _assert_both_verdicts(seen)


def _denominator_graphs(rng: random.Random):
    """12 random graphs with weights k/d for each d in 2..6, then 40 with
    denominators mixed within one graph."""
    for d in range(2, 7):
        for _ in range(12):
            base = random_graph(rng)
            yield WeightedGraph.from_edges(
                base.n, [(u, v, Fraction(rng.randint(0, 12), d)) for u, v, _w in base.edges]
            )
    for _ in range(40):
        base = random_graph(rng)
        yield WeightedGraph.from_edges(
            base.n,
            [(u, v, Fraction(rng.randint(0, 12), rng.randint(2, 6))) for u, v, _w in base.edges],
        )


def test_integer_checks_match_the_reference_on_weight_denominators_2_to_6():
    seen: Counter = Counter()
    for g in _denominator_graphs(random.Random(14)):
        _assert_checks_agree(g, seen)
    _assert_both_verdicts(seen)


def test_cover_checks_on_fig8_edge_cases():
    g = fig8()
    bfm, cover = solve_fractional(g)
    y = cover.values
    # y = (1, 2, 2, 3/2, 5/2) has q = 2; y_p - 1/7 makes it 14
    lowered = FractionalVertexCover.from_values((y[0] - Fraction(1, 7),) + y[1:])
    assert (lowered.scale, lowered.int_values) == (14, (12, 28, 28, 21, 35))
    assert not lowered.is_feasible_for(g)
    assert [ok for _name, ok in optimal_pair_checks(g, bfm, lowered)] == [False, False, False]
    negative = FractionalVertexCover.from_values((Fraction(-1, 2),) + y[1:])
    assert not negative.is_feasible_for(g)
    for wrong in (y[:-1], y + (ZERO,)):
        short_or_long = FractionalVertexCover.from_values(wrong)
        assert not short_or_long.is_feasible_for(g)
        for check in (tight_edges, lambda g, c: optimal_pair_checks(g, bfm, c)):
            assert _outcome(lambda: check(g, short_or_long)) == (
                "InfeasibleCover", "cover length does not match vertex count"
            )


# ---------------------------------------------------------------------------
# The Fraction reference of the cover: one Fraction per vertex, the mean of
# its two potentials, and the lcm `scaled` the checks read.


def _reference_cover(graph):
    """(y, (q, q.y)) as `solve_fractional` and `FractionalVertexCover.scaled`
    built them before the cover stored its integers."""
    _match_left, p_left, p_right = bipartite_max_weight_matching(graph)
    double = 2 * graph.scale
    values = tuple(Fraction(p_left[v] + p_right[v], double) for v in range(graph.n))
    q = lcm(*(y.denominator for y in values))
    return values, (q, tuple(y.numerator * (q // y.denominator) for y in values))


def _reference_stabilizer_cover(graph, removed):
    """The stabilizer's cover as it was: a dict of the reference y of
    `graph` on the vertices not in `removed`."""
    values, _scaled = _reference_cover(graph)
    return {v: values[v] for v in range(graph.n) if v not in removed}


def _on_residual(cover, removed):
    """`cover` as the old dict, on the vertices not in `removed`, after
    asserting that it is 0 on `removed`."""
    assert all(cover.values[v] == 0 for v in removed)
    return {v: y for v, y in enumerate(cover.values) if v not in removed}


def _assert_covers_are_the_reference(graph, matching, seen: Counter) -> None:
    """The covers of `solve_fractional`, `min_vertex_stabilizer` and, given
    a matching, `m_vertex_stabilizer` on `graph` against the reference."""
    _bfm, cover = solve_fractional(graph)
    values, scaled = _reference_cover(graph)
    assert cover.values == values, graph
    assert (cover.scale, cover.int_values) == scaled, graph
    seen["q > 1", cover.scale > 1] += 1
    result = min_vertex_stabilizer(graph)  # reduce_cycles keeps the LP's cover
    assert _on_residual(result.surviving_cover, result.removed) == _reference_stabilizer_cover(
        graph, result.removed
    ), graph
    seen["S empty", not result.removed] += 1
    if matching is not None:
        m_result = m_vertex_stabilizer(graph, matching)
        seen["m-stabilize", m_result.status] += 1
        if m_result.status == FEASIBLE:
            removed = m_result.removed
            assert _on_residual(m_result.residual_cover, removed) == _reference_stabilizer_cover(
                graph.delete_stars(removed), removed
            ), graph
            seen["m-stabilize S empty", not removed] += 1


def _assert_every_case(seen: Counter) -> None:
    """The comparison met each case both ways: covers with q = 1 and with
    q > 1, stabilizers with empty and nonempty S, and feasible and
    infeasible m-stabilize runs."""
    for name in ("q > 1", "S empty", "m-stabilize S empty"):
        assert seen[name, True] and seen[name, False], (name, seen)
    assert seen["m-stabilize", "feasible"] and seen["m-stabilize", "infeasible"], seen


def test_the_cover_is_the_reference_on_the_property_suite(property_suite):
    rng = random.Random(23)
    seen: Counter = Counter()
    for g in property_suite:
        _assert_covers_are_the_reference(g, random_matching(rng, g), seen)
    _assert_every_case(seen)


def test_the_cover_is_the_reference_on_weight_denominators_2_to_6():
    rng = random.Random(23)
    seen: Counter = Counter()
    for g in _denominator_graphs(random.Random(14)):
        _assert_covers_are_the_reference(g, random_matching(rng, g), seen)
    _assert_every_case(seen)


def test_the_cover_is_the_reference_on_the_bench_families(monkeypatch):
    # one round of every workload of the benchmark's instance generator
    families = bench_families(monkeypatch)
    seen: Counter = Counter()
    for workload in families.LADDERS:
        for inst in families.Generator(workload, 1).round():
            instance = parse_instance(inst.to_json())
            _assert_covers_are_the_reference(instance.graph, instance.matching, seen)
    _assert_every_case(seen)


def test_a_dense_k40_cover_is_built_with_no_fraction_per_vertex(monkeypatch):
    # the bench's dense K_40 of seed 1: solve_fractional makes only the two
    # totals strong_duality compares, w(x) and sum y, and computes no lcm
    families = bench_families(monkeypatch)
    _n, edges = families._dense(random.Random(1), 40)
    graph = WeightedGraph.from_edges(40, [(u, v, w) for (u, v), w in sorted(edges.items())])
    fractions = count_fractions(monkeypatch)
    lcms = count_calls(monkeypatch, graph_module, "lcm")
    _bfm, cover = solve_fractional(graph)
    assert fractions[0] == 2 and lcms[0] == 0
    # the same counter sees the values, one Fraction per vertex
    assert len(cover.values) == 40 and fractions[0] == 2 + 40
