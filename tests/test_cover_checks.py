"""The cover and optimal-pair checks on scaled integers against their
`Fraction` versions.

`FractionalVertexCover.is_feasible_for`, `tight_edges` and
`optimal_pair_checks` compare (q.y_u + q.y_v).D with D.w_uv.q, for q the
cover's common denominator and D the graph's. The `Fraction` code they
replaced is kept below as the reference: on every input here both must give
the same verdicts and raise the same `InfeasibleCover` text.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from conftest import fig8, random_graph
from matchstab.errors import InfeasibleCover
from matchstab.graph import (
    HALF,
    ZERO,
    FractionalVertexCover,
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.lp import optimal_pair_checks, solve_fractional

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
        decompose(graph, [ZERO] * graph.m),
        decompose(graph, [ZERO if x == HALF else x for x in bfm.values]),
    ]
    for y in _covers_near(graph, cover.values):
        candidate = FractionalVertexCover(y)
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


def test_integer_checks_match_the_reference_on_weight_denominators_2_to_6():
    rng = random.Random(14)
    seen: Counter = Counter()
    for d in range(2, 7):
        for _ in range(12):
            base = random_graph(rng)
            g = WeightedGraph.from_edges(
                base.n, [(u, v, Fraction(rng.randint(0, 12), d)) for u, v, _w in base.edges]
            )
            _assert_checks_agree(g, seen)
    for _ in range(40):  # denominators mixed within one graph
        base = random_graph(rng)
        g = WeightedGraph.from_edges(
            base.n,
            [(u, v, Fraction(rng.randint(0, 12), rng.randint(2, 6))) for u, v, _w in base.edges],
        )
        _assert_checks_agree(g, seen)
    _assert_both_verdicts(seen)


def test_cover_checks_on_fig8_edge_cases():
    g = fig8()
    bfm, cover = solve_fractional(g)
    y = cover.values
    # y = (1, 2, 2, 3/2, 5/2) has q = 2; y_p - 1/7 makes it 14
    lowered = FractionalVertexCover((y[0] - Fraction(1, 7),) + y[1:])
    assert lowered.scaled == (14, (12, 28, 28, 21, 35))
    assert not lowered.is_feasible_for(g)
    assert [ok for _name, ok in optimal_pair_checks(g, bfm, lowered)] == [False, False, False]
    negative = FractionalVertexCover((Fraction(-1, 2),) + y[1:])
    assert not negative.is_feasible_for(g)
    for wrong in (y[:-1], y + (ZERO,)):
        short_or_long = FractionalVertexCover(wrong)
        assert not short_or_long.is_feasible_for(g)
        for check in (tight_edges, lambda g, c: optimal_pair_checks(g, bfm, c)):
            assert _outcome(lambda: check(g, short_or_long)) == (
                "InfeasibleCover", "cover length does not match vertex count"
            )
