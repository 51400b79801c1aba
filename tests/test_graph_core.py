from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    count_calls,
    cover_of,
    delete_vertices,
    fig6,
    fig8,
    fig9,
    is_valid_walk,
    random_graph,
    random_matching,
)
from matchstab import graph as graph_module
from matchstab.errors import (
    CycleNotInSupport,
    DegreeConstraintViolated,
    GraphError,
    HalfValueOnPath,
    InfeasibleCover,
    NotBasic,
    NotHalfIntegral,
    VertexNotOnCycle,
)
from matchstab.graph import (
    MAX_EXPONENT,
    AlternatingWalk,
    BasicFractionalMatching,
    FractionalVertexCover,
    Matching,
    WeightedGraph,
    as_fraction,
    canonical_cycle,
    complement,
    decompose,
    round_cycles,
    tight_edges,
    walk_value,
)
from matchstab.oracle import enumerate_valid_walks

H = Fraction(1, 2)


def test_graph_rejects_loops_parallel_negative():
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(2, [(0, 0, 1)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(2, [(0, 1, -1)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(2, [(0, 1, 0.5)])


def test_as_fraction_keeps_a_fraction():
    w = Fraction(7, 6)
    assert as_fraction(w) is w
    assert WeightedGraph.from_edges(2, [(0, 1, w)]).edges[0][2] == w
    assert as_fraction("3/4") == Fraction(3, 4) and as_fraction(2) == 2


def test_as_fraction_refuses_an_exponent_above_the_bound():
    assert as_fraction("1e3") == 1000 and as_fraction("25e-2") == Fraction(1, 4)
    assert as_fraction(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert as_fraction(f"1E-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
    for raw in (f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT + 1} ", "1e999_999_999"):
        with pytest.raises(ValueError, match="exceeds 4300"):
            as_fraction(raw)
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 1, "1e999999999")])


def test_scale_and_int_weights_are_computed_once_per_graph(monkeypatch):
    lcm_calls = count_calls(monkeypatch, graph_module, "lcm")
    g = WeightedGraph.from_edges(3, [(0, 1, "0.5"), (1, 2, "3/4"), (0, 2, "7/6")])
    assert g.scale == 12  # lcm(2, 4, 6)
    assert g.int_weights == (6, 9, 14)
    assert all(d == g.scale * w for d, (_u, _v, w) in zip(g.int_weights, g.edges))
    assert g.int_weights is g.int_weights and lcm_calls[0] == 1
    assert WeightedGraph.from_edges(2, []).scale == 1
    assert WeightedGraph.from_edges(2, []).int_weights == ()


def test_deleting_the_only_fractional_edge_brings_d_back_to_1():
    g = WeightedGraph.from_edges(5, [(0, 1, "7"), (1, 4, "3/4"), (2, 3, 5), (0, 3, "2")])
    assert (g.scale, g.int_weights) == (4, (28, 3, 20, 8))
    fresh = WeightedGraph.from_edges(5, [(0, 1, 7), (2, 3, 5), (0, 3, 2)])
    for rest in (g.delete_edges([1]), g.delete_stars([4])):
        assert rest.scale == 1 and rest.int_weights == (7, 5, 2)
        assert rest == fresh and hash(rest) == hash(fresh)
    # a D > 1 that stays canonical is kept as it is
    halves = WeightedGraph.from_edges(3, [(0, 1, "1/2"), (1, 2, "3/4"), (0, 2, "5/4")])
    assert halves.delete_edges([1]) == WeightedGraph.from_edges(3, [(0, 1, "1/2"), (0, 2, "5/4")])
    assert halves.delete_edges([1]).scale == 4
    assert halves.delete_edges([0, 1, 2]).scale == 1


@pytest.mark.parametrize(
    "int_weights,scale,message",
    [
        ((2, 4), 2, "not canonical"),  # the weights 1 and 2 are (1, 2) with D = 1
        ((0, 0), 3, "not canonical"),
        ((1, 2), 0, "positive int"),
        ((1, 2), -1, "positive int"),
        ((1, 2), True, "positive int"),
        ((1, -2), 1, "negative weight -2"),
        ((1, -3), 2, "negative weight -3/2"),
        ((1, Fraction(2)), 1, "must be an int"),
        ((1, 2.0), 1, "must be an int"),
        ((1, True), 1, "must be an int"),
        ((1,), 1, "one weight per edge"),
    ],
)
def test_constructor_refuses_a_bad_scale_or_int_weight(int_weights, scale, message):
    with pytest.raises(GraphError, match=message):
        WeightedGraph(3, ((0, 1), (1, 2)), int_weights, scale)


def test_only_the_graph_module_scales_weights():
    # D lives on WeightedGraph; no other module may compute an lcm of its own
    users = set()
    for path in sorted(Path(graph_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names):
                users.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "lcm":
                users.add(path.name)
    assert users == {"graph.py"}


def test_delete_stars_isolates_the_vertices():
    g = fig8()
    rest = g.delete_stars([0])  # p
    assert rest.n == g.n and rest.labels == g.labels
    assert rest.degree(0) == 0
    # the kept edges keep their order
    assert [(rest.label_of(u), rest.label_of(v)) for u, v, _w in rest.edges] == [
        ("q", "r"), ("s", "t"), ("r", "s"), ("q", "s"),
    ]
    rng = random.Random(77)
    for _ in range(50):
        g = random_graph(rng)
        gone = rng.sample(range(g.n), rng.randint(0, g.n))
        induced, keep = delete_vertices(g, gone)
        relabelled = [(keep[u], keep[v], w) for u, v, w in induced.edges]
        assert list(g.delete_stars(gone).edges) == relabelled


def test_decompose_zero_vector():
    g = fig9()
    bfm = decompose(g, [0] * g.m)
    assert bfm.matched.pairs == frozenset()
    assert bfm.odd_cycles == ()
    assert bfm.weight == 0


def test_decompose_triangle_half():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    bfm = decompose(g, [1, 1, 1])
    assert bfm.matched.pairs == frozenset()
    assert bfm.odd_cycles == ((0, 1, 2),)
    assert bfm.values == (H, H, H)


def test_decompose_fig6_support():
    g = fig6()
    x = [0] * g.m  # half counts 2x
    for pair in [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7)]:
        x[g.edge_index(*pair)] = 1
    x[g.edge_index(3, 4)] = 2
    bfm = decompose(g, x)
    assert bfm.matched.pairs == frozenset({(3, 4)})
    assert bfm.odd_cycles == ((0, 1, 2), (5, 6, 7))
    assert bfm.weight == Fraction(13, 2)


def test_decompose_errors():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    # x_0 = 1/3 is the half count 2/3
    with pytest.raises(NotHalfIntegral):
        decompose(g, [Fraction(2, 3), 0, 0])
    with pytest.raises(DegreeConstraintViolated):
        decompose(g, [2, 2, 0])
    # half-edges forming a path
    with pytest.raises(NotBasic):
        decompose(g, [1, 1, 0])
    # even half-cycle
    g4 = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    with pytest.raises(NotBasic):
        decompose(g4, [1, 1, 1, 1])


def test_decompose_recompose_roundtrip():
    g = fig6()
    x = [0] * g.m
    for pair in [(0, 1), (0, 2), (1, 2)]:
        x[g.edge_index(*pair)] = 1
    x[g.edge_index(3, 4)] = 2
    bfm = decompose(g, x)
    assert decompose(g, bfm.halves) == bfm
    assert decompose(g, bfm.halves).values == bfm.values


def test_alternate_round_triangle():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    bfm = decompose(g, [1, 1, 1])
    out = round_cycles(bfm, [((0, 1, 2), 0)])
    assert out.values[g.edge_index(1, 2)] == 1
    assert out.values[g.edge_index(0, 1)] == 0
    assert out.values[g.edge_index(0, 2)] == 0
    assert out.odd_cycles == ()


def test_alternate_round_five_cycle():
    g = WeightedGraph.from_edges(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)]
    )
    bfm = decompose(g, [1] * 5)
    out = round_cycles(bfm, [((0, 1, 2, 3, 4), 0)])
    assert out.matched.pairs == frozenset({(1, 2), (3, 4)})
    assert out.vertex_halves[0] == 0  # 2x(delta(0)) = 0


def test_alternate_round_fig9():
    g = fig9()
    x = [1, 1, 1, 0]
    bfm = decompose(g, x)
    out = round_cycles(bfm, [((0, 1, 2), 0)])
    assert out.matched.pairs == frozenset({(1, 2)})
    assert out.weight == 4


def test_alternate_round_errors_and_locality():
    g = fig6()
    x = [0] * g.m
    for pair in [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7)]:
        x[g.edge_index(*pair)] = 1
    bfm = decompose(g, x)
    with pytest.raises(CycleNotInSupport):
        round_cycles(bfm, [((0, 1, 3), 0)])
    with pytest.raises(VertexNotOnCycle):
        round_cycles(bfm, [((0, 1, 2), 7)])
    out = round_cycles(bfm, [((0, 1, 2), 1)])
    # everything outside E(C) untouched, cycle count down by one
    for i in range(g.m):
        u, v, _w = g.edges[i]
        if {u, v} <= {0, 1, 2}:
            continue
        assert out.values[i] == bfm.values[i]
    assert len(out.odd_cycles) == len(bfm.odd_cycles) - 1
    # both cycles at once equal one after the other; a cycle goes only once
    both = round_cycles(bfm, [((0, 1, 2), 1), ((5, 6, 7), 6)])
    assert both.values == round_cycles(out, [((5, 6, 7), 6)]).values
    with pytest.raises(CycleNotInSupport):
        round_cycles(bfm, [((0, 1, 2), 1), ((2, 1, 0), 0)])


def _rotating_canonical_cycle(vertices):
    """`canonical_cycle` as it was written with modular index walks: the
    reference its slicing form must match."""
    k = len(vertices)
    start = min(range(k), key=lambda i: vertices[i])
    forward = tuple(vertices[(start + i) % k] for i in range(k))
    backward = tuple(vertices[(start - i) % k] for i in range(k))
    return forward if forward[1] <= backward[1] else backward


def test_canonical_cycle_matches_the_rotating_reference():
    rng = random.Random(3)
    for k in range(2, 10):
        for _ in range(20):
            cycle = rng.sample(range(30), k)
            forms = {canonical_cycle(cycle)}
            for shift in range(k):
                rotated = cycle[shift:] + cycle[:shift]
                for walk in (rotated, rotated[::-1], tuple(rotated)):
                    assert canonical_cycle(walk) == _rotating_canonical_cycle(walk)
                    forms.add(canonical_cycle(walk))
            assert len(forms) == 1  # every rotation and reflection agrees


def test_complement():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    bfm = decompose(g, [0, 2])
    assert complement(bfm, []) == bfm
    flipped = complement(bfm, [0, 1])
    assert flipped.values == (Fraction(1), Fraction(0))
    assert flipped == decompose(g, [2, 0])
    tri = decompose(
        WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), [1, 1, 1]
    )
    with pytest.raises(HalfValueOnPath):
        complement(tri, [0])


def test_tight_edges_examples():
    g = fig9()
    cover = cover_of([2, 2, 2, 0])
    tight = tight_edges(g, cover)
    assert tight == {g.edge_index(0, 1), g.edge_index(0, 2), g.edge_index(1, 2)}

    single = WeightedGraph.from_edges(2, [(0, 1, 3)])
    assert tight_edges(single, cover_of([2, 1])) == {0}
    with pytest.raises(InfeasibleCover, match=r"edge \(0,1\) violates the cover: 1 \+ 1 < 3"):
        tight_edges(single, cover_of([1, 1]))


def test_tight_edges_fig8_after_deleting_qr():
    g = fig8().delete_edges([0])
    cover = cover_of([3, 0, 4, 3, 1])
    tight = tight_edges(g, cover)
    labels = {tuple(sorted((g.label_of(g.edges[i][0]), g.label_of(g.edges[i][1])))) for i in tight}
    assert ("p", "q") in labels and ("s", "t") in labels


def test_walk_value_examples():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    empty = AlternatingWalk.from_vertices(g, Matching.from_pairs([]), [0])
    assert walk_value(empty, g, Matching.from_pairs([])) == 0
    one = AlternatingWalk.from_vertices(g, Matching.from_pairs([]), [0, 1])
    assert walk_value(one, g, Matching.from_pairs([])) == 5

    tri = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    m = Matching.from_pairs([(1, 2)])
    closed = AlternatingWalk.from_vertices(tri, m, [0, 1, 2, 0])
    assert walk_value(closed, tri, m) == 2


def test_walk_value_matches_naive_resummation():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, n_max=8)
        m = random_matching(rng, g)
        if g.n == 0:
            continue
        s = rng.randrange(g.n)
        for _endpoint, value, verts in enumerate_valid_walks(g, m, s, 6):
            walk = AlternatingWalk.from_vertices(g, m, verts)
            naive = sum(
                (-g.weight(a, b) if m.contains_edge(a, b) else g.weight(a, b))
                for a, b in zip(verts, verts[1:])
            )
            assert walk_value(walk, g, m) == value == naive
            assert is_valid_walk(walk, m)


def _small_values() -> dict:
    """One small object of each value class of `graph`, built afresh."""
    g = WeightedGraph.from_edges(3, [(0, 1, "1/2"), (1, 2, 1), (0, 2, 1)], labels=["a", "b", "c"])
    m = Matching.from_pairs([(1, 0)])
    return {
        "graph": g,
        "matching": m,
        "x": decompose(g, [1, 1, 1]),
        "cover": FractionalVertexCover((2, 4, 0), 4),
        "walk": AlternatingWalk.from_vertices(g, m, [2, 0, 1]),
    }


# each repr as the dataclass versions of these classes printed it
_G = (
    "WeightedGraph(n=3, ends=((0, 1), (1, 2), (0, 2)), int_weights=(1, 2, 2), scale=2, "
    "labels=('a', 'b', 'c'))"
)
SMALL_REPRS = {
    "graph": _G,
    "matching": "Matching(pairs=frozenset({(0, 1)}))",
    "x": f"BasicFractionalMatching(graph={_G}, halves=(1, 1, 1), "
    "matched=Matching(pairs=frozenset()), odd_cycles=((0, 1, 2),))",
    "cover": "FractionalVertexCover(int_values=(1, 2, 0), scale=2)",
    "walk": "AlternatingWalk(vertices=(2, 0, 1), matched_flags=(False, True))",
}


def test_value_classes_keep_their_dataclass_repr():
    assert {key: repr(value) for key, value in _small_values().items()} == SMALL_REPRS


def test_value_classes_compare_and_hash_by_value():
    first, second = _small_values(), _small_values()
    # the cached views of one copy stay out of ==, hash and repr
    assert first["graph"].adjacency and first["x"].values and first["cover"].values
    for key, value in first.items():
        assert value is not second[key] and value == second[key]
        assert hash(value) == hash(second[key]) and repr(value) == repr(second[key])
        assert value != value._key()  # a tuple of the same fields is not the value
    g, x = first["graph"], first["x"]
    assert g != WeightedGraph.from_edges(3, [(0, 1, "1/2"), (1, 2, 1), (0, 2, 1)])  # no labels
    assert first["matching"] != Matching.from_pairs([(1, 2)])
    assert x != decompose(g, [2, 0, 0])
    assert first["walk"] != AlternatingWalk((2, 0), (False,))
    # vertex_halves, derived from halves, stays out of == and hash
    other = BasicFractionalMatching(g, x.halves, x.matched, x.odd_cycles, (0, 0, 0))
    assert other == x and hash(other) == hash(x)
    # the constructor reduces q and q.y by their gcd, so == compares y
    cover = FractionalVertexCover((2, 4), 2)
    assert (cover.int_values, cover.scale) == ((1, 2), 1)
    reduced = FractionalVertexCover((1, 2), 1)
    assert cover == reduced and hash(cover) == hash(reduced)
    assert cover != FractionalVertexCover((1, 2), 2)


def test_value_constructors_refuse_bad_input():
    with pytest.raises(GraphError, match="nonnegative"):
        WeightedGraph(-1, (), (), 1)
    with pytest.raises(GraphError, match="label list length"):
        WeightedGraph(2, (), (), 1, ("a",))
    with pytest.raises(GraphError, match="out of range"):
        WeightedGraph(2, ((0, 2),), (1,), 1)
    with pytest.raises(GraphError, match="u < v"):
        WeightedGraph(2, ((1, 0),), (1,), 1)
    with pytest.raises(GraphError, match="sorted"):
        Matching(frozenset({(1, 0)}))
    with pytest.raises(GraphError, match="share a vertex"):
        Matching.from_pairs([(0, 1), (1, 2)])
    # `test_decompose_errors` covers decompose, the validated BasicFractionalMatching builder
    with pytest.raises(GraphError, match="not an edge"):
        AlternatingWalk.from_vertices(
            WeightedGraph.from_edges(3, [(0, 1, 1)]), Matching.from_pairs([(0, 1)]), [0, 1, 2]
        )
