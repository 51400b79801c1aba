from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from matchstab.certify import verify_stable_subgraph
from matchstab.errors import MatchstabError, MNotAMatching
from matchstab.graph import (
    BasicFractionalMatching,
    FractionalVertexCover,
    Matching,
    WeightedGraph,
    decompose,
    near_perfect_matching,
)
from matchstab.lp import solve_fractional
from matchstab.mstab import FEASIBLE, INFEASIBLE, MStabilizerResult
from matchstab.walks import first_pass_scan, second_pass_scan
from walk_traceback import AlternatingWalk

ROOT = Path(__file__).resolve().parents[1]


def fig6() -> WeightedGraph:
    # two weight-2 triangles joined through a 1 / 0.5 / 1 path
    return WeightedGraph.from_edges(
        8,
        [
            (0, 1, 2), (0, 2, 2), (1, 2, 2),
            (0, 3, 1), (3, 4, Fraction(1, 2)), (4, 5, 1),
            (5, 6, 2), (5, 7, 2), (6, 7, 2),
        ],
        labels=[str(i + 1) for i in range(8)],
    )


def fig7() -> WeightedGraph:
    # augmenting flower: weight-2 triangle with a 3/4 stem (epsilon = 1/4)
    return WeightedGraph.from_edges(
        4,
        [(0, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, Fraction(3, 4))],
        labels=["1", "2", "3", "4"],
    )


def fig8() -> WeightedGraph:
    return WeightedGraph.from_edges(
        5,
        [(1, 2, 4), (3, 4, 4), (0, 1, 3), (0, 4, 3), (2, 3, 3), (1, 3, 3), (0, 2, 3)],
        labels=["p", "q", "r", "s", "t"],
    )


def fig9() -> WeightedGraph:
    return WeightedGraph.from_edges(
        4,
        [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 3, 1)],
        labels=["p", "q", "r", "s"],
    )


@pytest.fixture(scope="session")
def graph_fig6() -> WeightedGraph:
    return fig6()


@pytest.fixture(scope="session")
def graph_fig7() -> WeightedGraph:
    return fig7()


@pytest.fixture(scope="session")
def graph_fig8() -> WeightedGraph:
    return fig8()


@pytest.fixture(scope="session")
def graph_fig9() -> WeightedGraph:
    return fig9()


def random_graph(
    rng: random.Random, n_max: int = 8, weight_max: int = 5, unit: bool = False
) -> WeightedGraph:
    n = rng.randint(2, n_max)
    possible = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, min(len(possible), n + 4))
    edges = [
        (u, v, 1 if unit else rng.randint(1, weight_max))
        for u, v in rng.sample(possible, m)
    ]
    return WeightedGraph.from_edges(n, edges)


def weight_denominator_graphs(rng: random.Random) -> list[WeightedGraph]:
    """`random_graph`s reweighted by k/d, k in 0..12: twelve for each
    denominator d = 2..6, then 40 with d drawn per edge."""
    graphs = []
    for d in range(2, 7):
        for _ in range(12):
            base = random_graph(rng)
            graphs.append(WeightedGraph.from_edges(
                base.n, [(u, v, Fraction(rng.randint(0, 12), d)) for u, v, _w in base.edges]
            ))
    for _ in range(40):  # denominators mixed within one graph
        base = random_graph(rng)
        graphs.append(WeightedGraph.from_edges(
            base.n,
            [(u, v, Fraction(rng.randint(0, 12), rng.randint(2, 6))) for u, v, _w in base.edges],
        ))
    return graphs


def delete_vertices(
    graph: WeightedGraph, vertices
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """The subgraph induced on the other vertices, renumbered 0..n'-1 in
    their old order, plus the old id of each new vertex.

    The tests build G - S this way, apart from `WeightedGraph.delete_stars`,
    which keeps the deleted vertices as isolated ones and is what the code
    under test uses.
    """
    gone = set(vertices)
    keep = [v for v in range(graph.n) if v not in gone]
    new_id = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v], w) for u, v, w in graph.edges if u not in gone and v not in gone
    ]
    labels = [graph.label_of(v) for v in keep] if graph.labels is not None else None
    return WeightedGraph.from_edges(len(keep), edges, labels), tuple(keep)


# ---------------------------------------------------------------------------
# The moves on x as whole-vector rewrites, each validated by one `decompose`:
# the reference the in-place moves of `cycles.apply_augmentation` and the
# survivors of `min_vertex_stabilizer` must match.


class CycleNotInSupport(MatchstabError, ValueError):
    """Requested odd cycle is not part of the solution's support."""


class VertexNotOnCycle(MatchstabError, ValueError):
    """Rounding vertex does not lie on the requested cycle."""


class HalfValueOnPath(MatchstabError, ValueError):
    """Complementing is only defined on 0/1-valued edges."""


def canonical_cycle(vertices) -> tuple[int, ...]:
    """Canonical form of a cycle given in cyclic vertex order.

    Rotated to start at the minimum vertex and oriented toward its smaller
    cyclic neighbor, so equal cycles compare equal; `decompose` builds its
    cycles in this form already.
    """
    cycle = tuple(vertices)
    start = cycle.index(min(cycle))
    forward = cycle[start:] + cycle[:start]
    return forward if forward[1] <= forward[-1] else forward[:1] + forward[:0:-1]


def round_cycles(bfm: BasicFractionalMatching, picks) -> BasicFractionalMatching:
    """Alternate rounding of distinct support cycles, each at its own vertex,
    validated by one `decompose`.

    Each half-valued odd cycle becomes its `near_perfect_matching` that
    exposes its vertex v: its other edges drop to 0. Entries outside the
    cycles are untouched. The cycles are vertex-disjoint, so the result
    equals rounding them one after another.
    """
    halves = list(bfm.halves)
    edge_index = bfm.graph.edge_index
    unrounded = set(bfm.odd_cycles)  # a cycle leaves when it is picked
    for cycle, v in picks:
        canon = canonical_cycle(cycle)
        if canon not in unrounded:
            raise CycleNotInSupport(f"cycle {canon} not in the support")
        if v not in canon:
            raise VertexNotOnCycle(f"vertex {v} not on cycle {canon}")
        unrounded.remove(canon)
        for a, b in zip(canon, canon[1:] + canon[:1]):
            halves[edge_index(a, b)] = 0
        for a, b in near_perfect_matching(canon, v):
            halves[edge_index(a, b)] = 2
    return decompose(bfm.graph, halves)


def complement(bfm: BasicFractionalMatching, edge_indices) -> BasicFractionalMatching:
    """Flip x_e to 1 - x_e along a set of integral edges, validated by one
    `decompose`."""
    halves = list(bfm.halves)
    for idx in edge_indices:
        if halves[idx] == 1:
            raise HalfValueOnPath(f"edge {idx} has value 1/2; complement needs 0/1")
        halves[idx] = 2 - halves[idx]
    return decompose(bfm.graph, halves)


def m_vertex_stabilizer_rebuilding(graph: WeightedGraph, matching: Matching) -> MStabilizerResult:
    """The M-vertex-stabilizer with the residual graph G - delta(S) rebuilt
    after every deletion and each scan run on it, as the code ran before
    both passes scanned G itself; `m_vertex_stabilizer` must give the same
    result. Its certificate is checked on the residual graph it rebuilt,
    with no edge gone, an independent path from the check on G and
    delta(S)."""
    if not matching.is_matching_in(graph):
        raise MNotAMatching("matching uses edges outside the graph")
    residual = graph
    diagnostics: list = []
    first_phase: list[int] = []
    second_phase: list[int] = []

    exposed = [v for v in range(graph.n) if not matching.covers(v)]

    for u in exposed:
        n = graph.n - len(first_phase)
        flower, walk_to_covered = first_pass_scan(residual, matching, u, 3 * n)
        if flower:
            diagnostics.append(("flower", u, None))
        elif walk_to_covered is not None:
            diagnostics.append(("walk_to_covered", u, walk_to_covered))
        else:
            continue
        first_phase.append(u)
        residual = residual.delete_stars([u])

    for u in exposed:
        if u in first_phase or u in second_phase:
            continue
        n = graph.n - len(first_phase) - len(second_phase)
        v = second_pass_scan(residual, matching, u, n, set())
        if v is None:
            continue
        diagnostics.append(("walk_between_exposed", u, v))
        second_phase.extend([u, v])
        residual = residual.delete_stars([u, v])

    residual_bfm, residual_cover = solve_fractional(residual)
    weight = matching.weight(graph)
    removed = tuple(sorted(first_phase + second_phase))
    cover = None
    if weight >= residual_bfm.weight:
        cover = residual_cover
        verify_stable_subgraph(residual, frozenset(), matching, cover)
    return MStabilizerResult(
        status=INFEASIBLE if cover is None else FEASIBLE,
        removed=removed,
        first_phase=tuple(sorted(first_phase)),
        second_phase=tuple(sorted(second_phase)),
        diagnostics=tuple(diagnostics),
        matching_weight=weight,
        residual_nu_f=residual_bfm.weight,
        residual_cover=cover,
    )


def full_sweep_iterations(arcs, source: int, k: int):
    """The walk DP as it ran before each iteration relaxed only the arcs out
    of changed entries: from the source, with entries of its own, every
    iteration relaxes every arc of `arcs`; it yields (i, y1, y2, commits1,
    commits2) at the start and after each iteration that commits, like
    `WalkArcs.run`. Each commit is (v, u, value), with the predecessor u
    that the DP recorded then: v's partner for y2, and for y1 the first
    free neighbour, in adjacency order, whose candidate is the maximum."""
    y1 = [None] * arcs.n
    y2 = [None] * arcs.n
    y1[source] = 0
    if arcs.matched[source] is None:
        y2[source] = 0
    yield 0, y1, y2, [], []
    for i in range(1, k + 1):
        commits2 = []
        for v, arc in enumerate(arcs.matched):
            if arc is not None:
                u, w = arc
                if y1[u] is not None:
                    cand = y1[u] - w
                    if y2[v] is None or cand > y2[v]:
                        commits2.append((v, u, cand))
        commits1 = []
        for v, edges in enumerate(arcs.free):
            best = None
            for u, w in edges:
                if y2[u] is not None:
                    cand = y2[u] + w
                    if best is None or cand > best:
                        best, arg = cand, u
            if best is not None and (y1[v] is None or best > y1[v]):
                commits1.append((v, arg, best))
        if not commits1 and not commits2:
            return
        for v, _u, value in commits1:
            y1[v] = value
        for v, _u, value in commits2:
            y2[v] = value
        yield i, y1, y2, commits1, commits2


def cover_of(values) -> FractionalVertexCover:
    """A fractional vertex cover with the given exact values (ints, strings
    or Fractions), by vertex, over q, the lcm of their denominators."""
    ys = [Fraction(v) for v in values]
    q = lcm(*(y.denominator for y in ys))
    return FractionalVertexCover(tuple(y.numerator * (q // y.denominator) for y in ys), q)


def is_valid_walk(walk: AlternatingWalk, matching: Matching) -> bool:
    """An alternating walk that starts and ends with an exposed vertex or a
    matched edge."""
    if not walk.is_alternating:
        return False
    if len(walk) == 0:
        return not matching.covers(walk.vertices[0])
    start_ok = (not matching.covers(walk.vertices[0])) or walk.matched_flags[0]
    end_ok = (not matching.covers(walk.vertices[-1])) or walk.matched_flags[-1]
    return start_ok and end_ok


def bench_families(monkeypatch):
    """The benchmark's instance generator, `bench/families.py`, loaded from
    its file without writing anything."""
    spec = importlib.util.spec_from_file_location("families", ROOT / "bench" / "families.py")
    families = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "families", families)  # its dataclass looks itself up
    spec.loader.exec_module(families)
    return families


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Replace module.name by a wrapper that counts its calls in a
    one-element list, which is returned."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_fractions(monkeypatch) -> list[int]:
    """Count every `Fraction` made from now on, by any module and by
    `Fraction` arithmetic, in a one-element list, which is returned."""
    calls = [0]
    make = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def tri_chain(rng: random.Random, t: int) -> WeightedGraph:
    """t weight-4 triangles on a shuffled vertex order plus 2t cross-links
    of weight 1..3. The cover y = 2 is tight only on the triangles, so
    gamma = t and every step of the cycle search is a frustrated tree."""
    n = 3 * t
    order = list(range(n))
    rng.shuffle(order)
    triangle = {v: i // 3 for i, v in enumerate(order)}
    edges: dict[tuple[int, int], int] = {}
    for i in range(t):
        a, b, c = order[3 * i : 3 * i + 3]
        edges[(a, b)] = edges[(a, c)] = edges[(b, c)] = 4
    while len(edges) < 5 * t:
        u, v = rng.sample(range(n), 2)
        if triangle[u] != triangle[v] and (u, v) not in edges and (v, u) not in edges:
            edges[(u, v)] = rng.randint(1, 3)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])


def random_matching(rng: random.Random, graph: WeightedGraph, p: float = 0.5) -> Matching:
    pairs = []
    used: set[int] = set()
    shuffled = list(graph.edges)
    rng.shuffle(shuffled)
    for u, v, _w in shuffled:
        if u not in used and v not in used and rng.random() < p:
            pairs.append((u, v))
            used.update((u, v))
    return Matching.from_pairs(pairs)


@pytest.fixture(scope="session")
def property_suite() -> list[WeightedGraph]:
    """200 weighted instances (n <= 8, weights 1..5) plus 40 unit-weight
    ones covering the unweighted setting; shared by the acceptance tests."""
    rng = random.Random(20240817)
    suite = [random_graph(rng) for _ in range(200)]
    suite += [random_graph(rng, unit=True) for _ in range(40)]
    return suite
