from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from conftest import full_sweep_iterations, is_valid_walk, random_graph, random_matching
from matchstab import oracle, walks
from matchstab.errors import EntryIsMinusInfinity, VertexNotExposed
from matchstab.graph import AlternatingWalk, Matching, WeightedGraph, walk_value
from matchstab.walks import (
    WalkArcs,
    WalkTables,
    first_pass_scan,
    optimal_walks,
    reconstruct_walk,
    second_pass_scan,
)



# ---------------------------------------------------------------------------
# Walk decomposition: any augmenting walk must contain an augmenting path,
# cycle, flower at an endpoint, or bi-cycle. The tests below extract one from
# every augmenting walk the DP reconstructs.


@dataclass(frozen=True)
class AugmentingStructure:
    kind: str  # "path" | "cycle" | "flower" | "bicycle"
    # vertex sequences; blossoms are closed (first == last), paths are open
    pieces: tuple[tuple[int, ...], ...]
    root: Optional[int] = None


def _segments(
    verts: tuple[int, ...], flags: tuple[bool, ...]
) -> list[tuple[str, tuple[int, ...], tuple[bool, ...]]]:
    """Split a walk at its first repeated vertex, then the rest the same way.

    Segment kinds: open alternating "path", even alternating "cycle", odd
    "blossom" (closed, both end edges unmatched).
    """
    out: list[tuple[str, tuple[int, ...], tuple[bool, ...]]] = []
    while len(verts) > 1:
        seen: dict[int, int] = {}
        split = None
        for j, v in enumerate(verts):
            if v in seen:
                split = (seen[v], j)
                break
            seen[v] = j
        if split is None:
            out.append(("path", verts, flags))
            break
        i, j = split
        if i > 0:
            out.append(("path", verts[: i + 1], flags[:i]))
        kind = "cycle" if (j - i) % 2 == 0 else "blossom"
        out.append((kind, verts[i : j + 1], flags[i:j]))
        verts, flags = verts[j:], flags[j:]
    return out


def _piece_value(
    graph: WeightedGraph, verts: tuple[int, ...], flags: tuple[bool, ...]
) -> Fraction:
    total = Fraction(0)
    for (a, b), matched in zip(zip(verts, verts[1:]), flags):
        w = graph.weight(a, b)
        total += -w if matched else w
    return total


def extract_augmenting_structure(
    graph: WeightedGraph, matching: Matching, walk: AlternatingWalk
) -> AugmentingStructure:
    """Pull one augmenting path/cycle/flower/bi-cycle out of an augmenting walk."""
    verts, flags = walk.vertices, walk.matched_flags
    assert walk_value(walk, graph, matching) > 0, "walk must be augmenting"

    while True:
        segs = _segments(verts, flags)
        for kind, sv, sf in segs:
            if kind == "cycle" and _piece_value(graph, sv, sf) > 0:
                return AugmentingStructure("cycle", (sv,))
        if not any(kind == "cycle" for kind, _sv, _sf in segs):
            break
        new_verts: list[int] = [segs[0][1][0]]
        for kind, sv, _sf in segs:
            if kind == "cycle":
                continue
            new_verts.extend(sv[1:])
        verts = tuple(new_verts)
        rebuilt = AlternatingWalk.from_vertices(graph, matching, verts)
        flags = rebuilt.matched_flags

    candidates: list[AugmentingStructure] = []
    if len(segs) == 1:
        kind, sv, sf = segs[0]
        if kind == "path":
            candidates.append(AugmentingStructure("path", (sv,)))
        else:
            candidates.append(AugmentingStructure("flower", (sv, (sv[0],)), root=sv[0]))
    else:
        # only the end pairs are flowers rooted at the walk's endpoints
        first, second = segs[0], segs[1]
        if first[0] == "path" and second[0] == "blossom":
            candidates.append(
                AugmentingStructure("flower", (second[1], first[1]), root=first[1][0])
            )
        last, before = segs[-1], segs[-2]
        if before[0] == "blossom" and last[0] == "path":
            candidates.append(
                AugmentingStructure("flower", (before[1], last[1]), root=last[1][-1])
            )
        for a, b, c in zip(segs, segs[1:], segs[2:]):
            if a[0] == "blossom" and b[0] == "path" and c[0] == "blossom":
                candidates.append(AugmentingStructure("bicycle", (a[1], b[1], c[1])))

    for cand in candidates:
        if _structure_is_augmenting(graph, matching, cand):
            return cand
    raise AssertionError("augmenting walk without an augmenting structure")


def _structure_is_augmenting(
    graph: WeightedGraph, matching: Matching, structure: AugmentingStructure
) -> bool:
    def split(piece: tuple[int, ...]) -> tuple[Fraction, Fraction]:
        out_w = Fraction(0)
        in_w = Fraction(0)
        for a, b in zip(piece, piece[1:]):
            w = graph.weight(a, b)
            if matching.contains_edge(a, b):
                in_w += w
            else:
                out_w += w
        return out_w, in_w

    if structure.kind == "path":
        out_w, in_w = split(structure.pieces[0])
        return out_w > in_w
    if structure.kind == "cycle":
        out_w, in_w = split(structure.pieces[0])
        return out_w > in_w
    if structure.kind == "flower":
        blossom, path = structure.pieces
        c_out, c_in = split(blossom)
        p_out, p_in = split(path)
        return c_out + 2 * p_out > c_in + 2 * p_in
    blossom_a, path, blossom_b = structure.pieces
    a_out, a_in = split(blossom_a)
    p_out, p_in = split(path)
    b_out, b_in = split(blossom_b)
    return a_out + 2 * p_out + b_out > a_in + 2 * p_in + b_in


def _triangle_flower():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    return g, Matching.from_pairs([(1, 2)])


def test_k0_exposed_source():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 0)
    assert t.y1[0] == 0 and t.y2[0] == 0
    assert t.y1[1] is None and t.y2[1] is None


def test_single_edge_walk():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    t = optimal_walks(g, Matching.from_pairs([]), 0, 1)
    assert t.y1[1] == 5
    walk = reconstruct_walk(t, 1, 1)
    assert walk.vertices == (0, 1)


def test_triangle_flower_value():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 3)
    assert t.y1[0] == 2
    walk = reconstruct_walk(t, 0, 1)
    assert walk_value(walk, g, m) == 2
    assert walk.vertices[0] == walk.vertices[-1] == 0
    assert len(walk) <= 3


def test_reconstruct_empty_walk_and_sentinel():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 0)
    assert reconstruct_walk(t, 0, 1).vertices == (0,)
    with pytest.raises(EntryIsMinusInfinity):
        reconstruct_walk(t, 1, 1)


def test_tables_are_monotone():
    rng = random.Random(321)
    for _ in range(40):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        t = optimal_walks(g, m, s, 7)
        for history in (t.history1, t.history2):
            for earlier, later in zip(history, history[1:]):
                for a, b in zip(earlier, later):
                    assert a is None or (b is not None and b >= a)


def test_dp_equals_enumeration_per_iteration():
    rng = random.Random(424)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        k = rng.randint(0, 8)
        t = optimal_walks(g, m, s, k)
        brute = oracle.optimal_walk_values(g, m, s, k)
        for i in range(k + 1):
            for v in range(g.n):
                got = t.history2[i][v] if m.covers(v) else t.history1[i][v]
                assert brute[i][v] == got


def test_reconstruction_matches_entries_and_is_valid():
    rng = random.Random(88)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        k = rng.randint(0, 8)
        t = optimal_walks(g, m, s, k)
        for v in range(g.n):
            table = 2 if m.covers(v) else 1
            entry = (t.y2 if table == 2 else t.y1)[v]
            if entry is None:
                continue
            walk = reconstruct_walk(t, v, table)
            assert is_valid_walk(walk, m)
            assert walk_value(walk, g, m) == entry
            assert len(walk) <= k


def test_reconstruct_long_walk_without_recursion():
    # a 200-edge augmenting path: 0-1 unmatched (2), 1-2 matched (1), ...
    n = 201
    g = WeightedGraph.from_edges(n, [(i, i + 1, 2 if i % 2 == 0 else 1) for i in range(n - 1)])
    m = Matching.from_pairs((i, i + 1) for i in range(1, n - 1, 2))
    t = optimal_walks(g, m, 0, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        walk = reconstruct_walk(t, n - 1, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert walk.vertices == tuple(range(n))
    assert walk_value(walk, g, m) == 100


def test_extract_structure_from_long_walk_without_recursion():
    # 400 edges around the 4-cycle 0-1-2-3 (3, 1, 3, 1), M = {12, 03}
    g = WeightedGraph.from_edges(4, [(0, 1, 3), (1, 2, 1), (2, 3, 3), (0, 3, 1)])
    m = Matching.from_pairs([(1, 2), (0, 3)])
    walk = AlternatingWalk.from_vertices(g, m, [i % 4 for i in range(401)])
    assert walk_value(walk, g, m) == 400
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        structure = extract_augmenting_structure(g, m, walk)
    finally:
        sys.setrecursionlimit(limit)
    assert structure.kind == "cycle"
    assert structure.pieces == ((0, 1, 2, 3, 0),)


def test_short_tables_are_the_prefix_of_the_long_run(property_suite):
    # the DP's iterations do not depend on its bound: the first n + 1
    # snapshots of a 3n run, with its records up to iteration n, are a run to n
    rng = random.Random(515)
    for g in property_suite:
        m = random_matching(rng, g)
        for root in range(g.n):
            if m.covers(root):
                continue
            long = optimal_walks(g, m, root, 3 * g.n)
            short = WalkTables(
                g, m, root, g.n,
                long.history1[: g.n + 1],
                long.history2[: g.n + 1],
                {key: u for key, u in long.pred1.items() if key[0] <= g.n},
                {key: u for key, u in long.pred2.items() if key[0] <= g.n},
            )
            alone = optimal_walks(g, m, root, g.n)
            assert (short.source, short.k) == (alone.source, alone.k)
            assert short.history1 == alone.history1
            assert short.history2 == alone.history2
            assert short.pred1 == alone.pred1
            assert short.pred2 == alone.pred2


def test_run_stopped_at_fixpoint_keeps_k_plus_one_snapshots():
    g, m = _triangle_flower()
    k = 50
    t = optimal_walks(g, m, 0, k)
    assert len(t.history1) == len(t.history2) == k + 1
    # nothing improves after the flower closes at iteration 3
    assert all(h == t.history1[3] for h in t.history1[3:])
    assert all(h == t.history2[3] for h in t.history2[3:])
    assert max(i for i, _v in (*t.pred1, *t.pred2)) <= 3
    assert t.y1[0] == 2
    assert oracle.optimal_walk_values(g, m, 0, 8)[8][0] == t.y1[0]


def _walk_values(t, m):
    """Best walk value per vertex: y1 at exposed vertices, y2 at covered ones."""
    return [t.y2[v] if m.covers(v) else t.y1[v] for v in range(t.graph.n)]


def _verdicts(g, m, root, long, short):
    """The M-vertex-stabilizer's verdicts read off best walk values per
    vertex, with bound 3n (long) and n (short)."""
    augmenting = [v for v in range(g.n) if long[v] is not None and long[v] > 0]
    flower = root in augmenting
    to_covered = next((v for v in augmenting if m.covers(v)), None)
    to_exposed = next(
        (
            v
            for v in range(g.n)
            if v != root and not m.covers(v) and short[v] is not None and short[v] > 0
        ),
        None,
    )
    return flower, to_covered, to_exposed


def _assert_scans_give(g, m, root, verdicts):
    flower, to_covered, to_exposed = verdicts
    assert first_pass_scan(g, m, root, 3 * g.n) == (flower, None if flower else to_covered)
    assert second_pass_scan(g, m, root, g.n, set()) == to_exposed


def test_scans_give_the_verdicts_of_the_full_tables(property_suite):
    rng = random.Random(717)
    flowers = covered = exposed = 0
    for g in property_suite:
        m = random_matching(rng, g)
        for root in range(g.n):
            if m.covers(root):
                continue
            long = _walk_values(optimal_walks(g, m, root, 3 * g.n), m)
            short = _walk_values(optimal_walks(g, m, root, g.n), m)
            verdicts = _verdicts(g, m, root, long, short)
            _assert_scans_give(g, m, root, verdicts)
            flowers += verdicts[0]
            covered += not verdicts[0] and verdicts[1] is not None
            exposed += verdicts[2] is not None
    # every verdict occurs, so each branch of both scans is exercised
    assert min(flowers, covered, exposed) > 20


def test_scans_on_fractional_weights_match_enumeration():
    # denominators 2..6 make the DP's scale D anything up to 60; n <= 4 keeps
    # the 3n bound within the oracle's walk length limit
    rng = random.Random(2718)
    for _ in range(60):
        base = random_graph(rng, n_max=4)
        g = WeightedGraph.from_edges(
            base.n,
            [(u, v, Fraction(rng.randint(1, 12), rng.randint(2, 6))) for u, v, _w in base.edges],
        )
        m = random_matching(rng, g)
        for root in range(g.n):
            k = 3 * g.n
            t = optimal_walks(g, m, root, k)
            brute = oracle.optimal_walk_values(g, m, root, k)
            for i in range(k + 1):
                for v in range(g.n):
                    got = t.history2[i][v] if m.covers(v) else t.history1[i][v]
                    assert brute[i][v] == got
            if m.covers(root):
                continue
            long = [brute[k][v] for v in range(g.n)]
            short = [brute[g.n][v] for v in range(g.n)]
            _assert_scans_give(g, m, root, _verdicts(g, m, root, long, short))


def test_first_pass_scan_stops_at_a_flower(monkeypatch):
    # a flower closes at the exposed root 0 in iteration 3; a 40-edge
    # alternating path hanging off vertex 1 keeps the DP improving far longer
    length = 40
    edges = [(0, 1, 2), (0, 2, 2), (1, 2, 2), (1, 3, 1)]
    edges += [(v, v + 1, 1) for v in range(3, 3 + length)]
    g = WeightedGraph.from_edges(4 + length, edges)
    m = Matching.from_pairs([(1, 2)] + [(v, v + 1) for v in range(3, 3 + length, 2)])
    full = optimal_walks(g, m, 0, 3 * g.n)
    assert full.y1[0] > 0
    assert max(i for i, _v in full.pred1) > length

    counted = []
    iterations = walks._IntegerDP.iterations

    def counting(self, k):
        for step in iterations(self, k):
            counted.append(step[0])
            yield step

    monkeypatch.setattr(walks._IntegerDP, "iterations", counting)
    assert first_pass_scan(g, m, 0, 3 * g.n) == (True, None)
    assert counted == [1, 2, 3]


def test_scan_examples():
    g, m = _triangle_flower()
    assert first_pass_scan(g, m, 0, 3 * g.n) == (True, None)

    single = WeightedGraph.from_edges(2, [(0, 1, 3)])
    assert first_pass_scan(single, Matching.from_pairs([]), 0, 3 * single.n) == (False, None)
    assert second_pass_scan(single, Matching.from_pairs([]), 0, single.n, set()) == 1

    path = WeightedGraph.from_edges(3, [(0, 1, 3), (1, 2, 2)])
    assert first_pass_scan(path, Matching.from_pairs([(1, 2)]), 0, 3 * path.n) == (False, 2)

    # from root 1 the only augmenting walk to the exposed vertex 3 goes round
    # the blossom 5-4-0: 1-2=5-4=0-5=2-3 has value 7 but length 7 > n = 6
    # (the same detour back to 1 is a flower at the root)
    blossom = WeightedGraph.from_edges(
        6, [(2, 5, 2), (0, 5, 2), (1, 2, 2), (4, 5, 4), (2, 3, 5), (0, 4, 2)]
    )
    blossom_m = Matching.from_pairs([(2, 5), (0, 4)])
    assert optimal_walks(blossom, blossom_m, 1, 18).y1[3] == 7
    assert second_pass_scan(blossom, blossom_m, 1, blossom.n, set()) is None
    assert first_pass_scan(blossom, blossom_m, 1, 3 * blossom.n) == (True, None)

    for scan, extra in ((first_pass_scan, ()), (second_pass_scan, (set(),))):
        with pytest.raises(VertexNotExposed):
            scan(path, Matching.from_pairs([(1, 2)]), 1, path.n, *extra)
        with pytest.raises(ValueError):
            scan(path, Matching.from_pairs([(1, 2)]), 0, -1, *extra)


def _commits_per_iteration(iterations, scale=1):
    """(i, commits1, commits2) of each iteration, each commit's value
    divided by the scale and each list sorted."""

    def exact(commits):
        return sorted((v, u, Fraction(value, scale)) for v, u, value in commits)

    return [(i, exact(commits1), exact(commits2)) for i, commits1, commits2 in iterations]


def _exact_entries(dp, scale):
    return [[None if e is None else Fraction(e, scale) for e in y] for y in (dp.y1, dp.y2)]


def _random_instance(rng, n_max):
    """A graph with integer weights, or half the time the same edges with
    fractional weights, and a random matching of it."""
    g = random_graph(rng, n_max=n_max)
    if rng.random() < 0.5:
        g = WeightedGraph.from_edges(
            g.n,
            [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 6))) for u, v, _w in g.edges],
        )
    return g, random_matching(rng, g)


def test_changed_entry_dp_commits_what_the_full_sweep_commits():
    # the same commits, with the same predecessors, at every iteration, from
    # every source, covered and exposed, until both runs stop
    rng = random.Random(1414)
    covered = exposed = 0
    for _ in range(300):
        g, m = _random_instance(rng, 12)
        arcs = WalkArcs(g, m)
        for source in range(g.n):
            dp = walks._IntegerDP(arcs, source)
            reference = walks._IntegerDP(arcs, source)
            run = _commits_per_iteration(dp.iterations(3 * g.n))
            assert run == _commits_per_iteration(full_sweep_iterations(reference, 3 * g.n))
            assert (dp.y1, dp.y2) == (reference.y1, reference.y2)
            covered += m.covers(source)
            exposed += not m.covers(source)
    assert min(covered, exposed) > 500


def test_dp_that_skips_s_runs_as_the_full_sweep_on_g_minus_the_stars_of_s():
    # no entry is written at S, so the run on G makes exactly the iterations
    # and commits of the full sweep on G - delta(S)
    rng = random.Random(1515)
    skipped = 0
    for _ in range(300):
        g, m = _random_instance(rng, 12)
        arcs = WalkArcs(g, m)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        for root in exposed:
            others = [v for v in exposed if v != root]
            deleted = set(rng.sample(others, rng.randint(0, len(others))))
            rest = g.delete_stars(deleted)
            dp = walks._IntegerDP(arcs, root, deleted)
            reference = walks._IntegerDP(WalkArcs(rest, m), root)
            # G - delta(S) may have a smaller weight scale than G
            run = _commits_per_iteration(dp.iterations(3 * g.n), g.scale)
            sweep = full_sweep_iterations(reference, 3 * g.n)
            assert run == _commits_per_iteration(sweep, rest.scale)
            assert _exact_entries(dp, g.scale) == _exact_entries(reference, rest.scale)
            on_g = _commits_per_iteration(walks._IntegerDP(arcs, root).iterations(3 * g.n))
            skipped += len(on_g) > len(run)
    # on G itself the y1 entries at S often keep a run going for longer
    assert skipped > 100


FORGED_TABLES_SCRIPT = r"""
import dataclasses
import json
import sys

from matchstab.errors import InconsistentWalkTables
from matchstab.graph import Matching, WeightedGraph
from matchstab.walks import optimal_walks, reconstruct_walk


def raised(tables):
    try:
        reconstruct_walk(tables, 1, 1)
    except InconsistentWalkTables as exc:
        return str(exc)
    return None


# the walk 0-1 of value 3 from the exposed source 0
tables = optimal_walks(WeightedGraph.from_edges(2, [(0, 1, 3)]), Matching.from_pairs([]), 0, 1)
out = {
    "optimize": sys.flags.optimize,
    "source": raised(dataclasses.replace(tables, source=1)),
    "value": raised(dataclasses.replace(tables, matching=Matching.from_pairs([(0, 1)]))),
    "history": raised(dataclasses.replace(tables, history2=((1, None), (1, None)))),
}
print(json.dumps(out))
"""


def test_reconstruct_walk_rejects_forged_tables_under_dash_o():
    # the walk's source and value checks are explicit raises, so they also
    # run in a python -O subprocess, where every assert is stripped
    src = Path(walks.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_TABLES_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {
        "optimize": 1,
        "source": "the walk to 1 starts at 0, not at the source 1",
        "value": "the walk to 1 has value -3, not y1(1) = 3",
        "history": "y2(0) is never 0 within 0 iterations",
    }


def test_flower_extraction_from_triangle():
    g, m = _triangle_flower()
    t = optimal_walks(g, m, 0, 3)
    walk = reconstruct_walk(t, 0, 1)
    structure = extract_augmenting_structure(g, m, walk)
    assert structure.kind == "flower" and structure.root == 0


def test_every_augmenting_walk_decomposes():
    rng = random.Random(999)
    found = 0
    for _ in range(120):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        for u in exposed:
            long = optimal_walks(g, m, u, 3 * g.n)
            short = optimal_walks(g, m, u, g.n)
            flower, to_covered, to_exposed = _verdicts(
                g, m, u, _walk_values(long, m), _walk_values(short, m)
            )
            targets = []
            if flower:
                targets.append((u, 1, long))
            if to_covered is not None:
                targets.append((to_covered, 2, long))
            if to_exposed is not None:
                targets.append((to_exposed, 1, short))
            for v, table, tables in targets:
                walk = reconstruct_walk(tables, v, table)
                if walk_value(walk, g, m) <= 0:
                    continue
                structure = extract_augmenting_structure(g, m, walk)
                assert structure.kind in ("path", "cycle", "flower", "bicycle")
                if structure.kind == "flower":
                    assert structure.root in (walk.vertices[0], walk.vertices[-1])
                if structure.kind == "path":
                    assert {structure.pieces[0][0], structure.pieces[0][-1]} == \
                        {walk.vertices[0], walk.vertices[-1]}
                found += 1
    assert found > 50  # the random suite must actually exercise the extractor
