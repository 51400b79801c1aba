"""Certificate checks that must hold under ``python -O``.

Each case plants one fault behind a solver's back and expects the solver's
final certificate check to raise NotOptimalPair: the LP pair, the pair
`reduce_cycles` ends with after its moves, and the stabilizers' results.
The cases run in a ``python -O`` subprocess, where every ``assert`` is
stripped, so they pass only if those checks are explicit raises.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys
from fractions import Fraction

import matchstab.cycles as cycles
import matchstab.lp as lp
import matchstab.mstab as mstab
import matchstab.stabilizers as stabilizers
from matchstab.cycles import ReduceCyclesResult, reduce_cycles
from matchstab.errors import NotOptimalPair
from matchstab.graph import FractionalVertexCover, Matching, WeightedGraph, decompose


def raised(run):
    try:
        run()
    except NotOptimalPair as exc:
        return str(exc)
    return None


def one_more_at(cover, v):
    values = list(cover.values)
    values[v] += 1
    return FractionalVertexCover.from_values(values)


fig9 = WeightedGraph.from_edges(4, [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 3, 1)])
path = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
out = {"optimize": sys.flags.optimize}

hungarian = lp.bipartite_max_weight_matching


def right_potential_raised(graph):
    match_left, p_left, p_right = hungarian(graph)
    p_right[0] += 1
    return match_left, p_left, p_right


lp.bipartite_max_weight_matching = right_potential_raised
out["solve_fractional"] = raised(lambda: lp.solve_fractional(fig9))
lp.bipartite_max_weight_matching = hungarian

# s (vertex 3) lies on no cycle, so the stabilizer still removes p, but the
# surviving cover's total now exceeds the surviving matching's weight
reduction = reduce_cycles(fig9)
stabilizers.reduce_cycles = lambda graph: ReduceCyclesResult(
    reduction.solution, one_more_at(reduction.cover, 3), reduction.gamma, reduction.events
)
out["min_vertex_stabilizer"] = raised(lambda: stabilizers.min_vertex_stabilizer(fig9))

solve = mstab.solve_fractional


def residual_cover_raised(graph):
    bfm, cover = solve(graph)
    return bfm, one_more_at(cover, graph.n - 1)


mstab.solve_fractional = residual_cover_raised
out["m_vertex_stabilizer"] = raised(
    lambda: mstab.m_vertex_stabilizer(path, Matching.from_pairs([(0, 1)]))
)

# unit triangles {0,1,2} and {3,4,5} joined by 2-3, both half-valued under
# the all-1/2 cover: the one move rounds them and complements 2-3, and the
# planted move then also drops the matched edge 0-1, off its path
bridged = WeightedGraph.from_edges(
    6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
)
half = Fraction(1, 2)
halves = tuple(0 if (u, v) == (2, 3) else 1 for u, v, _w in bridged.edges)
start = (decompose(bridged, halves), FractionalVertexCover.from_values((half,) * 6))
move = cycles.apply_augmentation


def move_dropping_an_edge(graph, cover, tight, aux, halves, path):
    event = move(graph, cover, tight, aux, halves, path)
    halves[bridged.edge_index(0, 1)] = 0
    return event


cycles.apply_augmentation = move_dropping_an_edge
out["reduce_cycles"] = raised(lambda: reduce_cycles(bridged, start=start))
print(json.dumps(out))
"""


def test_certificate_checks_catch_planted_faults_under_dash_o():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert "strong_duality" in out["solve_fractional"]
    assert "matching_weight_equals_cover" in out["min_vertex_stabilizer"]
    assert "matching_weight_equals_cover" in out["m_vertex_stabilizer"]
    assert "strong_duality" in out["reduce_cycles"]
