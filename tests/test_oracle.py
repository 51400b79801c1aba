from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import delete_vertices, fig8, fig9, random_graph, random_matching, tri_chain
from matchstab import oracle
from matchstab.cli import main
from matchstab.cycles import reduce_cycles
from matchstab.errors import BudgetExceeded
from matchstab.graph import Matching, WeightedGraph
from matchstab.lp import solve_fractional


def test_nu_values():
    assert oracle.exact_nu(fig8())[0] == 8
    assert oracle.exact_nu(fig9())[0] == 5
    assert oracle.exact_nu(WeightedGraph.from_edges(0, []))[0] == 0


def test_nu_f_values():
    assert oracle.exact_nu_f(fig8()) == 9
    assert oracle.exact_nu_f(WeightedGraph.from_edges(2, [(0, 1, 7)])) == 7


def test_weak_duality_self_consistency():
    rng = random.Random(111)
    for _ in range(100):
        g = random_graph(rng)
        assert oracle.exact_nu(g)[0] <= oracle.exact_nu_f(g)


def test_nu_witness_is_a_maximum_matching():
    rng = random.Random(222)
    for _ in range(50):
        g = random_graph(rng)
        value, witness = oracle.exact_nu(g)
        assert witness.is_matching_in(g)
        assert witness.weight(g) == value


def test_stability_fixtures():
    assert not oracle.is_stable(fig8())
    g = fig8().delete_edges([0])  # remove qr
    assert oracle.is_stable(g)
    assert oracle.exact_nu(g)[0] == 7
    assert oracle.is_stable(WeightedGraph.from_edges(2, [(0, 1, 1)]))


def test_fig8_single_edge_deletions():
    g = fig8()
    for i in range(g.m):
        assert oracle.is_stable(g.delete_edges([i])) == (i == 0)
    # pq is index 2, pr is index 6
    assert oracle.exact_nu_f(g.delete_edges([2])) == Fraction(17, 2)
    assert oracle.exact_nu_f(g.delete_edges([6])) == Fraction(17, 2)
    # deleting st leaves nu = 7 and nu_f = 8
    st = g.delete_edges([1])
    assert oracle.exact_nu(st)[0] == 7
    assert oracle.exact_nu_f(st) == 8


def test_fig9_vertex_deletions():
    g = fig9()
    for v in (0, 1, 2):
        rest, _keep = delete_vertices(g, [v])
        assert oracle.exact_nu(rest)[0] == 4


def test_min_stabilizer_fixtures():
    assert oracle.brute_min_vertex_stabilizer(fig9()) == frozenset({0})
    assert len(oracle.brute_min_edge_stabilizer(fig8())) == 1
    assert oracle.brute_min_edge_stabilizer(fig8()) == frozenset({0})  # qr
    m = Matching.from_pairs([(1, 2), (0, 3)])
    assert oracle.brute_min_m_stabilizer(fig9(), m) == oracle.INFEASIBLE


def test_budgets_fail_loudly():
    big = WeightedGraph.from_edges(13, [(0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        oracle.exact_nu(big)
    mid = WeightedGraph.from_edges(9, [(0, 1, 1)])
    with pytest.raises(BudgetExceeded):
        oracle.brute_min_vertex_stabilizer(mid)
    with pytest.raises(BudgetExceeded):
        oracle.enumerate_valid_walks(
            WeightedGraph.from_edges(2, [(0, 1, 1)]), Matching.from_pairs([]), 0, 99
        )


def test_the_oracle_keeps_no_cache():
    # every call builds its own tables; the edge search builds those of one
    # edge-deleted graph per subset, and two disjoint triangles need two
    # deletions, so it tries ten subsets
    two_triangles = WeightedGraph.from_edges(
        6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
    )
    assert len(oracle.brute_min_edge_stabilizer(two_triangles)) == 2
    assert [name for name, obj in vars(oracle).items() if hasattr(obj, "cache_info")] == []


def _within_60_s(call, *args):
    """call(*args), which must return within 60 s."""
    started = time.monotonic()
    value = call(*args)
    assert time.monotonic() - started < 60, call
    return value


def test_the_oracle_at_its_12_vertex_budget(tmp_path, capsys):
    # against the production solvers: a stable K_12 with weights a/b, a in
    # 1..30 and b in 1..6, and a sparse chain of four weight-4 triangles
    # (gamma = 4, not stable)
    rng = random.Random(12)
    weights = {
        (u, v): f"{rng.randint(1, 30)}/{rng.randint(1, 6)}" for u, v in combinations(range(12), 2)
    }
    k12 = WeightedGraph.from_edges(12, [(u, v, Fraction(w)) for (u, v), w in weights.items()])
    for g in (k12, tri_chain(random.Random(12), 4)):
        assert g.n == oracle.MAX_VERTICES
        nu_f = _within_60_s(oracle.exact_nu_f, g)
        assert nu_f == solve_fractional(g)[0].weight
        assert _within_60_s(oracle.brute_gamma, g) == reduce_cycles(g).gamma
        assert _within_60_s(oracle.is_stable, g) == (_within_60_s(oracle.exact_nu, g)[0] == nu_f)

    # through the CLI: check-stability's nu, stabilize-vertices' nu_before
    # and oracle nu are one value on the K_12, and both documents verify
    instance = tmp_path / "k12.json"
    edges = [{"u": f"v{u}", "v": f"v{v}", "w": w} for (u, v), w in weights.items()]
    instance.write_text(json.dumps({"vertices": [f"v{i}" for i in range(12)], "edges": edges}))
    nus = []
    for command, key in (("check-stability", "nu"), ("stabilize-vertices", "nu_before")):
        assert main([command, str(instance)]) == 0
        result = tmp_path / f"{command}.json"
        result.write_text(capsys.readouterr().out)
        nus.append(json.loads(result.read_text())["outputs"][key])
        assert main(["verify", str(instance), "--result", str(result)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
    assert _within_60_s(main, ["oracle", "nu", str(instance)]) == 0
    nus.append(json.loads(capsys.readouterr().out)["outputs"]["nu"])
    assert nus[0] is not None and nus == [nus[0]] * 3


def test_walk_enumeration_examples():
    g = WeightedGraph.from_edges(2, [(0, 1, 5)])
    walks = oracle.enumerate_valid_walks(g, Matching.from_pairs([]), 0, 1)
    assert (0, Fraction(0), (0,)) in walks
    assert (1, Fraction(5), (0, 1)) in walks

    tri = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    m = Matching.from_pairs([(1, 2)])
    values = oracle.optimal_walk_values(tri, m, 0, 3)
    assert values[3][0] == 2

    covered_source = oracle.enumerate_valid_walks(tri, m, 1, 0)
    assert covered_source == []  # covered source: the empty walk is invalid


def test_walks_start_and_end_validly():
    rng = random.Random(333)
    for _ in range(40):
        g = random_graph(rng, n_max=6)
        m = random_matching(rng, g)
        s = rng.randrange(g.n)
        for endpoint, _value, verts in oracle.enumerate_valid_walks(g, m, s, 5):
            assert verts[0] == s and verts[-1] == endpoint
            if len(verts) == 1:
                assert not m.covers(s)
                continue
            first_matched = m.contains_edge(verts[0], verts[1])
            last_matched = m.contains_edge(verts[-2], verts[-1])
            assert (not m.covers(s)) or first_matched
            assert (not m.covers(endpoint)) or last_matched
