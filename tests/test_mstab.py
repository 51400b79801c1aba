from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    count_calls,
    delete_vertices,
    fig9,
    m_vertex_stabilizer_rebuilding,
    random_graph,
    random_matching,
)
from feasible_sparse import feasible_sparse, instance_json
from matchstab import cli, mstab, oracle
from matchstab.certify import load_result, render, verify
from matchstab.errors import MNotAMatching, NotOptimalPair
from matchstab.graph import Matching, WeightedGraph
from matchstab.instance import Instance
from matchstab.mstab import FEASIBLE, INFEASIBLE, _deletion_passes, m_vertex_stabilizer
from matchstab.walks import WalkArcs, first_pass_scan, second_pass_scan


def _passes(graph, matching):
    """`_deletion_passes` with the M-exposed vertices, ascending, that
    `m_vertex_stabilizer` hands it."""
    return _deletion_passes(graph, matching, [v for v in range(graph.n) if not matching.covers(v)])


def test_fig9_with_maximum_matching_is_infeasible():
    result = m_vertex_stabilizer(fig9(), Matching.from_pairs([(1, 2), (0, 3)]))
    assert result.status == INFEASIBLE
    assert result.removed == ()
    assert result.matching_weight == 5 and result.residual_nu_f == 6


def test_triangle_flower_root_removed():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    result = m_vertex_stabilizer(g, Matching.from_pairs([(1, 2)]))
    assert result.status == FEASIBLE
    assert result.removed == (0,) and result.first_phase == (0,)
    assert result.diagnostics[0][0] == "flower"


def test_single_edge_empty_matching_two_approximation_boundary():
    g = WeightedGraph.from_edges(2, [(0, 1, 3)])
    result = m_vertex_stabilizer(g, Matching.from_pairs([]))
    assert result.status == FEASIBLE
    assert result.second_phase == (0, 1) and result.removed == (0, 1)
    assert len(oracle.brute_min_m_stabilizer(g, Matching.from_pairs([]))) == 1


def test_rejects_non_matching():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(MNotAMatching):
        m_vertex_stabilizer(g, Matching.from_pairs([(0, 2)]))


def test_first_phase_is_order_independent():
    # relabelling v -> n-1-v makes the ascending scan visit the exposed
    # vertices in the opposite order
    rng = random.Random(515)
    for _ in range(60):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        flip = g.n - 1
        g_rev = WeightedGraph.from_edges(g.n, [(flip - u, flip - v, w) for u, v, w in g.edges])
        m_rev = Matching.from_pairs((flip - u, flip - v) for u, v in m.pairs)
        forward = m_vertex_stabilizer(g, m)
        backward = m_vertex_stabilizer(g_rev, m_rev)
        assert set(forward.first_phase) == {flip - v for v in backward.first_phase}
        assert forward.status == backward.status


def test_feasible_results_verified_by_oracle():
    rng = random.Random(616)
    feasible = infeasible = 0
    for _ in range(80):
        g = random_graph(rng, n_max=7)
        m = random_matching(rng, g)
        result = m_vertex_stabilizer(g, m)
        brute = oracle.brute_min_m_stabilizer(g, m)
        if brute == oracle.INFEASIBLE:
            assert result.status == INFEASIBLE
            infeasible += 1
            continue
        feasible += 1
        assert result.status == FEASIBLE
        assert len(result.removed) <= 2 * len(brute)
        if not result.second_phase:
            assert len(result.removed) == len(brute)
        residual, keep = delete_vertices(g, result.removed)
        remap = {old: new for new, old in enumerate(keep)}
        m_res = Matching.from_pairs((remap[u], remap[v]) for u, v in m.pairs)
        # (a) M is maximum-weight in the residual graph
        assert oracle.exact_nu(residual)[0] == m_res.weight(residual)
        # (b) the residual graph is stable
        assert oracle.is_stable(residual)
        # (c) no augmenting structure is left at any exposed vertex
        for v in range(residual.n):
            if m_res.covers(v):
                continue
            assert first_pass_scan(residual, m_res, v, 3 * residual.n) == (False, None)
            assert second_pass_scan(residual, m_res, v, residual.n, set()) is None
    assert feasible > 20 and infeasible > 5


def test_the_first_pass_bound_can_bind_on_infeasible_input():
    # on this infeasible instance the paper's first pass, with the bound
    # 3n and n = |V| - |S|, finds after deleting 1 and 5 (n = 5, bound 15)
    # the augmenting walk from 6 to the covered 3; the bound 3 * 7 = 21
    # finds one to 0 instead, and the passes, which scan with 3|V|, give
    # that: so they run on feasible input only, where the bound never binds
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    m = Matching.from_pairs([(0, 4), (2, 3)])
    assert m_vertex_stabilizer(g, m).status == INFEASIBLE
    assert m_vertex_stabilizer_rebuilding(g, m).diagnostics == (
        ("walk_to_covered", 1, 2),
        ("walk_to_covered", 5, 2),
        ("walk_to_covered", 6, 3),
    )
    assert first_pass_scan(g.delete_stars([1, 5]), m, 6, 15) == (False, 3)
    assert first_pass_scan(g, m, 6, 21) == (False, 0)
    _first, _second, diagnostics = _passes(g, m)
    assert diagnostics[:3] == (
        ("walk_to_covered", 1, 2),
        ("walk_to_covered", 5, 2),
        ("walk_to_covered", 6, 0),
    )


def test_residual_graph_is_built_once(monkeypatch):
    # G - delta(X), X the M-exposed vertices, is built once for the LP that
    # decides feasibility; the infeasible instance above stops there
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    calls = count_calls(monkeypatch, WeightedGraph, "delete_stars")
    m_vertex_stabilizer(g, Matching.from_pairs([(0, 4), (2, 3)]))
    assert calls == [1]
    # a feasible instance whose passes delete three vertices, 0 in the first
    # and 1, 2 in the second, adds G - delta(S) once, for the final check
    g = WeightedGraph.from_edges(6, [(4, 5, 1), (1, 2, 4), (3, 4, 2), (0, 3, 4)])
    result = m_vertex_stabilizer(g, Matching.from_pairs([(3, 4)]))
    assert (result.status, result.first_phase, result.second_phase) == (FEASIBLE, (0,), (1, 2))
    assert calls == [3]


def test_walk_arcs_are_built_once(monkeypatch):
    # the passes on the instance above run a first-pass scan from each of
    # its three exposed roots, all on one set of arcs
    g = WeightedGraph.from_edges(
        7, [(1, 3, 6), (4, 6, 1), (3, 4, 1), (2, 3, 2), (3, 5, 1), (0, 2, 6), (0, 4, 4)]
    )
    calls = count_calls(monkeypatch, WalkArcs, "__init__")
    scans = count_calls(monkeypatch, WalkArcs, "run")
    _passes(g, Matching.from_pairs([(0, 4), (2, 3)]))
    assert calls == [1]
    assert scans == [3]


def _random_instance(rng):
    """A graph with n in 2..14 and integer weights, or half the time the same
    edges with fractional weights, and a random matching of it."""
    g = random_graph(rng, n_max=14)
    if rng.random() < 0.5:
        g = WeightedGraph.from_edges(
            g.n,
            [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 6))) for u, v, _w in g.edges],
        )
    return g, random_matching(rng, g)


def test_scans_on_g_give_the_verdicts_of_g_minus_the_stars_of_s():
    # S holds exposed vertices other than the root: scanning G with S
    # skipped gives what scanning G - delta(S) gives
    rng = random.Random(1212)
    skipped = 0
    for _ in range(300):
        g, m = _random_instance(rng)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        for root in exposed:
            others = [v for v in exposed if v != root]
            deleted = set(rng.sample(others, rng.randint(0, len(others))))
            rest = g.delete_stars(deleted)
            for k in (0, 1, g.n, 3 * g.n):
                assert first_pass_scan(g, m, root, k) == first_pass_scan(rest, m, root, k)
                on_rest = second_pass_scan(rest, m, root, k, set())
                assert second_pass_scan(g, m, root, k, deleted) == on_rest
                skipped += second_pass_scan(g, m, root, k, set()) != on_rest
    # without the deleted set the scan on G often reports a vertex of S
    assert skipped > 500


def test_same_result_as_rebuilding_the_residual_after_every_deletion():
    # the passes on every instance, and the whole result on the feasible ones
    rng = random.Random(1313)
    second = 0
    for _ in range(2000):
        g, m = _random_instance(rng)
        reference = m_vertex_stabilizer_rebuilding(g, m)
        passes = _passes(g, m)
        assert passes == (reference.first_phase, reference.second_phase, reference.diagnostics)
        if reference.status == FEASIBLE:
            assert repr(m_vertex_stabilizer(g, m)) == repr(reference)
        second += bool(passes[1])
    assert second >= 400


def _first_pass(graph, matching, roots):
    """The first pass over `roots` in the order given, with G - delta(S)
    rebuilt after each deletion and the bound 3(|V| - |S|): the verdict of
    each root it deletes."""
    residual, verdicts = graph, {}
    for u in roots:
        verdict = first_pass_scan(residual, matching, u, 3 * (graph.n - len(verdicts)))
        if verdict != (False, None):
            verdicts[u] = verdict
            residual = residual.delete_stars([u])
    return verdicts


def test_first_pass_verdicts_depend_on_neither_s_nor_the_order_on_feasible_input():
    # the bound 3n never binds on feasible input, so every root's verdict on
    # G with S empty and k = 3|V| is the one the first pass gives it, with
    # the roots taken ascending, as the passes take them, or descending
    instances = [feasible_sparse(n, seed) for n in (40, 200) for seed in (1, 2, 3)]
    rng = random.Random(1616)
    while len(instances) < 6 + 600:
        g, m = _random_instance(rng)
        if m_vertex_stabilizer(g, m).status == FEASIBLE:
            instances.append((g, m))
    several = 0
    for g, m in instances:
        arcs = WalkArcs(g, m)
        exposed = [v for v in range(g.n) if not m.covers(v)]
        alone = {u: arcs.first_pass_scan(u, 3 * g.n) for u in exposed}
        deleted = {u: verdict for u, verdict in alone.items() if verdict != (False, None)}
        _first, _second, diagnostics = _passes(g, m)
        passes = {u: (kind == "flower", other) for kind, u, other in diagnostics
                  if kind != "walk_between_exposed"}
        assert passes == deleted
        assert _first_pass(g, m, exposed) == deleted
        assert _first_pass(g, m, exposed[::-1]) == deleted
        several += len(deleted) >= 2
    # on many of them the first pass deletes more than one root, so the
    # roots before one of them change S
    assert several >= 100


def test_one_lp_gives_the_verdict_of_the_passes_and_of_the_oracle(property_suite):
    # the lemma of `mstab`: a stabilizer exists iff nu_f(G - delta(X)) = w(M)
    rng = random.Random(1313)
    instances = [_random_instance(rng) for _ in range(2000)]
    rng = random.Random(1414)
    instances += [(g, random_matching(rng, g)) for g in property_suite]
    verdicts = Counter()
    for g, m in instances:
        status = m_vertex_stabilizer(g, m).status
        assert status == m_vertex_stabilizer_rebuilding(g, m).status
        if g.n <= 8:
            brute = oracle.brute_min_m_stabilizer(g, m)
            assert status == (INFEASIBLE if brute == oracle.INFEASIBLE else FEASIBLE)
            verdicts["oracle"] += 1
        verdicts[status] += 1
        if status == INFEASIBLE:
            # the document prints the LP's x as the certificate, and verifies
            instance, digest = Instance(g, m), "0" * 64
            doc, code = cli._run_command("m-stabilize", instance, "instance.json", digest)
            text = render(doc)  # x is the writer's JSON text, placed in the document
            assert code == 2 and json.loads(text)["certificates"]["x"]
            report, code = verify(instance, digest, load_result(text))
            assert code == 0, report
    assert verdicts[INFEASIBLE] >= 250 and verdicts[FEASIBLE] >= 1900 and verdicts["oracle"] >= 1300


def test_a_final_check_that_contradicts_the_lemma_raises(monkeypatch):
    # on a triangle with M one edge, G - delta(X) is that edge alone, so the
    # LP finds the input feasible; passes that deleted nothing would leave
    # the triangle, with nu_f 3 > w(M) = 2, which must raise, not be printed
    # as infeasible
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    m = Matching.from_pairs([(1, 2)])
    assert m_vertex_stabilizer(g, m).removed == (0,)
    monkeypatch.setattr(mstab, "_deletion_passes", lambda graph, matching, exposed: ((), (), ()))
    with pytest.raises(NotOptimalPair, match="matching_weight_equals_cover"):
        m_vertex_stabilizer(g, m)


def test_feasible_sparse_family_is_feasible_and_verifies(tmp_path, capsys):
    # every edge added to the bipartite graph has an end outside M, so the
    # LP finds each instance feasible and both deletion passes run on it;
    # they delete what rebuilding G - delta(S) after every deletion does,
    # and `verify` checks the document the CLI printed
    second = 0
    for n in (40, 200):
        for seed in (1, 2, 3):
            g, m = feasible_sparse(n, seed)
            assert repr(m_vertex_stabilizer(g, m)) == repr(m_vertex_stabilizer_rebuilding(g, m))
            instance = tmp_path / f"feasible-{n}-{seed}.json"
            instance.write_text(instance_json(n, seed), encoding="utf-8")
            assert cli.main(["m-stabilize", str(instance)]) == 0
            doc = capsys.readouterr().out
            outputs = json.loads(doc)["outputs"]
            assert outputs["status"] == FEASIBLE
            second += bool(outputs["S2"])
            result = tmp_path / f"result-{n}-{seed}.json"
            result.write_text(doc, encoding="utf-8")
            assert cli.main(["verify", str(instance), "--result", str(result)]) == 0
            assert json.loads(capsys.readouterr().out)["verified"] is True
    # the second pass deletes on some of them
    assert second >= 2
