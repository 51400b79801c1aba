"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact rational equalities; there are no tolerances
anywhere in this module.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    cover_of,
    delete_vertices,
    fig6,
    fig7,
    fig8,
    fig9,
    random_graph,
    random_matching,
)
from matchstab import oracle
from matchstab.certify import verify_optimal_pair
from matchstab.cycles import AugmentationEvent, reduce_cycles
from matchstab.errors import NotOptimalPair
from matchstab.graph import (
    Matching,
    WeightedGraph,
    decompose,
    tight_edges,
)
from matchstab.lp import solve_fractional
from matchstab.mstab import FEASIBLE, INFEASIBLE, m_vertex_stabilizer
from matchstab.stabilizers import edge_stabilizer_approx, min_vertex_stabilizer
from matchstab.walks import optimal_walks

H = Fraction(1, 2)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {summary}")


def test_criterion_1_fig8_fixture():
    with criterion(1, "FIG8: nu=8, nu_f=9, edge-stabilizer {qr}, deletion profile"):
        g = fig8()
        assert oracle.exact_nu(g)[0] == 8
        assert oracle.exact_nu_f(g) == 9
        assert oracle.brute_min_edge_stabilizer(g) == frozenset({0})  # {qr}
        without_qr = g.delete_edges([0])
        assert oracle.is_stable(without_qr)
        assert oracle.exact_nu(without_qr)[0] == 7
        _bfm, cover = solve_fractional(without_qr)
        assert cover.total == 7  # nu = tau_f = 7
        for i in range(g.m):
            assert oracle.is_stable(g.delete_edges([i])) == (i == 0)
        assert oracle.exact_nu_f(g.delete_edges([2])) == Fraction(17, 2)  # pq
        assert oracle.exact_nu_f(g.delete_edges([6])) == Fraction(17, 2)  # pr


def test_criterion_2_fig9_fixture():
    with criterion(2, "FIG9: nu=5, nu_f=6, gamma=1, singleton stabilizer, 2/3 bound"):
        g = fig9()
        assert oracle.exact_nu(g)[0] == 5
        assert oracle.exact_nu_f(g) == 6
        result = min_vertex_stabilizer(g)
        assert result.gamma == 1
        assert len(result.removed) == 1 and result.removed[0] in (0, 1, 2)
        assert result.nu_after == 4
        assert 3 * result.nu_after >= 2 * oracle.exact_nu(g)[0] == 10


def test_criterion_3_fig6_fixture():
    with criterion(3, "FIG6: gamma=2 exceeds the optimal edge-stabilizer size 1"):
        g = fig6()
        assert reduce_cycles(g).gamma == 2
        optimum = oracle.brute_min_edge_stabilizer(g)
        assert len(optimum) == 1
        # the 1/2-weight bridge is also an optimal edge-stabilizer
        assert oracle.is_stable(g.delete_edges([4]))
        assert edge_stabilizer_approx(g).lower_bound == 1 <= len(optimum)


def test_criterion_4_fig7_tightness():
    with criterion(4, "FIG7 (eps=1/4): every stabilizer leaves nu <= 2; bound met"):
        g = fig7()
        assert oracle.exact_nu(g)[0] == Fraction(11, 4)
        for k in range(g.n + 1):
            for subset in itertools.combinations(range(g.n), k):
                rest, _keep = delete_vertices(g, subset)
                if oracle.is_stable(rest):
                    assert oracle.exact_nu(rest)[0] <= 2
        result = min_vertex_stabilizer(g)
        assert result.nu_after == 2
        assert 3 * result.nu_after >= 2 * oracle.exact_nu(g)[0]


def test_criterion_5_cycle_minimization_matches_oracle(property_suite):
    with criterion(5, "reduce_cycles = brute gamma and nu_f on 240 random graphs"):
        for g in property_suite:
            result = reduce_cycles(g)
            assert result.gamma == oracle.brute_gamma(g)
            assert result.weight == oracle.exact_nu_f(g)
            # the final solution is basic and optimal with slackness intact
            verify_optimal_pair(g, result.solution, result.cover)
            assert decompose(g, result.solution.halves) == result.solution


def test_criterion_6_vertex_stabilizer_optimality(property_suite):
    with criterion(6, "vertex stabilizer optimal, stabilizing, and 2/3-preserving"):
        for g in property_suite:
            result = min_vertex_stabilizer(g)
            assert len(result.removed) == len(oracle.brute_min_vertex_stabilizer(g))
            rest, _keep = delete_vertices(g, result.removed)
            assert oracle.is_stable(rest)
            assert 3 * result.nu_after >= 2 * oracle.exact_nu(g)[0]


def test_criterion_7_deletion_monotonicity(property_suite):
    with criterion(7, "gamma(G-v) >= gamma(G)-1 and gamma(G-e) >= gamma(G)-2"):
        for g in property_suite:
            base = oracle.brute_gamma(g)
            for v in range(g.n):
                rest, _keep = delete_vertices(g, [v])
                assert oracle.brute_gamma(rest) >= base - 1
            for e in range(g.m):
                assert oracle.brute_gamma(g.delete_edges([e])) >= base - 2


def _all_matchings(g: WeightedGraph):
    out = [[]]

    def rec(start, used, cur):
        for i in range(start, g.m):
            u, v, _w = g.edges[i]
            if u in used or v in used:
                continue
            cur.append((u, v))
            used.update((u, v))
            out.append(list(cur))
            rec(i + 1, used, cur)
            cur.pop()
            used.difference_update((u, v))

    rec(0, set(), [])
    return out


def test_criterion_8_walk_dp_oracle_equivalence():
    with criterion(8, "walk DP = enumeration, exhaustive n<=5 plus random n<=7"):
        # exhaustive: every edge subset of K5; weights assigned from {1, 2} by
        # edge-index parity (enumerating all weight functions is intractable)
        n, k = 5, 6
        complete = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(complete)):
            chosen = [complete[i] for i in range(len(complete)) if bits >> i & 1]
            edges = [(u, v, 1 + i % 2) for i, (u, v) in enumerate(chosen)]
            g = WeightedGraph.from_edges(n, edges)
            for pairs in _all_matchings(g):
                matching = Matching.from_pairs(pairs)
                for s in range(n):
                    tables = optimal_walks(g, matching, s, k)
                    brute = oracle.optimal_walk_values(g, matching, s, k)
                    for i in range(k + 1):
                        for v in range(n):
                            got = (
                                tables.history2[i][v]
                                if matching.covers(v)
                                else tables.history1[i][v]
                            )
                            assert brute[i][v] == got
        rng = random.Random(808)
        for _ in range(40):
            g = random_graph(rng, n_max=7)
            matching = random_matching(rng, g)
            s = rng.randrange(g.n)
            bound = rng.randint(0, 8)
            tables = optimal_walks(g, matching, s, bound)
            brute = oracle.optimal_walk_values(g, matching, s, bound)
            for v in range(g.n):
                got = tables.y2[v] if matching.covers(v) else tables.y1[v]
                assert brute[bound][v] == got


def test_criterion_9_m_stabilizer():
    with criterion(9, "M-stabilizer: 2-approx, exact when S2 empty, infeasibility"):
        g9 = fig9()
        result = m_vertex_stabilizer(g9, Matching.from_pairs([(1, 2), (0, 3)]))
        assert result.status == INFEASIBLE
        rng = random.Random(909)
        feasible = 0
        for _ in range(200):
            g = random_graph(rng, n_max=7)
            matching = random_matching(rng, g)
            result = m_vertex_stabilizer(g, matching)
            brute = oracle.brute_min_m_stabilizer(g, matching)
            if brute == oracle.INFEASIBLE:
                assert result.status == INFEASIBLE
                continue
            feasible += 1
            assert result.status == FEASIBLE
            assert len(result.removed) <= 2 * len(brute)
            if not result.second_phase:
                assert len(result.removed) == len(brute)
        assert feasible >= 100


def test_criterion_10_duality_assertions_always_on(property_suite):
    with criterion(10, "emitted pairs satisfy exact duality and slackness"):
        # the pair checks are built into the solvers; re-check a sample here
        for g in property_suite[:80]:
            bfm, cover = solve_fractional(g)
            assert bfm.weight == cover.total
            tight = tight_edges(g, cover)
            assert all(i in tight for i in bfm.support)
            assert all(
                cover.values[v] == 0 or bfm.vertex_halves[v] == 2 for v in range(g.n)
            )
            result = reduce_cycles(g)
            verify_optimal_pair(g, result.solution, result.cover)
            for event in result.events:
                assert isinstance(event, AugmentationEvent) or event.root_cycle
        # and the assertion actually fires on a broken pair
        g = fig9()
        bfm, _cover = solve_fractional(g)
        try:
            verify_optimal_pair(g, bfm, cover_of([4, 4, 4, 4]))
        except NotOptimalPair:
            pass
        else:  # pragma: no cover
            raise AssertionError("verify_optimal_pair accepted a broken pair")
