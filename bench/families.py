"""Seeded instance families and the independent result checks for each.

Workload notes
--------------
Every workload walks a fixed size ladder round by round; the seed only
changes the graphs drawn at each rung. A run measures a fixed number of whole
rounds, so two seeds time the same mix of sizes and two commits time the same
instances. The heavy workloads climb in steps of one or two, so operation
times spread evenly over the ladder and a crash that drops an operation moves
the median and the tail by one small step rather than from one cluster of
timings to another. Their ladders are short enough that a 25 s run attempts
45 or more operations, so that even on dense-lp, where up to 7 of 45
operations crash in ``reduce_cycles``, the tail has ten completed operations
above it and lies well above the median.

* ``tri-chain``: t disjoint weight-4 triangles plus 2t cross-links of weight
  1-3, t in 36..44. The cover y = 2 is tight only on the triangles, so
  gamma = t grows with n and the per-iteration rebuild in
  ``cycles.reduce_cycles`` / ``edmonds.grow_tree`` does the work. Commands:
  ``min-cycles``, ``stabilize-vertices``. Stresses cycles, edmonds, lp's
  pair check and graph; not walks. The oracle refuses (n > 12).
* ``dense-lp``: K_n with weights 1-1000, n in 36..44. gamma is 0 or near
  0, so the Hungarian LP dominates and the cycle search idles.
  Commands: ``solve-fractional``, ``min-cycles``. Stresses lp; bypasses
  cycles, walks and oracle.
* ``mstab-sparse``: n in 30, 32, ..., 44, 2n edges with weights 1-20 and a
  greedy matching taking each free edge with probability 0.6. Command:
  ``m-stabilize`` (exit 2, infeasible, is a valid outcome). Stresses walks;
  lp runs once on the residual graph; cycles and oracle idle.
* ``desk-batch``: small instances, n 6-12, from sparse, tri-chain and
  unit-weight families, each with a matching; all seven run commands. Per
  instance fixed costs dominate: parse, JSON emit, verify and the 2^n oracle
  inside ``check-stability`` and ``nu_before``. The only workload that
  measures the oracle, instance and cli layers.

Cache hygiene: ``matchstab.oracle`` memoizes its 2^n tables by graph value,
a cache that a user who runs one CLI process per instance never hits. No
graph repeats within a run, and the runner clears every ``lru_cache`` in the
package before each command, so every timed command starts cold. Each run is
a fresh process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

LADDERS = {
    "tri-chain": [("tri", t) for t in range(36, 45)],
    "dense-lp": [("dense", n) for n in range(36, 45)],
    "mstab-sparse": [("sparse", n) for n in range(30, 45, 2)],
    "desk-batch": [("sparse", n) for n in range(6, 13)]
    + [("tri", t) for t in (2, 3, 4)]
    + [("unit", n) for n in range(6, 13)],
}

# Nominal seconds per round on a 2-CPU x86 host; a run of --seconds S
# measures round(S / ROUND_S) rounds: 5, 5, 6 and 10 rounds at S = 25.
ROUND_S = {"tri-chain": 5.4, "dense-lp": 5.4, "mstab-sparse": 4.2, "desk-batch": 2.5}

COMMANDS = {
    "tri-chain": ("min-cycles", "stabilize-vertices"),
    "dense-lp": ("solve-fractional", "min-cycles"),
    "mstab-sparse": ("m-stabilize",),
    "desk-batch": (
        "solve-fractional",
        "min-cycles",
        "stabilize-vertices",
        "stabilize-edges",
        "m-stabilize",
        "check-stability",
        "gamma",
    ),
}

# Below this size the oracle's brute-force stabilizer searches are in budget.
ORACLE_MAX_N = 8


@dataclass(frozen=True)
class Generated:
    family: str
    size: int
    n: int
    edges: tuple[tuple[int, int, int], ...]
    matching: Optional[tuple[tuple[int, int], ...]]

    def label(self, v: int) -> str:
        return f"v{v}"

    def to_json(self) -> str:
        doc = {
            "vertices": [self.label(v) for v in range(self.n)],
            "edges": [
                {"u": self.label(u), "v": self.label(v), "w": str(w)}
                for u, v, w in self.edges
            ],
        }
        if self.matching is not None:
            doc["matching"] = [[self.label(u), self.label(v)] for u, v in self.matching]
        return json.dumps(doc, indent=1) + "\n"


def _add_random_edges(rng, n, edges, count, weights, allowed=lambda u, v: True):
    while count > 0:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) in edges or not allowed(u, v):
            continue
        edges[(u, v)] = rng.randint(*weights)
        count -= 1


def _tri_chain(rng, t):
    """t weight-4 triangles on a random vertex order, plus 2t cross-links."""
    n = 3 * t
    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for i in range(t):
        a, b, c = sorted(order[3 * i : 3 * i + 3])
        edges[(a, b)] = edges[(a, c)] = edges[(b, c)] = 4
    triangle = {v: i // 3 for i, v in enumerate(order)}
    _add_random_edges(
        rng, n, edges, 2 * t, (1, 3), lambda u, v: triangle[u] != triangle[v]
    )
    return n, edges


def _sparse(rng, n):
    edges = {}
    _add_random_edges(rng, n, edges, min(2 * n, n * (n - 1) // 2 - 1), (1, 20))
    return n, edges


def _dense(rng, n):
    return n, {(u, v): rng.randint(1, 1000) for u in range(n) for v in range(u + 1, n)}


def _unit(rng, n):
    edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35}
    if not edges:
        edges[(0, 1)] = 1
    return n, edges


def _greedy_matching(rng, edges):
    """Scan the edges in random order, taking each free one with p = 0.6."""
    order = sorted(edges)
    rng.shuffle(order)
    used: set[int] = set()
    pairs = []
    for u, v in order:
        if u not in used and v not in used and rng.random() < 0.6:
            pairs.append((u, v))
            used.update((u, v))
    return tuple(sorted(pairs))


_FAMILY_GRAPHS = {"tri": _tri_chain, "sparse": _sparse, "dense": _dense, "unit": _unit}


class Generator:
    """Deterministic stream of distinct instances for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set[tuple] = set()

    def round(self) -> list[Generated]:
        return [self._one(family, size) for family, size in LADDERS[self.workload]]

    def _one(self, family: str, size: int) -> Generated:
        while True:
            n, edges = _FAMILY_GRAPHS[family](self.rng, size)
            key = (n, tuple(sorted(edges.items())))
            if key not in self.seen:
                self.seen.add(key)
                break
        with_matching = self.workload in ("mstab-sparse", "desk-batch")
        matching = _greedy_matching(self.rng, edges) if with_matching else None
        return Generated(
            family,
            size,
            n,
            tuple((u, v, w) for (u, v), w in sorted(edges.items())),
            matching,
        )


# ---------------------------------------------------------------------------
# Independent checks, run outside the timed region. `check` returns a list of
# mismatch descriptions; `docs` maps a command name to its parsed result
# document, `codes` to its exit code.


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def expected_exit_codes(command: str) -> tuple[int, ...]:
    """Codes that come with a document: 2 is an infeasible m-stabilize, 1 a
    document that verify rejects."""
    return {"m-stabilize": (0, 2), "verify": (0, 1)}.get(command, (0,))


def check(workload: str, inst: Generated, docs: dict, codes: dict) -> list[str]:
    problems: list[str] = []
    for command, doc in docs.items():
        _expect(problems, doc["command"] == command, f"{command}: document says {doc['command']!r}")
    out = {c: d["outputs"] for c, d in docs.items()}
    if "m-stabilize" in out:
        _check_m_stabilize(problems, inst, out["m-stabilize"], codes["m-stabilize"])
    if workload == "tri-chain":
        t = inst.size
        mc, sv = out["min-cycles"], out["stabilize-vertices"]
        _expect(problems, mc["gamma"] == t, f"gamma {mc['gamma']} != t = {t}")
        _expect(problems, Fraction(mc["nu_f"]) == 6 * t, f"nu_f {mc['nu_f']} != 6t")
        _expect(problems, len(sv["S"]) == t, f"|S| = {len(sv['S'])} != t = {t}")
        _expect(problems, sv["gamma"] == t, f"stabilizer gamma {sv['gamma']} != t")
        _expect(problems, Fraction(sv["nu_after"]) == 4 * t, f"nu_after {sv['nu_after']} != 4t")
    elif workload == "dense-lp":
        a, b = out["solve-fractional"], out["min-cycles"]
        _expect(problems, Fraction(a["nu_f"]) == Fraction(b["nu_f"]), "nu_f differs")
        _expect(problems, b["gamma"] == len(b["odd_cycles"]), "gamma != #odd_cycles")
    elif workload == "desk-batch":
        _check_desk(problems, inst, out)
    return problems


def _check_m_stabilize(problems, inst: Generated, out: dict, code: int) -> None:
    infeasible = out["status"] == "infeasible"
    _expect(problems, (code == 2) == infeasible, f"m-stabilize exit {code} vs {out['status']}")
    parts = out["S1"] + out["S2"]
    _expect(problems, sorted(out["S"]) == sorted(parts) and len(set(parts)) == len(parts),
            "S is not the disjoint union of S1 and S2")
    weights = {(u, v): w for u, v, w in inst.edges}
    w_m = sum(weights[p] for p in inst.matching)
    _expect(problems, Fraction(out["w_M"]) == w_m, f"w_M {out['w_M']} != {w_m}")
    if not infeasible:
        _expect(problems, Fraction(out["residual_nu_f"]) == w_m, "residual nu_f != w(M)")


def _check_desk(problems, inst: Generated, out: dict) -> None:
    from matchstab import oracle
    from matchstab.graph import Matching, WeightedGraph

    gammas = {out["gamma"]["gamma"], out["min-cycles"]["gamma"], out["stabilize-vertices"]["gamma"]}
    nu_fs = {
        Fraction(out[c]["nu_f"]) for c in ("solve-fractional", "min-cycles", "check-stability")
    }
    cs, sv = out["check-stability"], out["stabilize-vertices"]
    nu = Fraction(cs["nu"])
    _expect(problems, len(gammas) == 1, f"gamma disagrees across commands: {gammas}")
    _expect(problems, len(nu_fs) == 1, f"nu_f disagrees across commands: {nu_fs}")
    _expect(problems, cs["stable"] == (nu == Fraction(cs["nu_f"])), "stable != (nu == nu_f)")
    _expect(problems, Fraction(sv["nu_before"]) == nu, "nu_before != check-stability nu")
    _expect(problems, len(sv["S"]) == sv["gamma"], "|S| != gamma")
    se = out["stabilize-edges"]
    _expect(problems, se["lower_bound"] <= se["size"] <= se["upper_bound"], "edge sandwich")
    if inst.n > ORACLE_MAX_N:
        return
    graph = WeightedGraph.from_edges(inst.n, inst.edges)
    matching = Matching.from_pairs(inst.matching)
    _expect(problems, gammas == {oracle.brute_gamma(graph)}, "gamma != oracle")
    _expect(problems, nu == oracle.exact_nu(graph)[0], "nu != oracle")
    _expect(problems, nu_fs == {oracle.exact_nu_f(graph)}, "nu_f != oracle")
    _expect(problems, cs["stable"] == oracle.is_stable(graph), "stable != oracle")
    opt_s = oracle.brute_min_vertex_stabilizer(graph)
    _expect(problems, len(sv["S"]) == len(opt_s), f"|S| {len(sv['S'])} != OPT {len(opt_s)}")
    ms = out["m-stabilize"]
    opt_m = oracle.brute_min_m_stabilizer(graph, matching)
    if opt_m == oracle.INFEASIBLE:
        _expect(problems, ms["status"] == "infeasible", "m-stabilize feasible, oracle infeasible")
    else:
        _expect(problems, ms["status"] == "feasible", "m-stabilize infeasible, oracle feasible")
        _expect(problems, len(ms["S"]) <= 2 * len(opt_m), "m-stabilize |S| > 2 OPT")
