"""The feasible sparse family: an M-vertex-stabilizer instance that is always
feasible, so `m-stabilize` runs both deletion passes on it.

On n vertices, with the left half 0..n/2 - 1: 2n distinct random left-right
edges of weight 1..20 drawn from `random.Random(seed)`; M is the integral
optimum that `solve_fractional` returns on that bipartite graph; then each
M-exposed vertex, in ascending order, gets one more random edge of weight
1..20 to a vertex it is not yet adjacent to. Every added edge has an end
outside M, so G - delta(X), X the M-exposed vertices, is a subgraph of the
bipartite graph in which M is a maximum-weight matching: nu_f(G - delta(X))
= w(M), which is feasibility.

`instance_json` writes the instance file, with its matching, of the family
on n vertices for a seed; `tests/golden/scale.json` pins the one at
n = 800, seed 1.
"""

from __future__ import annotations

import json
import random


def feasible_sparse_edges(
    n: int, seed: int
) -> tuple[list[tuple[int, int, int]], tuple[tuple[int, int], ...]]:
    """The edges (u, v, w) and the matching pairs of the family."""
    from matchstab.graph import WeightedGraph
    from matchstab.lp import solve_fractional

    if n < 8:
        raise ValueError("the family needs n >= 8 for 2n distinct left-right edges")
    rng = random.Random(seed)
    half = n // 2
    weights: dict[tuple[int, int], int] = {}
    while len(weights) < 2 * n:
        pair = (rng.randrange(half), rng.randrange(half, n))
        if pair not in weights:
            weights[pair] = rng.randint(1, 20)
    bipartite = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in weights.items()])
    x, _cover = solve_fractional(bipartite)
    assert not x.odd_cycles, "a basic x of a bipartite graph is integral"
    matching = x.matched.sorted_pairs()
    covered = {v for pair in matching for v in pair}
    for v in range(n):
        if v in covered:
            continue
        while True:
            u = rng.randrange(n)
            pair = (min(u, v), max(u, v))
            if u != v and pair not in weights:
                weights[pair] = rng.randint(1, 20)
                break
    return [(u, v, w) for (u, v), w in weights.items()], matching


def feasible_sparse(n: int, seed: int):
    """The family on n vertices for a seed as a (`WeightedGraph`, `Matching`)."""
    from matchstab.graph import Matching, WeightedGraph

    edges, matching = feasible_sparse_edges(n, seed)
    return WeightedGraph.from_edges(n, edges), Matching.from_pairs(matching)


def instance_json(n: int, seed: int) -> str:
    """The family as an instance file, vertices v0..v{n-1}, with its matching."""
    edges, matching = feasible_sparse_edges(n, seed)
    doc = {
        "vertices": [f"v{v}" for v in range(n)],
        "edges": [{"u": f"v{u}", "v": f"v{v}", "w": str(w)} for u, v, w in edges],
        "matching": [[f"v{u}", f"v{v}"] for u, v in matching],
    }
    return json.dumps(doc, indent=1) + "\n"

