"""The complete graph K_n with seeded random weights.

The weight of each edge u < v is drawn in order from 1..high by the given
generator; `instance_json` draws from `random.Random(1)`. At n = 200 the
graph has more than four times the vertices of the largest dense instance
the benchmark times, so its Hungarian trees are larger, and with weights
1..20 its slacks tie often: a kernel that breaks a tie differently changes
its documents.

`instance_json` writes the instance file of K_n, vertices v0..v{n-1}. An
optional denominator d writes each drawn k as the weight "k/d", so the
graph's D is d (for d = 6 and enough edges), where every benchmark
instance has D = 1. `tests/golden/scale.json` pins K_200 with weights
1..1000, 1..20 and 1..2, and K_60 with weights k/6 for k in 1..1000.
"""

from __future__ import annotations

import json
import random


def complete_graph_edges(rng: random.Random, n: int, high: int) -> list[tuple[int, int, int]]:
    return [(u, v, rng.randint(1, high)) for u in range(n) for v in range(u + 1, n)]


def complete_graph(rng: random.Random, n: int, high: int):
    """K_n with weights drawn from `rng` as a `WeightedGraph`."""
    from matchstab.graph import WeightedGraph

    return WeightedGraph.from_edges(n, complete_graph_edges(rng, n, high))


def instance_json(n: int, high: int, denominator: int = 1) -> str:
    """K_n with weights drawn from `random.Random(1)`, each over
    `denominator` unless it is 1, as an instance file, vertices
    v0..v{n-1}."""
    edges = complete_graph_edges(random.Random(1), n, high)
    over = f"/{denominator}" if denominator != 1 else ""
    doc = {
        "vertices": [f"v{v}" for v in range(n)],
        "edges": [{"u": f"v{u}", "v": f"v{v}", "w": f"{w}{over}"} for u, v, w in edges],
    }
    return json.dumps(doc, indent=1) + "\n"

