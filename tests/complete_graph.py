"""The complete graph K_n with seeded random weights.

The weight of each edge u < v is drawn in order from 1..high by the given
generator; the script draws from `random.Random(1)`. At n = 200 the graph has more than four times the vertices of the
largest dense instance the benchmark times, so its Hungarian trees are
larger, and with weights 1..20 its slacks tie often: a kernel that breaks
a tie differently changes its documents.

Run as a script, it writes the instance file of K_n, vertices v0..v{n-1}.
An optional denominator d writes each drawn k as the weight "k/d", so the
graph's D is d (for d = 6 and enough edges), where every benchmark
instance has D = 1:

    python tests/complete_graph.py 200 1000 k200.json
    python tests/complete_graph.py 60 1000 k60-sixths.json 6
"""

from __future__ import annotations

import json
import random
import sys


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


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit("usage: python tests/complete_graph.py N HIGH OUT.json [DENOMINATOR]")
    denominator = int(sys.argv[4]) if len(sys.argv) == 5 else 1
    with open(sys.argv[3], "w", encoding="utf-8") as out:
        out.write(instance_json(int(sys.argv[1]), int(sys.argv[2]), denominator))
