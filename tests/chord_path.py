"""The chord path: a family on which `reduce_cycles` augments many times.

A path on n vertices with weights 1..3 drawn from `random.Random(3)`, plus a
weight-2 chord (i, i + 2) for i = 0, 3, 6, .... Its LP optimum has many
half-valued triangles, and the number of augmentations the cycle minimizer
makes grows with n. `instance_json` writes it as an instance file, which
`tests/golden/scale.json` pins at n = 12000 and 48000.
"""

from __future__ import annotations

import json
import random


def chord_path_edges(n: int) -> list[tuple[int, int, int]]:
    rng = random.Random(3)
    edges = [(i, i + 1, rng.randint(1, 3)) for i in range(n - 1)]
    edges += [(i, i + 2, 2) for i in range(0, n - 2, 3)]
    return edges


def chord_path(n: int):
    """The chord path on n vertices as a `WeightedGraph`."""
    from matchstab.graph import WeightedGraph

    return WeightedGraph.from_edges(n, chord_path_edges(n))


def instance_json(n: int) -> str:
    """The chord path on n vertices as an instance file, vertices v0..v{n-1}."""
    doc = {
        "vertices": [f"v{v}" for v in range(n)],
        "edges": [{"u": f"v{u}", "v": f"v{v}", "w": str(w)} for u, v, w in chord_path_edges(n)],
    }
    return json.dumps(doc, indent=1) + "\n"

