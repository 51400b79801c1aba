"""Pin the `solve-fractional` and `min-cycles` documents on larger graphs.

The five fixtures are small; this suite adds seeded graphs with up to 30
vertices from four families:

* ``unit``: sparse random graphs, n edges of weight 1;
* ``w12``: sparse random graphs, 2n edges of weight 1-2;
* ``dense``: K_n with weights 1-1000;
* ``grid``: 3-column grids with weight 1 on a shuffled vertex order.

Unit and 1-2 weights leave the bipartite duplicate many optimal matchings,
so on the ``unit``, ``w12`` and ``grid`` cases the averaged vector carries
half-valued paths and even cycles that ``normalize_to_basic`` must round.

`tests/golden/lp_suite.json` holds, for each case, the exit code and the
exact stdout of `matchstab <command> <instance>`, where the instance file is
`_instance_text` of the generated graph. To regenerate after an intended
output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden_lp.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from matchstab.cli import main
from matchstab.graph import WeightedGraph

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "lp_suite.json"
COMMANDS = ("solve-fractional", "min-cycles")
SIZES = (10, 14, 18, 22, 26, 30)


def _sparse(rng: random.Random, n: int, m: int, w_max: int) -> list:
    possible = list(itertools.combinations(range(n), 2))
    return [(u, v, rng.randint(1, w_max)) for u, v in rng.sample(possible, m)]


def _dense(rng: random.Random, n: int) -> list:
    return [(u, v, rng.randint(1, 1000)) for u, v in itertools.combinations(range(n), 2)]


def _grid(rng: random.Random, n: int) -> list:
    order = list(range(n))
    rng.shuffle(order)
    cell = {(i // 3, i % 3): v for i, v in enumerate(order)}
    return [
        (v, cell[(r + dr, c + dc)], 1)
        for (r, c), v in cell.items()
        for dr, dc in ((0, 1), (1, 0))
        if (r + dr, c + dc) in cell
    ]


def _graphs() -> dict[str, WeightedGraph]:
    out: dict[str, WeightedGraph] = {}
    for family in ("unit", "w12", "dense", "grid"):
        for n in SIZES:
            rng = random.Random(f"{family}-{n}")
            if family == "unit":
                edges = _sparse(rng, n, n, 1)
            elif family == "w12":
                edges = _sparse(rng, n, 2 * n, 2)
            elif family == "dense":
                edges = _dense(rng, n)
            else:
                edges = _grid(rng, n)
            out[f"{family}-n{n}"] = WeightedGraph.from_edges(n, edges)
    return out


GRAPHS = _graphs()


def _instance_text(graph: WeightedGraph) -> str:
    # vertex labels are the indices; the golden documents pin this text's hash
    doc = {
        "vertices": [str(v) for v in range(graph.n)],
        "edges": [{"u": str(u), "v": str(v), "w": str(w)} for u, v, w in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def _run(command: str, name: str, workdir: Path) -> dict:
    path = workdir / f"{name}.json"
    path.write_text(_instance_text(GRAPHS[name]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return {"exit_code": code, "stdout": out.getvalue()}


def _cases() -> list[tuple[str, str]]:
    return [(c, name) for c in COMMANDS for name in GRAPHS]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(f"{c} {name}" for c, name in _cases())


@pytest.mark.parametrize("command,name", _cases())
def test_lp_document_is_unchanged(command, name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(command, name, tmp_path) == golden[f"{command} {name}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{c} {name}": _run(c, name, Path(tmp)) for c, name in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
