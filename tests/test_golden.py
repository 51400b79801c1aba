"""The golden harness: every pinned result document, replayed.

`tests/golden/` holds four tables. Three map `"<command> <instance>"` to
the exit code of `matchstab <command> <instance file>`, run in process, and
to its stdout, exactly or by sha256:

* `fixtures.json`: every command in `RUN_COMMANDS` on each
  `fixtures/*.json`, with the exact stdout;
* `lp_suite.json`: `solve-fractional` and `min-cycles` on seeded graphs with
  up to 30 vertices from four families (see `_lp_graphs`), with the exact
  stdout;
* `scale.json`: documents at sizes that neither the fixtures, the LP suite
  nor the benchmark reach (see `SCALE`), by the sha256 of the stdout. Each
  of them must also pass `matchstab verify`, and each call must finish
  within `TIME_GUARD_S`.

The fourth, `bench.json`, maps each workload of `BENCHMARK.json` to the
arguments of a short `bench/run.py` run, seed 1 (see `_bench_argv`), and
to the run's `digest_sha256`, the sha256 of every result document it
produced. The run is a subprocess of a copy of `src/matchstab` and `bench/`
in a temporary directory, so it neither clears nor leaves a `.bench_work/`
in the checkout. It must exit 0, report `correct` and no failed operation,
and finish within `TIME_GUARD_S`. desk-batch runs with the tracer
installed, which must leave every document as it is.

A change that alters any document byte for byte fails here, plain and
under `python -O`. To regenerate all four tables after an intended output
change, say why in the change, and run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from functools import cache, partial
from pathlib import Path

import pytest

import chord_path
import complete_graph
import feasible_sparse
from matchstab.cli import RUN_COMMANDS, main
from matchstab.graph import WeightedGraph

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCALE_TABLE = "scale.json"
BENCH_TABLE = "bench.json"
TIME_GUARD_S = 120


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


def _lp_graphs() -> dict[str, WeightedGraph]:
    """The LP suite's graphs, n = 10, 14, ..., 30 in each family:

    * ``unit``: sparse random graphs, n edges of weight 1;
    * ``w12``: sparse random graphs, 2n edges of weight 1-2;
    * ``dense``: K_n with weights 1-1000;
    * ``grid``: 3-column grids with weight 1 on a shuffled vertex order.

    Unit and 1-2 weights leave the bipartite duplicate many optimal
    matchings, so on every ``unit`` case and some ``w12`` and ``grid``
    ones, and on no ``dense`` one, the kernel's matching holds half paths
    or even cycles, which ``solve_fractional`` must round to their heavier
    alternation."""
    out: dict[str, WeightedGraph] = {}
    for family in ("unit", "w12", "dense", "grid"):
        for n in (10, 14, 18, 22, 26, 30):
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


def _instance_text(graph: WeightedGraph) -> str:
    # vertex labels are the indices; the golden documents pin this text's hash
    doc = {
        "vertices": [str(v) for v in range(graph.n)],
        "edges": [{"u": str(u), "v": str(v), "w": str(w)} for u, v, w in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


# scale.json's instances: by name, the commands pinned on it and its file text
SCALE = {
    # the chord path augments about 150 times at this size, which the bench
    # workloads almost never do, so these documents pin the search's moves
    "chord-12000": (("min-cycles", "stabilize-vertices"), partial(chord_path.instance_json, 12000)),
    # at n = 48000, z's row in the search graph holds about 3000 nodes and
    # is edited in place by about 540 augmentations
    "chord-48000": (("min-cycles",), partial(chord_path.instance_json, 48000)),
    # the bench's dense instances stop at K_44; at n = 200 the Hungarian
    # kernel's trees and its slack ties are larger than any the bench
    # meets, and with weights 1-2 almost every root is matched directly,
    # so these documents pin its matching and potentials
    **{
        f"k200-{high}": (
            ("solve-fractional", "min-cycles"), partial(complete_graph.instance_json, 200, high)
        )
        for high in (1000, 20, 2)
    },
    # every other pinned instance has integer weights, so D = 1; D = 6 pins
    # the parser's fraction path, the kernel on scaled weights and the
    # subgraphs that stabilize-vertices deletes stars from
    "k60-sixths": (
        ("solve-fractional", "stabilize-vertices"),
        partial(complete_graph.instance_json, 60, 1000, 6),
    ),
    # every bench m-stabilize instance is infeasible and stops at the LP, so
    # this document pins both deletion passes and their walk scans
    "feasible-800": (("m-stabilize",), partial(feasible_sparse.instance_json, 800, 1)),
}

# by table, its instances: by name, the commands pinned on it and its file,
# as a path or as a function that returns its text
TABLES = {
    "fixtures.json": {
        path.name: (RUN_COMMANDS, path) for path in sorted((ROOT / "fixtures").glob("*.json"))
    },
    "lp_suite.json": {
        name: (("solve-fractional", "min-cycles"), partial(_instance_text, graph))
        for name, graph in _lp_graphs().items()
    },
    SCALE_TABLE: SCALE,
}


def _bench_argv(workload: str) -> list[str]:
    """`bench/run.py`'s arguments for the bench.json row of `workload`:
    seed 1 and 2 s of rounds, or for desk-batch 1 s under the tracer."""
    seconds, trace = ("1", "1") if workload == "desk-batch" else ("2", "0")
    return ["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", trace]


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# bench.json's rows: by workload, the arguments of its bench/run.py run
BENCH = {w["name"]: _bench_argv(w["name"]) for w in BENCHMARK["workloads"]}


def _cases() -> list[tuple[str, str, str]]:
    return [
        (table, command, name)
        for table, instances in TABLES.items()
        for name, (commands, _source) in instances.items()
        for command in commands
    ]


def _instance_path(table: str, name: str, workdir: Path) -> Path:
    """The instance file of `name`, written to `workdir` once if it is
    generated."""
    source = TABLES[table][name][1]
    if isinstance(source, Path):
        return source
    path = workdir / f"{name}.json"
    if not path.exists():
        path.write_text(source(), encoding="utf-8")
    return path


def _main(argv: list[str]) -> tuple[int, str, float]:
    """`main(argv)`'s exit code, its stdout and its wall time in seconds."""
    out = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue(), time.monotonic() - started


def _row(table: str, code: int, stdout: str) -> dict:
    if table == SCALE_TABLE:
        return {"exit_code": code, "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    return {"exit_code": code, "stdout": stdout}


def _bench(workload: str, workdir: Path) -> tuple[subprocess.CompletedProcess, dict]:
    """The `bench/run.py` run of `workload` on a copy of the package and the
    bench in `workdir`, with no inherited PYTHONPATH, and its bench.json row."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "matchstab", workdir / "src" / "matchstab", ignore=ignore)
    shutil.copytree(ROOT / "bench", workdir / "bench", ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = BENCH[workload]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=workdir, env=env,
        capture_output=True, text=True, timeout=TIME_GUARD_S,
    )
    # the line "digest_sha256 <hex> (all result documents of the run)"
    digest = next((w[1] for w in map(str.split, proc.stdout.splitlines())
                   if w[:1] == ["digest_sha256"]), None)
    return proc, {"argv": argv, "digest_sha256": digest}


@cache
def _golden(table: str) -> dict:
    return json.loads((GOLDEN / table).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


def test_golden_covers_every_case():
    for table in TABLES:
        cases = [f"{command} {name}" for t, command, name in _cases() if t == table]
        assert sorted(_golden(table)) == sorted(cases), table
    assert sorted(_golden(BENCH_TABLE)) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("table,command,name", _cases())
def test_document_is_unchanged(table, command, name, workdir):
    instance = _instance_path(table, name, workdir)
    code, stdout, seconds = _main([command, str(instance)])
    assert _row(table, code, stdout) == _golden(table)[f"{command} {name}"]
    if table != SCALE_TABLE:
        return
    assert seconds < TIME_GUARD_S
    result = workdir / f"{command}-{name}.result.json"
    result.write_text(stdout, encoding="utf-8")
    code, report, seconds = _main(["verify", str(instance), "--result", str(result)])
    assert code == 0, report
    assert seconds < TIME_GUARD_S


@pytest.mark.parametrize("workload", BENCH)
def test_bench_run_is_unchanged(workload, tmp_path):
    proc, row = _bench(workload, tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, proc.stdout
    assert row == _golden(BENCH_TABLE)[workload]


if __name__ == "__main__":
    tables: dict[str, dict] = {table: {} for table in (*TABLES, BENCH_TABLE)}
    with tempfile.TemporaryDirectory() as tmp:
        for table, command, name in _cases():
            code, stdout, _seconds = _main([command, str(_instance_path(table, name, Path(tmp)))])
            tables[table][f"{command} {name}"] = _row(table, code, stdout)
        for workload in BENCH:
            proc, row = _bench(workload, Path(tmp) / workload)
            if proc.returncode != 0:
                sys.exit(f"bench/run.py {' '.join(row['argv'])} failed:\n{proc.stderr}")
            tables[BENCH_TABLE][workload] = row
    for table, rows in tables.items():
        text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
        (GOLDEN / table).write_text(text, encoding="utf-8")
        print(f"wrote {len(rows)} cases to tests/golden/{table}", file=sys.stderr)
