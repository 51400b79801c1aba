"""Certificate checks that must hold under ``python -O``.

Each case plants one fault behind a solver's back and expects the solver's
final certificate check to raise NotOptimalPair: the LP pair, the pair
`reduce_cycles` ends with after its moves, and the stabilizers' results.
The cases run in a ``python -O`` subprocess, where every ``assert`` is
stripped, so they pass only if those checks are explicit raises.

Through the CLI, such a fault is an internal error, not an input error.
The run commands have one failure rule: only BudgetExceeded and
MatchingRequired are inputs a command refuses, with exit 1, and every
other exception raised while a command computes its document exits 3 and
names the failure and the instance's sha256. The planted faults (a
certificate that fails, a frustrated tree that holds z, an augmenting path
cut short, a move that drops a live cycle from G', a plain TypeError inside
`reduce_cycles`) each exit 3 with the same stderr with and without ``-O``:
no module of matchstab holds an ``assert``, or a raise of AssertionError,
so ``-O`` strips no check from a run. Nor does cli.py write JSON: it
imports nothing from json and names no `Fragment`, as `certify.render`
writes every document's text.

A fault in code that the solvers and `verify` share would be common-mode:
both checks would agree on it. `verify` builds no subgraph, so a fault
planted where the solvers build one, `WeightedGraph._keep`, is caught by
the solver's own check on G, or else leaves a document that is right.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import feasible_sparse
from conftest import tri_chain
from matchstab import cli, errors, graph as graph_module
from matchstab.graph import BasicFractionalMatching, WeightedGraph
from matchstab.instance import parse_instance
from test_golden import _instance_text

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = r"""
import json
import sys

import matchstab.cycles as cycles
import matchstab.lp as lp
import matchstab.mstab as mstab
import matchstab.stabilizers as stabilizers
from matchstab.cycles import ReduceCyclesResult, reduce_cycles
from matchstab.errors import NotOptimalPair
from matchstab.graph import FractionalVertexCover, Matching, WeightedGraph, decompose


def raised(run):
    try:
        run()
    except NotOptimalPair as exc:
        return str(exc)
    return None


def one_more_at(cover, v):
    values = list(cover.int_values)
    values[v] += cover.scale
    return FractionalVertexCover(tuple(values), cover.scale)


fig9 = WeightedGraph.from_edges(4, [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 3, 1)])
path = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
out = {"optimize": sys.flags.optimize}

hungarian = lp.bipartite_max_weight_matching


def right_potential_raised(graph):
    match_left, p_left, p_right = hungarian(graph)
    p_right[0] += 1
    return match_left, p_left, p_right


lp.bipartite_max_weight_matching = right_potential_raised
out["solve_fractional"] = raised(lambda: lp.solve_fractional(fig9))
lp.bipartite_max_weight_matching = hungarian

# s (vertex 3) lies on no cycle, so the stabilizer still removes p, but the
# surviving cover's total now exceeds the surviving matching's weight
reduction = reduce_cycles(fig9)
stabilizers.reduce_cycles = lambda graph: ReduceCyclesResult(
    reduction.solution, one_more_at(reduction.cover, 3), reduction.gamma, reduction.events
)
out["min_vertex_stabilizer"] = raised(lambda: stabilizers.min_vertex_stabilizer(fig9))

solve = mstab.solve_fractional


def residual_cover_raised(graph):
    bfm, cover = solve(graph)
    return bfm, one_more_at(cover, graph.n - 1)


mstab.solve_fractional = residual_cover_raised
out["m_vertex_stabilizer"] = raised(
    lambda: mstab.m_vertex_stabilizer(path, Matching.from_pairs([(0, 1)]))
)

# unit triangles {0,1,2} and {3,4,5} joined by 2-3, both half-valued under
# the all-1/2 cover: the one move rounds them and complements 2-3, and the
# planted move then also drops the matched edge 0-1, off its path
bridged = WeightedGraph.from_edges(
    6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
)
halves = tuple(0 if (u, v) == (2, 3) else 1 for u, v, _w in bridged.edges)
start = (decompose(bridged, halves), FractionalVertexCover((1,) * 6, 2))
move = cycles.apply_augmentation


def move_dropping_an_edge(graph, cover, tight, aux, halves, path):
    event = move(graph, cover, tight, aux, halves, path)
    halves[bridged.edge_index(0, 1)] = 0
    return event


cycles.apply_augmentation = move_dropping_an_edge
out["reduce_cycles"] = raised(lambda: reduce_cycles(bridged, start=start))
print(json.dumps(out))
"""


def test_certificate_checks_catch_planted_faults_under_dash_o():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert "strong_duality" in out["solve_fractional"]
    assert "matching_weight_equals_cover" in out["min_vertex_stabilizer"]
    assert "matching_weight_equals_cover" in out["m_vertex_stabilizer"]
    assert "strong_duality" in out["reduce_cycles"]


CLI_SCRIPT = r"""
import sys

import matchstab.cycles as cycles
import matchstab.lp as lp
from matchstab.cli import main
from matchstab.edmonds import AugmentingPath, FrustratedTree

fault, n, *argv = sys.argv[1:]
grow = cycles.grow_tree
if fault == "certificate":
    hungarian = lp.bipartite_max_weight_matching

    def right_potential_raised(graph):
        match_left, p_left, p_right = hungarian(graph)
        p_right[0] += 1
        return match_left, p_left, p_right

    lp.bipartite_max_weight_matching = right_potential_raised
elif fault == "twice":
    hungarian = lp.bipartite_max_weight_matching

    def right_copy_matched_twice(graph):
        # a second left copy takes the right partner of the first matched one
        match_left, p_left, p_right = hungarian(graph)
        u, r = next((u, r) for u, r in enumerate(match_left) if r is not None)
        match_left[min(set(range(graph.n)) - {u, r})] = r
        return match_left, p_left, p_right

    lp.bipartite_max_weight_matching = right_copy_matched_twice
elif fault == "tree":

    def tree_holding_z(search, root, dead):
        # G' node n is z, which no frustrated tree can hold
        outcome = grow(search, root, dead)
        if isinstance(outcome, FrustratedTree):
            outcome = outcome._replace(nodes=outcome.nodes | {int(n)})
        return outcome

    cycles.grow_tree = tree_holding_z
elif fault == "path":

    def path_cut_short(search, root, dead):
        # the augmenting path keeps its first two nodes only
        outcome = grow(search, root, dead)
        if isinstance(outcome, AugmentingPath):
            outcome = AugmentingPath(outcome.vertices[:2])
        return outcome

    cycles.grow_tree = path_cut_short
elif fault == "type":

    def tree_of_no_nodes(search, root, dead):
        # reading the tree's nodes raises a plain TypeError inside reduce_cycles
        outcome = grow(search, root, dead)
        if isinstance(outcome, FrustratedTree):
            outcome = outcome._replace(nodes=None)
        return outcome

    cycles.grow_tree = tree_of_no_nodes
elif fault == "live":
    move = cycles.apply_augmentation

    def move_dropping_a_live_cycle(graph, cover, tight, aux, halves, path):
        # G' loses one more live pseudonode than the move rounds in x
        event = move(graph, cover, tight, aux, halves, path)
        aux.cycle_of.pop(next(iter(aux.cycle_of)))
        return event

    cycles.apply_augmentation = move_dropping_a_live_cycle
sys.exit(main(argv))
"""

# the triangle 0-2-4 and the path 2-1-3: its one search grows a frustrated tree
FRUSTRATED = {
    "vertices": ["0", "1", "2", "3", "4"],
    "edges": [
        {"u": "1", "v": "3", "w": "4"},
        {"u": "0", "v": "2", "w": "3"},
        {"u": "2", "v": "4", "w": "3"},
        {"u": "0", "v": "4", "w": "4"},
        {"u": "1", "v": "2", "w": "4"},
    ],
}

# the triangle 1-2-3 and the edge 0-1: its one search augments, to the
# shadow of the zero-cover vertex 0
AUGMENTING = {
    "vertices": ["0", "1", "2", "3"],
    "edges": [
        {"u": "1", "v": "2", "w": "4"},
        {"u": "2", "v": "3", "w": "4"},
        {"u": "0", "v": "1", "w": "1"},
        {"u": "1", "v": "3", "w": "2"},
    ],
}

# AUGMENTING beside FRUSTRATED, relabelled from 4: one search augments and
# the other grows a frustrated tree, whose cycle stays live in G'
BOTH = {
    "vertices": AUGMENTING["vertices"] + [str(int(v) + 4) for v in FRUSTRATED["vertices"]],
    "edges": AUGMENTING["edges"] + [
        dict(e, u=str(int(e["u"]) + 4), v=str(int(e["v"]) + 4)) for e in FRUSTRATED["edges"]
    ],
}

# each planted fault: the command it fails, its instance, and the check
# stderr names
PLANTS = {
    "certificate": (
        "solve-fractional", json.loads((ROOT / "fixtures" / "fig9.json").read_text()),
        "not an optimal pair: strong_duality, complementary_slackness failed",
    ),
    "twice": (
        "solve-fractional", json.loads((ROOT / "fixtures" / "fig9.json").read_text()),
        "not a matching of the duplicate: right_copies_matched_once failed",
    ),
    "tree": ("min-cycles", FRUSTRATED, "not a frustrated tree: holds_one_pseudonode failed"),
    "path": ("min-cycles", AUGMENTING, "endpoints must be exposed in the search graph"),
    "live": ("min-cycles", BOTH, "not the x of G': cycles_are_live_pseudonodes failed"),
}


def _cli_with_fault(fault: str, optimize: bool, command: str, path: Path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONOPTIMIZE"}
    n = len(json.loads(path.read_text())["vertices"])
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-c", CLI_SCRIPT, fault, str(n), command, str(path)],
        capture_output=True,
        text=True,
        env=dict(env, PYTHONPATH=str(SRC)),
        timeout=120,
    )


def _instance_file(tmp_path: Path, instance: dict) -> tuple[Path, str]:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "dash-O"])
@pytest.mark.parametrize("fault", list(PLANTS))
def test_a_planted_fault_exits_3_alike_with_and_without_dash_o(tmp_path, fault, optimize):
    command, instance, failed = PLANTS[fault]
    path, digest = _instance_file(tmp_path, instance)
    assert _cli_with_fault("none", optimize, command, path).returncode == 0  # the control
    proc = _cli_with_fault(fault, optimize, command, path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"matchstab: internal error: {path}: {failed} (instance sha256 {digest})\n"
    )


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "dash-O"])
def test_a_plain_exception_in_a_solver_exits_3_with_its_type_and_line(tmp_path, optimize):
    path, digest = _instance_file(tmp_path, FRUSTRATED)
    source = [text.strip() for text in (SRC / "matchstab" / "cycles.py").read_text().splitlines()]
    line = source.index('deleted = sorted(v for v in outcome.nodes if aux.kind(v) == "vertex")') + 1
    proc = _cli_with_fault("type", optimize, "min-cycles", path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"matchstab: internal error: {path}: TypeError at matchstab.cycles:{line} "
        f"(instance sha256 {digest})\n"
    )


# every error matchstab raises, and three plain ones
RAISED = [
    kind for kind in vars(errors).values()
    if isinstance(kind, type) and issubclass(kind, errors.MatchstabError)
] + [ValueError, KeyError, TypeError]
REFUSED = (errors.BudgetExceeded, errors.MatchingRequired)  # the inputs a command refuses


@pytest.mark.parametrize("raised", RAISED, ids=lambda kind: kind.__name__)
def test_only_a_refused_input_exits_1_and_every_other_failure_exits_3(monkeypatch, raised):
    path = ROOT / "fixtures" / "fig9.json"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()

    def failing(graph):
        raise raised("planted")

    monkeypatch.setattr(cli, "reduce_cycles", failing)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["min-cycles", str(path)])
    assert out.getvalue() == ""
    if raised in REFUSED:
        assert (code, err.getvalue()) == (1, "matchstab: error: planted\n")
    else:
        named = "planted" if issubclass(raised, errors.MatchstabError) else raised.__name__
        assert code == 3
        assert err.getvalue().startswith(f"matchstab: internal error: {path}: {named}")
        assert err.getvalue().endswith(f" (instance sha256 {digest})\n")


def _raises_assertion_error(node: ast.AST) -> bool:
    """`raise AssertionError` or `raise AssertionError(...)`."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_module_of_matchstab_holds_an_assert():
    # `python -O` strips an assert, so a check written as one would not run;
    # nor may one come back disguised as a raise of AssertionError, which
    # names no check and so no failure a run could report
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "matchstab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_the_cli_writes_no_json_of_its_own():
    # `certify.render` writes every document's text: cli.py imports nothing
    # from json or json.encoder, and names no Fragment
    found = []
    for node in ast.walk(ast.parse((SRC / "matchstab" / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(node.module)
        elif isinstance(node, ast.alias) and node.name == "Fragment":
            found.append(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and "Fragment" in (
            getattr(node, "id", None), getattr(node, "attr", None)
        ):
            found.append(ast.unparse(node))
    assert found == []


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _covers_g_outside_s(path: Path, doc: dict) -> bool:
    """The document's residual cover, 0 where it names no vertex, covers
    every edge of G with no end in S, checked with `Fraction`s."""
    graph = parse_instance(path.read_text(encoding="utf-8")).graph
    named = doc["certificates"]["residual_cover"]
    y = [Fraction(named.get(graph.label_of(v), "0")) for v in range(graph.n)]
    removed = set(doc["outputs"]["S"])
    return all(
        y[u] + y[v] >= w
        for u, v, w in graph.edges
        if graph.label_of(u) not in removed and graph.label_of(v) not in removed
    )


def test_a_planted_fault_in_keep_is_not_common_mode(monkeypatch, tmp_path):
    # every proper subgraph `_keep` builds loses its last kept edge;
    # `verify` must accept no m-stabilize document whose residual cover
    # leaves an edge of G - delta(S) uncovered
    paths = []
    for n in (40, 60, 80):
        for seed in range(1, 9):
            path = tmp_path / f"sparse-{n}-{seed}.json"
            path.write_text(feasible_sparse.instance_json(n, seed), encoding="utf-8")
            paths.append(path)
    keep = WeightedGraph._keep

    def keep_losing_the_last_edge(self, kept):
        return keep(self, kept[:-1] if 0 < len(kept) < self.m else kept)

    monkeypatch.setattr(WeightedGraph, "_keep", keep_losing_the_last_edge)
    codes = []
    for path in paths:
        code, out = _cli("m-stabilize", str(path))
        codes.append(code)
        if code == 3:  # the solver's own check caught the fault
            continue
        result = path.with_suffix(".result.json")
        result.write_text(out, encoding="utf-8")
        if _cli("verify", str(path), "--result", str(result))[0] == 0:
            assert _covers_g_outside_s(path, json.loads(out)), path.name
    assert 3 in codes, codes


def test_a_planted_fault_in_decompose_is_not_common_mode(monkeypatch, tmp_path):
    # `decompose` writes each odd cycle toward its higher neighbour; the LP
    # document must not change, and `verify` must refuse it
    chain_path = tmp_path / "tri-chain-4.json"
    chain_path.write_text(_instance_text(tri_chain(random.Random(1), 4)), encoding="utf-8")
    paths = [ROOT / "fixtures" / "fig6.json", ROOT / "fixtures" / "fig9.json", chain_path]
    documents = [_cli("solve-fractional", str(path)) for path in paths]
    decompose = graph_module.decompose

    def decompose_toward_the_higher_neighbour(*args):
        bfm = decompose(*args)
        cycles = tuple((c[0],) + c[:0:-1] for c in bfm.odd_cycles)
        return BasicFractionalMatching(
            bfm.graph, bfm.halves, bfm.matched, cycles, bfm.vertex_halves
        )

    for module in list(sys.modules.values()):
        if getattr(module, "decompose", None) is decompose:
            monkeypatch.setattr(module, "decompose", decompose_toward_the_higher_neighbour)
    for path, document in zip(paths, documents):
        assert document[0] == 0 and json.loads(document[1])["outputs"]["odd_cycles"], path.name
        assert _cli("solve-fractional", str(path)) == document, path.name
        result = tmp_path / f"{path.stem}.result.json"
        result.write_text(document[1], encoding="utf-8")
        code, out = _cli("verify", str(path), "--result", str(result))
        checks = {check["name"]: check["ok"] for check in json.loads(out)["checks"]}
        assert (code, checks["matched_and_odd_cycles_equal_x"]) == (1, False), path.name
