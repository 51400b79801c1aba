"""`verify`'s trusted base, pinned.

A checker is only as trustworthy as the code it runs. `certify.verify` is
traced with `sys.setprofile` over the document of every run command on
every instance in `fixtures/`, and over the documents of one seed-1 round
of every benchmark workload, infeasible `m-stabilize` ones included; the
set of package functions it reaches, by module and qualified name, must
equal TRUSTED_BASE below. A function that joins or leaves the base is
then a reviewed diff. The solvers run several of these functions too
(`slack`, say, and `decompose`, which `reduce_cycles` runs after a move),
so a fault in one of them is common-mode: the solver's own check and
`verify` would agree on it. `solve_fractional` reads x off its kernel's
matching and runs no `decompose`, so its documents do not share that
function with `verify`. `verify` builds no graph, so nothing that builds a
subgraph is in the base.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

import matchstab
from conftest import bench_families
from matchstab import certify, cli
from matchstab.instance import parse_instance

PACKAGE = Path(matchstab.__file__).resolve().parent
FIXTURES = PACKAGE.parents[1] / "fixtures"

TRUSTED_BASE = {
    "matchstab.certify.Fragment.__init__",
    "matchstab.certify._basic_x_doc",
    "matchstab.certify._container",
    "matchstab.certify._cover_from_doc",
    "matchstab.certify._distinct",
    "matchstab.certify._edge_pairs",
    "matchstab.certify._halves_from_entries",
    "matchstab.certify._infeasibility_doc",
    "matchstab.certify._matching_from_doc",
    "matchstab.certify._names",
    "matchstab.certify._same",
    "matchstab.certify._stable_subgraph_doc",
    "matchstab.certify._string",
    "matchstab.certify._support_check",
    "matchstab.certify._total",
    "matchstab.certify._typed",
    "matchstab.certify._verify",
    "matchstab.certify._verify_report",
    "matchstab.certify._vertex_set",
    "matchstab.certify.optimal_pair_checks",
    "matchstab.certify.stable_subgraph_checks",
    "matchstab.certify.verify",
    "matchstab.graph.BasicFractionalMatching.__init__",
    "matchstab.graph.BasicFractionalMatching.int_weight",
    "matchstab.graph.BasicFractionalMatching.support",
    "matchstab.graph.FractionalVertexCover._unchecked",
    "matchstab.graph.FractionalVertexCover.slack",
    "matchstab.graph.Matching.__init__",
    "matchstab.graph.Matching._partner",
    "matchstab.graph.Matching.covers",
    "matchstab.graph.Matching.from_pairs",
    "matchstab.graph.Matching.int_weight",
    "matchstab.graph.Matching.is_matching_in",
    "matchstab.graph.Matching.sorted_pairs",
    "matchstab.graph.WeightedGraph.edge_index",
    "matchstab.graph.WeightedGraph.has_edge",
    "matchstab.graph.WeightedGraph.label_of",
    "matchstab.graph.WeightedGraph.m",
    "matchstab.graph.WeightedGraph.max_degree",
    "matchstab.graph.WeightedGraph.stars",
    "matchstab.graph._count_halves",
    "matchstab.graph._lowest",
    "matchstab.graph.decompose",
    "matchstab.graph.read_exact",
    "matchstab.graph.scale_ratios",
}


def _qualified_names() -> dict[tuple[str, int], str]:
    """"module.qualname" of every function the package defines, by its
    module and the first line of its code object (its first decorator's,
    if it has one). Read from the source, since `co_qualname` is new in
    Python 3.11; comprehensions and lambdas are left out."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        module = f"matchstab.{path.stem}"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    names[(module, first)] = f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def _run_and_verify(path: Path, command: str, profile) -> Optional[dict]:
    """The document `command` prints on the instance file `path`, after
    `verify` accepted it under `profile`; None when the command prints
    none, as `m-stabilize` on an instance with no matching."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(path)])
    if code == 1:
        return None
    data = path.read_bytes()
    instance = parse_instance(data.decode("utf-8"))
    doc = certify.load_result(out.getvalue())
    sys.setprofile(profile)
    try:
        report, code = certify.verify(instance, hashlib.sha256(data).hexdigest(), doc)
    finally:
        sys.setprofile(None)
    assert (code, report["verified"]) == (0, True), (command, path.name)
    return doc


def test_verify_reaches_exactly_its_pinned_trusted_base(monkeypatch, tmp_path):
    names = _qualified_names()
    reached = set()

    def profile(frame, event, _arg):
        if event == "call":
            key = (frame.f_globals.get("__name__", ""), frame.f_code.co_firstlineno)
            if key in names:
                reached.add(names[key])

    # the caches of exact values would hide their readers behind earlier tests
    certify._ratio.cache_clear()
    documents = 0
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in cli.RUN_COMMANDS:
            if _run_and_verify(fixture, command, profile) is None:
                assert command == "m-stabilize"  # a fixture with no matching
            else:
                documents += 1
    assert documents == 6 * 5 + 1  # m-stabilize runs on fig9m alone
    # the documents whose `verify` the benchmark times: one seed-1 round of
    # each workload, every one with the commands that workload runs
    families = bench_families(monkeypatch)
    statuses = Counter()
    for workload, commands in families.COMMANDS.items():
        for i, inst in enumerate(families.Generator(workload, 1).round()):
            path = tmp_path / f"{workload}-{i}.json"
            path.write_text(inst.to_json(), encoding="utf-8")
            for command in commands:
                doc = _run_and_verify(path, command, profile)
                statuses[command, doc["outputs"].get("status")] += 1
    assert sum(statuses.values()) == 9 * 2 + 9 * 2 + 8 + 17 * 7
    assert statuses["m-stabilize", "feasible"] and statuses["m-stabilize", "infeasible"]
    assert reached == TRUSTED_BASE
