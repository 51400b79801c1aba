"""`certify` is the one codec of the result document: each field's reader
gives back what its writer encoded, and each text writer prints exactly
`json.dumps(value, indent=2)` of its field's value as `value_writers`
builds it. `graph` reads every exact string, and computes a cover's
per-edge slack and a vertex set's stars, in one place each, and every
`matchstab` module imports first in a fresh interpreter, along a package
import graph without a cycle. Every error type has a raiser.
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

import matchstab
from conftest import bench_families, count_calls, cover_of, random_matching
from matchstab.certify import (
    Fragment, _cover_from_doc, _edge_pairs, _halves_from_entries, _indented, _ratio, _string,
    _vertex_set, cover_doc, diagnostics_doc, events_doc, exact_str, labels_doc,
    optimal_pair_checks, pairs_doc, quoted_labels, x_entries,
)
from matchstab.cycles import AugmentationEvent, FrustrationEvent, reduce_cycles
from matchstab.errors import ParseError
from matchstab.graph import FractionalVertexCover, WeightedGraph, as_fraction
from matchstab.instance import parse_instance
from matchstab.lp import solve_fractional
from matchstab.mstab import FEASIBLE, m_vertex_stabilizer
from matchstab.stabilizers import edge_stabilizer_approx, min_vertex_stabilizer
from test_cover_checks import _feasible_on_residual, _reference_is_feasible_for
from test_emit import ODD_INSTANCE
from value_writers import (
    cover_value, diagnostics_value, events_value, labels_value, pairs_value, x_value,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(matchstab.__file__).parent


def _x_by_ends(graph, halves) -> dict:
    """x as {(u, v): 2x_uv} over its nonzero entries."""
    return {graph.ends[i]: h for i, h in enumerate(halves) if h}


def _value(fragment: Fragment):
    """The JSON value a text writer printed."""
    return json.loads(fragment.text)


def _assert_round_trips(instance) -> None:
    graph, matching = instance
    index = {graph.label_of(v): v for v in range(graph.n)}
    names = quoted_labels(graph)
    bfm, cover = solve_fractional(graph)
    reduction = reduce_cycles(graph)
    vertex = min_vertex_stabilizer(graph)
    edge = edge_stabilizer_approx(graph)
    xs, covers = [bfm, reduction.solution], [cover, reduction.cover]
    stable = [(vertex.surviving_cover, vertex.removed)]
    sets = [vertex.removed]
    values = [bfm.weight, sum(cover.values), vertex.nu_after, *cover.values]
    if matching is not None:
        result = m_vertex_stabilizer(graph, matching)
        sets += [result.removed, result.first_phase, result.second_phase]
        values.append(result.matching_weight)
        if result.status == FEASIBLE:
            stable.append((result.residual_cover, result.removed))
            values.append(result.residual_nu_f)
        else:
            xs.append(result.x)  # x of G - delta(X), read back on G
    for x in xs:
        entries = _value(x_entries(names, x))
        assert len(entries) == len(x.support)
        halves = _halves_from_entries(graph, index, entries)
        assert _x_by_ends(graph, halves) == _x_by_ends(x.graph, x.halves)
    for y in covers:
        doc = _value(cover_doc(names, y))
        assert len(doc) == graph.n and _cover_from_doc(graph, index, doc) == y
    for y, removed in stable:
        doc = _value(cover_doc(names, y, removed))
        assert len(doc) == graph.n - len(removed)
        assert _cover_from_doc(graph, index, doc, zero_elsewhere=True) == y
    for vertices in sets:
        assert _vertex_set(index, {"S": _value(labels_doc(names, vertices))}, "S") == set(vertices)
    pair_lists = [
        vertex.surviving_matching.sorted_pairs(),
        [graph.ends[i] for i in edge.removed_edges],
    ]
    if matching is not None:
        pair_lists.append(matching.sorted_pairs())
    for pairs in pair_lists:
        assert _edge_pairs(index, {"F": _value(pairs_doc(names, pairs))}, "F") == list(pairs)
    for value in values:  # printed in lowest terms, so read back as the same pair
        assert _ratio(exact_str(value)) == (value.numerator, value.denominator)


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "fixtures").glob("*.json")))
def test_every_reader_gives_back_its_writers_fields_on_a_fixture(name):
    _assert_round_trips(parse_instance((ROOT / "fixtures" / f"{name}.json").read_text()))


@pytest.mark.parametrize("workload", ["tri-chain", "dense-lp", "mstab-sparse", "desk-batch"])
def test_every_reader_gives_back_its_writers_fields_on_a_bench_round(monkeypatch, workload):
    families = bench_families(monkeypatch)
    for inst in families.Generator(workload, 1).round():
        _assert_round_trips(parse_instance(inst.to_json()))


def test_every_reader_gives_back_its_writers_fields_on_odd_labels():
    _assert_round_trips(parse_instance(json.dumps(ODD_INSTANCE, ensure_ascii=False)))


def _reference_exact(value: object) -> Fraction:
    """An exact value of a document as `verify` read it before it read
    (num, den) pairs: the `Fraction` that `as_fraction` reads off its
    string."""
    return as_fraction(_string(value))


def _read(reader, value):
    """What `reader` gives for `value`: the value, or the refusal's type and
    message."""
    try:
        return reader(value)
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_reads_as_the_reference(value) -> None:
    expected = _read(_reference_exact, value)
    got = _read(lambda v: _ratio(_string(v)), value)
    if isinstance(expected, Fraction):
        num, den = got
        assert den > 0 and num * expected.denominator == expected.numerator * den, value
    else:
        assert got == expected, value


# the printed form, in lowest terms or not; what only `Fraction` reads (a
# sign, blanks, a decimal, an exponent, a non-ASCII digit); and refusals,
# with values that are no string
EXACT_VALUES = [
    "3", "3/4", "-1", "-0", "007", "2/4",
    "+1", " 1 ", "0.5", "5e-1", "\u0663",
    "1_0", "1/0", "0/0", "1/-2", "", "/", "1e99999", "x",
    0.5, 1, True, None, ["1"], {"a": 1},
]


@pytest.mark.parametrize("value", EXACT_VALUES, ids=[repr(v) for v in EXACT_VALUES])
def test_the_integer_reader_reads_each_value_as_the_fraction_reader(value):
    _assert_reads_as_the_reference(value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digit limit"
)
def test_the_integer_reader_refuses_a_part_past_the_digit_limit_as_the_fraction_reader():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the int digit limit is off")
    long = "1" * (limit + 1)
    longer = "2" * (limit + 2)
    for value in (long, f"-{long}", f"{long}/3", f"3/{long}", f"{longer}/{long}", "1" * limit):
        _assert_reads_as_the_reference(value)
    with pytest.raises(ValueError):
        _ratio(long)


def test_each_exact_string_has_one_reader():
    # `graph.read_exact` reads every exact string, an instance's weights and
    # a document's values alike, so no other module reads one: instance.py
    # imports no `fractions`, certify.py neither `re` nor `fractions`, and
    # only graph.py names `as_fraction`
    banned = {"instance": {"fractions"}, "certify": {"re", "fractions"}}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            for module in banned.get(path.stem, set()) & {m.split(".")[0] for m in imported}:
                found.append(f"{path.name}:{node.lineno} imports {module}")
            if path.stem != "graph" and "as_fraction" in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            ):
                found.append(f"{path.name}:{node.lineno} names as_fraction")
    assert found == []


# what a label may hold that a text writer must escape, or must not read
# as a format: a quote, a backslash, a newline, a percent sign, braces, and
# non-ASCII up to a non-BMP emoji
LABEL_PARTS = ['"', "\\", "\n", "%", "%s", "{}", "é", "\U0001F600", "\u2028", "v"]


def _relabelled(rng: random.Random, graph: WeightedGraph) -> WeightedGraph:
    labels: set[str] = set()
    while len(labels) < graph.n:
        labels.add("".join(rng.choices(LABEL_PARTS, k=rng.randint(0, 3))))
    order = sorted(labels)
    rng.shuffle(order)
    return WeightedGraph.from_edges(graph.n, graph.edges, labels=order)


def _written_fields(rng: random.Random, graph: WeightedGraph) -> list[tuple[Fragment, Any]]:
    """Each text writer's field on the results of every solver on `graph`,
    with the value `value_writers` builds for it."""
    names = quoted_labels(graph)
    bfm, cover = solve_fractional(graph)
    reduction = reduce_cycles(graph)
    vertex = min_vertex_stabilizer(graph)
    edge = edge_stabilizer_approx(graph)
    result = m_vertex_stabilizer(graph, random_matching(rng, graph))
    tuples = [
        bfm.matched.sorted_pairs(), bfm.odd_cycles, reduction.solution.odd_cycles,
        vertex.surviving_matching.sorted_pairs(), [graph.ends[i] for i in edge.removed_edges],
    ]
    covers = [(cover, ()), (reduction.cover, ()), (vertex.surviving_cover, vertex.removed)]
    sets = [vertex.removed, result.removed, result.first_phase, result.second_phase]
    xs = [bfm, reduction.solution]
    if result.status == FEASIBLE:
        covers.append((result.residual_cover, result.removed))
    else:
        xs.append(result.x)  # x of G - delta(X), printed with G's labels
    return [
        *[(labels_doc(names, s), labels_value(graph, s)) for s in sets],
        *[(x_entries(names, x), x_value(x)) for x in xs],
        *[(pairs_doc(names, t), pairs_value(graph, t)) for t in tuples],
        *[(cover_doc(names, y, removed), cover_value(graph, y, removed)) for y, removed in covers],
        (events_doc(names, reduction.events), events_value(graph, reduction.events)),
        (diagnostics_doc(names, result.diagnostics), diagnostics_value(graph, result.diagnostics)),
    ]


def _edge_case_fields() -> list[tuple[Fragment, Any]]:
    """Empty lists and dicts, an empty tuple, a null `other` and every kind
    of event, on a triangle with odd labels."""
    graph = WeightedGraph.from_edges(
        3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)], labels=['"%s"', "\\\n", "é\U0001F600"]
    )
    names = quoted_labels(graph)
    edgeless = WeightedGraph.from_edges(2, [], labels=["%d", "{}"])
    bfm, cover = solve_fractional(graph)
    events = [
        FrustrationEvent((0, 1, 2), ()),
        FrustrationEvent((1, 2, 0), (2, 0)),
        AugmentationEvent("cycle_zero_cover", ((0, 1, 2),), (0,), ()),
        AugmentationEvent("two_cycles", ((0, 1, 2), (2, 1, 0)), (0, 2), (0, 1, 2)),
        AugmentationEvent("path_to_covered", ((0, 1, 2),), (1,), (1, 0)),
        AugmentationEvent("path_to_exposed", ((0, 1, 2),), (2,), (2,)),
    ]
    diagnostics = [("flower", 2, None), ("walk_between_exposed", 0, 1)]
    empty_x = solve_fractional(edgeless)[0]
    return [
        (labels_doc(names, ()), []),
        (labels_doc(names, (2, 0)), ['"%s"', "é\U0001F600"]),
        (pairs_doc(names, []), []),
        (pairs_doc(names, [(), (1, 0)]), [[], ["\\\n", '"%s"']]),
        (cover_doc(names, cover, range(3)), {}),
        (x_entries(quoted_labels(edgeless), empty_x), []),
        (events_doc(names, []), []),
        (events_doc(names, events), events_value(graph, events)),
        (diagnostics_doc(names, []), []),
        (diagnostics_doc(names, diagnostics), diagnostics_value(graph, diagnostics)),
    ]


def _assert_writes_as_json(fragment: Fragment, reference) -> None:
    assert type(fragment) is Fragment
    assert fragment.text == json.dumps(reference, indent=2)
    for depth in range(4):  # placed at any depth, as the document would print the value
        indent = "\n" + "  " * depth
        assert _indented(fragment, indent) == _indented(reference, indent)
    with pytest.raises(TypeError):  # a fragment is never quoted as a string
        json.dumps(fragment)


def test_each_text_writer_prints_its_reference_value_as_json_does(property_suite):
    rng = random.Random(4848)
    fields = _edge_case_fields()
    for i, graph in enumerate(property_suite):
        # half the graphs keep no labels, so their vertices print as indices
        fields += _written_fields(rng, _relabelled(rng, graph) if i % 2 else graph)
    for fragment, reference in fields:
        _assert_writes_as_json(fragment, reference)
    printed = "".join(fragment.text for fragment, _ in fields)
    for part in LABEL_PARTS:
        assert json.dumps(part)[1:-1] in printed  # escaped as json escapes it
    assert '"other": null' in printed
    kinds = {row["event"] for _, value in fields if type(value) is list
             for row in value if type(row) is dict and "event" in row}
    assert len(kinds) == 5


def test_a_frustration_event_names_its_kind_outside_its_fields():
    # `events_doc` dispatches on `kind`; the record keeps its two fields
    event = FrustrationEvent((0, 1, 2), (3,))
    assert event.kind == "frustrated_tree" and FrustrationEvent._fields == (
        "root_cycle", "deleted_vertices",
    )
    assert repr(event) == "FrustrationEvent(root_cycle=(0, 1, 2), deleted_vertices=(3,))"
    assert event == ((0, 1, 2), (3,))


def test_stars_are_the_incident_edges_and_delete_stars_deletes_them(property_suite):
    # also with each weight divided by 1, 2 or 3, so that D is often > 1
    # and deleting a star can lower it
    rng = random.Random(3535)
    lowered = 0
    for g in property_suite:
        divided = [(u, v, w / rng.choice((1, 2, 3))) for u, v, w in g.edges]
        for graph in (g, WeightedGraph.from_edges(g.n, divided)):
            for _ in range(3):
                chosen = rng.sample(range(graph.n), rng.randint(0, graph.n))
                stars = graph.stars(chosen)
                assert stars == {i for v in chosen for _u, i in graph.adjacency[v]}
                rest = graph.delete_stars(chosen)
                assert rest == graph.delete_edges(stars)
                lowered += rest.scale < graph.scale
    assert lowered > 0


def test_the_pair_check_computes_the_slack_once(monkeypatch, property_suite):
    rng, pick = random.Random(3636), random.Random(3737)
    slacks = count_calls(monkeypatch, FractionalVertexCover, "slack")
    for graph in property_suite:
        bfm, cover = solve_fractional(graph)
        other = cover_of(rng.randint(0, 3) for _ in range(graph.n))
        removed = pick.sample(range(graph.n), pick.randint(0, graph.n))
        for y in (cover, other):
            before = slacks[0]
            checks = optimal_pair_checks(graph, bfm, y)
            assert slacks[0] == before + 1
            assert dict(checks)["cover_is_feasible"] == _reference_is_feasible_for(y.values, graph)
            # the stable-subgraph check reads one slack list too, on G and delta(S)
            for chosen in ((), removed):
                before = slacks[0]
                feasible = _feasible_on_residual(graph, graph.stars(chosen), y)
                assert slacks[0] == before + 1
                assert feasible == _reference_is_feasible_for(
                    y.values, graph.delete_stars(chosen)
                )


def test_each_module_imports_first_in_a_fresh_interpreter():
    # an import cycle, say between `certify` and a solver, fails here, also
    # once the package's `__init__` stops importing every module up front;
    # `matchstab.__main__` runs the CLI, which prints its help text
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    assert len(modules) == 14
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for module in modules:
        name = "matchstab" if module == "__init__" else f"matchstab.{module}"
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), (name, proc.stderr)


def _package_imports() -> dict[str, set[str]]:
    """Each `matchstab` module, `__init__` and `__main__` left out, mapped
    to the modules its `from .x import` and `from . import x` statements
    name, those inside functions included."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem in ("__init__", "__main__"):
            continue
        names: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module else (a.name for a in node.names))
        graph[path.stem] = names
    return graph


def _import_closure(graph: dict[str, set[str]], module: str) -> set[str]:
    seen: set[str] = set()
    todo = [module]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_package_import_graph_has_no_cycle():
    # read from the source, so that it holds whatever `__init__` imports
    # first; `verify` can import G' and its search from `edmonds` without
    # an import cycle and without `lp` or `cycles`
    graph = _package_imports()
    assert len(graph) == 12 and "walks" in graph["cli"]  # a function-level import
    for module in graph:
        assert module not in _import_closure(graph, module), module
    assert _import_closure(graph, "edmonds") == {"errors", "graph"}
    assert _import_closure(graph, "certify") == {"errors", "graph", "instance"}
    # the oracle, the tests' independent ground truth, and the walk DP
    # import no solver
    assert _import_closure(graph, "oracle") == {"errors", "graph"}
    assert _import_closure(graph, "walks") == {"errors", "graph"}


def test_every_error_type_is_raised_in_the_package():
    # an error that loses its last raiser is dead API, and leaves with it
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(defined) == 14 and "ParseError" in defined
    assert sorted(defined - {"MatchstabError"} - raised) == []
