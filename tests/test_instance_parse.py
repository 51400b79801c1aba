"""`parse_instance` against the two-pass parser it replaced.

The one-pass parser looks up u, v and w in one `try`, parses each distinct
weight string once and orients each edge as it reads it. The parser as it
was is kept below as the reference: on every document here both must give
equal `Instance`s or raise the same `ParseError` text.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from conftest import bench_families, count_calls, count_fractions
from matchstab import graph as graph_module
from matchstab.errors import GraphError, ParseError
from matchstab.graph import Matching, WeightedGraph
from matchstab.instance import Instance, parse_instance

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# The reference: every edge checked with `set(entry)`, every weight parsed,
# and the graph built by `WeightedGraph.from_edges`.


def _reference_parse_weight(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ParseError(f"{where}: weight must be an integer or exact string, got {raw!r}")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str):
        try:
            value = Fraction(int(raw)) if raw.isascii() and raw.isdigit() else Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: cannot parse weight {raw!r}") from exc
    else:
        raise ParseError(f"{where}: weight must be an integer or string, got {raw!r}")
    if value.numerator < 0:
        raise ParseError(f"{where}: weight {raw!r} is negative")
    return value


def _reference_parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be a list of string labels')
    if len(set(vertices)) != len(vertices):
        raise ParseError("vertex labels must be unique")
    index = {label: i for i, label in enumerate(vertices)}
    edges_doc = doc.get("edges")
    if not isinstance(edges_doc, list):
        raise ParseError('"edges" must be a list')
    edges = []
    for pos, entry in enumerate(edges_doc):
        where = f"edges[{pos}]"
        if not isinstance(entry, dict) or not {"u", "v", "w"} <= set(entry):
            raise ParseError(f"{where}: each edge needs u, v and w")
        try:
            u, v = index[entry["u"]], index[entry["v"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: unknown vertex label") from exc
        edges.append((u, v, _reference_parse_weight(entry["w"], where)))
    try:
        graph = WeightedGraph.from_edges(len(vertices), edges, labels=vertices)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc

    matching = None
    if "matching" in doc:
        pairs_doc = doc["matching"]
        if not isinstance(pairs_doc, list):
            raise ParseError('"matching" must be a list of label pairs')
        pairs = []
        for pos, pair in enumerate(pairs_doc):
            where = f"matching[{pos}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{where}: expected a [u, v] pair")
            try:
                u, v = index[pair[0]], index[pair[1]]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"{where}: unknown vertex label") from exc
            if not graph.has_edge(u, v):
                raise ParseError(f"{where}: ({pair[0]},{pair[1]}) is not an edge")
            pairs.append((u, v))
        try:
            matching = Matching.from_pairs(pairs)
        except GraphError as exc:
            raise ParseError(f'"matching" is not a matching: {exc}') from exc
    return Instance(graph, matching)


# ---------------------------------------------------------------------------


def _outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "ParseError", str(exc)


def _assert_same(text: str):
    got = _outcome(parse_instance, text)
    assert got == _outcome(_reference_parse_instance, text)
    return got


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig8", "fig9", "fig9m"])
def test_fixtures_parse_as_the_reference_parses_them(name):
    kind, _instance = _assert_same((ROOT / "fixtures" / f"{name}.json").read_text())
    assert kind == "ok"


def test_bench_documents_parse_as_the_reference_parses_them(monkeypatch):
    # one round of every workload of the benchmark's instance generator
    families = bench_families(monkeypatch)
    count = 0
    for workload in families.LADDERS:
        for inst in families.Generator(workload, 7).round():
            kind, instance = _assert_same(inst.to_json())
            assert kind == "ok" and instance.graph.m == len(inst.edges)
            count += 1
    assert count == sum(len(ladder) for ladder in families.LADDERS.values())


def _doc(*edges, matching=None) -> str:
    doc: dict[str, Any] = {"vertices": ["a", "b", "c"], "edges": list(edges)}
    if matching is not None:
        doc["matching"] = matching
    return json.dumps(doc)


def _e(u, v, w) -> dict:
    return {"u": u, "v": v, "w": w}


MALFORMED = {
    "list entry": _doc(["a", "b", "1"]),
    "string entry": _doc("uvw"),
    "null entry": _doc(_e("a", "b", "1"), None),
    "int entry": _doc(3),
    "missing u": _doc({"v": "b", "w": "1"}),
    "missing v": _doc({"u": "a", "w": "1"}),
    "missing w": _doc({"u": "a", "v": "b"}),
    "missing w, unknown u": _doc({"u": "z", "v": "b"}),
    "unknown u": _doc(_e("z", "b", "1")),
    "unknown v": _doc(_e("a", "z", "1")),
    "list label": _doc(_e(["a"], "b", "1")),
    "object label": _doc(_e("a", {"b": 1}, "1")),
    "bool weight": _doc(_e("a", "b", True)),
    "bool weight after int 1": _doc(_e("a", "b", 1), _e("b", "c", True)),
    "float weight": _doc(_e("a", "b", 0.5)),
    "float weight after int 1": _doc(_e("a", "b", 1), _e("b", "c", 1.0)),
    "float weight after string 1": _doc(_e("a", "b", "1"), _e("b", "c", 1.0)),
    "list weight": _doc(_e("a", "b", [1])),
    "object weight": _doc(_e("a", "b", {"n": 1})),
    "null weight": _doc(_e("a", "b", None)),
    "negative weight string": _doc(_e("a", "b", "-1")),
    "negative int weight": _doc(_e("a", "b", -1)),
    "repeated negative weight": _doc(_e("a", "c", "2"), _e("a", "b", "-1/2"), _e("b", "c", "-1/2")),
    "zero denominator": _doc(_e("a", "b", "1/0")),
    "unparsable weight": _doc(_e("a", "b", "one")),
    "repeated unparsable weight": _doc(_e("a", "b", "x"), _e("b", "c", "x")),
    "bad weight before unknown label": _doc(_e("a", "b", "x"), _e("a", "z", "1")),
    "reversed edge": _doc(_e("b", "a", "2"), _e("c", "b", "1")),
    "duplicate edge": _doc(_e("a", "b", "1"), _e("a", "b", "2")),
    "duplicate edge both ways": _doc(_e("a", "b", "1"), _e("b", "a", "1")),
    "loop": _doc(_e("a", "a", "1")),
    "0.5 next to 1/2": _doc(_e("a", "b", "0.5"), _e("b", "c", "1/2")),
    "one weight string on every edge": _doc(_e("a", "b", "3"), _e("b", "c", "3"), _e("c", "a", "3")),
    "int and string weights": _doc(_e("a", "b", 3), _e("b", "c", "3"), _e("c", "a", 0)),
    "matching on a reversed edge": _doc(_e("b", "a", "2"), matching=[["a", "b"]]),
    "matching pair not an edge": _doc(_e("a", "b", "2"), matching=[["a", "c"]]),
    "matching pairs share a vertex": _doc(
        _e("a", "b", "2"), _e("b", "c", "1"), matching=[["a", "b"], ["c", "b"]]
    ),
    "edges not a list": json.dumps({"vertices": ["a"], "edges": {"u": "a"}}),
    "duplicate labels": json.dumps({"vertices": ["a", "a"], "edges": []}),
    "not an object": "[]",
    "not JSON": "{",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_fail_as_the_reference_fails_them(text):
    _assert_same(text)


def test_malformed_set_covers_both_outcomes():
    kinds = [_outcome(parse_instance, text)[0] for text in MALFORMED.values()]
    assert kinds.count("ok") >= 5 and kinds.count("ParseError") >= 30


# ---------------------------------------------------------------------------
# The graph a document parses to is its integers D and D.w, built with no
# `Fraction` for integer weights; it must equal, with an equal hash, the
# graph the reference builds from `Fraction`s.


def _mixed_weight_document(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        _e(vertices[a], vertices[b], rng.choice(["7", "3/4", "0.5", "12", "5/6", "0"]))
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < 0.4
    ]
    return json.dumps({"vertices": vertices, "edges": edges})


GRAPH_DOCUMENTS = {
    **{name: (ROOT / "fixtures" / f"{name}.json").read_text()
       for name in ("fig6", "fig7", "fig8", "fig9", "fig9m")},
    **{f"mixed seed {seed}": _mixed_weight_document(seed) for seed in range(8)},
}


@pytest.mark.parametrize("text", GRAPH_DOCUMENTS.values(), ids=GRAPH_DOCUMENTS.keys())
def test_parsed_graph_equals_the_graph_built_from_fractions(text):
    graph = parse_instance(text).graph
    reference = _reference_parse_instance(text).graph
    assert graph == reference and hash(graph) == hash(reference)
    assert (graph.scale, graph.int_weights, graph.edges) == (
        reference.scale, reference.int_weights, reference.edges
    )
    assert graph.int_weights == tuple(w * graph.scale for _u, _v, w in reference.edges)


def test_mixed_documents_take_the_fraction_path():
    scales = {parse_instance(text).graph.scale for text in GRAPH_DOCUMENTS.values()}
    assert 1 in scales and 12 in scales  # lcm(4, 2, 6)


def test_an_integer_k40_is_parsed_with_no_fraction(monkeypatch):
    vertices = [f"v{i}" for i in range(40)]
    rng = random.Random(40)
    edges = [
        _e(vertices[a], vertices[b], str(rng.randint(1, 1000)))
        for a, b in itertools.combinations(range(40), 2)
    ]
    text = json.dumps({"vertices": vertices, "edges": edges})
    fractions = count_fractions(monkeypatch)
    lcms = count_calls(monkeypatch, graph_module, "lcm")
    graph = parse_instance(text).graph
    assert graph.m == 780 and graph.scale == 1
    assert graph.int_weights == tuple(int(e["w"]) for e in edges)
    assert fractions[0] == 0 and lcms[0] == 0
    # the same counters see the Fraction and the lcm of a "3/4"
    parse_instance(json.dumps({"vertices": ["a", "b"], "edges": [_e("a", "b", "3/4")]}))
    assert fractions[0] == 1 and lcms[0] == 1
