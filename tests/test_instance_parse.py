"""`parse_instance` against the two-pass parser it replaced.

The parser reads the edges in one loop: it looks up u, v and w in one
`try`, orients each edge and fills the graph's edge index as it goes, where
a loop or a parallel edge is then found. It reads the weight column, a
column of non-empty ASCII digit strings with one `map(int, ...)` and any
other one distinct string at a time, and builds the graph with no second
check; on a loop or a parallel edge the checked constructor names it. The parser as it
was, which checks every edge with `set(entry)`, parses every weight by
itself and builds the graph by `WeightedGraph.from_edges`, is kept below as
the reference: on every document here both must give equal `Instance`s or
raise the same `ParseError` text, so the errors keep their order too.
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
from matchstab import instance as instance_module
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
    # what the one `map(int, ...)` of a digit column must leave to the
    # careful path: `int` reads " 7", "+7" and "١٢" and refuses "" and "²",
    # and refuses a digit string past its digit limit on Python 3.11+; a
    # column with "007" in it is all ASCII digits and takes the `int` path
    "empty weight in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", "")),
    "spaced weight in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", " 7")),
    "signed weight in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", "+7")),
    "leading zeros in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", "007")),
    "arabic-indic digits in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", "١٢")),
    "superscript digit in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", "²")),
    "5000-digit weight at edge 2 of 3": _doc(
        _e("a", "b", "3"), _e("b", "c", "5" * 5000), _e("a", "c", "4")
    ),
    "5000-digit weight before unknown label": _doc(
        _e("a", "b", "3"), _e("b", "c", "5" * 5000), _e("a", "z", "4")
    ),
    "digit column that ends in 3/4": _doc(
        _e("a", "b", "3"), _e("b", "c", "2"), _e("a", "c", "3/4")
    ),
    "int weight in a digit column": _doc(_e("a", "b", "3"), _e("b", "c", 2)),
    "unknown label after a loop": _doc(_e("a", "a", "1"), _e("a", "z", "1")),
    "missing w after a loop": _doc(_e("b", "b", "1"), {"u": "a", "v": "b"}),
    "loop after a parallel edge": _doc(_e("a", "b", "1"), _e("b", "a", "1"), _e("c", "c", "1")),
    "parallel edge after a loop": _doc(_e("c", "c", "1"), _e("a", "b", "1"), _e("b", "a", "1")),
    "parallel edge after a bad weight": _doc(
        _e("a", "b", "x"), _e("b", "c", "1"), _e("b", "a", "1")
    ),
    "loop after a negative weight": _doc(_e("a", "b", "-1"), _e("c", "c", "1")),
    "reversed edge": _doc(_e("b", "a", "2"), _e("c", "b", "1")),
    "duplicate edge": _doc(_e("a", "b", "1"), _e("a", "b", "2")),
    "duplicate edge both ways": _doc(_e("a", "b", "1"), _e("b", "a", "1")),
    "parallel edge both ways": _doc(_e("b", "c", "1"), _e("c", "b", "1")),
    "loop": _doc(_e("a", "a", "1")),
    "0.5 next to 1/2": _doc(_e("a", "b", "0.5"), _e("b", "c", "1/2")),
    "one weight string on every edge": _doc(_e("a", "b", "3"), _e("b", "c", "3"), _e("c", "a", "3")),
    "int and string weights": _doc(_e("a", "b", 3), _e("b", "c", "3"), _e("c", "a", 0)),
    "matching on a reversed edge": _doc(_e("b", "a", "2"), matching=[["a", "b"]]),
    "matching pair not an edge": _doc(_e("a", "b", "2"), matching=[["a", "c"]]),
    "matching pairs share a vertex": _doc(
        _e("a", "b", "2"), _e("b", "c", "1"), matching=[["a", "b"], ["c", "b"]]
    ),
    "matching names a pair twice": _doc(_e("a", "b", "2"), matching=[["a", "b"], ["a", "b"]]),
    "matching names a pair twice both ways": _doc(
        _e("a", "b", "2"), matching=[["a", "b"], ["b", "a"]]
    ),
    "matching not a list": _doc(_e("a", "b", "2"), matching={"a": "b"}),
    "matching entry not a pair": _doc(_e("a", "b", "2"), matching=[["a", "b", "c"]]),
    "matching entry a string": _doc(_e("a", "b", "2"), matching=["ab"]),
    "matching label names no vertex": _doc(_e("a", "b", "2"), matching=[["a", "z"]]),
    "matching label not a string": _doc(_e("a", "b", "2"), matching=[["a", ["b"]]]),
    "vertices not a list": json.dumps({"vertices": "abc", "edges": []}),
    "vertex label not a string": json.dumps({"vertices": ["a", 1], "edges": []}),
    "edges not a list": json.dumps({"vertices": ["a"], "edges": {"u": "a"}}),
    "duplicate labels": json.dumps({"vertices": ["a", "a"], "edges": []}),
    "not an object": "[]",
    "not JSON": "{",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_fail_as_the_reference_fails_them(text):
    _assert_same(text)


def test_a_matching_that_names_a_pair_twice_is_refused():
    # the reference parser shares `Matching.from_pairs`, so agreeing with it
    # does not show by itself that the repeated pair is refused
    for name in ("matching names a pair twice", "matching names a pair twice both ways"):
        assert _outcome(parse_instance, MALFORMED[name]) == (
            "ParseError", '"matching" is not a matching: edges of a matching may not repeat'
        )


def test_malformed_set_covers_both_outcomes():
    kinds = [_outcome(parse_instance, text)[0] for text in MALFORMED.values()]
    assert kinds.count("ok") >= 5 and kinds.count("ParseError") >= 30
    # three of the digit-column and ordering cases, pinned by their outcome
    assert _outcome(parse_instance, MALFORMED["leading zeros in a digit column"])[0] == "ok"
    assert _outcome(parse_instance, MALFORMED["unknown label after a loop"]) == (
        "ParseError", "edges[1]: unknown vertex label"
    )
    assert _outcome(parse_instance, MALFORMED["parallel edge after a bad weight"]) == (
        "ParseError", "edges[0]: cannot parse weight 'x'"
    )


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
    **{name: MALFORMED[name] for name in (
        "digit column that ends in 3/4", "leading zeros in a digit column",
        "spaced weight in a digit column", "signed weight in a digit column",
        "arabic-indic digits in a digit column", "int weight in a digit column",
    )},
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


def _integer_k40() -> tuple[str, list[dict]]:
    vertices = [f"v{i}" for i in range(40)]
    rng = random.Random(40)
    edges = [
        _e(vertices[a], vertices[b], str(rng.randint(1, 1000)))
        for a, b in itertools.combinations(range(40), 2)
    ]
    return json.dumps({"vertices": vertices, "edges": edges}), edges


def test_an_integer_k40_is_parsed_with_no_fraction(monkeypatch):
    text, edges = _integer_k40()
    fractions = count_fractions(monkeypatch)
    lcms = count_calls(monkeypatch, graph_module, "lcm")
    graph = parse_instance(text).graph
    assert graph.m == 780 and graph.scale == 1
    assert graph.int_weights == tuple(int(e["w"]) for e in edges)
    assert fractions[0] == 0 and lcms[0] == 0
    # the same counters see the Fraction and the lcm of a "3/4"
    parse_instance(json.dumps({"vertices": ["a", "b"], "edges": [_e("a", "b", "3/4")]}))
    assert fractions[0] == 1 and lcms[0] == 1


def test_an_integer_k40_is_built_with_no_second_check(monkeypatch):
    # the parser checks each edge as it reads it and builds the graph with
    # no check; its digit column is one `map(int, ...)`; and a subgraph of
    # the graph is built with no check either
    text, _edges = _integer_k40()
    inits = count_calls(monkeypatch, WeightedGraph, "__init__")
    weights = count_calls(monkeypatch, instance_module, "_parse_weight")
    graph = parse_instance(text).graph
    assert graph.m == 780 and graph._index_of == {e: i for i, e in enumerate(graph.ends)}
    assert inits == [0] and weights == [0]
    rest = graph.delete_stars([0, 7])
    assert rest.m == 780 - 2 * 39 + 1 and inits == [0]
    # a loop is still named by the checked constructor, with its message
    assert _outcome(parse_instance, MALFORMED["loop"]) == (
        "ParseError", "loop at vertex a not allowed"
    )
    assert inits == [1]
    # a column with one weight that is not ASCII digits parses each distinct
    # string once, as before
    spaced = text.replace('"w": "', '"w": " ', 1)
    assert parse_instance(spaced).graph == graph
    assert weights == [len({e["w"] for e in json.loads(spaced)["edges"]})]


def test_the_text_is_read_again_only_when_its_colons_outnumber_its_keys(monkeypatch):
    # the repeated-key check costs a count of ":" on every fixture and bench
    # document, with no second read: the strict hook sees no object
    hooked = count_calls(monkeypatch, instance_module, "_strict")
    families = bench_families(monkeypatch)
    texts = [(ROOT / "fixtures" / f"{name}.json").read_text() for name in ("fig6", "fig9m")]
    for workload in families.LADDERS:
        texts += [inst.to_json() for inst in families.Generator(workload, 7).round()]
    for text in texts:
        parse_instance(text)
    assert hooked == [0]
    # a label with a ":" makes the count differ: the second read, which sees
    # the edge and the top level, finds no repeated key, and the document
    # parses as the reference parses it
    kind, _instance = _assert_same(_doc(_e("a", "b", "1")).replace('"a"', '"a:1"'))
    assert kind == "ok" and hooked == [2]
    # so does an edge with a fourth key, which the parser ignores
    fourth = _doc({"u": "a", "v": "b", "w": "1", "note": "x"})
    assert _assert_same(fourth)[0] == "ok" and hooked == [4]
    # a document refused anyway is read again, to name a repeated key first
    assert _assert_same(MALFORMED["unknown u"])[0] == "ParseError" and hooked == [6]
