"""Instance file parsing.

Instances are JSON documents with string vertex labels, exact weight strings
(decimal like "0.5" or fraction like "3/4"; plain integers also allowed) and
an optional fixed matching. Floats are rejected so weights stay exact.

Each edge is checked once, by the one loop that reads the edges: it maps
the labels to vertex ids, orients the pair as (u, v) with u < v and fills
the graph's edge index as it goes. A parallel edge then leaves fewer keys
in the index than edges, and a loop is a key (v, v), so after the loop n
lookups find either; only then does the checked constructor
`WeightedGraph(...)` run, to name the first one with its own message.
Otherwise `WeightedGraph._unchecked` builds the graph with no second pass:
the loop gave ends in range, oriented and distinct, the labels were checked
to be distinct strings, and the weights are nonnegative ints over a
canonical D.

The weight column is read after the loop, and hands the graph its
integers. A column of non-empty ASCII digit strings, the common form of
integer weights, is read by one `map(int, ...)` with D = 1. Any other
column is read one distinct string at a time, to an int pair (num, den),
by `graph.read_exact`, the reader `verify` reads a document's exact values
with, and `graph.scale_ratios` turns the pairs into D and D.w. A weight in
the printed form "-?[0-9]+(/[0-9]+)?" is read with no `Fraction`, and a
decimal, such as "0.5", with one. The errors keep the order of a parser
that reads each edge whole: at a bad label the loop first reads the
weights before it, so a bad weight is named before a bad label at a later
edge, and a loop or a parallel edge is named only once every label and
weight has been read.

A JSON object that names a key twice is refused: `json.loads` alone would
keep the last value, where a person reading the file may see the first. The
check is one count. Outside strings, JSON has a `:` only between a key
and its value, so the text holds at least one `:` per member of its
objects; and every edge the parser accepts names u, v and w. So when the
text holds no more `:` than the top level has distinct keys plus three per
edge, no object repeats a key. Only when it holds more (a label with a
`:`, or an edge with a fourth key, say), or when the document is refused
anyway, is the text read again with `strict_object`, the hook that names
the repeated key; the result reader uses the same hook.
"""

from __future__ import annotations

import json
from contextlib import suppress
from functools import partial
from typing import Any, NamedTuple, Optional

from .errors import GraphError, ParseError
from .graph import Matching, WeightedGraph, read_exact, scale_ratios


class Instance(NamedTuple):
    graph: WeightedGraph
    matching: Optional[Matching]


def _parse_weight(raw: Any, pos: int) -> tuple[int, int]:
    """The exact weight of edge `pos` as the int pair (num, den): (raw, 1)
    for a JSON integer, else the pair `read_exact` reads off the string."""
    if type(raw) is str:
        try:
            num, den = read_exact(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"edges[{pos}]: cannot parse weight {raw!r}") from exc
    elif type(raw) is int:
        num, den = raw, 1
    elif isinstance(raw, (bool, float)):
        raise ParseError(f"edges[{pos}]: weight must be an integer or exact string, got {raw!r}")
    else:
        raise ParseError(f"edges[{pos}]: weight must be an integer or string, got {raw!r}")
    if num < 0:
        raise ParseError(f"edges[{pos}]: weight {raw!r} is negative")
    return num, den


def _weights(raws: list[Any]) -> tuple[int, tuple[int, ...]]:
    """(D, D.w) of the weight column, or ParseError at its first bad
    weight. A column of non-empty ASCII digit strings is read by one
    `map(int, ...)`; any other one by `_parse_weight`, each distinct string
    once, and `scale_ratios`."""
    # `join` refuses a weight that is no string, `int` a "" or one past its
    # digit limit; each goes to the careful path
    with suppress(TypeError, ValueError):
        digits = "".join(raws)
        if digits.isascii() and digits.isdigit():
            return 1, tuple(map(int, raws))
    parsed: dict[Any, tuple[int, int]] = {}  # an int weight is read at each edge
    for pos, raw in enumerate(raws):
        if type(raw) is not str or raw not in parsed:
            parsed[raw] = _parse_weight(raw, pos)
    return scale_ratios([parsed[raw] for raw in raws])


def strict_object(what: str, pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object of a `what` document, as `json.loads` hands its
    members to an `object_pairs_hook`; a key it names twice makes the
    document malformed."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _value in pairs:
            if key in seen:
                name = json.dumps(key)
                raise ParseError(f"malformed {what}: an object names the key {name} twice")
            seen.add(key)
    return obj


_strict = partial(strict_object, "instance")


def parse_instance(text: str) -> Instance:
    """Parse an instance document; raises ParseError on any schema violation
    and on an object that names a key twice."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides malformed JSON: an integer literal past Python's int digit
        # limit, or nesting past its recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        instance = _instance(doc)
    except ParseError:
        json.loads(text, object_pairs_hook=_strict)  # a repeated key comes first
        raise
    if text.count(":") != len(doc) + 3 * len(doc["edges"]):
        json.loads(text, object_pairs_hook=_strict)
    return instance


def _instance(doc: Any) -> Instance:
    """The instance of a parsed document."""
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
    ends, raws = [], []
    index_of: dict[tuple[int, int], int] = {}
    for pos, entry in enumerate(edges_doc):
        try:
            u, v, raw = index[entry["u"]], index[entry["v"]], entry["w"]
        except (KeyError, TypeError) as exc:
            _weights(raws)  # a bad weight at an earlier edge is named first
            if not isinstance(entry, dict) or not {"u", "v", "w"} <= set(entry):
                raise ParseError(f"edges[{pos}]: each edge needs u, v and w") from exc
            raise ParseError(f"edges[{pos}]: unknown vertex label") from exc
        e = (u, v) if u < v else (v, u)
        index_of[e] = pos
        ends.append(e)
        raws.append(raw)
    scale, int_weights = _weights(raws)
    n, ends, labels = len(vertices), tuple(ends), tuple(vertices)
    # a parallel edge leaves fewer keys than edges, and a loop is a key (v, v)
    if len(index_of) < len(ends) or any((v, v) in index_of for v in range(n)):
        try:  # the checked constructor names the first one
            WeightedGraph(n, ends, int_weights, scale, labels)
        except GraphError as exc:
            raise ParseError(str(exc)) from exc
    graph = WeightedGraph._unchecked(n, ends, int_weights, scale, labels, index_of)

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
