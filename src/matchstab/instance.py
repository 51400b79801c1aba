"""Instance file parsing.

Instances are JSON documents with string vertex labels, exact weight strings
(decimal like "0.5" or fraction like "3/4"; plain integers also allowed) and
an optional fixed matching. Floats are rejected so weights stay exact.

The parser hands the graph its integers: a weight string of ASCII digits is
read by `int`, any other through `graph.as_fraction`, which refuses an
exponent too large to expand, each distinct string once, and
`graph.scale_weights` turns the weights into D and D.w. An instance whose
weights are all integers is read with no `Fraction` at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

from .errors import GraphError, ParseError
from .graph import Matching, WeightedGraph, as_fraction, scale_weights


@dataclass(frozen=True)
class Instance:
    graph: WeightedGraph
    matching: Optional[Matching]


def _parse_weight(raw: Any, pos: int) -> Union[int, Fraction]:
    """The exact weight of edge `pos`: an int for a JSON integer or a string
    of ASCII digits, else the `Fraction` of the string, read by
    `as_fraction`."""
    if type(raw) is str:
        try:
            # ASCII digits alone spell a nonnegative integer: skip the regex
            value = int(raw) if raw.isascii() and raw.isdigit() else as_fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"edges[{pos}]: cannot parse weight {raw!r}") from exc
    elif type(raw) is int:
        value = raw
    elif isinstance(raw, (bool, float)):
        raise ParseError(f"edges[{pos}]: weight must be an integer or exact string, got {raw!r}")
    else:
        raise ParseError(f"edges[{pos}]: weight must be an integer or string, got {raw!r}")
    if value < 0:
        raise ParseError(f"edges[{pos}]: weight {raw!r} is negative")
    return value


def parse_instance(text: str) -> Instance:
    """Parse an instance document; raises ParseError on any schema violation."""
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
    parsed: dict[str, Union[int, Fraction]] = {}  # each distinct weight string, parsed once
    ends, weights = [], []
    for pos, entry in enumerate(edges_doc):
        try:
            u, v, raw = index[entry["u"]], index[entry["v"]], entry["w"]
        except (KeyError, TypeError) as exc:
            if not isinstance(entry, dict) or not {"u", "v", "w"} <= set(entry):
                raise ParseError(f"edges[{pos}]: each edge needs u, v and w") from exc
            raise ParseError(f"edges[{pos}]: unknown vertex label") from exc
        if type(raw) is str:
            w = parsed.get(raw)
            if w is None:
                w = parsed[raw] = _parse_weight(raw, pos)
        else:
            w = _parse_weight(raw, pos)
        ends.append((u, v) if u < v else (v, u))
        weights.append(w)
    scale, int_weights = scale_weights(weights)
    try:
        graph = WeightedGraph(len(vertices), tuple(ends), int_weights, scale, tuple(vertices))
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
