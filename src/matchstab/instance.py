"""Instance file parsing.

Instances are JSON documents with string vertex labels, exact weight strings
(decimal like "0.5" or fraction like "3/4"; plain integers also allowed) and
an optional fixed matching. Floats are rejected so weights stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .errors import GraphError, ParseError
from .graph import Matching, WeightedGraph


@dataclass(frozen=True)
class Instance:
    graph: WeightedGraph
    matching: Optional[Matching]


def _parse_weight(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ParseError(f"{where}: weight must be an integer or exact string, got {raw!r}")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str):
        try:
            # ASCII digits alone spell a nonnegative integer: skip the regex
            value = Fraction(int(raw)) if raw.isascii() and raw.isdigit() else Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: cannot parse weight {raw!r}") from exc
    else:
        raise ParseError(f"{where}: weight must be an integer or string, got {raw!r}")
    if value.numerator < 0:
        raise ParseError(f"{where}: weight {raw!r} is negative")
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
    edges = []
    for pos, entry in enumerate(edges_doc):
        where = f"edges[{pos}]"
        if not isinstance(entry, dict) or not {"u", "v", "w"} <= set(entry):
            raise ParseError(f"{where}: each edge needs u, v and w")
        try:
            u, v = index[entry["u"]], index[entry["v"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: unknown vertex label") from exc
        edges.append((u, v, _parse_weight(entry["w"], where)))
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
