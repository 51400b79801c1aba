"""The document fields as JSON values: the reference for `certify`'s text writers.

`certify.labels_doc`, `x_entries`, `pairs_doc`, `cover_doc`, `events_doc`
and `diagnostics_doc` render their field's JSON text straight from the solver's
integers, and no dict or list of the field is ever built. The tests build
those values here, one per field, the way the fields are defined, and
require each text writer to print exactly `json.dumps(value, indent=2)` of
them. Each function takes the graph, as the labels are read off it, and
returns the value its text writer stands for.
"""

from __future__ import annotations

from typing import Any

from matchstab.graph import BasicFractionalMatching, FractionalVertexCover, WeightedGraph


def names(graph: WeightedGraph, vertices) -> list[str]:
    """The labels of `vertices`, in the order given."""
    return [graph.label_of(v) for v in vertices]


def labels_value(graph: WeightedGraph, vertices) -> list[str]:
    """A vertex set, by label in vertex order."""
    return names(graph, sorted(vertices))


def pairs_value(graph: WeightedGraph, pairs) -> list[list[str]]:
    """Vertex tuples by label, each in its order and all in the order given."""
    return [names(graph, pair) for pair in pairs]


def x_value(bfm: BasicFractionalMatching) -> list[dict[str, str]]:
    """The nonzero entries of x, in the edge order of the graph x lives on."""
    graph = bfm.graph
    return [
        {
            "u": graph.label_of(graph.ends[i][0]),
            "v": graph.label_of(graph.ends[i][1]),
            "x": str(bfm.values[i]),
        }
        for i in bfm.support
    ]


def cover_value(graph: WeightedGraph, cover: FractionalVertexCover, removed=()) -> dict[str, str]:
    """y on every vertex that is not in `removed`, as str(Fraction) prints it."""
    return {graph.label_of(v): str(y) for v, y in enumerate(cover.values) if v not in removed}


def event_value(graph: WeightedGraph, event) -> dict[str, Any]:
    """One move of `reduce_cycles`, as its `kind` names it: a frustrated
    tree, or an augmentation of one of four kinds."""
    if event.kind == "frustrated_tree":
        return {
            "event": event.kind,
            "cycles": pairs_value(graph, [event.root_cycle]),
            "deleted_vertices": names(graph, event.deleted_vertices),
        }
    return {
        "event": event.kind,
        "cycles": pairs_value(graph, event.cycles),
        "rounded_at": names(graph, event.rounded_at),
        "path": names(graph, event.path),
    }


def events_value(graph: WeightedGraph, events) -> list[dict[str, Any]]:
    """The moves of `reduce_cycles`, in order."""
    return [event_value(graph, event) for event in events]


def diagnostics_value(graph: WeightedGraph, diagnostics) -> list[dict[str, Any]]:
    """The reason for each deletion of `m_vertex_stabilizer`, with the
    deleted vertex and the other end of its walk, if any."""
    return [
        {
            "reason": reason,
            "vertex": graph.label_of(u),
            "other": graph.label_of(v) if v is not None else None,
        }
        for reason, u, v in diagnostics
    ]
