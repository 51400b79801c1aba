"""What proves a result: every certificate check, the result document's
codec, and `matchstab verify`.

Each claim matchstab prints rests on an LP-duality certificate: an optimal
pair (x, y) of the fractional matching LP and its dual, or a matching and a
fractional w-vertex cover of G - S with equal totals; an infeasible
M-stabilizer rests on a fractional matching heavier than M that uses no
edge at an M-exposed vertex. This module alone decides whether a
certificate holds, with exact arithmetic and nothing else:

- `optimal_pair_checks` and `stable_subgraph_checks` return the named
  checks of one certificate, each with its result. `verify_optimal_pair`
  and `verify_stable_subgraph` raise NotOptimalPair unless every one
  holds; the solvers call them once per result, also under `python -O`:
  `solve_fractional` and `reduce_cycles` on their pairs, and
  `min_vertex_stabilizer` and `m_vertex_stabilizer` on their stable
  subgraphs. A stable subgraph is never built for its check: the check
  reads the instance graph G and `gone`, the indices of the edges the
  stabilizer deletes (delta(S), or F for `stabilize-edges`), and runs
  over G's other edges.
- `verify` re-checks a result document against its instance. It runs the
  same named checks on the document's own numbers, plus the checks of each
  command's other claims, and reports every one.
- The codec: `document` builds the envelope of every run and oracle
  document, `{command, instance_sha256, outputs, certificates}`, and each
  field has its writer here, beside the reader `verify` decodes it with:
  `exact_str` and `_exact` for exact values, `labels_doc` and
  `_vertex_set` for vertex sets, `pairs_doc` and `_edge_pairs` for
  matchings and edge sets, `x_entries` and `_halves_from_entries` for x,
  `cover_doc` and `_cover_from_doc` for y. Odd cycles, which `pairs_doc`
  also writes, are compared as they are printed with the label lists of
  the checked x, and `events_doc` and `diagnostics_doc` have no reader
  yet. Two blocks of fields that two commands share have one writer each,
  beside the checks that read them: `fractional_doc` for nu_f, x, M(x)
  and C(x), and `surviving_doc` for a stabilizer's matching and cover.
  The writers of the vertex lists and large fields (vertex sets and
  tuples, x, covers, events, diagnostics) render the field's JSON text
  straight from the solver's integers, with no dict or list per row: a
  `Fragment`, exactly `json.dumps(value, indent=2)` of the field's value
  at depth 0, which reads each label from `quoted_labels`, quoted once per
  document.
- `render` is the one writer of a document's text, for the CLI to print:
  it places each fragment at the depth of its field, and writes every JSON
  list and object, of a fragment or of the envelope, through one helper,
  `_container`.

Every check runs on scaled integers: the graph's D.w, the cover's common
denominator q and integers q.y that `FractionalVertexCover` stores, and the
half counts 2x that `graph.decompose` keeps. A cover meets the weights in
one place, `FractionalVertexCover.slack`, and a vertex set's edges in one,
`WeightedGraph.stars`. `verify` reads each cover a document prints into one
such object, once. `verify` builds no graph: every check of a document
reads the instance graph itself.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import AbstractSet, Any, Optional

from .errors import (
    BudgetExceeded, DegreeConstraintViolated, GraphError, InfeasibleCover, MatchingRequired,
    MatchstabError, NotBasic, NotHalfIntegral, NotOptimalPair, ParseError,
)
from .graph import (
    ZERO, BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph, as_fraction,
    decompose,
)
from .instance import Instance, strict_object


# ---------------------------------------------------------------------------
# the two certificates


def optimal_pair_checks(
    graph: WeightedGraph,
    bfm: BasicFractionalMatching,
    cover: FractionalVertexCover,
) -> list[tuple[str, bool]]:
    """The exact conditions that make (x, y) an optimal primal-dual pair.

    Returns `cover_is_feasible` (y_u + y_v >= w_uv on every edge),
    `strong_duality` (w.x = sum y) and `complementary_slackness` (every
    supported edge is tight, and x(delta(v)) = 1 wherever y_v > 0), each with
    its result. All three are decided on integers: the graph's D.w, the
    cover's q.y and the half counts 2x of `decompose`. The first and the
    last read one `cover.slack` list, so the edges are walked once. An x
    that lives on another graph than `graph` raises NotOptimalPair.
    """
    if bfm.graph is not graph and bfm.graph != graph:
        raise NotOptimalPair("x lives on another graph")
    a = cover.int_values
    if len(a) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    slack, loads = cover.slack(graph), bfm.vertex_halves
    support_tight = not any([slack[i] for i in bfm.support])
    return [
        ("cover_is_feasible", min(a, default=0) >= 0 and min(slack, default=0) >= 0),
        ("strong_duality", bfm.weight == cover.total),
        ("complementary_slackness", support_tight and all(
            a_v == 0 or loads[v] == 2 for v, a_v in enumerate(a)
        )),
    ]


def stable_subgraph_checks(
    graph: WeightedGraph, gone: AbstractSet[int], matching: Matching,
    cover: FractionalVertexCover,
) -> list[tuple[str, bool]]:
    """The exact conditions under which a matching and a fractional w-vertex
    cover of equal totals prove nu = nu_f on the residual graph H, by weak
    duality.

    H is `graph` without the edges the stabilizer deletes, and `gone` holds
    their indices in `graph`: delta(S) for a vertex set S, F for an edge
    set. No subgraph is built: each check reads the edges of `graph`
    outside `gone`, and `cover` gives a value to every vertex. Returns
    `matching_lives_in_residual`, `cover_feasible_on_residual` and
    `matching_weight_equals_cover`, each with its result; the second reads
    `cover.slack(graph)` and asks that every edge it finds uncovered be in
    `gone`.

    These three imply that y is 0 on S, where S is isolated in H. Let
    y >= 0 be feasible on H, and let M be a matching of H with w(M) =
    sum y. Then y restricted to V - S still covers H, so nu_f(H) <= w(M) -
    y(S) <= nu(H) - y(S) <= nu_f(H) - y(S), hence y(S) = 0. So the solvers
    need no fourth check; `verify` adds `cover_only_on_residual` to check
    which vertices a document's cover names.
    """
    a = cover.int_values
    lives = matching.is_matching_in(graph) and gone.isdisjoint(
        [graph.edge_index(u, v) for u, v in matching.pairs]
    )
    feasible = len(a) == graph.n and min(a, default=0) >= 0 and gone.issuperset(
        [i for i, s in enumerate(cover.slack(graph)) if s < 0]
    )
    return [
        ("matching_lives_in_residual", lives),
        ("cover_feasible_on_residual", feasible),
        ("matching_weight_equals_cover", lives and matching.weight(graph) == cover.total),
    ]


def _raise_unless_all(what: str, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise NotOptimalPair(f"not {what}: {', '.join(failed)} failed")


def verify_optimal_pair(
    graph: WeightedGraph, bfm: BasicFractionalMatching, cover: FractionalVertexCover
) -> None:
    """Raise NotOptimalPair, naming the failed checks, unless (x, y) passes
    every one of `optimal_pair_checks`."""
    _raise_unless_all("an optimal pair", optimal_pair_checks(graph, bfm, cover))


def verify_stable_subgraph(
    graph: WeightedGraph, gone: AbstractSet[int], matching: Matching,
    cover: FractionalVertexCover,
) -> None:
    """Raise NotOptimalPair, naming the failed checks, unless the result
    passes every one of `stable_subgraph_checks`."""
    checks = stable_subgraph_checks(graph, gone, matching, cover)
    _raise_unless_all("a stable subgraph", checks)


# ---------------------------------------------------------------------------
# the codec: each field of a result document, its writer beside its reader


def document(command: str, digest: str, outputs: dict, certificates: dict) -> dict[str, Any]:
    """A run or oracle document: the command, the sha256 of the instance
    file's bytes, what the command claims and what proves it."""
    return {
        "command": command,
        "instance_sha256": digest,
        "outputs": outputs,
        "certificates": certificates,
    }


def load_result(text: str) -> object:
    """The JSON value of a result document's text; an object that names a
    key twice makes the document malformed."""
    return json.loads(text, object_pairs_hook=partial(strict_object, "result document"))


def exact_str(value) -> str:
    """An exact value, a Fraction or an int, as the documents print it."""
    return _ratio_str(value.numerator, value.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num/den, den > 0, in lowest terms as str(Fraction) prints it ("a" or
    "a/b"), or BudgetExceeded, an input error, when a part has more digits
    than Python may convert to a string."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:  # only a Python with a digit limit raises it
        limit = sys.get_int_max_str_digits()
        raise BudgetExceeded(f"an exact value has more than {limit} digits, too many to print")


def _string(value: object) -> str:
    """The value, when it is a string, as the document prints every exact
    value, such as "3/4". `Fraction` alone would also take the JSON number
    6.0 or 0.5, which no document prints, so a value that is not a string
    makes the document malformed. The type is checked before any cache
    hashes the value, which a JSON array or object could not be."""
    if type(value) is not str:
        raise ParseError(
            f"malformed result document: an exact value must be a string, got {json.dumps(value)}"
        )
    return value


def _exact(value: object) -> Fraction:
    """An exact value of the document, read by `as_fraction` from its
    string. A document repeats a few values, such as "1/2" and "0", many
    times: each distinct string is parsed once, and only strings are
    cached."""
    return _fraction(_string(value))


_fraction = lru_cache(maxsize=256)(as_fraction)


def _typed(doc: dict, key: str, kind: type) -> Any:
    """`doc[key]`, which the document states as a count (`int`) or a flag
    (`bool`). JSON `true` is no count and `0` no flag, just as
    `parse_instance` takes no JSON bool or float for a weight."""
    value = doc[key]
    if type(value) is not kind:
        want = "an integer" if kind is int else "true or false"
        got = json.dumps(value)
        raise ParseError(f"malformed result document: {key} must be {want}, got {got}")
    return value


def _names(graph: WeightedGraph, vertices) -> list[str]:
    """The labels of `vertices`, in the order given."""
    return [graph.label_of(v) for v in vertices]


def labels_doc(names: list[str], vertices) -> Fragment:
    """A vertex set, by label in vertex order."""
    return Fragment(_labels_text(names, sorted(vertices), "\n"))


def _distinct(name: str, keys: list) -> list:
    """`keys`, read off a list the document states as a set; an entry it
    names twice makes the document malformed."""
    if len(set(keys)) != len(keys):
        raise ParseError(f"malformed result document: {name} names an entry twice")
    return keys


def _vertex_set(index, doc: dict, key: str) -> set[int]:
    """The vertex set that `labels_doc` printed as `doc[key]`."""
    return set(_distinct(key, [index[label] for label in doc[key]]))


class Fragment:
    """The JSON text of one document field, exactly `json.dumps(value,
    indent=2)` of the value it stands for, at depth 0. `render` places it
    at its depth with one `str.replace` of its newlines, which is exact
    because json escapes every newline inside a string. A fragment is no
    str, so one that reaches `json.dumps` raises instead of being
    quoted."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def quoted_labels(graph: WeightedGraph) -> list[str]:
    """Every vertex label as a JSON string, by vertex index: the text
    writers below take these, so that a document quotes each label once."""
    return [_quote(graph.label_of(v)) for v in range(graph.n)]


def _container(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON list of the JSON texts `items`, or with `brackets` "{}" an
    object of the `"key": value` texts `items`, on the line indentation
    `indent` (a newline and the spaces of the line that holds it)."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def render(doc: dict, compact: bool = False) -> str:
    """The text a document prints as: `json.dumps(doc, indent=2)` and a
    newline, or, for a line of a batch, the compact re-encoding of that
    text, `json.dumps(json.loads(text), separators=(",", ":"))`, and a
    newline."""
    text = _indented(doc, "\n")
    if compact:
        text = json.dumps(json.loads(text), separators=(",", ":"))
    return text + "\n"


def _indented(value, indent: str) -> str:
    """json.dumps(value, indent=2) for a document of dicts with str keys,
    lists, strings, ints, bools, None, the --timing float and the
    `Fragment` texts of the large fields, each as json.dumps(value,
    indent=2) prints the value it stands for. `indent` is the newline and
    indentation of the line that holds `value`, and a fragment is placed
    there by indenting each of its newlines. Strings go through json's C
    `encode_basestring_ascii` without a call of their own, so a container
    of strings alone is one `str.join`."""
    kind = type(value)
    if kind is Fragment:
        return value.text.replace("\n", indent)
    inner = indent + "  "
    if kind is dict:
        return _container([
            _quote(k) + ": " + (_quote(v) if type(v) is str else _indented(v, inner))
            for k, v in value.items()
        ], indent, "{}")
    if kind is list:
        return _container([
            _quote(v) if type(v) is str else _indented(v, inner) for v in value
        ], indent)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)  # an int or a float (or a bare str), as json writes it


def _labels_text(names: list[str], vertices, indent: str) -> str:
    """A list of vertices by label, on the line indentation `indent`."""
    return _container(list(map(names.__getitem__, vertices)), indent)


def _tuples_text(names: list[str], tuples, indent: str) -> str:
    """A list of vertex tuples by label, on the line indentation `indent`;
    each tuple is one join, with no call of its own."""
    inner = indent + "  "
    head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
    label = names.__getitem__
    return _container([
        head + sep.join(map(label, t)) + tail if t else "[]" for t in tuples
    ], indent)


def pairs_doc(names: list[str], pairs) -> Fragment:
    """Vertex tuples by label, each in its order and all in the order
    given: a matching's sorted pairs or the ends of edges, which
    `_edge_pairs` reads back, and odd cycles, which `verify` compares with
    the ones of the checked x as they are printed."""
    return Fragment(_tuples_text(names, pairs, "\n"))


def _edge_pairs(index, doc: dict, key: str) -> list[tuple[int, int]]:
    """The vertex pairs that `pairs_doc` printed as `doc[key]`, each sorted,
    so that an edge named twice in either order counts as named twice."""
    return _distinct(key, [tuple(sorted((index[a], index[b]))) for a, b in doc[key]])


_HALF, _ONE = '"1/2"', '"1"'


def x_entries(names: list[str], bfm: BasicFractionalMatching) -> Fragment:
    """The nonzero entries of x, {"u", "v", "x"} each, in the edge order of
    the graph x lives on."""
    ends, halves = bfm.graph.ends, bfm.halves
    return Fragment(_container([
        f'{{\n    "u": {names[ends[i][0]]},\n    "v": {names[ends[i][1]]},'
        f'\n    "x": {_HALF if halves[i] == 1 else _ONE}\n  }}'
        for i in bfm.support
    ], "\n"))


@lru_cache(maxsize=256)
def _half_count(value: str):
    """2x for the exact value string x of an x entry: an int when 2x is
    one, as for every entry of a basic x, else the `Fraction`, such as 3/2,
    which `decompose` refuses. As for `_exact`, each distinct string is
    read once, and the caller checks that it is a string first."""
    count = 2 * _fraction(value)
    return count.numerator if count.denominator == 1 else count


def _halves_from_entries(graph: WeightedGraph, index, entries) -> list:
    """The half counts 2x_i of the x that `x_entries` printed as `entries`,
    for `decompose` to validate."""
    edges = _distinct("x", [graph.edge_index(index[e["u"]], index[e["v"]]) for e in entries])
    halves: list = [0] * graph.m
    for i, entry in zip(edges, entries):
        halves[i] = _half_count(_string(entry["x"]))
    return halves


def cover_doc(names: list[str], cover: FractionalVertexCover, removed=()) -> Fragment:
    """y by label on every vertex that is not in the stabilizer's S,
    `removed`, printed from q.y_v and q; each distinct q.y_v is printed
    once."""
    a, q, removed = cover.int_values, cover.scale, set(removed)
    printed = {a_v: f'"{_ratio_str(a_v, q)}"' for a_v in set(a)}
    rows = [f"{names[v]}: {printed[a_v]}" for v, a_v in enumerate(a) if v not in removed]
    return Fragment(_container(rows, "\n", "{}"))


def _cover_from_doc(graph, index, doc, zero_elsewhere=False) -> FractionalVertexCover:
    """The cover that `cover_doc` printed as `doc`. An optimal pair's cover
    names every vertex, and a vertex it leaves out makes the document
    malformed; a stable subgraph's cover leaves out S, and is 0 on every
    vertex it does not name."""
    named = {index[label]: _exact(value) for label, value in doc.items()}
    return FractionalVertexCover.from_values(
        named.get(v, ZERO) if zero_elsewhere else named[v] for v in range(graph.n)
    )


def events_doc(names: list[str], events) -> Fragment:
    """The moves of `reduce_cycles`, each as its `kind` names it: a
    frustrated tree, with its root cycle and deleted vertices, or an
    augmentation of one of four kinds, with its cycles, the vertices it
    rounds at and its path."""
    rows = []
    for event in events:
        if event.kind == "frustrated_tree":
            rows.append(  # "cycles" holds the root cycle alone
                f'{{{_FIELD}"event": "frustrated_tree",'
                f'{_FIELD}"cycles": [{_ROW}{_labels_text(names, event.root_cycle, _ROW)}{_FIELD}],'
                f'{_FIELD}"deleted_vertices": {_labels_text(names, event.deleted_vertices, _FIELD)}'
                "\n  }"
            )
        else:
            rows.append(
                f'{{{_FIELD}"event": {_quote(event.kind)},'
                f'{_FIELD}"cycles": {_tuples_text(names, event.cycles, _FIELD)},'
                f'{_FIELD}"rounded_at": {_labels_text(names, event.rounded_at, _FIELD)},'
                f'{_FIELD}"path": {_labels_text(names, event.path, _FIELD)}\n  }}'
            )
    return Fragment(_container(rows, "\n"))


# the lines of a field of a row of a list at depth 0, and of a row of its value
_FIELD, _ROW = "\n    ", "\n      "


def diagnostics_doc(names: list[str], diagnostics) -> Fragment:
    """The reason for each deletion of `m_vertex_stabilizer`, with the
    deleted vertex and the other end of its walk, or null."""
    return Fragment(_container([
        f'{{\n    "reason": {_quote(reason)},\n    "vertex": {names[u]},'
        f'\n    "other": {names[v] if v is not None else "null"}\n  }}'
        for reason, u, v in diagnostics
    ], "\n"))


# ---------------------------------------------------------------------------
# verify: re-check a result document using only graph-core arithmetic


def _basic_x_doc(graph, index, x_entries, checks) -> Optional[BasicFractionalMatching]:
    """Append `x_is_basic_feasible`; returns the document's x decomposed on
    `graph`, or None when it is not a basic fractional matching of it."""
    try:
        bfm = decompose(graph, _halves_from_entries(graph, index, x_entries))
    except (NotHalfIntegral, DegreeConstraintViolated, NotBasic):
        checks.append(("x_is_basic_feasible", False))
        return None
    checks.append(("x_is_basic_feasible", True))
    return bfm


def fractional_doc(names: list[str], bfm: BasicFractionalMatching) -> dict[str, Any]:
    """The outputs of `solve-fractional` and `min-cycles` that the optimal
    pair proves: nu_f, which is w(x), x, and its M(x) and C(x)."""
    return {
        "nu_f": exact_str(bfm.weight),
        "x": x_entries(names, bfm),
        "matched": pairs_doc(names, bfm.matched.sorted_pairs()),
        "odd_cycles": pairs_doc(names, bfm.odd_cycles),
    }


def _check_optimal_pair_doc(
    graph, index, x_entries, cover: FractionalVertexCover, checks
) -> Optional[BasicFractionalMatching]:
    """Append `x_is_basic_feasible` and, when x is basic, the optimal-pair
    checks; returns the decomposed x, or None when it is not basic."""
    bfm = _basic_x_doc(graph, index, x_entries, checks)
    if bfm is not None:
        checks.extend(optimal_pair_checks(graph, bfm, cover))
    return bfm


def _support_check(graph, outputs, bfm: BasicFractionalMatching) -> tuple[str, bool]:
    """`matched_and_odd_cycles_equal_x`: the printed M(x) and C(x) are the
    ones of the checked x."""
    matched_ok = outputs["matched"] == [_names(graph, p) for p in bfm.matched.sorted_pairs()]
    cycles_ok = outputs["odd_cycles"] == [_names(graph, cycle) for cycle in bfm.odd_cycles]
    return ("matched_and_odd_cycles_equal_x", matched_ok and cycles_ok)


def _infeasibility_doc(
    graph, index, matching: Matching, w_m: Fraction, certificates, checks
) -> None:
    """Append the checks of an infeasible `m-stabilize` certificate: x, a
    basic fractional matching of G that uses no edge at an M-exposed vertex,
    so one of G - delta(X) for X the M-exposed vertices, and weighs more
    than M, whose weight is `w_m`. Then every S the stabilizer may delete
    leaves x in G - delta(S), and nu_f(G - delta(S)) > w(M). w(x) is the
    int sum of 2x_i.D.w_i over 2D, as `BasicFractionalMatching.weight` sums
    it, and w(M) the int sum of its D.w_i over D."""
    bfm = _basic_x_doc(graph, index, certificates["x"], checks)
    if bfm is None:
        return
    ends, covers = graph.ends, matching.covers
    checks += [
        ("x_avoids_M_exposed", all(covers(ends[i][0]) and covers(ends[i][1]) for i in bfm.support)),
        ("x_outweighs_M", bfm.weight > w_m),
    ]


def _matching_from_doc(index, doc: dict, key: str, checks) -> Optional[Matching]:
    """Append `matching_pairs_disjoint`; returns the matching `doc[key]`,
    or None when two of its pairs share a vertex."""
    try:
        matching = Matching.from_pairs(_edge_pairs(index, doc, key))
    except GraphError:
        checks.append(("matching_pairs_disjoint", False))
        return None
    checks.append(("matching_pairs_disjoint", True))
    return matching


def surviving_doc(names: list[str], stabilizer) -> dict[str, Fragment]:
    """The certificate of a vertex stabilizer's stable subgraph: its
    `surviving_matching` and its `surviving_cover`, which leaves out the
    removed vertices."""
    return {
        "surviving_matching": pairs_doc(names, stabilizer.surviving_matching.sorted_pairs()),
        "surviving_cover": cover_doc(names, stabilizer.surviving_cover, stabilizer.removed),
    }


def _stable_subgraph_doc(
    graph, index, certificates: dict, gone, removed, checks,
    matching: Optional[Matching] = None,
) -> FractionalVertexCover:
    """Append the stable-subgraph checks on `graph` without the edges
    `gone`, then `cover_only_on_residual` (the cover names no vertex of the
    stabilizer's S, `removed`), and return the cover they read. The
    certificate is `surviving_matching`, which must pass
    `matching_pairs_disjoint` first, with `surviving_cover`; or, given the
    instance `matching` of an `m-stabilize` document, that with
    `residual_cover`."""
    named = certificates["surviving_cover" if matching is None else "residual_cover"]
    cover = _cover_from_doc(graph, index, named, zero_elsewhere=True)
    if matching is None:
        matching = _matching_from_doc(index, certificates, "surviving_matching", checks)
    if matching is not None:
        checks.extend(stable_subgraph_checks(graph, gone, matching, cover))
        checks.append(("cover_only_on_residual", not any(index[lb] in removed for lb in named)))
    return cover


def verify(instance: Instance, digest: str, result_doc: object) -> tuple[dict, int]:
    """The `matchstab verify` report on `result_doc` and its exit code: 0
    when every check holds, else 1.

    `digest` is the sha256 of the instance file's bytes. A document whose
    fields cannot be read as its command prints them raises ParseError
    `malformed result document`.
    """
    try:
        return _verify(instance, digest, result_doc)
    except MatchstabError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed result document: {exc!r}") from exc


def _verify(instance: Instance, digest: str, result_doc: object) -> tuple[dict, int]:
    if not isinstance(result_doc, dict):
        return _verify_report(None, [("result_is_object", False)])
    graph = instance.graph
    command = result_doc.get("command", "")
    certificates = result_doc.get("certificates", {})
    outputs = result_doc.get("outputs", {})
    checks = [("instance_sha256_matches", result_doc.get("instance_sha256") == digest)]
    index = {graph.label_of(v): v for v in range(graph.n)}

    if command in ("solve-fractional", "min-cycles", "gamma"):
        cover = _cover_from_doc(graph, index, certificates["cover"])
        x_doc = certificates if command == "gamma" else outputs
        bfm = _check_optimal_pair_doc(graph, index, x_doc["x"], cover, checks)
        if bfm is not None and command != "solve-fractional":
            gamma = _typed(outputs, "gamma", int)
            checks.append(("gamma_matches_support", gamma == len(bfm.odd_cycles)))
        if bfm is not None and command != "gamma":
            checks.append(_support_check(graph, outputs, bfm))
        if command != "gamma":
            nu_f = _exact(outputs["nu_f"])
            checks.append(("nu_f_equals_cover_total", nu_f == cover.total))
    elif command == "stabilize-vertices":
        removed = _vertex_set(index, outputs, "S")
        gone = graph.stars(removed)
        cover = _stable_subgraph_doc(graph, index, certificates, gone, removed, checks)
        checks += [
            ("nu_after_equals_cover_total", _exact(outputs["nu_after"]) == cover.total),
            ("S_size_equals_gamma", len(removed) == _typed(outputs, "gamma", int)),
        ]
    elif command == "stabilize-edges":
        pairs = _edge_pairs(index, outputs, "F")
        checks.append(("F_edges_in_graph", all(graph.has_edge(u, v) for u, v in pairs)))
        removed_edges = {graph.edge_index(u, v) for u, v in pairs if graph.has_edge(u, v)}
        removed = _vertex_set(index, certificates, "S")
        # deleting F isolates S, so certify on G minus F with the cover extended by 0
        _stable_subgraph_doc(graph, index, certificates, removed_edges, removed, checks)
        gamma, delta = _typed(outputs, "gamma", int), graph.max_degree
        checks += [
            ("F_equals_stars_of_S", removed_edges == graph.stars(removed)),
            ("size_equals_F", _typed(outputs, "size", int) == len(removed_edges)),
            ("lower_bound_is_half_gamma", _typed(outputs, "lower_bound", int) == -(-gamma // 2)),
            ("upper_bound_is_gamma_times_delta",
             _typed(outputs, "upper_bound", int) == gamma * delta),
            ("S_size_equals_gamma", len(removed) == gamma),
        ]
    elif command == "m-stabilize":
        matching = instance.matching
        if matching is None:
            raise MatchingRequired("verifying m-stabilize needs the instance matching")
        removed, s1, s2 = (_vertex_set(index, outputs, key) for key in ("S", "S1", "S2"))
        checks += [
            ("S_is_S1_plus_S2", not s1 & s2 and s1 | s2 == removed),
            ("S_is_M_exposed", not any(matching.covers(v) for v in removed)),
        ]
        w_m = matching.weight(graph)
        status = outputs["status"]
        if status == "feasible":
            cover = _stable_subgraph_doc(
                graph, index, certificates, graph.stars(removed), removed, checks, matching
            )
            nu_f = _exact(outputs["residual_nu_f"])
            checks.append(("residual_nu_f_equals_cover_total", nu_f == cover.total))
        else:
            checks.append(("infeasible_reported", status == "infeasible"))
            if status == "infeasible":
                printed = removed or s1 or s2 or certificates["diagnostics"] != []
                checks.append(("infeasible_prints_no_stabilizer", not printed))
                _infeasibility_doc(graph, index, matching, w_m, certificates, checks)
        checks.append(("w_M_equals_matching_weight", _exact(outputs["w_M"]) == w_m))
    elif command == "check-stability":
        cover = _cover_from_doc(graph, index, certificates["cover"])
        _check_optimal_pair_doc(graph, index, certificates["x"], cover, checks)
        total = cover.total
        nu, nu_f = _exact(outputs["nu"]), _exact(outputs["nu_f"])
        stable = _typed(outputs, "stable", bool)
        checks.append(("nu_f_equals_cover_total", nu_f == total))
        checks.append(("stable_iff_nu_equals_nu_f", stable == (nu == nu_f)))
        witness = _matching_from_doc(index, certificates, "max_matching", checks)
        if witness is not None:
            in_graph = witness.is_matching_in(graph)
            checks.append(("witness_is_matching", in_graph))
            if in_graph:
                weight = witness.weight(graph)
                checks.append(("nu_equals_witness_weight", nu == weight))
                # An unstable claim needs no check of its own: when every
                # other check holds, nu = weight, nu_f = total and nu != nu_f,
                # so weight != total, and weak duality gives weight <= total
                # for a matching of G and a feasible cover; so weight < total.
                if stable:
                    checks.append(("nu_equals_tau_f", weight == total))
    else:
        raise ParseError(f"verify does not support command {command!r}")
    return _verify_report(command, checks)


def _verify_report(command: Optional[str], checks: list[tuple[str, bool]]) -> tuple[dict, int]:
    verified = all(ok for _name, ok in checks)
    doc = {
        "command": "verify",
        "verified_command": command,
        "verified": verified,
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
    }
    return doc, 0 if verified else 1
