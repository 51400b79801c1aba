"""What proves a result: every certificate check, and `matchstab verify`.

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
  subgraphs.
- `verify` re-checks a result document against its instance. It runs the
  same named checks on the document's own numbers, plus the checks of each
  command's other claims, and reports every one.
- `labels_doc`, `pairs_doc` and `cycles_doc` render vertex sets, matchings
  and cycles as a document prints them. The CLI prints with them, and
  `verify` compares a document's `matched` and `odd_cycles` with them.

Every check runs on scaled integers: the graph's D.w, the cover's common
denominator q and integers q.y (`FractionalVertexCover.scaled`), and the
half counts 2x that `graph.decompose` keeps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Mapping, Optional

from .errors import (
    DegreeConstraintViolated, GraphError, InfeasibleCover, MatchingRequired, MatchstabError,
    NotBasic, NotHalfIntegral, NotOptimalPair, ParseError,
)
from .graph import (
    ZERO, BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph, decompose,
)
from .instance import Instance

def labels_doc(graph: WeightedGraph, vertices) -> list[str]:
    return [graph.label_of(v) for v in sorted(vertices)]


def pairs_doc(graph: WeightedGraph, matching: Matching) -> list[list[str]]:
    return [[graph.label_of(u), graph.label_of(v)] for u, v in matching.sorted_pairs()]


def cycles_doc(graph: WeightedGraph, cycles) -> list[list[str]]:
    return [[graph.label_of(v) for v in cycle] for cycle in cycles]


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
    cover's q.y and the half counts 2x of `decompose`.
    """
    if len(cover.values) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    q, a = cover.scaled
    d, weight, ends = graph.scale, graph.int_weights, graph.ends
    loads = bfm.vertex_halves
    slack_ok = all(
        (a[ends[i][0]] + a[ends[i][1]]) * d == weight[i] * q for i in bfm.support
    ) and all(a_v == 0 or loads[v] == 2 for v, a_v in enumerate(a))
    return [
        ("cover_is_feasible", cover.is_feasible_for(graph)),
        ("strong_duality", bfm.weight == cover.total),
        ("complementary_slackness", slack_ok),
    ]


def stable_subgraph_checks(
    residual: WeightedGraph, matching: Matching,
    cover: Mapping[int, Fraction], removed: Iterable[int],
) -> list[tuple[str, bool]]:
    """The exact conditions under which a matching and a fractional w-vertex
    cover of equal totals prove nu = nu_f on `residual`, by weak duality.

    `residual` keeps the original vertex ids and loses the stabilizer's edges
    (delta(S) for a vertex set S, F for an edge set); `cover` omits vertices
    of value 0. Returns `matching_lives_in_residual`,
    `cover_feasible_on_residual`, `matching_weight_equals_cover` and
    `cover_only_on_residual` (no value on `removed`), each with its result.
    """
    y = FractionalVertexCover(tuple(cover.get(v, ZERO) for v in range(residual.n)))
    lives = matching.is_matching_in(residual)
    return [
        ("matching_lives_in_residual", lives),
        ("cover_feasible_on_residual", y.is_feasible_for(residual)),
        ("matching_weight_equals_cover", lives and matching.weight(residual) == y.total),
        ("cover_only_on_residual", set(cover).isdisjoint(removed)),
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
    residual: WeightedGraph, matching: Matching,
    cover: Mapping[int, Fraction], removed: Iterable[int],
) -> None:
    """Raise NotOptimalPair, naming the failed checks, unless the result
    passes every one of `stable_subgraph_checks`."""
    checks = stable_subgraph_checks(residual, matching, cover, removed)
    _raise_unless_all("a stable subgraph", checks)


# ---------------------------------------------------------------------------
# verify: re-check a result document using only graph-core arithmetic


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object of a result document; a key it names twice makes the
    document malformed, where `json.loads` alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ParseError("malformed result document: an object names an entry twice")
    return obj


def load_result(text: str) -> object:
    """The JSON value of a result document's text."""
    return json.loads(text, object_pairs_hook=_object)


def _distinct(name: str, keys: list) -> list:
    """`keys`, read off a list the document states as a set; an entry it
    names twice makes the document malformed."""
    if len(set(keys)) != len(keys):
        raise ParseError(f"malformed result document: {name} names an entry twice")
    return keys


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


def _vertex_set(index, doc: dict, key: str) -> set[int]:
    return set(_distinct(key, [index[label] for label in doc[key]]))


def _edge_pairs(index, doc: dict, key: str) -> list[tuple[int, int]]:
    """The vertex pairs of the list of edges `doc[key]`, each sorted, so
    that an edge named twice in either order counts as named twice."""
    return _distinct(key, [tuple(sorted((index[a], index[b]))) for a, b in doc[key]])


@lru_cache(maxsize=256)
def _exact(value: object) -> Fraction:
    """An exact value of the document, which prints each one as a string
    such as "3/4". `Fraction` alone would also take the JSON number 6.0 or
    0.5, which no document prints, so a value that is not a string makes
    the document malformed.

    A document repeats a few values, such as "1/2" and "0", many times: each
    distinct one is parsed once. Only strings are cached, and no string
    equals a number, so the cache never answers for a number."""
    if type(value) is not str:
        raise ParseError(
            f"malformed result document: an exact value must be a string, got {json.dumps(value)}"
        )
    return Fraction(value)


@lru_cache(maxsize=256)
def _half_count(value: object):
    """2x for the exact value string x of an x entry: an int when 2x is
    one, as for every entry of a basic x, else the `Fraction`, such as 3/2,
    which `decompose` refuses. Each distinct string is read once, and, as
    in `_exact`, a value that is not a string raises and is not cached."""
    count = 2 * _exact(value)
    return count.numerator if count.denominator == 1 else count


def _halves_from_entries(graph: WeightedGraph, index, entries) -> list:
    """The document's x as the half counts 2x_i that `decompose` validates."""
    edges = _distinct("x", [graph.edge_index(index[e["u"]], index[e["v"]]) for e in entries])
    halves: list = [0] * graph.m
    for i, entry in zip(edges, entries):
        halves[i] = _half_count(entry["x"])
    return halves


def _cover_from_doc(index, doc: dict[str, str]) -> dict[int, Fraction]:
    return {index[label]: _exact(val) for label, val in doc.items()}


def _cover_total(cover: dict[int, Fraction]) -> Fraction:
    return FractionalVertexCover(tuple(cover.values())).total


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


def _check_optimal_pair_doc(
    graph, index, x_entries, cover_map, checks
) -> Optional[BasicFractionalMatching]:
    """Append `x_is_basic_feasible` and, when x is basic, the optimal-pair
    checks; returns the decomposed x, or None when it is not basic."""
    bfm = _basic_x_doc(graph, index, x_entries, checks)
    if bfm is not None:
        cover = FractionalVertexCover(tuple(cover_map[v] for v in range(graph.n)))
        checks.extend(optimal_pair_checks(graph, bfm, cover))
    return bfm


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


def _support_check(graph, outputs, bfm: BasicFractionalMatching) -> tuple[str, bool]:
    """`matched_and_odd_cycles_equal_x`: the printed M(x) and C(x) are the
    ones of the checked x."""
    matched_ok = outputs["matched"] == pairs_doc(graph, bfm.matched)
    cycles_ok = outputs["odd_cycles"] == cycles_doc(graph, bfm.odd_cycles)
    return ("matched_and_odd_cycles_equal_x", matched_ok and cycles_ok)


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


def _stable_subgraph_doc(
    index, certificates: dict, residual: WeightedGraph, removed, checks,
    matching: Optional[Matching] = None,
) -> dict[int, Fraction]:
    """Append the stable-subgraph checks on `residual` and return the cover
    they read. The certificate is `surviving_matching`, which must pass
    `matching_pairs_disjoint` first, with `surviving_cover`; or, given the
    instance `matching` of an `m-stabilize` document, that with
    `residual_cover`."""
    if matching is None:
        cover = _cover_from_doc(index, certificates["surviving_cover"])
        matching = _matching_from_doc(index, certificates, "surviving_matching", checks)
    else:
        cover = _cover_from_doc(index, certificates["residual_cover"])
    if matching is not None:
        checks.extend(stable_subgraph_checks(residual, matching, cover, removed))
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
        cover = _cover_from_doc(index, certificates["cover"])
        x_doc = certificates if command == "gamma" else outputs
        bfm = _check_optimal_pair_doc(graph, index, x_doc["x"], cover, checks)
        if bfm is not None and command != "solve-fractional":
            gamma = _typed(outputs, "gamma", int)
            checks.append(("gamma_matches_support", gamma == len(bfm.odd_cycles)))
        if bfm is not None and command != "gamma":
            checks.append(_support_check(graph, outputs, bfm))
        if command != "gamma":
            nu_f = _exact(outputs["nu_f"])
            checks.append(("nu_f_equals_cover_total", nu_f == _cover_total(cover)))
    elif command == "stabilize-vertices":
        removed = _vertex_set(index, outputs, "S")
        residual = graph.delete_stars(removed)
        cover = _stable_subgraph_doc(index, certificates, residual, removed, checks)
        checks += [
            ("nu_after_equals_cover_total", _exact(outputs["nu_after"]) == _cover_total(cover)),
            ("S_size_equals_gamma", len(removed) == _typed(outputs, "gamma", int)),
        ]
    elif command == "stabilize-edges":
        pairs = _edge_pairs(index, outputs, "F")
        checks.append(("F_edges_in_graph", all(graph.has_edge(u, v) for u, v in pairs)))
        removed_edges = {graph.edge_index(u, v) for u, v in pairs if graph.has_edge(u, v)}
        removed = _vertex_set(index, certificates, "S")
        # deleting F isolates S, so certify on G minus F with the cover extended by 0
        _stable_subgraph_doc(index, certificates, graph.delete_edges(removed_edges), (), checks)
        stars = {i for v in removed for i in graph.incident_edges(v)}
        gamma, delta = _typed(outputs, "gamma", int), graph.max_degree
        checks += [
            ("F_equals_stars_of_S", removed_edges == stars),
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
            residual = graph.delete_stars(removed)
            cover = _stable_subgraph_doc(index, certificates, residual, removed, checks, matching)
            nu_f = _exact(outputs["residual_nu_f"])
            checks.append(("residual_nu_f_equals_cover_total", nu_f == _cover_total(cover)))
        else:
            checks.append(("infeasible_reported", status == "infeasible"))
            if status == "infeasible":
                printed = removed or s1 or s2 or certificates["diagnostics"] != []
                checks.append(("infeasible_prints_no_stabilizer", not printed))
                _infeasibility_doc(graph, index, matching, w_m, certificates, checks)
        checks.append(("w_M_equals_matching_weight", _exact(outputs["w_M"]) == w_m))
    elif command == "check-stability":
        cover = _cover_from_doc(index, certificates["cover"])
        _check_optimal_pair_doc(graph, index, certificates["x"], cover, checks)
        total = _cover_total(cover)
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
                if stable:
                    checks.append(("nu_equals_tau_f", weight == total))
                else:
                    checks.append(("gap_witnessed", weight < total))
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
