"""Exact-rational weighted graphs, matchings, basic fractional matchings and
fractional vertex covers.

Everything in this module is exact, and immutable by construction, with no
runtime freeze: weights and cover values are `fractions.Fraction` at the
API, and every test (tightness, degree constraints, duality) is an exact
comparison, never a tolerance. The graph is its integers: `WeightedGraph`
stores the ends (u, v) of each edge, `scale`, D, the lcm of the weight
denominators, and `int_weights`, the integers D.w, which the LP kernel and
its rounding of half-valued paths, the walk DP and the cover checks run on.
`scale_weights` is the one place that turns exact weights into D and D.w,
for `WeightedGraph.from_edges` and the instance parser; `WeightedGraph.edges`
is the view with `Fraction` weights for the API. A graph is checked once:
`WeightedGraph.__init__` checks every field, for `from_edges` and every
caller outside this module and the parser. `WeightedGraph._unchecked`
builds a graph with no check, for its two callers, which guarantee its
fields themselves: the instance parser, which checks each edge as it reads
it, and `_keep`, behind `delete_stars` and `delete_edges`, which takes a
subset of a checked graph's edges, valid by the lemma in its docstring.
A cover y is its integers too: `FractionalVertexCover` stores its common
denominator q and the integers q.y, so y_u + y_v >= w_uv is tested as
(q.y_u + q.y_v).D >= D.w_uv.q, and y becomes `Fraction`s only in
`FractionalVertexCover.values`.
A fractional matching x is half counts 2x_i, ints 0, 1 or 2, everywhere:
`lp.solve_fractional` reads them off its kernel's matching,
`cycles.apply_augmentation` moves them in place, `decompose` validates an
x built elsewhere (a document's in `verify`, and `reduce_cycles`' after a
move) and splits it into M(x) and C(x), and x becomes `Fraction`s only in
`BasicFractionalMatching.values`, for the API; the JSON documents print x
and y from these integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DegreeConstraintViolated,
    GraphError,
    InfeasibleCover,
    NotBasic,
    NotHalfIntegral,
)

WeightLike = Union[int, str, Fraction]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


# the largest exponent an exact string may give: the int-to-str digit limit
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")


def as_fraction(value: WeightLike) -> Fraction:
    """Coerce an int/str/Fraction into an exact Fraction.

    Floats are rejected on purpose: weights must stay exact. A Fraction is
    returned as it is. A string such as "1e999999999" raises ValueError, as
    an unreadable one does, when its exponent's magnitude exceeds
    MAX_EXPONENT: `Fraction` would expand 10**exponent before anything
    could check its size, which takes seconds to hours. So does a string
    with an underscore, such as "1_000": `Fraction` reads digit groups only
    from Python 3.11, and an exact string must mean the same on every
    Python this package supports.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise GraphError(f"weights must be exact (int, str or Fraction), got {value!r}")
    if isinstance(value, str):
        if "_" in value:
            raise ValueError(f"{value!r} has an underscore, which no exact string may contain")
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT}")
    return value if isinstance(value, Fraction) else Fraction(value)


def scale_weights(weights: Sequence[WeightLike]) -> tuple[int, tuple[int, ...]]:
    """(D, D.w) for exact weights: D, the lcm of their denominators, and the
    integers D.w, in order.

    All-int weights are their own D.w with D = 1, read with no lcm and no
    Fraction; any other weight list is coerced by `as_fraction`, so a float
    or bool is refused. D is canonical: no prime divides D and every D.w.
    """
    if all(type(w) is int for w in weights):
        return 1, tuple(weights)
    exact = [as_fraction(w) for w in weights]
    d = lcm(*(w.denominator for w in exact))
    return d, tuple(w.numerator * (d // w.denominator) for w in exact)


class _Value:
    """`==`, `hash` and a `Name(field=value, ...)` repr over the fields that
    `_fields` names, in order; views derived from them stay out. A subclass
    sets its fields in `__init__`, and nothing assigns to them after."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class WeightedGraph(_Value):
    """Simple undirected graph with exact nonnegative edge weights, stored as
    integers.

    Vertices are dense indices 0..n-1; optional labels, distinct strings,
    exist only for the I/O boundary, where documents name vertices by them.
    Edge i joins `ends[i]` = (u, v), u < v, with weight `int_weights[i]` /
    `scale`: `scale` is D and `int_weights` the integers D.w. D is
    canonical, gcd(D, D.w_1, ..., D.w_m) = 1, so equal graphs have equal
    fields, and `==` and `hash` compare graph values. The edge index is the
    canonical identity used everywhere; `edges` is the view with `Fraction`
    weights for the API.
    """

    _fields = ("n", "ends", "int_weights", "scale", "labels")

    def __init__(
        self, n: int, ends: tuple[tuple[int, int], ...], int_weights: tuple[int, ...],
        scale: int, labels: Optional[tuple[str, ...]] = None,
    ) -> None:
        self.n, self.ends, self.int_weights = n, ends, int_weights
        self.scale, self.labels = scale, labels
        weights, d = int_weights, scale
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if labels is not None:
            if len(labels) != n:
                raise GraphError("label list length must equal vertex count")
            if not all(isinstance(label, str) for label in labels):
                raise GraphError("vertex labels must be strings")
            if len(set(labels)) != n:
                raise GraphError("vertex labels must be unique")
        if type(d) is not int or d < 1:
            raise GraphError(f"scale D must be a positive int, got {d!r}")
        if len(weights) != len(ends):
            raise GraphError("int_weights must give one weight per edge")
        index: dict[tuple[int, int], int] = {}
        for i, e in enumerate(ends):
            u, v = e
            if not 0 <= u < v < n:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u},{v}) out of range")
                if u == v:
                    raise GraphError(f"loop at vertex {self.label_of(u)} not allowed")
                raise GraphError(f"edge ({u},{v}) must be stored with u < v")
            if e in index:
                raise GraphError(f"parallel edge ({self.label_of(u)},{self.label_of(v)})")
            index[e] = i
            w = weights[i]
            if type(w) is not int:
                raise GraphError(f"edge ({u},{v}) weight D.w must be an int, got {w!r}")
            if w < 0:
                raise GraphError(f"edge ({u},{v}) has negative weight {Fraction(w, d)}")
        common = gcd(d, *weights)
        if common != 1:
            raise GraphError(f"scale D = {d} is not canonical: D and every D.w share {common}")
        self._index_of = index

    @classmethod
    def _unchecked(
        cls, n: int, ends: tuple[tuple[int, int], ...], int_weights: tuple[int, ...],
        scale: int, labels: Optional[tuple[str, ...]], index_of: dict[tuple[int, int], int],
    ) -> "WeightedGraph":
        """The graph of these fields, built with no check. Its two callers
        guarantee everything `__init__` checks: `labels` is None or n
        distinct strings; every (u, v) in `ends` has 0 <= u < v < n and no
        two are equal; `int_weights` holds one nonnegative int per edge;
        `scale` is a positive int with gcd(scale, *int_weights) = 1; and
        `index_of` maps each (u, v) of `ends` to its index. The instance
        parser checks each edge once, as it reads it, and `_keep` takes a
        subset of a checked graph's edges."""
        graph = object.__new__(cls)
        graph.n, graph.ends, graph.int_weights = n, ends, int_weights
        graph.scale, graph.labels, graph._index_of = scale, labels, index_of
        return graph

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int, WeightLike]],
        labels: Optional[Sequence[str]] = None,
    ) -> "WeightedGraph":
        """Build a graph, normalizing edge orientation and scaling weights."""
        edges = tuple(edges)
        ends = tuple((u, v) if u < v else (v, u) for u, v, _w in edges)
        scale, int_weights = scale_weights([w for _u, _v, w in edges])
        return WeightedGraph(
            n, ends, int_weights, scale, tuple(labels) if labels is not None else None
        )

    @property
    def m(self) -> int:
        return len(self.ends)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The edges as (u, v, w) with `Fraction` weights, by edge index."""
        d = self.scale
        return tuple((u, v, Fraction(w, d)) for (u, v), w in zip(self.ends, self.int_weights))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex incidence lists of (neighbor, edge_index), sorted."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, (u, v) in enumerate(self.ends):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return tuple(tuple(sorted(a)) for a in adj)

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge {u, v}; raises KeyError if absent."""
        return self._index_of[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._index_of

    def weight(self, u: int, v: int) -> Fraction:
        return Fraction(self.int_weights[self.edge_index(u, v)], self.scale)

    @property
    def max_degree(self) -> int:
        """Counted from `ends`, without building `adjacency`."""
        degree = [0] * self.n
        for u, v in self.ends:
            degree[u], degree[v] = degree[u] + 1, degree[v] + 1
        return max(degree, default=0)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def _keep(self, kept: Sequence[int]) -> "WeightedGraph":
        """The graph on the same vertex set with the edges `kept`, distinct
        indices in increasing order, built by `_unchecked`.

        A subset of a valid graph's edges is valid: the labels and n do not
        change, each kept (u, v) is still in range with u < v and no two are
        equal, and each D.w is still a nonnegative int. Only the canonical D
        can be lost, and only when D > 1 (with D = 1 the gcd is 1): g =
        gcd(D, kept D.w) may exceed 1, and D / g with the D.w / g is the
        same graph with gcd 1, so that one reduction is all that runs."""
        ends, weights, d = self.ends, self.int_weights, self.scale
        kept_ends = tuple([ends[i] for i in kept])
        kept_weights = tuple([weights[i] for i in kept])
        if d > 1 and (g := gcd(d, *kept_weights)) > 1:
            d //= g
            kept_weights = tuple([w // g for w in kept_weights])
        index_of = dict(zip(kept_ends, range(len(kept_ends))))
        return WeightedGraph._unchecked(self.n, kept_ends, kept_weights, d, self.labels, index_of)

    def delete_edges(self, edge_indices: Iterable[int]) -> "WeightedGraph":
        """Graph on the same vertex set with the given edges removed.

        Edge indices of the result differ from the original's.
        """
        drop = set(edge_indices)
        return self._keep([i for i in range(self.m) if i not in drop])

    def stars(self, vertices: Iterable[int]) -> frozenset[int]:
        """delta(S): the indices of the edges with an end in S."""
        gone = set(vertices)
        return frozenset([i for i, (u, v) in enumerate(self.ends) if u in gone or v in gone])

    def delete_stars(self, vertices: Iterable[int]) -> "WeightedGraph":
        """G - delta(S): the same vertex set, with every edge at a vertex of
        S removed, so the vertices of S stay as isolated ones.

        Vertex ids and the order of the kept edges do not change.
        """
        gone, ends = set(vertices), self.ends
        return self._keep([i for i, (u, v) in enumerate(ends) if u not in gone and v not in gone])


class Matching(_Value):
    """A set of pairwise vertex-disjoint edges, stored as sorted vertex pairs."""

    _fields = ("pairs",)

    def __init__(self, pairs: frozenset[tuple[int, int]]) -> None:
        self.pairs = pairs
        seen: set[int] = set()
        for u, v in pairs:
            if u >= v:
                raise GraphError("matching pairs must be stored sorted (u < v)")
            if u in seen or v in seen:
                raise GraphError("edges of a matching may not share a vertex")
            seen.add(u)
            seen.add(v)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "Matching":
        """The matching of `pairs`, each in either order; a pair named twice
        raises GraphError, as two pairs that share a vertex do."""
        listed = [(min(u, v), max(u, v)) for u, v in pairs]
        if len(set(listed)) < len(listed):
            raise GraphError("edges of a matching may not repeat")
        return Matching(frozenset(listed))

    @cached_property
    def _partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.pairs:
            out[u] = v
            out[v] = u
        return out

    def covers(self, v: int) -> bool:
        return v in self._partner

    def partner(self, v: int) -> Optional[int]:
        return self._partner.get(v)

    def __len__(self) -> int:
        return len(self.pairs)

    def contains_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.pairs

    def is_matching_in(self, graph: WeightedGraph) -> bool:
        return all(graph.has_edge(u, v) for u, v in self.pairs)

    def weight(self, graph: WeightedGraph) -> Fraction:
        """w(M), summed on the graph's integer weights D.w. Each pair is
        stored sorted, as the graph keys its edges; a pair that is no edge of
        the graph raises KeyError."""
        weight, index_of = graph.int_weights, graph._index_of
        return Fraction(sum(weight[index_of[pair]] for pair in self.pairs), graph.scale)

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))


class BasicFractionalMatching(_Value):
    """A half-integral vector split into matched edges and odd half-cycles.

    Built by :func:`decompose`, which validates x, or by the LP, which
    reads it off its kernel's matching. x is kept as half counts:
    `halves[i]` is 2x_i, an int 0, 1 or 2, for edge i of `graph`, and
    `vertex_halves[v]` is 2x(delta(v)); `==` and `repr` read `halves`.
    `values`, the x_i as `Fraction`s, is derived from them for the API
    only; the JSON documents print x from `halves`.
    """

    _fields = ("graph", "halves", "matched", "odd_cycles")

    def __init__(
        self, graph: WeightedGraph, halves: tuple[int, ...], matched: Matching,
        odd_cycles: tuple[tuple[int, ...], ...], vertex_halves: tuple[int, ...],
    ) -> None:
        self.graph, self.halves, self.matched = graph, halves, matched
        self.odd_cycles, self.vertex_halves = odd_cycles, vertex_halves

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """x_i = halves[i] / 2, by edge index: the API view for library
        callers and tests; no code in `matchstab` reads it."""
        return tuple((ZERO, HALF, ONE)[h] for h in self.halves)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, h in enumerate(self.halves) if h)

    @cached_property
    def weight(self) -> Fraction:
        """w.x, summed as D.w_i times 2x_i over 2D."""
        weight, halves = self.graph.int_weights, self.halves
        return Fraction(
            sum(weight[i] * halves[i] for i in self.support), 2 * self.graph.scale
        )


def decompose(graph: WeightedGraph, halves: Sequence[int]) -> BasicFractionalMatching:
    """Validate x, given as half counts 2x_i, and split it into M(x) and C(x).

    This is the validator of an x built elsewhere: `verify` checks a
    document's x with it, and `reduce_cycles` its x after a move. An entry
    other than 0, 1 or 2 (such as the 3/2 that stands for x_i = 3/4)
    raises NotHalfIntegral, a load x(delta(v)) above 1 raises
    DegreeConstraintViolated, and half-valued edges that do not form
    vertex-disjoint odd cycles raise NotBasic. Each odd cycle is written
    from its lowest vertex toward its lower neighbour.
    """
    counts, vertex_halves, matched_pairs, half_adj = _count_halves(graph, halves)
    for v, h in enumerate(vertex_halves):
        if h > 2:
            raise DegreeConstraintViolated(f"vertex {v} carries x(delta(v)) = {Fraction(h, 2)}")
    cycles: list[tuple[int, ...]] = []
    visited: set[int] = set()
    for start in sorted(half_adj):
        if start in visited:
            continue
        if len(half_adj[start]) != 2:
            raise NotBasic(f"vertex {start} has {len(half_adj[start])} half-edges")
        order = [start]
        prev, cur = start, min(half_adj[start])
        while cur != start:
            if len(half_adj[cur]) != 2:
                raise NotBasic(f"vertex {cur} has {len(half_adj[cur])} half-edges")
            order.append(cur)
            nxt = half_adj[cur][0] if half_adj[cur][1] == prev else half_adj[cur][1]
            prev, cur = cur, nxt
        visited.update(order)
        if len(order) % 2 == 0:
            raise NotBasic(f"half-edges around vertex {start} form an even cycle")
        # `start` is the cycle's lowest vertex and the walk leaves it toward
        # its lower neighbor, so `order` is canonical and the list sorted
        cycles.append(tuple(order))
    matched = Matching(frozenset(matched_pairs))  # each pair is an edge (u, v), u < v
    return BasicFractionalMatching(
        graph, tuple(counts), matched, tuple(cycles), tuple(vertex_halves)
    )


def _count_halves(graph: WeightedGraph, halves: Sequence[int]) -> tuple:
    """The counting pass of `decompose`: each entry as the int 0, 1 or 2,
    the loads 2x(delta(v)), unchecked, the matched pairs and the
    half-valued neighbors of each vertex."""
    if len(halves) != graph.m:
        raise NotHalfIntegral("value vector length does not match edge count")
    counts = [0] * graph.m  # each accepted entry as the int 0, 1 or 2
    vertex_halves = [0] * graph.n  # 2 x(delta(v)), counted over the nonzero entries
    matched_pairs: list[tuple[int, int]] = []
    half_adj: dict[int, list[int]] = {}
    for idx, h in enumerate(halves):
        if h == 0:
            continue
        u, v = graph.ends[idx]
        if h == 2:
            counts[idx] = 2
            matched_pairs.append((u, v))
        elif h == 1:
            counts[idx] = 1
            half_adj.setdefault(u, []).append(v)
            half_adj.setdefault(v, []).append(u)
        else:
            raise NotHalfIntegral(
                f"edge {idx} has value {Fraction(h, 2)}, expected 0, 1/2 or 1"
            )
        vertex_halves[u] += counts[idx]
        vertex_halves[v] += counts[idx]
    return counts, vertex_halves, matched_pairs, half_adj


def near_perfect_matching(cycle: tuple[int, ...], v: int) -> list[tuple[int, int]]:
    """The pairs of the near-perfect matching of an odd cycle, given in
    cyclic order, that leaves its vertex v exposed: every second edge of
    the cycle, walked from v."""
    pos = cycle.index(v)
    rest = cycle[pos + 1:] + cycle[:pos]
    return list(zip(rest[0::2], rest[1::2]))


class FractionalVertexCover(_Value):
    """Vertex values y, stored as integers: `int_values[v]` is q.y_v over
    the common denominator `scale`, q.

    Like the graph's D, the pair is canonical: the constructor divides q, a
    positive int, and every q.y by their gcd, so `==` compares covers by
    value. `values`, the y_v as `Fraction`s, is derived for the API only
    (the JSON documents print y from q.y and q); `from_values` builds a
    cover from such values.
    """

    _fields = ("int_values", "scale")

    def __init__(self, int_values: tuple[int, ...], scale: int) -> None:
        g = gcd(scale, *int_values)
        if g > 1:
            scale, int_values = scale // g, tuple(a_v // g for a_v in int_values)
        self.int_values, self.scale = int_values, scale

    @staticmethod
    def from_values(values: Iterable[Fraction]) -> "FractionalVertexCover":
        """The cover of the exact values y, by vertex, over q, the lcm of
        their denominators."""
        values = tuple(values)
        q = lcm(*(y.denominator for y in values))
        return FractionalVertexCover(tuple(y.numerator * (q // y.denominator) for y in values), q)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """y_v = q.y_v / q, by vertex."""
        return tuple(Fraction(a_v, self.scale) for a_v in self.int_values)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.int_values), self.scale)

    def slack(self, graph: WeightedGraph) -> list[int]:
        """(q.y_u + q.y_v).D - D.w_uv.q for each edge of `graph`, by edge
        index: y_u + y_v - w_uv times qD, negative where y fails to cover
        the edge and 0 where the edge is tight. The one per-edge comparison
        of a cover with the weights; y must give a value to every vertex."""
        a, d, q = self.int_values, graph.scale, self.scale
        return [(a[u] + a[v]) * d - w * q for (u, v), w in zip(graph.ends, graph.int_weights)]


def tight_edges(graph: WeightedGraph, cover: FractionalVertexCover) -> frozenset[int]:
    """Edge indices where y_u + y_v equals w_uv exactly, or InfeasibleCover
    at the first edge with y_u + y_v < w_uv, read off `cover.slack`."""
    if len(cover.int_values) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    slack = cover.slack(graph)
    if min(slack, default=0) < 0:
        i = next(i for i, s in enumerate(slack) if s < 0)
        (u, v), y = graph.ends[i], cover.values
        raise InfeasibleCover(
            f"edge ({u},{v}) violates the cover: {y[u]} + {y[v]} < {graph.weight(u, v)}"
        )
    return frozenset([i for i, s in enumerate(slack) if not s])
