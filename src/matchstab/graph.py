"""Exact-rational weighted graphs and the primitive fractional-matching moves.

Everything in this module is exact, and immutable by construction, with no
runtime freeze: weights and cover values are `fractions.Fraction` at the
API, and every test (tightness, degree constraints, duality) is an exact
comparison, never a tolerance. The graph is its integers: `WeightedGraph`
stores the ends (u, v) of each edge, `scale`, D, the lcm of the weight
denominators, and `int_weights`, the integers D.w, which the LP kernel, the
walk DP, the rounding of half-valued paths and the cover checks run on.
`scale_weights` is the one place that turns exact weights into D and D.w,
for `WeightedGraph.from_edges` and the instance parser; `WeightedGraph.edges`
is the view with `Fraction` weights for the API. A cover y is its integers
too: `FractionalVertexCover` stores its common denominator q and the
integers q.y, so y_u + y_v >= w_uv is tested as (q.y_u + q.y_v).D >=
D.w_uv.q, and y becomes `Fraction`s only in `FractionalVertexCover.values`.
A fractional matching x is half counts 2x_i, ints 0, 1 or 2, everywhere:
`decompose` validates them, `round_cycles` and `complement` rewrite them,
and x becomes `Fraction`s only in `BasicFractionalMatching.values`, for the
API; the JSON documents print x and y from these integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    CycleNotInSupport,
    DegreeConstraintViolated,
    GraphError,
    HalfValueOnPath,
    InfeasibleCover,
    NotAlternating,
    NotBasic,
    NotHalfIntegral,
    VertexNotOnCycle,
)

WeightLike = Union[int, str, Fraction]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


# the largest exponent an exact string may give: the int-to-str digit limit
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_fraction(value: WeightLike) -> Fraction:
    """Coerce an int/str/Fraction into an exact Fraction.

    Floats are rejected on purpose: weights must stay exact. A Fraction is
    returned as it is. A string such as "1e999999999" raises ValueError, as
    an unreadable one does, when its exponent's magnitude exceeds
    MAX_EXPONENT: `Fraction` would expand 10**exponent before anything
    could check its size, which takes seconds to hours.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise GraphError(f"weights must be exact (int, str or Fraction), got {value!r}")
    if isinstance(value, str):
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

    Vertices are dense indices 0..n-1; optional string labels exist only for
    the I/O boundary. Edge i joins `ends[i]` = (u, v), u < v, with weight
    `int_weights[i]` / `scale`: `scale` is D and `int_weights` the integers
    D.w. D is canonical, gcd(D, D.w_1, ..., D.w_m) = 1, so equal graphs have
    equal fields, and `==` and `hash` compare graph values. The edge index is
    the canonical identity used everywhere; `edges` is the view with
    `Fraction` weights for the API.
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
        if labels is not None and len(labels) != n:
            raise GraphError("label list length must equal vertex count")
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
                    raise GraphError(f"loop at vertex {u} not allowed")
                raise GraphError(f"edge ({u},{v}) must be stored with u < v")
            if e in index:
                raise GraphError(f"parallel edge ({u},{v})")
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
        return self._index_of[(min(u, v), max(u, v))]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._index_of

    def weight(self, u: int, v: int) -> Fraction:
        return Fraction(self.int_weights[self.edge_index(u, v)], self.scale)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return tuple(idx for _nbr, idx in self.adjacency[v])

    def _keep(self, kept: Sequence[int]) -> "WeightedGraph":
        """The graph on the same vertex set with the edges `kept`, in order.
        Only a D > 1 can lose its canonical form, so only that one is
        reduced again."""
        ends, weights, d = self.ends, self.int_weights, self.scale
        kept_weights = tuple(weights[i] for i in kept)
        if d > 1:
            g = gcd(d, *kept_weights)
            if g > 1:
                d //= g
                kept_weights = tuple(w // g for w in kept_weights)
        return WeightedGraph(self.n, tuple(ends[i] for i in kept), kept_weights, d, self.labels)

    def delete_edges(self, edge_indices: Iterable[int]) -> "WeightedGraph":
        """Graph on the same vertex set with the given edges removed.

        Edge indices of the result differ from the original's.
        """
        drop = set(edge_indices)
        return self._keep([i for i in range(self.m) if i not in drop])

    def delete_stars(self, vertices: Iterable[int]) -> "WeightedGraph":
        """G - delta(S): the same vertex set, with every edge at a vertex of
        S removed, so the vertices of S stay as isolated ones.

        Vertex ids and the order of the kept edges do not change.
        """
        gone = set(vertices)
        return self._keep(
            [i for i, (u, v) in enumerate(self.ends) if u not in gone and v not in gone]
        )


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
        return Matching(frozenset((min(u, v), max(u, v)) for u, v in pairs))

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


def canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a cycle given in cyclic vertex order.

    Rotated to start at the minimum vertex and oriented toward its smaller
    cyclic neighbor, so equal cycles compare equal. It serves cycles that
    callers give; `decompose` builds its cycles in this form already.
    """
    cycle = tuple(vertices)
    start = cycle.index(min(cycle))
    forward = cycle[start:] + cycle[:start]
    return forward if forward[1] <= forward[-1] else forward[:1] + forward[:0:-1]


class BasicFractionalMatching(_Value):
    """A half-integral vector split into matched edges and odd half-cycles.

    Built through :func:`decompose`, which is the only validated constructor.
    x is kept as half counts: `halves[i]` is 2x_i, an int 0, 1 or 2, for edge
    i of `graph`, and `vertex_halves[v]` is 2x(delta(v)); `==` and `repr`
    read `halves`. `values`, the x_i as `Fraction`s, is derived from them for
    the API only; the JSON documents print x from `halves`.
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

    This is the one validator of x. An entry other than 0, 1 or 2 (such as
    the 3/2 that stands for x_i = 3/4) raises NotHalfIntegral, a load
    x(delta(v)) above 1 raises DegreeConstraintViolated, and half-valued
    edges that do not form vertex-disjoint odd cycles raise NotBasic.
    """
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
    for v, h in enumerate(vertex_halves):
        if h > 2:
            raise DegreeConstraintViolated(
                f"vertex {v} carries x(delta(v)) = {Fraction(h, 2)}"
            )

    matched = Matching(frozenset(matched_pairs))  # each pair is an edge (u, v), u < v

    # Half-valued edges must form vertex-disjoint odd cycles.
    cycles: list[tuple[int, ...]] = []
    visited: set[int] = set()
    for start in sorted(half_adj):
        if start in visited:
            continue
        if len(half_adj[start]) != 2:
            raise NotBasic(f"vertex {start} has {len(half_adj[start])} half-edges")
        order = [start]
        visited.add(start)
        prev, cur = start, min(half_adj[start])
        while cur != start:
            if len(half_adj[cur]) != 2:
                raise NotBasic(f"vertex {cur} has {len(half_adj[cur])} half-edges")
            visited.add(cur)
            order.append(cur)
            nxt = half_adj[cur][0] if half_adj[cur][1] == prev else half_adj[cur][1]
            prev, cur = cur, nxt
        if len(order) % 2 == 0:
            raise NotBasic(f"half-edges around vertex {start} form an even cycle")
        # `start` is the cycle's lowest vertex and the walk leaves it toward
        # its lower neighbor, so `order` is canonical and the list sorted
        cycles.append(tuple(order))
    return BasicFractionalMatching(
        graph, tuple(counts), matched, tuple(cycles), tuple(vertex_halves)
    )


def round_cycles(
    bfm: BasicFractionalMatching, picks: Sequence[tuple[Sequence[int], int]]
) -> BasicFractionalMatching:
    """Alternate rounding of distinct support cycles, each at its own vertex,
    validated by one `decompose`.

    Each half-valued odd cycle becomes the near-perfect matching of it that
    exposes its vertex v: walking the cycle from v, odd-position edges drop
    to 0 and even-position edges rise to 1; entries outside the cycles are
    untouched. The cycles are vertex-disjoint, so the result equals rounding
    them one after another.
    """
    halves = list(bfm.halves)
    edge_index = bfm.graph.edge_index
    unrounded = set(bfm.odd_cycles)  # a cycle leaves when it is picked
    for cycle, v in picks:
        canon = canonical_cycle(cycle)
        if canon not in unrounded:
            raise CycleNotInSupport(f"cycle {canon} not in the support")
        if v not in canon:
            raise VertexNotOnCycle(f"vertex {v} not on cycle {canon}")
        unrounded.remove(canon)
        pos = canon.index(v)
        walk = canon[pos:] + canon[: pos + 1]  # from v around to v
        for i in range(len(canon)):
            # positions are 1-based from v; the first and last edges touch v
            halves[edge_index(walk[i], walk[i + 1])] = 0 if i % 2 == 0 else 2
    return decompose(bfm.graph, halves)


def complement(
    bfm: BasicFractionalMatching, edge_indices: Iterable[int]
) -> BasicFractionalMatching:
    """Flip x_e to 1 - x_e along a set of integral edges, validated by one
    `decompose`."""
    halves = list(bfm.halves)
    for idx in edge_indices:
        if halves[idx] == 1:
            raise HalfValueOnPath(f"edge {idx} has value 1/2; complement needs 0/1")
        halves[idx] = 2 - halves[idx]
    return decompose(bfm.graph, halves)


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

    def is_feasible_for(self, graph: WeightedGraph) -> bool:
        """y >= 0, and y_u + y_v >= w_uv on every edge of `graph`."""
        a = self.int_values
        if len(a) != graph.n or any(a_v < 0 for a_v in a):
            return False
        d, q = graph.scale, self.scale
        return all(
            (a[u] + a[v]) * d >= w * q
            for (u, v), w in zip(graph.ends, graph.int_weights)
        )


def tight_edges(graph: WeightedGraph, cover: FractionalVertexCover) -> frozenset[int]:
    """Edge indices where y_u + y_v equals w_uv exactly, found in one pass
    that raises InfeasibleCover at the first edge with y_u + y_v < w_uv.

    Compares (q.y_u + q.y_v).D with D.w_uv.q on integers."""
    a, q = cover.int_values, cover.scale
    if len(a) != graph.n:
        raise InfeasibleCover("cover length does not match vertex count")
    d = graph.scale
    tight = []
    for i, ((u, v), w) in enumerate(zip(graph.ends, graph.int_weights)):
        covered, needed = (a[u] + a[v]) * d, w * q
        if covered < needed:
            y = cover.values
            raise InfeasibleCover(
                f"edge ({u},{v}) violates the cover: {y[u]} + {y[v]} < {Fraction(w, d)}"
            )
        if covered == needed:
            tight.append(i)
    return frozenset(tight)


class AlternatingWalk(_Value):
    """A walk with per-edge matched flags relative to some matching.

    Vertices may repeat; edges are implied by consecutive vertices.
    """

    _fields = ("vertices", "matched_flags")

    def __init__(self, vertices: tuple[int, ...], matched_flags: tuple[bool, ...]) -> None:
        self.vertices, self.matched_flags = vertices, matched_flags

    @staticmethod
    def from_vertices(
        graph: WeightedGraph, matching: Matching, vertices: Sequence[int]
    ) -> "AlternatingWalk":
        verts = tuple(vertices)
        flags = []
        for a, b in zip(verts, verts[1:]):
            if not graph.has_edge(a, b):
                raise GraphError(f"walk step ({a},{b}) is not an edge")
            flags.append(matching.contains_edge(a, b))
        return AlternatingWalk(verts, tuple(flags))

    def __len__(self) -> int:
        return len(self.matched_flags)

    @property
    def is_alternating(self) -> bool:
        return all(a != b for a, b in zip(self.matched_flags, self.matched_flags[1:]))


def walk_value(
    walk: AlternatingWalk, graph: WeightedGraph, matching: Matching
) -> Fraction:
    """w(walk \\ M) - w(walk ∩ M), counting repeated edges with multiplicity."""
    if not walk.is_alternating:
        raise NotAlternating("walk edges do not alternate with the matching")
    total = ZERO
    for (a, b), flag in zip(zip(walk.vertices, walk.vertices[1:]), walk.matched_flags):
        if flag != matching.contains_edge(a, b):
            raise NotAlternating("walk flags disagree with the matching")
        w = graph.weight(a, b)
        total += -w if flag else w
    return total
