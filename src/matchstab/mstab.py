"""M-vertex-stabilizer: make a fixed matching realizable as a stable outcome.

An M-vertex-stabilizer is a set S of M-exposed vertices such that M is a
maximum-weight matching of G - delta(S) and G - delta(S) is stable, that is
nu_f(G - delta(S)) = w(M). Whether one exists is decided by one LP:

Lemma. Let X be the set of M-exposed vertices. An M-vertex-stabilizer
exists iff nu_f(G - delta(X)) = w(M), and then X is one.
Proof. Every S is a subset of X, so every fractional matching of
G - delta(X) is one of G - delta(S): w(M) <= nu_f(G - delta(X)) <=
nu_f(G - delta(S)), as M lives in both. So a stabilizer S forces
nu_f(G - delta(X)) = w(M); conversely that equality makes X a stabilizer.

So `m_vertex_stabilizer` first solves the LP on G - delta(X). When it
weighs more than w(M), the input is infeasible and that LP's basic x,
a fractional matching of G - delta(X) heavier than M, is the certificate:
it is one of G - delta(S) for every S that the stabilizer may delete.

Otherwise two deletion passes run over exposed vertices (roots of
augmenting flowers or endpoints of augmenting walks to covered vertices
first, then endpoint pairs of exposed-to-exposed augmenting walks),
followed by an exact check of the residual graph. The final check runs on
G - delta(S), for S the vertices the passes deleted, in the original
vertex ids; the walk length bounds are 3n for the first pass and n for the
second, with n = |V| - |S| the number of vertices not deleted so far.
2-approximate and exact whenever the second pass stays empty. A feasible
result's certificate, M and a residual cover of total w(M), is checked once
by `certify.verify_stable_subgraph`, the checks `matchstab verify` runs on
it.

Both passes scan G itself, and G - delta(S) is built once, for the final
check. The walk arcs of (G, M), with their integer weights, are built once
per call (`walks.WalkArcs`, which also checks once that M is a matching of
G), and every scan of both passes runs on them. Each scan is told the
current S and writes no DP entry at a vertex of S. That is exact, because S
holds only M-exposed vertices other than the root: each walk-DP entry is
the same as on G - delta(S), iteration by iteration, and the scan stops at
the same iteration. Proof: y2 is written only through a matched edge, so
an exposed s != root never gets a y2 entry; with no y1 entry either, s
carries no value along its unmatched edges and has no matched one, just
as if its star were gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certify import verify_stable_subgraph
from .errors import MNotAMatching
from .graph import BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph
from .lp import solve_fractional
from .walks import WalkArcs

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

Diagnostics = tuple[tuple[str, int, Optional[int]], ...]


@dataclass(frozen=True)
class MStabilizerResult:
    """Outcome of the M-vertex-stabilizer search, in original vertex ids.

    On feasible instances, removing `removed` leaves the input matching
    maximum-weight and the graph stable; `residual_nu_f` is nu_f of the
    residual graph, equal to w(M), and `residual_cover` a fractional cover
    of it, 0 on `removed`, with total exactly w(M), certifying both. On
    infeasible instances nothing is deleted: `removed`, both phases and
    `diagnostics` are empty, `residual_cover` is None, `residual_nu_f` is
    nu_f(G - delta(X)) for X the M-exposed vertices, more than w(M), and `x`
    is a basic fractional matching of G - delta(X) of that weight, which
    proves that no stabilizer exists. `repr` leaves `x` out.
    """

    status: str
    removed: tuple[int, ...]
    first_phase: tuple[int, ...]
    second_phase: tuple[int, ...]
    diagnostics: Diagnostics
    matching_weight: Fraction
    residual_nu_f: Fraction
    residual_cover: Optional[FractionalVertexCover]
    x: Optional[BasicFractionalMatching] = field(default=None, repr=False)


def m_vertex_stabilizer(graph: WeightedGraph, matching: Matching) -> MStabilizerResult:
    """Decide feasibility with one LP on G - delta(X); on feasible input run
    both deletion passes and the final exact check.

    Only exposed vertices are deleted, so M stays a matching of every
    residual graph. By the lemma above the final check cannot fail after
    the LP found G - delta(X) feasible; if it did, its certificate check
    raises NotOptimalPair rather than reporting the input infeasible.
    """
    if not matching.is_matching_in(graph):
        raise MNotAMatching("matching uses edges outside the graph")
    weight = matching.weight(graph)
    exposed = [v for v in range(graph.n) if not matching.covers(v)]
    x, _cover = solve_fractional(graph.delete_stars(exposed))
    if x.weight > weight:
        return MStabilizerResult(INFEASIBLE, (), (), (), (), weight, x.weight, None, x)

    first_phase, second_phase, diagnostics = _deletion_passes(graph, matching)
    removed = tuple(sorted(first_phase + second_phase))
    residual = graph.delete_stars(removed)
    residual_bfm, residual_cover = solve_fractional(residual)
    verify_stable_subgraph(residual, matching, residual_cover)
    return MStabilizerResult(
        status=FEASIBLE,
        removed=removed,
        first_phase=first_phase,
        second_phase=second_phase,
        diagnostics=diagnostics,
        matching_weight=weight,
        residual_nu_f=residual_bfm.weight,
        residual_cover=residual_cover,
    )


def _deletion_passes(
    graph: WeightedGraph, matching: Matching
) -> tuple[tuple[int, ...], tuple[int, ...], Diagnostics]:
    """S1 and S2, each sorted, and the diagnostics of both passes.

    Exposed vertices are processed in ascending index order; the first pass
    deletes the same set in any order.
    """
    arcs = WalkArcs(graph, matching)
    diagnostics: list[tuple[str, int, Optional[int]]] = []
    first_phase: list[int] = []
    deleted: set[int] = set()

    exposed = [v for v in range(graph.n) if not matching.covers(v)]

    for u in exposed:
        n = graph.n - len(deleted)
        flower, walk_to_covered = arcs.first_pass_scan(u, 3 * n, deleted)
        if flower:
            diagnostics.append(("flower", u, None))
        elif walk_to_covered is not None:
            diagnostics.append(("walk_to_covered", u, walk_to_covered))
        else:
            continue
        first_phase.append(u)
        deleted.add(u)

    for u in exposed:
        if u in deleted:
            continue
        v = arcs.second_pass_scan(u, graph.n - len(deleted), deleted)
        if v is None:
            continue
        diagnostics.append(("walk_between_exposed", u, v))
        deleted.update((u, v))

    return (
        tuple(sorted(first_phase)),
        tuple(sorted(deleted.difference(first_phase))),
        tuple(diagnostics),
    )
