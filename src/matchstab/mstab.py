"""M-vertex-stabilizer: make a fixed matching realizable as a stable outcome.

Two deletion passes over exposed vertices (roots of augmenting flowers or
endpoints of augmenting walks to covered vertices first, then endpoint pairs
of exposed-to-exposed augmenting walks), followed by an exact feasibility
check of the residual graph. The final check runs on G - delta(S), for S
the vertices the passes deleted, in the original vertex ids; the walk
length bounds are 3n for the first pass and n for the second, with
n = |V| - |S| the number of vertices not deleted so far. 2-approximate in
general and exact whenever the second pass stays empty. A feasible result's
certificate, M and a residual cover of total w(M), is checked once by
`certify.verify_stable_subgraph`, the checks `matchstab verify` runs on it.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certify import verify_stable_subgraph
from .graph import Matching, WeightedGraph
from .lp import solve_fractional
from .walks import WalkArcs

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class MStabilizerResult:
    """Outcome of the M-vertex-stabilizer search, in original vertex ids.

    On feasible instances, removing `removed` leaves the input matching
    maximum-weight and the graph stable; `residual_cover` is a fractional
    cover of the residual graph with total exactly w(M), certifying both. On
    infeasible instances `removed` reports the vertices deleted before the
    final check failed.
    """

    status: str
    removed: tuple[int, ...]
    first_phase: tuple[int, ...]
    second_phase: tuple[int, ...]
    diagnostics: tuple[tuple[str, int, Optional[int]], ...]
    matching_weight: Fraction
    residual_nu_f: Fraction
    residual_cover: Optional[dict[int, Fraction]]


def m_vertex_stabilizer(graph: WeightedGraph, matching: Matching) -> MStabilizerResult:
    """Run both deletion passes and the final exact feasibility check.

    Only exposed vertices are deleted, so M stays a matching of every
    residual graph. Exposed vertices are processed in ascending index order;
    the first pass deletes the same set in any order.
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

    removed = tuple(sorted(deleted))
    residual = graph.delete_stars(removed)
    residual_bfm, residual_cover = solve_fractional(residual)
    weight = matching.weight(graph)
    cover = None
    if weight >= residual_bfm.weight:
        cover = {v: residual_cover.values[v] for v in range(graph.n) if v not in removed}
        verify_stable_subgraph(residual, matching, cover, removed)
    return MStabilizerResult(
        status=INFEASIBLE if cover is None else FEASIBLE,
        removed=removed,
        first_phase=tuple(sorted(first_phase)),
        second_phase=tuple(sorted(deleted.difference(first_phase))),
        diagnostics=tuple(diagnostics),
        matching_weight=weight,
        residual_nu_f=residual_bfm.weight,
        residual_cover=cover,
    )
