"""M-vertex-stabilizer: make a fixed matching realizable as a stable outcome.

Two deletion passes over exposed vertices (roots of augmenting flowers or
endpoints of augmenting walks to covered vertices first, then endpoint pairs
of exposed-to-exposed augmenting walks), followed by an exact feasibility
check of the residual graph. 2-approximate in general and exact whenever the
second pass stays empty. A feasible result's certificate, M and a residual
cover of total w(M), is checked once by `lp.verify_stable_subgraph`, the
checks `matchstab verify` runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MNotAMatching
from .graph import Matching, WeightedGraph
from .lp import solve_fractional, verify_stable_subgraph
from .walks import detect_structures

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


class _Residual:
    """Current graph with bookkeeping back to original vertex ids."""

    def __init__(self, graph: WeightedGraph, matching: Matching):
        self.graph = graph
        self.matching = matching
        self.to_original = list(range(graph.n))
        self.to_current: dict[int, int] = {v: v for v in range(graph.n)}

    def original(self, v: int) -> int:
        return self.to_original[v]

    def current_of(self, original: int) -> Optional[int]:
        return self.to_current.get(original)

    def remove(self, originals: list[int]) -> None:
        current = [self.to_current[o] for o in originals]
        new_graph, kept = self.graph.delete_vertices(current)
        remap = {old: new for new, old in enumerate(kept)}
        self.matching = Matching.from_pairs(
            (remap[u], remap[v]) for u, v in self.matching.pairs
        )
        self.to_original = [self.to_original[old] for old in kept]
        self.to_current = {o: v for v, o in enumerate(self.to_original)}
        self.graph = new_graph


def m_vertex_stabilizer(graph: WeightedGraph, matching: Matching) -> MStabilizerResult:
    """Run both deletion passes and the final exact feasibility check.

    Exposed vertices are processed in ascending index order; the first pass
    deletes the same set in any order. The walk length bounds are 3n for the
    first pass and n for the second, with n the vertex count of the graph as
    it currently stands.
    """
    if not matching.is_matching_in(graph):
        raise MNotAMatching("matching uses edges outside the graph")
    res = _Residual(graph, matching)
    diagnostics: list[tuple[str, int, Optional[int]]] = []
    first_phase: list[int] = []
    second_phase: list[int] = []

    exposed = [v for v in range(graph.n) if not matching.covers(v)]

    for u_orig in exposed:
        u = res.current_of(u_orig)
        assert u is not None
        scan = detect_structures(res.graph, res.matching, u)
        if scan.flower_at_root:
            diagnostics.append(("flower", u_orig, None))
        elif scan.walk_to_covered is not None:
            diagnostics.append(
                ("walk_to_covered", u_orig, res.original(scan.walk_to_covered))
            )
        else:
            continue
        first_phase.append(u_orig)
        res.remove([u_orig])

    for u_orig in exposed:
        if u_orig in first_phase or u_orig in second_phase:
            continue
        u = res.current_of(u_orig)
        assert u is not None
        scan = detect_structures(res.graph, res.matching, u)
        if scan.walk_to_exposed is None:
            continue
        v_orig = res.original(scan.walk_to_exposed)
        diagnostics.append(("walk_between_exposed", u_orig, v_orig))
        second_phase.extend([u_orig, v_orig])
        res.remove([u_orig, v_orig])

    residual_bfm, residual_cover = solve_fractional(res.graph)
    weight = res.matching.weight(res.graph)
    removed = tuple(sorted(first_phase + second_phase))
    if weight < residual_bfm.weight:
        return MStabilizerResult(
            status=INFEASIBLE,
            removed=removed,
            first_phase=tuple(sorted(first_phase)),
            second_phase=tuple(sorted(second_phase)),
            diagnostics=tuple(diagnostics),
            matching_weight=weight,
            residual_nu_f=residual_bfm.weight,
            residual_cover=None,
        )
    cover_by_original = {
        res.original(v): residual_cover.values[v] for v in range(res.graph.n)
    }
    residual = graph.delete_edges(i for v in removed for i in graph.incident_edges(v))
    verify_stable_subgraph(residual, matching, cover_by_original, removed)
    return MStabilizerResult(
        status=FEASIBLE,
        removed=removed,
        first_phase=tuple(sorted(first_phase)),
        second_phase=tuple(sorted(second_phase)),
        diagnostics=tuple(diagnostics),
        matching_weight=weight,
        residual_nu_f=residual_bfm.weight,
        residual_cover=cover_by_original,
    )
