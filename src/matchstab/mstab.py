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
vertex ids; the walk length bounds are 3|V| for the first pass, which
never binds on feasible input (see `_deletion_passes`), and n for the
second, with n = |V| - |S| the number of vertices not deleted so far.
2-approximate and exact whenever the second pass stays empty. A feasible
result's certificate, M and a residual cover of total w(M), is checked once
by `certify.verify_stable_subgraph`, the checks `matchstab verify` runs on
it, on G and the edges delta(S).

Both passes scan G itself, and G - delta(S) is built once, for the LP of
the final check. The walk arcs of (G, M), with their integer weights, are
built once per call (`walks.WalkArcs`, which also checks once that M is a
matching of G), and every scan of both passes runs on them. The scans
block no vertex: S holds only M-exposed vertices, and an exposed vertex is
a dead end.

Lemma. For S a set of M-exposed vertices other than the root, a scan of G
reads what the same scan of G - delta(S) reads, at every iteration.
Proof. A y2 entry is written only through a matched edge, so an exposed
s != root never gets one, and the y1 entry of s feeds no relaxation: free
arcs read y2, and a matched arc reads y1 only at a covered vertex. So every
entry off S is the same at every iteration on G and on G - delta(S); a run
on G may commit at S in its last iteration and end one iteration later,
in which no entry off S changes. The first pass reads only y1(root) and y2
at covered vertices; the second reads y1 at exposed targets, and skips the
targets in S.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .certify import verify_stable_subgraph
from .errors import MNotAMatching
from .graph import BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph
from .lp import solve_fractional
from .walks import WalkArcs

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

Diagnostics = tuple[tuple[str, int, Optional[int]], ...]


class MStabilizerResult(NamedTuple):
    """Outcome of the M-vertex-stabilizer search, in original vertex ids.

    On feasible instances, removing `removed` leaves the input matching
    maximum-weight and the graph stable; `residual_nu_f` is nu_f of the
    residual graph, equal to w(M), and `residual_cover` a fractional cover
    of it, 0 on `removed`, with total exactly w(M), certifying both. On
    infeasible instances nothing is deleted: `removed`, both phases and
    `diagnostics` are empty, `residual_cover` is None, `residual_nu_f` is
    nu_f(G - delta(X)) for X the M-exposed vertices, more than w(M), and `x`
    is a basic fractional matching of G - delta(X) of that weight, which
    proves that no stabilizer exists.
    """

    status: str
    removed: tuple[int, ...]
    first_phase: tuple[int, ...]
    second_phase: tuple[int, ...]
    diagnostics: Diagnostics
    matching_weight: Fraction
    residual_nu_f: Fraction
    residual_cover: Optional[FractionalVertexCover]
    x: Optional[BasicFractionalMatching] = None


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

    first_phase, second_phase, diagnostics = _deletion_passes(graph, matching, exposed)
    removed = tuple(sorted(first_phase + second_phase))
    residual_bfm, residual_cover = solve_fractional(graph.delete_stars(removed))
    verify_stable_subgraph(graph, graph.stars(removed), matching, residual_cover)
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
    graph: WeightedGraph, matching: Matching, exposed: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...], Diagnostics]:
    """S1 and S2, each sorted, and the diagnostics of both passes, on
    feasible input; `exposed` lists the M-exposed vertices ascending.

    Exposed vertices are processed in ascending index order. The first pass
    scans each root with the bound 3|V|. The second pass reads S, the set
    deleted so far, for its size, which sets the bound n = |V| - |S|, and
    to skip targets in S.

    On feasible input each first-pass verdict is the one with S empty and
    k = 3|V|, so the first pass deletes the same set in any order, and its
    bound 3(|V| - |S|) in the paper's statement may be read as 3|V|.
    Proof. Let X be the M-exposed vertices and y a cover of G - delta(X)
    with total w(M), which exists since the LP found nu_f(G - delta(X)) =
    w(M). y is feasible on every edge between covered vertices and, by
    complementary slackness, tight on M. A walk's value is the weight of
    its free edges minus that of its matched ones, and its DP state after
    an arc is the arc's end and table (1 after a free arc, 2 after a
    matched one). If a walk from the root is twice in one state, the part
    between is a closed walk that alternates all the way round, through
    covered vertices only, since a walk passes through no exposed vertex;
    each pass through a vertex uses one free and one matched edge, so by y
    its value is at most 0. Cutting it out leaves a shorter walk to the
    same state that is worth no less. So a best walk repeats no state: it
    has at most 2c + 1 arcs, c the number of covered vertices. No covered
    vertex and not the root is in S, so n >= c + 1 and 2c + 1 < 3n: the
    bound 3n never binds, and each entry it reads is the best over walks
    of any length. With the lemma above, each root's verdict is the one
    with S empty and k = 3|V|, whichever roots were deleted before it. On
    infeasible input the bound can bind, which is why the passes run on
    feasible input only.
    """
    arcs = WalkArcs(graph, matching)
    diagnostics: list[tuple[str, int, Optional[int]]] = []
    first_phase: list[int] = []

    for u in exposed:
        flower, walk_to_covered = arcs.first_pass_scan(u, 3 * graph.n)
        if flower:
            diagnostics.append(("flower", u, None))
        elif walk_to_covered is not None:
            diagnostics.append(("walk_to_covered", u, walk_to_covered))
        else:
            continue
        first_phase.append(u)

    deleted = set(first_phase)
    for u in exposed:
        if u in deleted:
            continue
        v = arcs.second_pass_scan(u, graph.n - len(deleted), deleted)
        if v is None:
            continue
        diagnostics.append(("walk_between_exposed", u, v))
        deleted.update((u, v))

    return (
        tuple(first_phase),
        tuple(sorted(deleted.difference(first_phase))),
        tuple(diagnostics),
    )
