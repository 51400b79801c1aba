"""Exception hierarchy for matchstab."""

from __future__ import annotations


class MatchstabError(Exception):
    """Base class for all matchstab errors."""


class GraphError(MatchstabError, ValueError):
    """Invalid graph construction (loops, parallel edges, negative weights)."""


class NotHalfIntegral(MatchstabError, ValueError):
    """An edge value is outside {0, 1/2, 1}."""


class DegreeConstraintViolated(MatchstabError, ValueError):
    """Some vertex has x(delta(v)) > 1."""


class NotBasic(MatchstabError, ValueError):
    """Half-valued edges do not form vertex-disjoint odd cycles."""


class CycleNotInSupport(MatchstabError, ValueError):
    """Requested odd cycle is not part of the solution's support."""


class VertexNotOnCycle(MatchstabError, ValueError):
    """Rounding vertex does not lie on the requested cycle."""


class HalfValueOnPath(MatchstabError, ValueError):
    """Complementing is only defined on 0/1-valued edges."""


class InfeasibleCover(MatchstabError, ValueError):
    """Vertex values violate a cover constraint y_u + y_v >= w_uv."""


class NotAlternating(MatchstabError, ValueError):
    """Walk edges do not alternate between matched and unmatched."""


class NotOptimalPair(MatchstabError, ValueError):
    """Primal/dual pair fails cover feasibility, strong duality or slackness."""


class PathNotAugmenting(MatchstabError, ValueError):
    """Auxiliary-graph path is not alternating/augmenting as required."""


class EndpointNotRecognized(MatchstabError, ValueError):
    """Auxiliary-graph path endpoint is neither a pseudonode nor the helper vertex."""


class MNotAMatching(MatchstabError, ValueError):
    """Supplied edge set is not a matching of the graph."""


class VertexNotExposed(MatchstabError, ValueError):
    """Operation requires an exposed vertex."""


class EntryIsMinusInfinity(MatchstabError, ValueError):
    """Requested walk-table entry is the -infinity sentinel."""


class InconsistentWalkTables(MatchstabError, ValueError):
    """Walk tables do not rebuild a walk from the source with the entry's
    value and a length within the bound."""


class BudgetExceeded(MatchstabError, ValueError):
    """Instance is beyond the oracle's desk-scale budget."""


class ParseError(MatchstabError, ValueError):
    """Instance or result document does not match the file schema."""


class UnknownCommand(MatchstabError, ValueError):
    """CLI invoked with an unknown command."""


class MatchingRequired(MatchstabError, ValueError):
    """Command needs a \"matching\" field in the instance file."""
