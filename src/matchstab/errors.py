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


class InfeasibleCover(MatchstabError, ValueError):
    """Vertex values violate a cover constraint y_u + y_v >= w_uv."""


class NotOptimalPair(MatchstabError, ValueError):
    """A solver's own named check failed, on its certificate (cover
    feasibility, strong duality, slackness or a stable subgraph's) or on
    its search: `not <what>: <checks> failed`."""


class PathNotAugmenting(MatchstabError, ValueError):
    """Auxiliary-graph path is not alternating/augmenting as required."""


class EndpointNotRecognized(MatchstabError, ValueError):
    """Auxiliary-graph path endpoint is neither a pseudonode nor the helper vertex."""


class MNotAMatching(MatchstabError, ValueError):
    """Supplied edge set is not a matching of the graph."""


class VertexNotExposed(MatchstabError, ValueError):
    """Operation requires an exposed vertex."""


class BudgetExceeded(MatchstabError, ValueError):
    """Instance is beyond the oracle's desk-scale budget, or a result has an
    exact value with more digits than Python may print."""


class ParseError(MatchstabError, ValueError):
    """Instance or result document does not match the file schema."""


class MatchingRequired(MatchstabError, ValueError):
    """Command needs a \"matching\" field in the instance file."""
