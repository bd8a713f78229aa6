"""Query type definitions used by workloads and the evaluation harness.

The paper's TRQ primitives (Definition 2) are edge and vertex queries over a
temporal range; path and subgraph queries are composites built from edge
queries.  Each query object knows how to evaluate itself against any
:class:`~repro.summary.TemporalGraphSummary`, which keeps the evaluation
harness method-agnostic.

Query objects do not cross process boundaries: the sharded engine sends
its shards plain query rows (:data:`~repro.summary.QueryRow`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..streams.edge import Vertex
from ..summary import TemporalGraphSummary


@dataclass(frozen=True, slots=True)
class EdgeQuery:
    """Aggregated weight of ``source → destination`` within ``[t_start, t_end]``."""

    source: Vertex
    destination: Vertex
    t_start: int
    t_end: int

    def evaluate(self, summary: TemporalGraphSummary) -> float:
        return summary.edge_query(self.source, self.destination,
                                  self.t_start, self.t_end)


@dataclass(frozen=True, slots=True)
class VertexQuery:
    """Aggregated weight of a vertex's outgoing/incoming edges within a range."""

    vertex: Vertex
    t_start: int
    t_end: int
    direction: str = "out"

    def evaluate(self, summary: TemporalGraphSummary) -> float:
        return summary.vertex_query(self.vertex, self.t_start, self.t_end,
                                    direction=self.direction)


@dataclass(frozen=True, slots=True)
class PathQuery:
    """Aggregated weight along a vertex path within a range."""

    path: Tuple[Vertex, ...]
    t_start: int
    t_end: int

    @property
    def hops(self) -> int:
        """Number of edges in the path."""
        return len(self.path) - 1

    def evaluate(self, summary: TemporalGraphSummary) -> float:
        return summary.path_query(self.path, self.t_start, self.t_end)


@dataclass(frozen=True, slots=True)
class SubgraphQuery:
    """Aggregated weight of a set of edges within a range."""

    edges: Tuple[Tuple[Vertex, Vertex], ...]
    t_start: int
    t_end: int

    @property
    def size(self) -> int:
        """Number of edges in the queried subgraph."""
        return len(self.edges)

    def evaluate(self, summary: TemporalGraphSummary) -> float:
        return summary.subgraph_query(self.edges, self.t_start, self.t_end)


Query = EdgeQuery | VertexQuery | PathQuery | SubgraphQuery
