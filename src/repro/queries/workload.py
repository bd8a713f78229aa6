"""Query workload generation (paper Section VI-A).

The paper evaluates each method with randomly generated query workloads:

* edge / vertex queries whose temporal range length ``Lq`` is swept over
  orders of magnitude, anchored at random positions of the stream's lifetime;
* path queries with 1-7 hops, obtained by random walks over the observed
  graph;
* subgraph queries of 50-350 edges, obtained by sampling connected edge sets.

Workloads are generated from the *stream itself* so that a controlled
fraction of the queried items actually exists (queries over never-seen edges
have a true value of zero, which makes ARE undefined; the paper's ARE plots
imply mostly-existing queries).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..streams.edge import GraphStream, Vertex
from .types import EdgeQuery, PathQuery, SubgraphQuery, VertexQuery


@dataclass(slots=True)
class WorkloadConfig:
    """Knobs shared by all workload generators."""

    seed: int = 42
    #: Fraction of queries targeting edges/vertices that occur in the stream.
    existing_fraction: float = 0.9


class QueryWorkloadGenerator:
    """Generates reproducible query workloads from a graph stream."""

    def __init__(self, stream: GraphStream,
                 config: Optional[WorkloadConfig] = None) -> None:
        if len(stream) == 0:
            raise ConfigurationError("cannot build a workload from an empty stream")
        self.stream = stream
        self.config = config or WorkloadConfig()
        self._rng = random.Random(self.config.seed)
        self._edges: List[Tuple[Vertex, Vertex]] = sorted(stream.distinct_edges())
        self._vertices: List[Vertex] = sorted(stream.vertices())
        self._adjacency: Dict[Vertex, List[Vertex]] = defaultdict(list)
        for source, destination in self._edges:
            self._adjacency[source].append(destination)
        self._t_min, self._t_max = stream.time_span

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _random_range(self, length: int) -> Tuple[int, int]:
        """A random range of the requested length clamped to the stream span."""
        span = self._t_max - self._t_min
        length = max(1, min(length, span + 1))
        start_max = self._t_max - length + 1
        start = self._rng.randint(self._t_min, max(self._t_min, start_max))
        return start, start + length - 1

    def _pick_edge(self) -> Tuple[Vertex, Vertex]:
        if self._rng.random() < self.config.existing_fraction:
            return self._rng.choice(self._edges)
        return (self._rng.choice(self._vertices), self._rng.choice(self._vertices))

    def _pick_vertex(self) -> Vertex:
        if self._rng.random() < self.config.existing_fraction:
            return self._rng.choice(self._vertices)
        return f"__absent_{self._rng.randint(0, 10**9)}"

    # ------------------------------------------------------------------ #
    # workload builders
    # ------------------------------------------------------------------ #

    def edge_queries(self, count: int, range_length: int) -> List[EdgeQuery]:
        """``count`` edge queries with temporal ranges of ``range_length`` units."""
        queries = []
        for _ in range(count):
            source, destination = self._pick_edge()
            t_start, t_end = self._random_range(range_length)
            queries.append(EdgeQuery(source, destination, t_start, t_end))
        return queries

    def vertex_queries(self, count: int, range_length: int,
                       direction: str = "out") -> List[VertexQuery]:
        """``count`` vertex queries with temporal ranges of ``range_length`` units."""
        queries = []
        for _ in range(count):
            vertex = self._pick_vertex()
            t_start, t_end = self._random_range(range_length)
            queries.append(VertexQuery(vertex, t_start, t_end, direction))
        return queries

    def path_queries(self, count: int, hops: int,
                     range_length: int) -> List[PathQuery]:
        """``count`` path queries of ``hops`` edges via random walks.

        Walks follow observed adjacency where possible and fall back to random
        vertices when a walk dead-ends, matching how real workloads mix
        existing and non-existing path segments.
        """
        if hops < 1:
            raise ConfigurationError("path queries need at least one hop")
        queries = []
        for _ in range(count):
            start = self._rng.choice(self._vertices)
            path = [start]
            current = start
            for _ in range(hops):
                neighbors = self._adjacency.get(current)
                current = self._rng.choice(neighbors) if neighbors \
                    else self._rng.choice(self._vertices)
                path.append(current)
            t_start, t_end = self._random_range(range_length)
            queries.append(PathQuery(tuple(path), t_start, t_end))
        return queries

    def subgraph_queries(self, count: int, size: int,
                         range_length: int) -> List[SubgraphQuery]:
        """``count`` subgraph queries of ``size`` edges each.

        Subgraphs are grown from a random seed edge by repeatedly adding edges
        incident to the current vertex set, falling back to random edges when
        the frontier is exhausted — this yields mostly-connected edge sets as
        in the paper's workloads.
        """
        if size < 1:
            raise ConfigurationError("subgraph queries need at least one edge")
        # Every chosen edge is a pair of stream vertices, so a larger size
        # could never be reached.
        if size > len(self._vertices) ** 2:
            raise ConfigurationError(
                f"subgraph size {size} exceeds the {len(self._vertices) ** 2} "
                f"vertex pairs of the stream")
        by_source: Dict[Vertex, List[Tuple[Vertex, Vertex]]] = defaultdict(list)
        for edge in self._edges:
            by_source[edge[0]].append(edge)
        queries = []
        for _ in range(count):
            chosen: Set[Tuple[Vertex, Vertex]] = set()
            frontier: List[Vertex] = []
            seed_edge = self._rng.choice(self._edges)
            chosen.add(seed_edge)
            frontier.extend(seed_edge)
            while len(chosen) < size:
                grown = False
                self._rng.shuffle(frontier)
                for vertex in frontier:
                    for edge in by_source.get(vertex, ()):
                        if edge not in chosen:
                            chosen.add(edge)
                            frontier.append(edge[1])
                            grown = True
                            break
                    if grown:
                        break
                if not grown:
                    extra = self._rng.choice(self._edges)
                    if extra in chosen:
                        extra = (self._rng.choice(self._vertices),
                                 self._rng.choice(self._vertices))
                    chosen.add(extra)
                    frontier.append(extra[1])
            t_start, t_end = self._random_range(range_length)
            queries.append(SubgraphQuery(tuple(sorted(chosen)), t_start, t_end))
        return queries
