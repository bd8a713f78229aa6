"""Exact temporal graph store — the ground truth used to measure AAE/ARE.

The store keeps every stream item indexed by edge and by vertex endpoint with
per-key time-sorted prefix sums, so any temporal range query is answered
exactly in ``O(log n)`` after an amortized sort.  It implements the same
:class:`~repro.summary.TemporalGraphSummary` interface as the sketches, which
lets the evaluation harness treat it as just another (loss-less) summary.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Tuple

from ..streams.edge import Vertex
from ..summary import TemporalGraphSummary


class _TemporalSeries:
    """Weights attached to timestamps for one key, queryable by time range."""

    __slots__ = ("_times", "_weights", "_prefix", "_dirty")

    def __init__(self) -> None:
        self._times: List[int] = []
        self._weights: List[float] = []
        self._prefix: List[float] = []
        self._dirty = False

    def add(self, timestamp: int, weight: float) -> None:
        self._times.append(timestamp)
        self._weights.append(weight)
        self._dirty = True

    def _rebuild(self) -> None:
        order = sorted(range(len(self._times)), key=lambda i: self._times[i])
        self._times = [self._times[i] for i in order]
        self._weights = [self._weights[i] for i in order]
        prefix: List[float] = []
        running = 0.0
        for weight in self._weights:
            running += weight
            prefix.append(running)
        self._prefix = prefix
        self._dirty = False

    def range_sum(self, t_start: int, t_end: int) -> float:
        if self._dirty:
            self._rebuild()
        if not self._times:
            return 0.0
        lo = bisect.bisect_left(self._times, t_start)
        hi = bisect.bisect_right(self._times, t_end)
        if hi <= lo:
            return 0.0
        upper = self._prefix[hi - 1]
        lower = self._prefix[lo - 1] if lo > 0 else 0.0
        return upper - lower

    def __len__(self) -> int:
        return len(self._times)


class ExactTemporalGraph(TemporalGraphSummary):
    """Loss-less reference summary storing the full stream."""

    name = "Exact"

    def __init__(self) -> None:
        self._edges: Dict[Tuple[Vertex, Vertex], _TemporalSeries] = defaultdict(_TemporalSeries)
        self._out: Dict[Vertex, _TemporalSeries] = defaultdict(_TemporalSeries)
        self._in: Dict[Vertex, _TemporalSeries] = defaultdict(_TemporalSeries)
        self._items = 0

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        self._edges[(source, destination)].add(timestamp, weight)
        self._out[source].add(timestamp, weight)
        self._in[destination].add(timestamp, weight)
        self._items += 1

    def insert_batch(self, edges) -> int:
        """Bulk insert: identical appends with the hot attribute lookups
        hoisted out of the loop."""
        edge_series = self._edges
        out_series = self._out
        in_series = self._in
        count = 0
        for edge in edges:
            timestamp, weight = edge.timestamp, edge.weight
            edge_series[(edge.source, edge.destination)].add(timestamp, weight)
            out_series[edge.source].add(timestamp, weight)
            in_series[edge.destination].add(timestamp, weight)
            count += 1
        self._items += count
        return count

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        self.insert(source, destination, -weight, timestamp)

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        self.check_range(t_start, t_end)
        series = self._edges.get((source, destination))
        return series.range_sum(t_start, t_end) if series is not None else 0.0

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        self.check_range(t_start, t_end)
        self.check_direction(direction)
        table = self._out if direction == "out" else self._in
        series = table.get(vertex)
        return series.range_sum(t_start, t_end) if series is not None else 0.0

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the exact store.

        Counted as one (timestamp, weight) pair per item per index (edge, out
        and in) plus dictionary keys — the exact store is expected to be much
        larger than any sketch.
        """
        per_item = 3 * (8 + 8)
        key_bytes = (len(self._edges) + len(self._out) + len(self._in)) * 16
        return self._items * per_item + key_bytes

    @property
    def item_count(self) -> int:
        """Number of stream items recorded."""
        return self._items
