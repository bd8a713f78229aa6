"""Graph stream item model.

A graph stream (paper Definition 1) is a sequence of items
``(s, d, w, t)``: a directed edge from ``s`` to ``d`` with weight ``w``
arriving at timestamp ``t``.  The same ``(s, d)`` pair may appear many times
with different weights and timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

Vertex = str | int
EdgeTuple = Tuple[Vertex, Vertex, float, int]


@dataclass(frozen=True, slots=True)
class StreamEdge:
    """A single graph stream item ``(source, destination, weight, timestamp)``.

    Attributes
    ----------
    source:
        Source vertex identifier.  Any hashable string or integer.
    destination:
        Destination vertex identifier.
    weight:
        Edge weight carried by this stream item (``w_i`` in the paper).
    timestamp:
        Integer arrival timestamp (``t_i``); the unit is dataset specific
        (the paper uses 1-second slices).
    """

    source: Vertex
    destination: Vertex
    weight: float
    timestamp: int


class GraphStream:
    """An in-memory, ordered sequence of :class:`StreamEdge` items.

    The class is a thin, validated container around a list of edges that all
    summaries and benchmarks consume.  Edges are kept in arrival order; the
    constructor optionally sorts them by timestamp, which matches how real
    stream logs (and the paper's datasets) are replayed.
    """

    def __init__(self, edges: Iterable[StreamEdge | EdgeTuple], *,
                 sort_by_time: bool = False, name: str = "stream") -> None:
        normalized: List[StreamEdge] = []
        for item in edges:
            if isinstance(item, StreamEdge):
                normalized.append(item)
            else:
                s, d, w, t = item
                normalized.append(StreamEdge(s, d, float(w), int(t)))
        if sort_by_time:
            normalized.sort(key=lambda e: e.timestamp)
        self._edges: List[StreamEdge] = normalized
        self.name = name

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, index: int) -> StreamEdge:
        return self._edges[index]

    @property
    def edges(self) -> Sequence[StreamEdge]:
        """The underlying edge sequence (read-only view by convention)."""
        return self._edges

    @property
    def time_span(self) -> Tuple[int, int]:
        """Return ``(min timestamp, max timestamp)`` over the stream.

        Raises
        ------
        ValueError
            If the stream is empty.
        """
        if not self._edges:
            # Documented public contract (tests and callers catch ValueError);
            # the stream layer stays importable without repro.errors.
            # repro-lint: ok ERR001 — see above
            raise ValueError("time_span is undefined for an empty stream")
        times = [e.timestamp for e in self._edges]
        return (min(times), max(times))

    def vertices(self) -> set:
        """Return the set of distinct vertex identifiers in the stream."""
        verts: set = set()
        for e in self._edges:
            verts.add(e.source)
            verts.add(e.destination)
        return verts

    def distinct_edges(self) -> set:
        """Return the set of distinct ``(source, destination)`` pairs."""
        return {(e.source, e.destination) for e in self._edges}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"GraphStream(name={self.name!r}, edges={len(self._edges)}, "
                f"vertices={len(self.vertices())})")
