"""Abstract interface shared by HIGGS and every baseline summary.

The experiment harness treats all summaries uniformly through this interface:
items are inserted with :meth:`insert` (or in bulk with :meth:`insert_batch`),
temporal range queries are answered with :meth:`edge_query` /
:meth:`vertex_query` (or in bulk with :meth:`query_batch`), and composite
path/subgraph queries have default implementations that decompose into edge
queries exactly as the paper describes (Section III).

Batch execution
---------------
:meth:`insert_batch` and :meth:`query_batch` are the bulk entry points used
by the throughput experiments.  Their default implementations fall back to
the per-item methods, so every summary supports them; structures with a
cheaper bulk path (pre-hashed inserts, memoized range decompositions)
override them with a native implementation that produces *bit-identical*
results.  :meth:`insert_stream` chunks a stream through :meth:`insert_batch`,
so any summary with a native batch path accelerates stream replay for free.

Because every structure honours this one contract, composition layers can
wrap summaries without knowing what is inside them: the sharded engine
(:class:`repro.sharding.ShardedSummary`) partitions a stream across many
inner summaries and is itself a :class:`TemporalGraphSummary`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Final, Iterable, List, Protocol, Sequence, Tuple

from .errors import QueryError
from .streams.edge import GraphStream, StreamEdge, Vertex

#: Default number of items per chunk when replaying a stream through the
#: batch insert path.  Large enough to amortize per-batch setup (hash memo
#: dictionaries), small enough to keep the memo working set in cache.
DEFAULT_BATCH_SIZE: Final = 1024


class SummaryQuery(Protocol):
    """Protocol of batchable query objects (see :mod:`repro.queries.types`).

    Anything with an ``evaluate(summary) -> float`` method qualifies; the
    concrete query dataclasses satisfy it structurally.
    """

    def evaluate(self, summary: "TemporalGraphSummary") -> float:
        """Evaluate this query against ``summary`` and return the estimate."""
        ...  # pragma: no cover - protocol stub


class TemporalGraphSummary(ABC):
    """A summary of a graph stream supporting temporal range queries."""

    #: Human-readable name used in benchmark tables.
    name: str = "summary"

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    @abstractmethod
    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Insert one stream item ``(source, destination, weight, timestamp)``.

        Parameters
        ----------
        source, destination:
            Endpoint identifiers (any hashable string or integer); the edge
            is directed from ``source`` to ``destination``.
        weight:
            Weight carried by this item; repeated arrivals of the same edge
            accumulate.
        timestamp:
            Integer arrival timestamp.  Implementations accept arbitrary
            timestamps; structures that optimize for the natural
            non-decreasing stream order must still store out-of-order items
            correctly.

        Raises
        ------
        InsertionError
            If the item cannot be placed — which indicates an invalid
            configuration, not a full structure (summaries grow or degrade
            gracefully under load).
        """

    def insert_batch(self, edges: Iterable[StreamEdge]) -> int:
        """Insert a batch of stream items; returns the number inserted.

        The default implementation loops over :meth:`insert`.  Summaries with
        a native bulk path (one-pass hashing, deferred aggregation) override
        this; overrides must produce a structure identical to per-item
        insertion in arrival order.
        """
        count = 0
        for edge in edges:
            self.insert(edge.source, edge.destination, edge.weight, edge.timestamp)
            count += 1
        return count

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Remove ``weight`` from a previously inserted item.

        The default implementation inserts a negative weight, which is the
        standard count-min-style deletion; structures with explicit entry
        lookup override this.
        """
        self.insert(source, destination, -weight, timestamp)

    def insert_stream(self, stream: GraphStream | Iterable[StreamEdge], *,
                      batch_size: int = DEFAULT_BATCH_SIZE) -> int:
        """Insert every item of a stream in order, in batches.

        Returns the number of items inserted.  The stream is chunked through
        :meth:`insert_batch` so summaries with a native bulk path benefit
        without the caller changing anything.
        """
        batch_size = max(1, batch_size)
        count = 0
        batch: List[StreamEdge] = []
        append = batch.append
        for edge in stream:
            append(edge)
            if len(batch) >= batch_size:
                count += self.insert_batch(batch)
                batch.clear()
        if batch:
            count += self.insert_batch(batch)
        return count

    # ------------------------------------------------------------------ #
    # temporal range query primitives
    # ------------------------------------------------------------------ #

    @abstractmethod
    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        """Estimated aggregated weight of edge ``source → destination`` in
        ``[t_start, t_end]`` (paper Definition 2).

        Parameters
        ----------
        source, destination:
            Endpoints of the queried directed edge.
        t_start, t_end:
            Inclusive temporal range bounds.

        Returns
        -------
        float
            The estimate.  Sketch-based summaries may overestimate (hash
            collisions) but never underestimate; an edge never seen in the
            range yields ``0.0`` absent collisions.

        Raises
        ------
        QueryError
            On an inverted range or negative timestamps (see
            :meth:`check_range`).
        """

    @abstractmethod
    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        """Estimated aggregated weight of all outgoing (``"out"``) or incoming
        (``"in"``) edges of ``vertex`` in ``[t_start, t_end]``.

        Parameters
        ----------
        vertex:
            The queried vertex identifier.
        t_start, t_end:
            Inclusive temporal range bounds.
        direction:
            ``"out"`` aggregates edges leaving ``vertex``; ``"in"``
            aggregates edges arriving at it.

        Returns
        -------
        float
            The estimate (overestimation only, as for :meth:`edge_query`).

        Raises
        ------
        QueryError
            On an inverted range, negative timestamps, or a ``direction``
            other than ``"out"`` or ``"in"`` (see :meth:`check_range` and
            :meth:`check_direction`).
        """

    def query_batch(self, queries: Sequence[SummaryQuery]) -> List[float]:
        """Answer a batch of query objects; returns one estimate per query.

        Each element must expose ``evaluate(summary)`` (the protocol of
        :mod:`repro.queries.types`).  The default implementation evaluates
        queries one at a time; summaries with shared per-batch state (plan
        caches, memoized hash lifts) override it.  Overrides must return
        estimates bit-identical to the per-item path.
        """
        return [query.evaluate(self) for query in queries]

    # ------------------------------------------------------------------ #
    # composite queries (defaults per Section III)
    # ------------------------------------------------------------------ #

    def path_query(self, path: Sequence[Vertex], t_start: int, t_end: int) -> float:
        """Aggregated weight along a vertex path: the sum of the edge queries
        of every consecutive pair.

        Raises :class:`~repro.errors.QueryError` when ``path`` has fewer
        than two vertices, or (from the underlying edge queries) when the
        range is malformed.
        """
        if len(path) < 2:
            raise QueryError("a path query needs at least two vertices")
        total = 0.0
        for src, dst in zip(path[:-1], path[1:], strict=True):
            total += self.edge_query(src, dst, t_start, t_end)
        return total

    def subgraph_query(self, edges: Sequence[Tuple[Vertex, Vertex]],
                       t_start: int, t_end: int) -> float:
        """Aggregated weight of a set of edges: the sum of their edge queries.

        Raises :class:`~repro.errors.QueryError` when ``edges`` is empty, or
        (from the underlying edge queries) when the range is malformed.
        """
        if not edges:
            raise QueryError("a subgraph query needs at least one edge")
        total = 0.0
        for src, dst in edges:
            total += self.edge_query(src, dst, t_start, t_end)
        return total

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @abstractmethod
    def memory_bytes(self) -> int:
        """Analytic memory footprint of the summary, in bytes.

        Returns
        -------
        int
            The size a space-efficient implementation of the structure
            would occupy, computed from entry counts and the configured
            field widths ("Paper substitutions" in docs/ARCHITECTURE.md) —
            not the Python object graph's actual size, which would drown
            the comparison in interpreter overhead.  Deterministic for a
            given structure state; never raises.
        """

    @staticmethod
    def check_range(t_start: int, t_end: int) -> None:
        """Validate a temporal range.

        Raises :class:`QueryError` on an inverted range (``t_end < t_start``)
        or negative timestamps.  Every summary — HIGGS and all baselines —
        funnels its query ranges through this single check so malformed
        ranges fail identically everywhere instead of silently returning 0.
        """
        if t_end < t_start:
            raise QueryError(f"inverted temporal range [{t_start}, {t_end}]")
        if t_start < 0:
            raise QueryError(
                f"temporal range [{t_start}, {t_end}] has a negative timestamp")

    @staticmethod
    def check_direction(direction: str) -> None:
        """Validate a vertex-query direction.

        Raises :class:`QueryError` unless ``direction`` is ``"out"`` or
        ``"in"``.  Every summary checks its vertex queries here, so an
        unknown direction fails everywhere instead of being answered as
        one of the two.
        """
        if direction not in ("out", "in"):
            raise QueryError(
                f"direction must be 'out' or 'in', got {direction!r}")
