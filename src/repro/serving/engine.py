"""The concurrent serving engine: mixed read/write traffic over one summary.

:class:`ServingEngine` multiplexes many client threads onto a single
:class:`~repro.summary.TemporalGraphSummary` (typically a
:class:`~repro.sharding.ShardedSummary`) through a bounded admission queue
and a single scheduler thread.  The request lifecycle is::

    admission ──► coalesce ──► epoch commit ──► collect/answer
    (bounded       (writes →      (insert_batch      (futures
     queue,         one batch;     across all         resolved,
     block/drop     reads → one    shards, barrier    latencies
     policy)        query_batch)   before reads)      recorded)

**Epoch-based read/write interleaving.**  Each scheduler round drains a
contiguous prefix of the admission queue and splits it into a write set and
a read set.  The writes are coalesced into one ``insert_batch`` — submitted
through the engine's :meth:`~repro.sharding.ShardedSummary.insert_batch_async`
submit-without-collect path when the summary offers one, and resolved as the
epoch barrier — so the entire write epoch is applied on *every* shard before
any read of the round is issued.  Reads therefore always observe a
prefix-consistent state: the summary exactly as it was after some whole
number of committed write epochs, never a torn mid-batch state where one
shard has applied a write its sibling has not (the epoch-consistency stress
test enforces this against the Exact baseline).

**Backpressure.**  The admission queue is bounded
(:attr:`~repro.core.config.ServingConfig.max_pending`); at capacity the
``"block"`` policy parks the submitting client while ``"drop"`` rejects with
:class:`~repro.errors.ServingError`, so an open-loop overload degrades into
explicit rejections instead of unbounded queueing latency.

**Observability.**  The engine instruments itself against a
:class:`~repro.observability.MetricsRegistry` (its own private one by
default, or a caller-provided registry when one dashboard should cover the
engine and its sharded summary together): queue depth and peak, in-flight
requests, the write-epoch cap, per-kind request/drop/failure counters,
epoch/read-round size histograms, and the per-request
admission-to-completion latency summary.  :meth:`ServingEngine.render_prometheus`
exposes everything in Prometheus text format; :meth:`ServingEngine.stats`
keeps its dict report for programmatic callers.

**One write-epoch cap.**  A round coalesces writes up to
:attr:`~repro.core.config.ServingConfig.max_batch_writes` edges; the cap is
fixed for the engine's life.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from ..core import vectorized
from ..core.config import ServingConfig
from ..errors import ServingError
from ..observability import MetricsRegistry, WindowedHistogram
from ..streams.edge import StreamEdge
from ..summary import TemporalGraphSummary
from .requests import (MAINTENANCE, READ, WRITE, MaintenanceRequest,
                       ReadRequest, ServingFuture, WriteRequest)

_Request = Union[WriteRequest, ReadRequest, MaintenanceRequest]


class ServingEngine:
    """Serve concurrent reads and writes over one temporal graph summary.

    Parameters
    ----------
    summary:
        The summary all traffic targets.  Any
        :class:`~repro.summary.TemporalGraphSummary` works; a
        :class:`~repro.sharding.ShardedSummary` additionally gets its write
        epochs submitted through the shard workers' submit-without-collect
        path.  The engine never closes the summary — it stays caller-owned.
    config:
        Queue bound, backpressure policy and coalescing limits
        (:class:`~repro.core.config.ServingConfig`); ``None`` uses defaults.
    registry:
        The :class:`~repro.observability.MetricsRegistry` the engine
        registers its ``serving_*`` metrics in; ``None`` creates a private
        registry (exposed via :attr:`metrics`).  Pass a shared registry to
        scrape the engine and its sharded summary from one endpoint.

    Notes
    -----
    The engine is a context manager; leaving the ``with`` block (or calling
    :meth:`close`) drains every admitted request and stops the scheduler.
    All public methods are thread-safe.

    **Failed epochs.**  When a write epoch fails (e.g. a
    :class:`~repro.errors.ShardingError` from a partial shard failure), the
    round's write futures carry the original error and the round's read
    futures fail with :class:`~repro.errors.ServingError` — the post-failure
    state matches no whole-epoch prefix, so serving those reads would be a
    torn read.  The engine keeps serving afterwards (mirroring
    :class:`~repro.sharding.ShardedSummary`'s partial-failure semantics,
    which keep acknowledged counts consistent), but reads after a partial
    shard failure observe that degraded state; callers needing strict
    consistency should treat a failed write epoch as a signal to rebuild.
    """

    def __init__(self, summary: TemporalGraphSummary,
                 config: Optional[ServingConfig] = None, *,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._summary = summary
        self.config = config or ServingConfig()
        self._pending: Deque[_Request] = deque()  # guarded-by: _state
        self._inflight = 0  # guarded-by: _state
        self._lock = threading.Lock()
        self._state = threading.Condition(self._lock)
        self._closing = False  # guarded-by: _state
        self._epochs = 0
        self._edges_inserted = 0
        self._writes_served = 0
        self._reads_served = 0
        self._dropped = 0
        self._failed = 0
        self._registry = registry if registry is not None else MetricsRegistry()
        self._init_metrics()
        self._scheduler = threading.Thread(target=self._loop,
                                           name="serving-scheduler", daemon=True)
        self._scheduler.start()

    def _init_metrics(self) -> None:
        """Register the engine's ``serving_*`` families in its registry."""
        registry = self._registry
        # Depth and in-flight are computed at collection time so a scrape is
        # always current; len() on a deque and an int read are atomic in
        # CPython, so the callbacks take no lock.
        self._metric_queue_depth = registry.gauge(
            "serving_queue_depth",
            "Admitted requests waiting in the admission queue.")
        self._metric_queue_depth.set_function(
            # repro-lint: ok CONC002 - racy-read gauge; len(deque) is atomic
            lambda: float(len(self._pending)))
        self._metric_queue_peak = registry.gauge(
            "serving_queue_depth_peak",
            "Highest admission-queue depth observed so far.")
        self._metric_queue_peak.set(0.0)
        self._metric_inflight = registry.gauge(
            "serving_inflight",
            "Requests admitted but not yet resolved (queued or being served).")
        self._metric_inflight.set_function(
            # repro-lint: ok CONC002 - racy-read gauge; int read is atomic
            lambda: float(self._inflight))
        registry.gauge(
            "serving_epoch_limit",
            "Write-epoch edge cap (ServingConfig.max_batch_writes).",
        ).set(float(self.config.max_batch_writes))
        self._metric_requests = registry.counter(
            "serving_requests_total",
            "Requests admitted, by request kind.", labelnames=("kind",))
        self._metric_epochs = registry.counter(
            "serving_epochs_total", "Write epochs committed.")
        self._metric_edges = registry.counter(
            "serving_edges_inserted_total",
            "Edges acknowledged by committed write epochs.")
        self._metric_dropped = registry.counter(
            "serving_dropped_total",
            "Requests rejected at admission under the drop policy.")
        self._metric_failed = registry.counter(
            "serving_failed_total",
            "Requests resolved with an error (failed epochs, aborted reads).")
        self._metric_maintenance = registry.counter(
            "serving_maintenance_total", "Maintenance rounds executed.")
        self._metric_epoch_edges = registry.histogram(
            "serving_epoch_edges",
            "Edges coalesced per committed write epoch.", window=4096)
        self._metric_round_reads = registry.histogram(
            "serving_round_reads",
            "Queries coalesced per read round.", window=4096)
        self._metric_latency: WindowedHistogram = registry.histogram(
            "serving_latency_seconds",
            "Admission-to-completion request latency by request kind.",
            labelnames=("kind",), window=self.config.latency_window)

    # ------------------------------------------------------------------ #
    # client-facing API
    # ------------------------------------------------------------------ #

    def submit_write(self, edges: Union[StreamEdge, Iterable]) -> ServingFuture:
        """Admit a write of one stream item (or a batch of items).

        Accepts a single :class:`~repro.streams.edge.StreamEdge`, a
        ``(source, destination, weight, timestamp)`` tuple, or an iterable
        of either.  Returns a future resolving to the number of items
        acknowledged for *this* request once its epoch commits.

        Raises
        ------
        ServingError
            When the engine is closed, when the payload is empty, holds a
            malformed item, a weight that is not a real number or a
            timestamp that is not an integer within ``int64``, or
            immediately under the ``"drop"`` policy when the admission
            queue is full.
        """
        request = WriteRequest(self._normalize_edges(edges))
        self._admit(request)
        return request.future

    def submit_query(self, query: Any) -> ServingFuture:
        """Admit a read: any query object implementing ``evaluate(summary)``.

        The query is checked at admission as the summary checks it: its
        temporal range (when it exposes ``t_start`` / ``t_end``), a vertex
        query's direction, and a path's or subgraph's vertices.  A malformed
        request is rejected synchronously instead of failing every read of
        the round it would have been coalesced into.  Returns a future
        resolving to the estimate.

        Raises
        ------
        QueryError
            On a malformed range, direction, path or edge set.
        ServingError
            When the engine is closed, or immediately under the ``"drop"``
            policy when the admission queue is full.
        """
        t_start = getattr(query, "t_start", None)
        t_end = getattr(query, "t_end", None)
        if t_start is not None and t_end is not None:
            self._summary.check_range(t_start, t_end)
        direction = getattr(query, "direction", None)
        if direction is not None:
            self._summary.check_direction(direction)
        self._summary.composite_pairs(query)
        request = ReadRequest(query)
        self._admit(request)
        return request.future

    def run_maintenance(self, fn: Any) -> ServingFuture:
        """Admit a maintenance operation to run between epochs.

        ``fn(summary)`` executes on the scheduler thread as a round of its
        own: every earlier admitted request has been served (its epoch
        committed, its reads answered) and no later request starts until
        ``fn`` returns.  That exclusivity is what makes in-place summary
        surgery — :meth:`~repro.sharding.ShardedSummary.snapshot`,
        :meth:`~repro.sharding.ShardedSummary.migrate_shard`,
        :meth:`~repro.sharding.ShardedSummary.rebalance` — safe under
        concurrent traffic: clients never observe a torn mid-migration
        state, only the summary before or after the operation.

        Returns a future resolving to ``fn``'s return value; an exception
        raised by ``fn`` fails the future and the engine keeps serving.

        Raises
        ------
        ServingError
            When the engine is closed, or immediately under the ``"drop"``
            policy when the admission queue is full.
        """
        request = MaintenanceRequest(fn)
        self._admit(request)
        return request.future

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has been resolved.

        Returns ``True`` when the engine went idle, ``False`` when
        ``timeout`` seconds elapsed first.
        """
        with self._state:
            return self._state.wait_for(lambda: self._inflight == 0, timeout)

    def close(self) -> None:
        """Drain admitted requests, stop the scheduler, reject new traffic.

        Idempotent.  Requests admitted before the close are still served
        (graceful drain); submissions after it raise
        :class:`~repro.errors.ServingError`.  The underlying summary is left
        open — it belongs to the caller.
        """
        with self._state:
            if self._closing:
                closing_thread = None
            else:
                self._closing = True
                closing_thread = self._scheduler
            self._state.notify_all()
        if closing_thread is not None:
            closing_thread.join()

    def __enter__(self) -> "ServingEngine":
        """Context-manager entry: returns the engine itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: drains and closes the engine."""
        self.close()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """Number of committed write epochs."""
        return self._epochs

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the engine's ``serving_*`` metric families."""
        return self._registry

    def render_prometheus(self) -> str:
        """The engine's metrics in Prometheus text exposition format.

        Renders the whole registry — including any co-registered families,
        such as a shared sharded summary's ``sharding_*`` metrics — so one
        scrape covers the full serving stack.
        """
        return self._registry.render_prometheus()

    def latency_percentiles(self, kind: str) -> Dict[str, float]:
        """p50/p95/p99 (and mean) latency of ``kind`` (``"read"``/``"write"``)."""
        return self._metric_latency.report(kind=kind)

    def stats(self) -> Dict[str, object]:
        """Engine counters plus the per-kind latency report."""
        with self._state:
            pending = len(self._pending)
            inflight = self._inflight
        return {
            "epochs": self._epochs,
            "edges_inserted": self._edges_inserted,
            "writes_served": self._writes_served,
            "reads_served": self._reads_served,
            "dropped": self._dropped,
            "failed": self._failed,
            "pending": pending,
            "inflight": inflight,
            "epoch_limit": self.config.max_batch_writes,
            "latency": self._latency_report(),
        }

    def _latency_report(self) -> Dict[str, Dict[str, float]]:
        """Per-kind p50/p95/p99 and mean over the latency window, plus the
        lifetime sample count, for every kind with a recorded sample."""
        report: Dict[str, Dict[str, float]] = {}
        for kind in (MAINTENANCE, READ, WRITE):
            kind_report = self._metric_latency.report(kind=kind)
            if kind_report:
                kind_report["count"] = float(
                    self._metric_latency.count(kind=kind))
                report[kind] = kind_report
        return report

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    @staticmethod
    def _normalize_edges(edges: Union[StreamEdge, Iterable]) -> List[StreamEdge]:
        """Coerce a write payload into a non-empty list of stream items.

        A 4-tuple is one raw item when its first element is a vertex id,
        not itself an item (a ``StreamEdge``, tuple or list); otherwise it
        is a batch of four items.  Every weight, a raw item's or a
        ``StreamEdge``'s, must be a real number and every timestamp an
        integer within ``int64`` by HIGGS's insert rules
        (:func:`~repro.core.vectorized.real_weights`,
        :func:`~repro.core.vectorized.int64_timestamps`), or the write is
        refused whole; a raw item's weight is stored as a float and its
        timestamp as an int.
        """
        if isinstance(edges, StreamEdge) or (
                isinstance(edges, tuple) and len(edges) == 4
                and not isinstance(edges[0], (StreamEdge, tuple, list))):
            edges = [edges]
        normalized: List[StreamEdge] = []
        raw: List[int] = []
        # The payload is caller-supplied; a malformed item must surface as
        # ServingError, not a bare ValueError/TypeError (ERR002).
        try:
            for item in edges:
                if not isinstance(item, StreamEdge):
                    source, destination, weight, timestamp = item
                    raw.append(len(normalized))
                    item = StreamEdge(source, destination, weight, timestamp)
                normalized.append(item)
        except (TypeError, ValueError) as exc:
            raise ServingError(
                f"malformed stream item in write payload: {exc}") from exc
        if not normalized:
            raise ServingError("a write request needs at least one stream item")
        weights = [edge.weight for edge in normalized]
        values = vectorized.real_weights(weights).tolist()
        if len(values) < len(weights):
            raise ServingError(
                f"weight {weights[len(values)]!r} in write payload is not a "
                "real number")
        timestamps = [edge.timestamp for edge in normalized]
        stamps = vectorized.int64_timestamps(timestamps).tolist()
        if len(stamps) < len(timestamps):
            raise ServingError(
                f"timestamp {timestamps[len(stamps)]!r} in write payload is "
                "not an integer within int64")
        for k in raw:
            edge = normalized[k]
            normalized[k] = StreamEdge(edge.source, edge.destination,
                                       values[k], stamps[k])
        return normalized

    def _admit(self, request: _Request) -> None:
        """Apply the backpressure policy and enqueue one request."""
        with self._state:
            if self._closing:
                raise ServingError("submit on a closed serving engine")
            if len(self._pending) >= self.config.max_pending:
                if self.config.admission == "drop":
                    self._dropped += 1
                    self._metric_dropped.inc()
                    raise ServingError(
                        f"admission queue full ({self.config.max_pending} "
                        f"pending); request dropped")
                self._state.wait_for(
                    lambda: self._closing or
                    len(self._pending) < self.config.max_pending)
                if self._closing:
                    raise ServingError("serving engine closed while blocked "
                                       "on admission")
            # The future was stamped at submission, so reported latency
            # includes any time spent blocked here — a saturated engine
            # must not hide its admission wait from the percentiles.
            self._pending.append(request)
            self._inflight += 1
            self._metric_queue_peak.set_max(float(len(self._pending)))
            self._metric_requests.inc(kind=request.future.kind)
            self._state.notify_all()

    # ------------------------------------------------------------------ #
    # scheduler
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while True:
            round_requests = self._next_round()
            if round_requests is None:
                return
            try:
                self._serve_round(round_requests)
            except BaseException as exc:  # noqa: BLE001 - scheduler backstop
                # An unexpected scheduler error must not kill the thread:
                # that would strand every in-flight and future request.
                # Fail the round's unresolved futures and keep serving.
                unresolved = [r for r in round_requests if not r.future.done]
                if unresolved:
                    self._finish(unresolved, error=ServingError(
                        f"round aborted by a scheduler error: {exc!r}"))

    def _next_round(self) -> Optional[List[_Request]]:
        """Drain one coalescable prefix of the queue (or ``None`` to stop)."""
        with self._state:
            while not self._pending:
                if self._closing:
                    return None
                self._state.wait(self.config.poll_interval_s)
            picked: List[_Request] = []
            write_edges = 0
            reads = 0
            while self._pending:
                request = self._pending[0]
                if isinstance(request, MaintenanceRequest):
                    # Maintenance runs as its own round: close the current
                    # round before it, and never coalesce anything after it.
                    if picked:
                        break
                    picked.append(self._pending.popleft())
                    break
                if isinstance(request, WriteRequest):
                    if picked and write_edges + len(request.edges) > \
                            self.config.max_batch_writes:
                        break
                    write_edges += len(request.edges)
                else:
                    if reads >= self.config.max_batch_reads:
                        break
                    reads += 1
                picked.append(self._pending.popleft())
            self._state.notify_all()
        return picked

    def _serve_round(self, round_requests: List[_Request]) -> None:
        """Commit the round's write epoch, then answer the round's reads.

        A failed epoch aborts the round's reads with
        :class:`~repro.errors.ServingError`: a partial shard failure leaves
        the summary in a state that matches no whole-epoch prefix, and
        serving it would be exactly the torn read the engine promises never
        to produce.
        """
        if len(round_requests) == 1 and \
                isinstance(round_requests[0], MaintenanceRequest):
            self._run_maintenance_round(round_requests[0])
            return
        writes = [r for r in round_requests if isinstance(r, WriteRequest)]
        reads = [r for r in round_requests if isinstance(r, ReadRequest)]
        epoch_error = self._commit_epoch(writes) if writes else None
        if not reads:
            return
        if epoch_error is not None:
            self._finish(reads, error=ServingError(
                f"read round aborted: its write epoch failed "
                f"({epoch_error})"))
            return
        self._answer_reads(reads)

    def _run_maintenance_round(self, request: MaintenanceRequest) -> None:
        """Execute one maintenance callable with the engine to itself.

        Runs on the scheduler thread between epochs — the previous round's
        barrier has passed and no other request is in flight — so the
        callable has exclusive use of the summary.  Its exception (if any)
        fails only its own future; the engine keeps serving.
        """
        try:
            value = request.fn(self._summary)
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            self._finish([request], error=exc)
            return
        self._metric_maintenance.inc()
        self._finish([request], values=[value])

    def _commit_epoch(self, writes: List[WriteRequest]) -> Optional[BaseException]:
        """Apply the round's writes as one batch; return the failure, if any.

        The batch is fully applied (on every shard, for sharded summaries)
        before this method returns without error — that is the epoch
        barrier the round's reads rely on.  Over a sharded summary the
        epoch goes through the submit-without-collect path and resolving
        the returned handle is that barrier, made explicit.
        """
        edges: List[StreamEdge] = []
        for request in writes:
            edges.extend(request.edges)
        try:
            submit_async = getattr(self._summary, "insert_batch_async", None)
            if submit_async is not None:
                pending = submit_async(edges)
                inserted = pending.result() if pending is not None else 0
            else:
                inserted = self._summary.insert_batch(edges)
        except BaseException as exc:  # noqa: BLE001 - delivered via futures
            self._finish(writes, error=exc)
            return exc
        self._epochs += 1
        self._edges_inserted += inserted
        self._writes_served += len(writes)
        self._metric_epochs.inc()
        self._metric_edges.inc(inserted)
        self._metric_epoch_edges.observe(float(len(edges)))
        self._finish(writes, values=[len(r.edges) for r in writes])
        return None

    def _answer_reads(self, reads: List[ReadRequest]) -> None:
        """Answer the round's reads in one coalesced ``query_batch``."""
        try:
            answers = self._summary.query_batch([r.query for r in reads])
            if len(answers) != len(reads):
                raise ServingError(
                    f"summary.query_batch returned {len(answers)} answers "
                    f"for {len(reads)} queries")
        except BaseException as exc:  # noqa: BLE001 - delivered via futures
            self._finish(reads, error=exc)
            return
        self._reads_served += len(reads)
        self._metric_round_reads.observe(float(len(reads)))
        self._finish(reads, values=answers)

    def _finish(self, requests: List[_Request], *,
                values: Optional[List[Any]] = None,
                error: Optional[BaseException] = None) -> None:
        """Resolve a round's futures, record latencies, release admission."""
        for index, request in enumerate(requests):
            if error is not None:
                request.future._resolve(error=error)
            else:
                request.future._resolve(values[index])
            latency = request.future.latency_s
            if latency is not None:
                self._metric_latency.observe(latency,
                                             kind=request.future.kind)
        if error is not None:
            self._failed += len(requests)
            self._metric_failed.inc(len(requests))
        with self._state:
            self._inflight -= len(requests)
            self._state.notify_all()
