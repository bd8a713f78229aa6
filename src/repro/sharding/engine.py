"""The sharded summary engine: scatter-gather over independent summaries.

:class:`ShardedSummary` hash-partitions an edge stream across ``N``
independent inner summaries (HIGGS by default, any
:class:`~repro.summary.TemporalGraphSummary` via a factory) and presents the
union as one summary implementing the same interface:

* **Ingestion** routes every item to the shard owning its partition key;
  batches are split once and driven through each shard's native
  ``insert_batch`` fast path, concurrently when the executor allows it.
* **Queries** route to a single shard when the partition key pins the answer
  there (edge queries always; outgoing vertex queries under source
  partitioning) and scatter-gather otherwise: each involved shard answers
  over its slice and the engine sums the per-shard estimates.  Summing is
  exact because the shards partition the stream — every stream item is
  counted by exactly one shard.
* **Accounting** (``memory_bytes``, per-shard item counts) aggregates over
  shards.

With ``num_shards == 1`` the engine is a pass-through wrapper: every item
and every query reaches the single inner summary in the original order, so
results are bit-identical to using the inner summary directly (tests enforce
this).

**Elasticity.**  The engine is not welded to its initial worker layout:
:meth:`ShardedSummary.snapshot` persists every shard plus a checksummed
manifest to disk and :meth:`ShardedSummary.restore` rebuilds a bit-identical
engine from it; :meth:`ShardedSummary.migrate_shard` and
:meth:`ShardedSummary.rebalance` move live shard state across workers (and
hot keys across shards) behind the same quiesce/drain barrier the serving
layer uses; and a dead process worker is rebuilt from the last snapshot by
:meth:`ShardedSummary.recover_dead_shards`, losing at most the edges that
shard acknowledged *after* the snapshot (see ARCHITECTURE.md, "Elastic
sharding & recovery").
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.config import (SHARD_EXECUTORS, HiggsConfig, ShardingConfig,
                           SnapshotConfig)
from ..core.executor import (LOAD_OP, SERIALIZE_OP, ShardResult, ShardWorker,
                             make_shard_worker)
from ..core.higgs import Higgs
from ..errors import QueryError, ShardingError, SnapshotError
from ..observability import MetricsRegistry
from ..queries.types import SubgraphQuery
from ..streams.edge import GraphStream, StreamEdge, Vertex
from ..summary import TemporalGraphSummary
from . import snapshot as snapshot_format
from .partition import ShardPartitioner

#: Partition rounds :meth:`ShardedSummary.insert_stream` keeps submitted
#: before it collects the oldest.  Two keep each shard's next sub-batch
#: queued while the parent prepares the one after, and bound what a failure
#: leaves applied to one round past the failing one.  In a probe on a
#: 2-vCPU host (2-shard process engine, 180k edges, median of 4 runs), one
#: round ran at 98k edges/s, two at 132k, three at 141k and four at 148k.
ROUNDS_IN_FLIGHT = 2


class HiggsShardFactory:
    """Picklable factory building one HIGGS summary per shard.

    Process-mode shard workers rebuild their summary inside the child
    process, so the factory must survive pickling — lambdas and closures do
    not.  This class does: it carries only the (frozen, picklable)
    :class:`~repro.core.config.HiggsConfig`.

    Parameters
    ----------
    config:
        Configuration applied to every shard's summary; ``None`` uses the
        paper's default configuration.
    """

    def __init__(self, config: Optional[HiggsConfig] = None) -> None:
        self.config = config

    def __call__(self) -> Higgs:
        """Build one fresh :class:`~repro.core.higgs.Higgs` summary."""
        return Higgs(self.config)


@dataclass(frozen=True)
class RebalancePlan:
    """Declarative description of one rebalancing step.

    Attributes
    ----------
    reassign:
        Vertex → target-shard overrides installed in the partitioner so the
        vertices' *future* edges land on the target shard (``"source"``
        partitioning only; already-inserted edges stay put and reads union
        the owner history — see
        :meth:`~repro.sharding.partition.ShardPartitioner.reassign`).
    migrate:
        Shard index → executor mode: each named shard's live summary is
        serialized and moved onto a fresh worker of that mode (e.g. promote
        a hot shard from ``"serial"`` to ``"process"``).

    Both mappings may be empty; :meth:`ShardedSummary.rebalance` validates
    every entry before touching any state.
    """

    reassign: Mapping[Vertex, int] = field(default_factory=dict)
    migrate: Mapping[int, str] = field(default_factory=dict)


class PendingBatch:
    """Handle to an :meth:`ShardedSummary.insert_batch_async` in flight.

    Holds the shard order of the submitted sub-batches; :meth:`result`
    gathers the per-shard acknowledgements with exactly the semantics of the
    synchronous :meth:`~ShardedSummary.insert_batch` (all shards finish,
    counts recorded, :class:`~repro.errors.ShardingError` on any failure).

    The handle must be resolved exactly once, and no other engine operation
    may run between submission and resolution — the submit/collect protocol
    pairs results by order, so an interleaved call would collect this
    batch's results.  The engine enforces this: every other operation
    (including :meth:`~ShardedSummary.quiesce`) raises
    :class:`~repro.errors.ShardingError` while a handle is unresolved.  The
    serving engine is the intended caller: it submits each write epoch
    through this path and resolves the handle as the explicit epoch barrier
    before issuing the round's reads; callers with epoch-local bookkeeping
    can do it between submission and the barrier.
    """

    def __init__(self, engine: "ShardedSummary", shard_order: List[int]) -> None:
        self._engine = engine
        self._shard_order = shard_order
        self._resolved = False

    def result(self) -> int:
        """Gather every shard's acknowledgement; return the inserted count.

        Raises
        ------
        ShardingError
            When any shard's sub-batch failed (after all shards finished and
            successful counts were recorded), or when the handle was already
            resolved.
        """
        if self._resolved:
            raise ShardingError("insert_batch_async handle already resolved")
        self._resolved = True
        self._engine._pending_async = None
        return self._engine._finish_insert_batch(
            self._engine._collect_round(self._shard_order))


class ShardedSummary(TemporalGraphSummary):
    """A :class:`~repro.summary.TemporalGraphSummary` sharded across workers.

    Parameters
    ----------
    factory:
        Zero-argument callable building one inner summary per shard.
        Defaults to :class:`HiggsShardFactory` with the paper's default
        configuration.  Must be picklable when ``executor="process"``.
    shards:
        Number of shards; overrides ``config.num_shards`` when given.
    config:
        Full engine configuration (:class:`~repro.core.config.ShardingConfig`);
        individual keyword arguments below override its fields.
    partition_by:
        ``"source"`` (default) or ``"edge"`` — see
        :class:`~repro.sharding.partition.ShardPartitioner`.
    executor:
        ``"serial"`` or ``"process"`` — see
        :class:`~repro.core.config.ShardingConfig`.
    batch_size:
        Per-shard batch size used by :meth:`insert_stream`.
    snapshot:
        Snapshot / crash-recovery policy
        (:class:`~repro.core.config.SnapshotConfig`); ``None`` uses the
        defaults (no configured directory, auto-recovery of dead workers
        enabled, checksums verified on restore).
    registry:
        The :class:`~repro.observability.MetricsRegistry` the engine
        registers its ``sharding_*`` metrics in; ``None`` creates a private
        registry (exposed via :attr:`metrics`).  Pass the serving engine's
        registry to scrape both layers from one endpoint.

    Raises
    ------
    ConfigurationError
        On invalid configuration values.
    ShardingError
        When a shard worker cannot be started (e.g. the factory fails inside
        a worker process).

    Notes
    -----
    **Error semantics.**  Operations that touch a single shard (``insert``,
    ``delete``, routed queries) re-raise the shard's exception unchanged —
    the engine is transparent.  Operations that scatter across shards
    (``insert_batch``, broadcast queries, ``memory_bytes``) let every shard
    finish first, then raise :class:`~repro.errors.ShardingError` naming the
    failed shards, with the first underlying exception as ``__cause__``.
    After a partial ``insert_batch`` failure the engine remains usable and
    :meth:`items_ingested` still equals the sum of the per-shard
    acknowledged counts (tests enforce this).  :meth:`insert_stream` keeps
    the same guarantees with two partition rounds in flight; see its
    docstring for the one round past a failure that is still applied.
    """

    name = "Sharded"

    def __init__(self, factory: Optional[Callable[[], TemporalGraphSummary]] = None,
                 *, shards: Optional[int] = None,
                 config: Optional[ShardingConfig] = None,
                 partition_by: Optional[str] = None,
                 executor: Optional[str] = None,
                 batch_size: Optional[int] = None,
                 snapshot: Optional[SnapshotConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        base = config or ShardingConfig()
        self.config = ShardingConfig(
            num_shards=shards if shards is not None else base.num_shards,
            partition_by=partition_by if partition_by is not None else base.partition_by,
            executor=executor if executor is not None else base.executor,
            batch_size=batch_size if batch_size is not None else base.batch_size,
            hash_seed=base.hash_seed)
        self.executor_mode = self.config.executor
        self.factory = factory if factory is not None else HiggsShardFactory()
        self._partitioner = ShardPartitioner(self.config.num_shards,
                                             partition_by=self.config.partition_by,
                                             seed=self.config.hash_seed)
        self._workers: List[ShardWorker] = []
        try:
            for index in range(self.config.num_shards):
                self._workers.append(make_shard_worker(
                    self.executor_mode, self.factory, name=f"shard-{index}"))
        except BaseException:
            self.close()
            raise
        self._shard_items = [0] * self.config.num_shards
        self._pending_async: Optional["PendingBatch"] = None
        #: Shard orders of the insert_stream rounds submitted and not yet
        #: collected, oldest first (empty outside insert_stream).
        self._rounds_in_flight: Deque[List[int]] = deque()
        self._closed = False
        self._snapshot_config = snapshot if snapshot is not None else SnapshotConfig()
        #: Per-shard acknowledged counts as of the last snapshot (None until
        #: one is taken); recovery's loss bound is measured against these.
        self._snapshot_items: Optional[List[int]] = None
        #: Directory of the last snapshot taken or loaded by this engine;
        #: crash recovery restores dead shards from here.
        self._last_snapshot_path: Optional[str] = None
        self._registry = registry if registry is not None else MetricsRegistry()
        self._init_metrics()
        self.name = f"Sharded[{self.config.num_shards}]"

    def _init_metrics(self) -> None:
        """Register the engine's ``sharding_*`` families in its registry.

        The per-shard item gauge is computed at collection time from the
        engine's acknowledged counts (a plain list read — no worker round
        trip), so scraping never touches the submit/collect protocol.  The
        busy-seconds and call-count gauges *do* need a worker round trip and
        are therefore only refreshed by explicit :meth:`shard_stats` calls —
        never from a render-time callback, which could run concurrently with
        scheduler traffic and mispair the workers' FIFO submit/collect
        ordering.
        """
        registry = self._registry
        self._metric_items = registry.gauge(
            "sharding_shard_items",
            "Items acknowledged per shard.", labelnames=("shard",))
        for index in range(self.config.num_shards):
            self._metric_items.set_function(
                lambda i=index: float(self._shard_items[i]),
                shard=str(index))
        self._metric_busy = registry.gauge(
            "sharding_shard_busy_seconds",
            "Cumulative seconds each shard worker spent executing calls "
            "(as of the last shard_stats sweep).",
            labelnames=("shard",))
        self._metric_calls = registry.gauge(
            "sharding_shard_calls",
            "Cumulative calls each shard worker executed (as of the last "
            "shard_stats sweep).", labelnames=("shard",))
        self._metric_packed = registry.gauge(
            "sharding_transport_packed_batches",
            "Edge batches sent to process workers in packed form "
            "(parent-side counter; zero for the serial executor).")
        self._metric_packed.set_function(
            lambda: float(self.transport_stats()["packed_batches"]))
        self._metric_packed_bytes = registry.gauge(
            "sharding_transport_packed_bytes",
            "Packed edge-record bytes sent to process workers "
            "(parent-side counter).")
        self._metric_packed_bytes.set_function(
            lambda: float(self.transport_stats()["packed_bytes"]))
        self._metric_migrations = registry.counter(
            "sharding_migrations_total", "Completed live shard migrations.")
        self._metric_recoveries = registry.counter(
            "sharding_recoveries_total", "Dead shard workers rebuilt.")
        self._metric_snapshots = registry.counter(
            "sharding_snapshots_total", "Snapshots taken by this engine.")

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the engine's ``sharding_*`` metric families."""
        return self._registry

    # ------------------------------------------------------------------ #
    # scatter-gather plumbing
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        """Number of shards the stream is partitioned across."""
        return self.config.num_shards

    @property
    def partitioner(self) -> ShardPartitioner:
        """The partitioner assigning stream items to shards."""
        return self._partitioner

    def _assert_no_pending_async(self) -> None:
        """Refuse to interleave with uncollected insert rounds.

        The submit/collect protocol pairs results by order; running any
        other shard operation before the outstanding
        :class:`PendingBatch` is resolved — or, from inside the stream an
        :meth:`insert_stream` is reading, while its rounds are in flight —
        would collect *their* results, so the engine fails loudly instead
        of silently mispairing.
        """
        if self._pending_async is not None:
            raise ShardingError(
                "operation attempted while an insert_batch_async is "
                "unresolved; resolve the PendingBatch first")
        if self._rounds_in_flight:
            raise ShardingError(
                "operation attempted while insert_stream has partition "
                "rounds in flight")

    def _scatter(self, calls: Dict[int, Tuple[str, Tuple]]) -> Dict[int, ShardResult]:
        """Submit one call per involved shard, then gather every result.

        Shards are visited in index order both when submitting and when
        collecting, so gather-side floating-point accumulation is
        deterministic.  All results are collected even when some fail;
        callers decide how to surface failures.
        """
        self._assert_no_pending_async()
        order = sorted(calls)
        for shard in order:
            method, args = calls[shard]
            self._workers[shard].submit(method, args)
        return {shard: self._workers[shard].collect() for shard in order}

    def _call_shard(self, shard: int, method: str, *args) -> ShardResult:
        """Route one call to one shard and return its result."""
        self._assert_no_pending_async()
        return self._workers[shard].call(method, *args)

    def _reraise(self, result: ShardResult):
        """Re-raise a single-shard failure transparently.

        If the failure was a worker death and auto-recovery is enabled, the
        dead shard is rebuilt first (the failed call is *not* retried).
        """
        self._maybe_auto_recover()
        raise result.error

    def _raise_scatter_failure(self, operation: str,
                               results: Dict[int, ShardResult]) -> None:
        """Raise :class:`ShardingError` if any scattered call failed.

        If any worker died and auto-recovery is enabled, dead shards are
        rebuilt before the error propagates (never retried silently).
        """
        failed = [shard for shard, result in results.items() if not result.ok]
        if not failed:
            return
        self._maybe_auto_recover()
        first = results[failed[0]].error
        raise ShardingError(
            f"{operation} failed on shard(s) {failed}: {first}") from first

    def _maybe_auto_recover(self) -> None:
        """Rebuild dead shard workers on the failure path, best-effort.

        Runs only when :class:`~repro.core.config.SnapshotConfig.auto_recover`
        is set and at least one worker is actually dead.  Recovery failures
        must not mask the original operation's error — the caller is about
        to raise it — so they are swallowed here; the next explicit
        :meth:`recover_dead_shards` call will surface them.
        """
        if self._closed or not self._snapshot_config.auto_recover:
            return
        if all(worker.alive() for worker in self._workers):
            return
        # Best-effort: the caller raises the original error right after.
        # repro-lint: ok EXC001 - recovery must not mask the original failure
        with contextlib.suppress(Exception):
            self.recover_dead_shards()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Insert one stream item into the shard owning its partition key.

        Raises whatever the owning shard's ``insert`` raises, unchanged.
        """
        shard = self._partitioner.shard_of_edge(source, destination)
        result = self._call_shard(shard, "insert", source, destination,
                                  weight, timestamp)
        if not result.ok:
            self._reraise(result)
        self._shard_items[shard] += 1

    def insert_batch(self, edges) -> int:
        """Partition a batch once and drive every shard's native batch path.

        The batch is split by partition key (preserving arrival order within
        each shard), the per-shard sub-batches are dispatched concurrently
        (executor permitting), and the acknowledged counts are summed.

        Returns the number of items acknowledged by shards.  If any shard
        fails, the remaining shards still finish, their counts are recorded,
        and a :class:`~repro.errors.ShardingError` naming the failed shards
        is raised (items of failed sub-batches are not counted).
        """
        self._assert_no_pending_async()
        order = self._submit_round(edges)
        if not order:
            return 0
        return self._finish_insert_batch(self._collect_round(order))

    def _submit_round(self, edges) -> List[int]:
        """Split ``edges`` by partition key and submit each shard's part.

        Returns the shards that received a sub-batch, in index order — the
        order :meth:`_collect_round` gathers them in.
        """
        parts = self._partitioner.split(edges)
        order = [shard for shard, part in enumerate(parts) if part]
        for shard in order:
            self._workers[shard].submit("insert_batch", (parts[shard],))
        return order

    def _collect_round(self, order: List[int]) -> Dict[int, ShardResult]:
        """Collect one submitted round's results, in shard order."""
        return {shard: self._workers[shard].collect() for shard in order}

    def _acknowledge(self, results: Dict[int, ShardResult]) -> int:
        """Record a round's successful per-shard counts; return their sum."""
        inserted = 0
        for shard, result in results.items():
            if result.ok:
                self._shard_items[shard] += result.value
                inserted += result.value
        return inserted

    def _finish_insert_batch(self, results: Dict[int, ShardResult]) -> int:
        """Record per-shard acknowledgements and surface scatter failures."""
        inserted = self._acknowledge(results)
        self._raise_scatter_failure("insert_batch", results)
        return inserted

    def insert_batch_async(self, edges) -> Optional[PendingBatch]:
        """Submit a batch to the shards without collecting the results.

        The submit-without-collect half of :meth:`insert_batch`: the batch
        is partitioned and each shard's sub-batch is dispatched, but the
        caller keeps control while shards execute (process executor)
        and resolves the returned :class:`PendingBatch` when it needs the
        barrier.  Returns ``None`` for an empty batch (nothing submitted,
        nothing to resolve).

        No other operation may run on this engine until the handle is
        resolved (the engine raises :class:`~repro.errors.ShardingError`
        otherwise) — see :class:`PendingBatch`.
        """
        self._assert_no_pending_async()
        order = self._submit_round(edges)
        if not order:
            return None
        pending = PendingBatch(self, order)
        self._pending_async = pending
        return pending

    def insert_stream(self, stream, *, batch_size: Optional[int] = None) -> int:
        """Replay a stream through the engine in partition rounds.

        Reads ``num_shards * batch_size`` items per round so that, after
        partitioning, every shard still receives full ``batch_size`` batches
        — per-shard batch sizes (and therefore per-shard memo amortization)
        stay comparable across shard counts.  Returns the number of items
        acknowledged by shards.

        Up to :data:`ROUNDS_IN_FLIGHT` rounds are in flight: round ``k + 1``
        is submitted before round ``k`` is collected, so each shard has its
        next sub-batch queued while this process reads, splits and packs
        the one after.  Every round is collected before the call returns or
        raises.  When a round fails, no further item is read; the round
        already submitted after it is still applied and counted, so at most
        one round past the failing one reaches the shards.  Then, as for
        :meth:`insert_batch`, the acknowledged counts are exact, dead
        shards are auto-recovered (policy permitting) and a
        :class:`~repro.errors.ShardingError` naming the failed shards of the
        first failing round is raised.  A stream that raises has its
        submitted rounds collected before its own exception propagates; its
        last, partial round is not submitted.
        """
        self._assert_no_pending_async()
        per_shard = self.config.batch_size if batch_size is None else max(1, batch_size)
        round_size = per_shard * self.config.num_shards
        in_flight = self._rounds_in_flight
        failure: Optional[Dict[int, ShardResult]] = None
        count = 0
        try:
            chunk: List[StreamEdge] = []
            for edge in stream:
                chunk.append(edge)
                if len(chunk) < round_size:
                    continue
                in_flight.append(self._submit_round(chunk))
                chunk = []
                if len(in_flight) == ROUNDS_IN_FLIGHT:
                    results = self._collect_round(in_flight.popleft())
                    count += self._acknowledge(results)
                    if not all(result.ok for result in results.values()):
                        failure = results
                        break
            else:
                if chunk:
                    in_flight.append(self._submit_round(chunk))
        finally:
            while in_flight:
                results = self._collect_round(in_flight.popleft())
                count += self._acknowledge(results)
                if failure is None and \
                        not all(result.ok for result in results.values()):
                    failure = results
        if failure is not None:
            self._raise_scatter_failure("insert_stream", failure)
        return count

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Delete from the shard owning the edge's partition key.

        Raises whatever the owning shard's ``delete`` raises, unchanged.
        """
        shard = self._partitioner.shard_of_edge(source, destination)
        result = self._call_shard(shard, "delete", source, destination,
                                  weight, timestamp)
        if not result.ok:
            self._reraise(result)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _vertex_routes_to_one_shard(self, direction: str) -> bool:
        """Whether a vertex query in ``direction`` is answerable by a single
        shard: only outgoing queries under source partitioning are."""
        return self.config.partition_by == "source" and direction == "out"

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        """Estimated aggregated weight of ``source → destination`` in range.

        Routes to the single shard owning the edge (every copy of an edge
        lands on one shard, so no merge is needed).  After a rebalancing
        reassignment of the source vertex, the edge's occurrences may be
        split across its owner history; the query then scatters to every
        historical owner and sums the (disjoint) per-shard estimates, which
        is exact.  Raises :class:`~repro.errors.QueryError` on a malformed
        range.
        """
        self.check_range(t_start, t_end)
        owners = self._partitioner.owners_of_edge(source, destination)
        if len(owners) == 1:
            result = self._call_shard(owners[0], "edge_query", source,
                                      destination, t_start, t_end)
            if not result.ok:
                self._reraise(result)
            return result.value
        calls = {shard: ("edge_query", (source, destination, t_start, t_end))
                 for shard in owners}
        results = self._scatter(calls)
        self._raise_scatter_failure("edge_query", results)
        return sum(results[shard].value for shard in sorted(results))

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        """Estimated aggregated weight of a vertex's incident edges in range.

        Under source partitioning, outgoing queries route to the vertex's
        shard — or, for a vertex moved by rebalancing, scatter to its owner
        history and sum (each edge occurrence lives in exactly one owner,
        so the sum is exact).  Incoming queries (and all queries under edge
        partitioning) scatter to every shard and the per-shard estimates
        are summed.  Raises :class:`~repro.errors.QueryError` on a
        malformed range or an unknown ``direction``.
        """
        self.check_range(t_start, t_end)
        self.check_direction(direction)
        if self._vertex_routes_to_one_shard(direction):
            owners = self._partitioner.owners_of_vertex(vertex)
            if len(owners) == 1:
                result = self._call_shard(owners[0], "vertex_query", vertex,
                                          t_start, t_end, direction)
                if not result.ok:
                    self._reraise(result)
                return result.value
            calls = {shard: ("vertex_query", (vertex, t_start, t_end, direction))
                     for shard in owners}
            results = self._scatter(calls)
            self._raise_scatter_failure("vertex_query", results)
            return sum(results[shard].value for shard in sorted(results))
        calls = {shard: ("vertex_query", (vertex, t_start, t_end, direction))
                 for shard in range(self.num_shards)}
        results = self._scatter(calls)
        self._raise_scatter_failure("vertex_query", results)
        return sum(results[shard].value for shard in sorted(results))

    def subgraph_query(self, edges: Sequence[Tuple[Vertex, Vertex]],
                       t_start: int, t_end: int) -> float:
        """Aggregated weight of a set of edges (sum of per-edge queries).

        Each involved shard answers a single ``subgraph_query`` over the
        edges it owns; the per-shard sums are added in shard order.
        :meth:`path_query` sums a path's hops here.  Raises
        :class:`~repro.errors.QueryError` on an empty edge set or a
        malformed range.
        """
        if not edges:
            raise QueryError("a subgraph query needs at least one edge")
        self.check_range(t_start, t_end)
        grouped = self._partitioner.group_pairs(edges)
        calls = {shard: ("subgraph_query", (pairs, t_start, t_end))
                 for shard, pairs in grouped.items()}
        results = self._scatter(calls)
        self._raise_scatter_failure("subgraph_query", results)
        return sum(results[shard].value for shard in sorted(results))

    def query_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of query objects with one call per involved shard.

        Edge queries and routable vertex queries go to their owning shard's
        sub-batch (preserving their relative order within the shard);
        scattered vertex queries join every shard's sub-batch.  A path or
        subgraph query is checked up front, split by owning shard as
        :meth:`subgraph_query` splits it, and sent in the same sub-batches
        as a :class:`~repro.queries.types.SubgraphQuery` over each shard's
        pairs.  Each shard's estimates are then added into their queries'
        results in shard order, as the per-item methods add them, so
        results come back in the callers' order and match the per-item
        methods exactly.  Any other query object is evaluated on its own.
        """
        results: List[float] = [0.0] * len(queries)
        per_shard: Dict[int, List[Tuple[int, object]]] = {}
        others: List[Tuple[int, object]] = []
        for index, query in enumerate(queries):
            if hasattr(query, "destination"):  # edge query
                self.check_range(query.t_start, query.t_end)
                # A reassigned source splits the edge's occurrences across
                # its owner history; querying every owner and accumulating
                # into results[index] re-unifies the estimate exactly.
                for shard in self._partitioner.owners_of_edge(
                        query.source, query.destination):
                    per_shard.setdefault(shard, []).append((index, query))
            elif hasattr(query, "vertex"):  # vertex query
                self.check_range(query.t_start, query.t_end)
                self.check_direction(query.direction)
                if self._vertex_routes_to_one_shard(query.direction):
                    for shard in self._partitioner.owners_of_vertex(
                            query.vertex):
                        per_shard.setdefault(shard, []).append((index, query))
                else:
                    for shard in range(self.num_shards):
                        per_shard.setdefault(shard, []).append((index, query))
            else:
                pairs = self.composite_pairs(query)
                if pairs is None:
                    others.append((index, query))
                    continue
                for shard, group in self._partitioner.group_pairs(pairs).items():
                    part = SubgraphQuery(tuple(group), query.t_start,
                                         query.t_end)
                    per_shard.setdefault(shard, []).append((index, part))
        calls = {shard: ("query_batch", ([query for _, query in items],))
                 for shard, items in per_shard.items()}
        gathered = self._scatter(calls)
        self._raise_scatter_failure("query_batch", gathered)
        for shard in sorted(per_shard):
            estimates = gathered[shard].value
            for (index, _), estimate in zip(per_shard[shard], estimates,
                                            strict=True):
                results[index] += estimate
        for index, query in others:
            results[index] = query.evaluate(self)
        return results

    # ------------------------------------------------------------------ #
    # accounting and introspection
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Total analytic memory footprint: the sum over all shards."""
        calls = {shard: ("memory_bytes", ()) for shard in range(self.num_shards)}
        results = self._scatter(calls)
        self._raise_scatter_failure("memory_bytes", results)
        return sum(results[shard].value for shard in results)

    @property
    def items_ingested(self) -> int:
        """Total number of items acknowledged by shards.

        After a partial :meth:`insert_batch` failure this equals the sum of
        the successful shards' acknowledged counts — the engine never counts
        items whose insertion outcome is unknown.
        """
        return sum(self._shard_items)

    def shard_items(self) -> Tuple[int, ...]:
        """Per-shard acknowledged item counts (index = shard index)."""
        return tuple(self._shard_items)

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard load counters: ``busy_seconds`` and ``calls`` each.

        Both are measured inside each worker around every call it executes;
        the benchmark harness derives load imbalance and projected parallel
        ingest time from ``busy_seconds``.  One reserved-op round trip per
        worker (see :data:`~repro.core.executor.STATS_OP`); a dead worker
        contributes zeros.  Each sweep refreshes the
        ``sharding_shard_busy_seconds`` and ``sharding_shard_calls`` gauges,
        so callers that scrape metrics periodically get fresh per-shard load
        by calling this first.
        """
        stats = [worker.stats() for worker in self._workers]
        for index, entry in enumerate(stats):
            try:
                busy = float(entry["busy_seconds"])
                calls = float(entry["calls"])
            except (TypeError, ValueError) as exc:
                # Stats cross a pipe from worker processes; malformed data
                # is a shard fault, not a caller error (ERR002).
                raise ShardingError(
                    f"shard {index} returned malformed stats "
                    f"{entry!r}") from exc
            self._metric_busy.set(busy, shard=str(index))
            self._metric_calls.set(calls, shard=str(index))
        return stats

    def transport_stats(self) -> Dict[str, int]:
        """Aggregate packed-batch transport counters across all workers.

        Summed over each worker's parent-side
        :meth:`~repro.core.executor.ShardWorker.transport_stats` — a plain
        local read, never a worker round trip, so it is safe from
        collection-time metric callbacks.  All zeros for the serial
        executor, which never packs batches.
        """
        totals = {"packed_batches": 0, "packed_bytes": 0,
                  "fallback_batches": 0}
        for index, worker in enumerate(self._workers):
            for key, value in worker.transport_stats().items():
                try:
                    totals[key] = totals.get(key, 0) + int(value)
                except (TypeError, ValueError) as exc:
                    # Counters come from worker wrappers tests may replace;
                    # malformed data is a shard fault, not a caller error
                    # (ERR002).
                    raise ShardingError(
                        f"shard {index} returned malformed transport "
                        f"stats {key}={value!r}") from exc
        return totals

    def shard_summaries(self) -> List[TemporalGraphSummary]:
        """The inner summaries, for inspection by tests and analyses.

        Raises
        ------
        ShardingError
            When any shard runs on a ``"process"`` worker, whose summary
            lives in the worker process and cannot be returned by reference.
        """
        if any(worker.target is None for worker in self._workers):
            raise ShardingError(
                "shard summaries live in worker processes; use the 'serial' "
                "executor for direct access")
        return [worker.target for worker in self._workers]

    def stats(self) -> Dict[str, object]:
        """Engine-level statistics (shard count, executor, items, memory)."""
        return {
            "num_shards": self.num_shards,
            "partition_by": self.config.partition_by,
            "executor": self.executor_mode,
            "items_ingested": self.items_ingested,
            "shard_items": list(self._shard_items),
            "memory_bytes": self.memory_bytes(),
            "transport": self.transport_stats(),
        }

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot_items(self) -> Optional[Tuple[int, ...]]:
        """Per-shard acknowledged counts as of the last snapshot.

        ``None`` until a snapshot has been taken or loaded.  The difference
        between :meth:`shard_items` and these counts is each shard's
        exposure to loss on crash — exactly the edges acknowledged since
        the snapshot (see :meth:`recover_dead_shards`).
        """
        return None if self._snapshot_items is None else tuple(self._snapshot_items)

    def snapshot(self, path: Optional[str] = None) -> str:
        """Persist every shard plus a checksummed manifest to ``path``.

        Quiesces all workers (so the snapshot sits on an epoch boundary),
        serializes each shard's summary *inside its worker* via the reserved
        serialize op, and writes the payloads, the partitioner state, the
        (picklable) factory, and — last, atomically — the manifest.  See
        :mod:`repro.sharding.snapshot` for the on-disk format.  Returns the
        snapshot directory, which also becomes the source for subsequent
        crash recovery.

        Raises
        ------
        SnapshotError
            When no destination is available (``path`` is ``None`` and the
            engine's :class:`~repro.core.config.SnapshotConfig` has no
            ``directory``), or when writing fails.
        ShardingError
            When an async batch is unresolved or a shard cannot be
            quiesced/serialized.
        """
        self._assert_no_pending_async()
        if path is None:
            path = self._snapshot_config.directory
        if path is None:
            raise SnapshotError(
                "no snapshot destination: pass snapshot(path) or configure "
                "SnapshotConfig.directory")
        path = str(path)
        self.quiesce()
        calls: Dict[int, Tuple[str, Tuple]] = {
            shard: (SERIALIZE_OP, ()) for shard in range(self.num_shards)}
        results = self._scatter(calls)
        self._raise_scatter_failure("snapshot", results)
        snapshot_format.write_snapshot(
            path, config=self.config,
            partitioner_state=self._partitioner.export_state(),
            payloads=[results[shard].value for shard in range(self.num_shards)],
            shard_items=list(self._shard_items),
            factory=self.factory)
        self._snapshot_items = list(self._shard_items)
        self._last_snapshot_path = path
        self._metric_snapshots.inc()
        return path

    @classmethod
    def restore(cls, path: str, *,
                factory: Optional[Callable[[], TemporalGraphSummary]] = None,
                executor: Optional[str] = None,
                snapshot: Optional[SnapshotConfig] = None) -> "ShardedSummary":
        """Reconstruct a bit-identical engine from a snapshot directory.

        Reads and verifies the manifest, rebuilds the engine with the
        snapshot's configuration (``executor`` may be overridden — state is
        executor-agnostic), restores the partitioner's reassignment state,
        and loads every shard's pickled summary into its worker.  Every
        query the restored engine answers is bit-identical to the original
        at snapshot time (property-tested), and further inserts behave
        exactly as they would have on the original.

        Parameters
        ----------
        path:
            Snapshot directory written by :meth:`snapshot`.
        factory:
            Shard factory override; required when the snapshot does not
            embed one (the writer's factory was unpicklable).
        executor:
            Executor-mode override; defaults to the snapshot's mode.
        snapshot:
            Snapshot / recovery policy of the restored engine.

        Raises
        ------
        SnapshotError
            On a missing, torn, or corrupt snapshot (the message names the
            offending file or shard), when no factory is available, or when
            the recorded executor is not a current mode and no ``executor``
            override is given.
        """
        policy = snapshot if snapshot is not None else SnapshotConfig()
        body = snapshot_format.read_manifest(path)
        recorded = body.get("executor")
        if executor is None and recorded not in SHARD_EXECUTORS:
            raise SnapshotError(
                f"snapshot at {path!r} records executor {recorded!r}, "
                f"which is not one of {SHARD_EXECUTORS}; pass executor=")
        if factory is None:
            factory = snapshot_format.read_factory(path, body)
        if factory is None:
            raise SnapshotError(
                f"snapshot at {path!r} does not embed its shard factory "
                f"(it was not picklable when written); pass factory=")
        # read_manifest validated the other fields (SnapshotError on a
        # malformed manifest), so no further coercion here.
        config = ShardingConfig(
            num_shards=body["num_shards"],
            partition_by=body["partition_by"],
            executor=executor if executor is not None else recorded,
            batch_size=body["batch_size"],
            hash_seed=body["hash_seed"])
        engine = cls(factory, config=config, snapshot=policy)
        try:
            engine._load_snapshot_payloads(str(path), body)
        except BaseException:
            engine.close()
            raise
        return engine

    def _load_snapshot_payloads(self, path: str, body: Dict[str, Any]) -> None:
        """Load partitioner state and every shard payload from a snapshot."""
        state = snapshot_format.read_partitioner_state(path, body)
        calls: Dict[int, Tuple[str, Tuple]] = {
            shard: (LOAD_OP,
                    (snapshot_format.read_shard_payload(path, body, shard),))
            for shard in range(self.num_shards)}
        results = self._scatter(calls)
        self._raise_scatter_failure("restore", results)
        # State is swapped only after every shard loaded successfully, so a
        # failed restore leaves routing consistent with the untouched shards.
        self._partitioner = ShardPartitioner.from_state(state)
        self._shard_items = [entry["items"] for entry in body["shards"]]
        self._snapshot_items = list(self._shard_items)
        self._last_snapshot_path = path

    # ------------------------------------------------------------------ #
    # live migration, rebalancing, crash recovery
    # ------------------------------------------------------------------ #

    def migrate_shard(self, shard: int, worker: Optional[ShardWorker] = None,
                      *, executor: Optional[str] = None) -> None:
        """Move one shard's live summary onto a new worker, atomically.

        Serializes the shard inside its current worker, loads the payload
        into the replacement (a caller-provided ``worker``, or a fresh one
        of ``executor`` mode — default: this engine's mode), and only then
        swaps it into the routing table and closes the old worker.  A
        failed load closes the *replacement* and keeps the old worker
        serving, so concurrent readers never observe torn state; under a
        live :class:`~repro.serving.ServingEngine` the swap runs between
        epochs via :meth:`~repro.serving.ServingEngine.run_maintenance`.

        Raises
        ------
        ShardingError
            On an out-of-range shard, both ``worker`` and ``executor``
            given, an unknown executor mode, or a serialize/load failure.
        """
        self._assert_no_pending_async()
        if not 0 <= shard < self.num_shards:
            raise ShardingError(
                f"migrate_shard index {shard} out of range "
                f"[0, {self.num_shards})")
        if worker is not None and executor is not None:
            raise ShardingError(
                "pass either a replacement worker or an executor mode, "
                "not both")
        old = self._workers[shard]
        blob = old.call(SERIALIZE_OP)
        if not blob.ok:
            raise ShardingError(
                f"migration of shard {shard} failed to serialize: "
                f"{blob.error}") from blob.error
        if worker is None:
            worker = make_shard_worker(
                executor if executor is not None else self.executor_mode,
                self.factory, name=f"shard-{shard}")
        loaded = worker.call(LOAD_OP, blob.value)
        if not loaded.ok:
            # The replacement is the broken side: discard it and keep the
            # old worker serving — migration either completes or is a no-op.
            # repro-lint: ok EXC001 - cleanup; the load failure raises below
            with contextlib.suppress(Exception):
                worker.close()
            raise ShardingError(
                f"migration of shard {shard} failed to load into the new "
                f"worker: {loaded.error}") from loaded.error
        self._workers[shard] = worker
        self._metric_migrations.inc()
        # The old worker's state was fully copied; a close failure must
        # not undo a completed migration.
        # repro-lint: ok EXC001 - best-effort close of the replaced worker
        with contextlib.suppress(Exception):
            old.close()

    def rebalance(self, plan: RebalancePlan) -> None:
        """Apply a :class:`RebalancePlan`: reassign hot keys, migrate shards.

        Validates the whole plan first (so a bad entry changes nothing),
        quiesces the engine onto an epoch boundary, installs every key
        reassignment in the partitioner, then migrates each named shard.
        Reassigned vertices' future edges land on their new shard while
        reads transparently union the owner history — see
        :meth:`~repro.sharding.partition.ShardPartitioner.reassign`.

        Raises
        ------
        ShardingError
            On an invalid plan entry (out-of-range shard or target, unknown
            executor mode, reassignment under ``"edge"`` partitioning) or a
            failed migration.
        """
        self._assert_no_pending_async()
        if plan.reassign and self.config.partition_by != "source":
            raise ShardingError(
                "rebalance with key reassignments requires "
                "partition_by='source'")
        for vertex, target in plan.reassign.items():
            if not isinstance(target, int) or \
                    not 0 <= target < self.num_shards:
                raise ShardingError(
                    f"rebalance target shard {target!r} for vertex "
                    f"{vertex!r} is not an integer or out of range "
                    f"[0, {self.num_shards})")
        for shard, mode in plan.migrate.items():
            if not isinstance(shard, int) or \
                    not 0 <= shard < self.num_shards:
                raise ShardingError(
                    f"rebalance migration shard {shard!r} is not an "
                    f"integer or out of range [0, {self.num_shards})")
            if mode not in SHARD_EXECUTORS:
                raise ShardingError(
                    f"rebalance migration executor {mode!r} must be one of "
                    f"{SHARD_EXECUTORS}")
        self.quiesce()
        for vertex, target in plan.reassign.items():
            self._partitioner.reassign(vertex, target)
        for shard, mode in plan.migrate.items():
            self.migrate_shard(shard, executor=str(mode))

    def recover_dead_shards(self) -> List[int]:
        """Rebuild every dead worker; return the recovered shard indices.

        Each dead worker (a crashed / killed shard process) is replaced by
        a fresh worker of the engine's executor mode.  When the engine has
        a snapshot (taken or loaded), the dead shard's payload is restored
        from it and the shard's acknowledged count is reset to the
        snapshot's; without one the shard restarts empty (count 0).

        **Loss bound** (test-asserted): a recovered shard loses exactly the
        edges *it* acknowledged after the last snapshot —
        ``shard_items()[i] - snapshot_items()[i]`` at crash time — and
        nothing else; surviving shards lose nothing.  Queries after
        recovery are prefix-consistent per shard: they reflect every edge
        up to the shard's snapshot and none after it.

        Raises
        ------
        SnapshotError
            When the last snapshot has gone missing or corrupt.
        ShardingError
            When a replacement worker cannot be built or loaded.
        """
        self._assert_no_pending_async()
        dead = [shard for shard, worker in enumerate(self._workers)
                if not worker.alive()]
        if not dead:
            return []
        body = None
        if self._last_snapshot_path is not None:
            body = snapshot_format.read_manifest(self._last_snapshot_path)
        for shard in dead:
            # The worker is already dead; close only reaps its remains.
            # repro-lint: ok EXC001 - reaping must not abort the recovery
            with contextlib.suppress(Exception):
                self._workers[shard].close()
            replacement = make_shard_worker(self.executor_mode, self.factory,
                                            name=f"shard-{shard}")
            if body is not None:
                payload = snapshot_format.read_shard_payload(
                    self._last_snapshot_path, body, shard)
                loaded = replacement.call(LOAD_OP, payload)
                if not loaded.ok:
                    # Discard the half-built replacement.
                    # repro-lint: ok EXC001 - the load failure raises below
                    with contextlib.suppress(Exception):
                        replacement.close()
                    raise ShardingError(
                        f"recovery of shard {shard} failed to load the "
                        f"snapshot payload: {loaded.error}") from loaded.error
                self._shard_items[shard] = body["shards"][shard]["items"]
            else:
                self._shard_items[shard] = 0
            self._workers[shard] = replacement
            self._metric_recoveries.inc()
        return dead

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def quiesce(self, timeout: Optional[float] = None) -> None:
        """Block until every shard worker has finished its submitted work.

        Drains each worker with the reserved barrier op (FIFO service order
        makes collecting the barrier's result proof that all earlier calls
        completed).  This is the engine-wide epoch barrier the serving layer
        uses between a write epoch and the reads that must observe it.

        Raises
        ------
        ShardingError
            When an :meth:`insert_batch_async` handle is still unresolved
            (its results must be collected, not discarded by a barrier), or
            naming the shards whose drain failed (dead worker) or timed out
            (``timeout`` seconds per wait).
        """
        self._assert_no_pending_async()
        results = {shard: worker.drain(timeout)
                   for shard, worker in enumerate(self._workers)}
        self._raise_scatter_failure("quiesce", results)

    def close(self) -> None:
        """Shut down all shard workers (idempotent).

        Serial-mode engines hold no external resources, but process-mode
        engines should always be closed (or used as context managers) so
        worker processes exit promptly.
        """
        workers, self._workers = getattr(self, "_workers", []), []
        for worker in workers:
            # Best-effort shutdown: one worker's close failure must not keep
            # its siblings' processes alive; workers report call failures
            # via ShardResult already.
            # repro-lint: ok EXC001 — see above
            with contextlib.suppress(Exception):
                worker.close()
        self._closed = True

    def __enter__(self) -> "ShardedSummary":
        """Context-manager entry: returns the engine itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: closes every shard worker."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ShardedSummary(shards={self.num_shards}, "
                f"executor={self.executor_mode!r}, "
                f"partition_by={self.config.partition_by!r}, "
                f"items={self.items_ingested})")
