"""The traced run: the layer ladder, measured from outside the program.

Each rung times calls into one layer's public functions and records a span
around each call, kept in memory and written out when the run ends:

* bare ``Higgs`` (the single-threaded reference rung): ``insert_stream``
  over the stream, ``query_batch`` over the query mix, and 16-edge
  ``insert_batch`` calls replaying ``serve``'s writes (the structural
  stalls that set ``serve``'s p99);
* the 2-shard ``ShardedSummary``: ``insert_batch`` per partition round and
  ``query_batch`` per batch, each bracketed by ``shard_stats()`` so the
  time outside the slowest shard (partitioning, dispatch, transport, wait)
  reads as that call's sharding overhead;
* ``ServingEngine`` over a delegating wrapper that times each write
  epoch (``insert_batch_async`` to ``result()``) and read round
  (``query_batch``), under the same open-loop traffic as ``serve``.

The workload named on the command line is also run untraced first; its
cost against the traced rung of the same workload is ``trace.overhead_frac``.
A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.methods import scaled_higgs_config
from repro.core import Higgs
from repro.serving import ServingEngine

import inputs as inputs_mod
import workloads
from inputs import Inputs
from workloads import Outcome, QueryMix, percentile

#: Each per-layer metric, its unit, and the end-to-end metric and workload
#: it should move.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "core.insert.eps": ("edges/s", "ops_per_s on ingest"),
    "core.insert.stall_ms": ("ms", "p99_ms on serve"),
    "core.query.qps": ("queries/s", "ops_per_s, p50_ms on query"),
    "core.plan_cache.hit_ratio": ("ratio", "p50_ms on query"),
    "core.tree.height": ("count", "bytes_per_edge on ingest, edge_are on query"),
    "core.tree.leaves": ("count", "bytes_per_edge on ingest, edge_are on query"),
    "core.tree.leaf_utilization": ("ratio",
                                   "bytes_per_edge on ingest, edge_are on query"),
    "core.tree.overflow_blocks": ("count",
                                  "bytes_per_edge on ingest, edge_are on query"),
    "sharding.busy_s.max": ("s", "ops_per_s on ingest"),
    "sharding.imbalance": ("ratio", "ops_per_s on ingest"),
    "sharding.insert.overhead_s": ("s", "ops_per_s on ingest"),
    "sharding.query.overhead_s": ("s", "p50_ms on query"),
    "transport.packed_ratio": ("ratio", "ops_per_s on ingest, p50_ms on serve"),
    "transport.packed_bytes_per_edge": ("B/edge",
                                        "ops_per_s on ingest, p50_ms on serve"),
    "transport.fallback_batches": ("count",
                                   "ops_per_s on ingest, p50_ms on serve"),
    "serving.epoch.p99_ms": ("ms", "p99_ms on serve"),
    "serving.read_round.p99_ms": ("ms", "p99_ms on serve"),
    "serving.epochs": ("count", "p50_ms, p99_ms on serve"),
    "serving.epoch_edges.mean": ("edges", "p50_ms, p99_ms on serve"),
    "serving.round_reads.mean": ("queries", "p50_ms, p99_ms on serve"),
    "serving.queue_peak": ("count", "p50_ms, p99_ms on serve"),
    "serving.engine_p99_ms": ("ms", "p99_ms on serve"),
    "loadgen.lag_p99_ms": ("ms", "validity of serve (must stay small)"),
    "trace.overhead_frac": ("ratio", "none: the cost of tracing itself"),
}


@dataclass
class Span:
    name: str
    span_id: int
    parent: int
    start: float
    end: float
    attrs: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """Spans kept in memory; a rung's spans share its root as ancestor."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def record(self, name: str, start: float, end: float, parent: int = 0,
               **attrs: float) -> None:
        """Record a span whose ends were timed by the caller."""
        self.spans.append(Span(name, next(self._ids), parent, start, end,
                               attrs))

    def open(self, name: str, parent: int = 0) -> Span:
        """Start a span now; :meth:`close` ends and records it."""
        return Span(name, next(self._ids), parent, time.perf_counter(), 0.0)

    def close(self, span: Span, **attrs: float) -> Span:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds, and self seconds."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        summary: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children[span.span_id], key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = summary.setdefault(span.name, {"count": 0, "total_s": 0.0,
                                                   "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - covered
        return summary

    def export(self) -> List[Dict[str, object]]:
        return [{"name": s.name, "id": s.span_id, "parent": s.parent,
                 "start": s.start, "end": s.end, **s.attrs}
                for s in self.spans]


def shard_counters(engine) -> Tuple[List[float], List[float]]:
    """Busy seconds and call counts per shard (one round trip each)."""
    stats = engine.shard_stats()
    return ([float(s["busy_seconds"]) for s in stats],
            [float(s["calls"]) for s in stats])


def delta(before: Sequence[float], after: Sequence[float]) -> List[float]:
    return [b - a for a, b in zip(before, after, strict=True)]


# ---------------------------------------------------------------------- #
# bare HIGGS: the single-threaded reference rung
# ---------------------------------------------------------------------- #

def rung_bare(tracer: Tracer, inputs: Inputs, metrics: Dict[str, float],
              outcome: Outcome) -> None:
    """``Higgs.insert_stream`` over the stream, then one pass of the mix."""
    higgs = Higgs(scaled_higgs_config(len(inputs.stream)))
    root = tracer.open("ladder.bare")
    span = tracer.open("core.insert_stream", root.span_id)
    higgs.insert_stream(inputs.stream)
    tracer.close(span, edges=len(inputs.stream))
    metrics["core.insert.eps"] = len(inputs.stream) / (span.end - span.start)
    stats = higgs.stats()
    metrics["core.tree.height"] = float(stats["height"])
    metrics["core.tree.leaves"] = float(stats["leaf_count"])
    metrics["core.tree.leaf_utilization"] = float(stats["leaf_utilization"])
    metrics["core.tree.overflow_blocks"] = float(stats["overflow_blocks"])

    spent = 0.0
    answered = 0
    for _, batch, expected in QueryMix(inputs, outcome).batches:
        start = time.perf_counter()
        answers = higgs.query_batch(batch)
        end = time.perf_counter()
        tracer.record("core.query_batch", start, end, root.span_id,
                      queries=len(batch))
        spent += end - start
        answered += len(batch)
        outcome.failed += workloads.underestimates(answers, expected)
    outcome.attempted += answered
    tracer.close(root)
    metrics["core.query.qps"] = answered / spent
    cache = higgs.plan_cache_stats()
    metrics["core.plan_cache.hit_ratio"] = \
        cache["hits"] / max(1, cache["hits"] + cache["misses"])


def rung_stall(tracer: Tracer, inputs: Inputs, ops) -> float:
    """Slowest 16-edge ``Higgs.insert_batch`` while replaying serve's writes
    onto a bare HIGGS that holds the first half of the stream."""
    higgs = Higgs(scaled_higgs_config(len(inputs.stream)))
    higgs.insert_stream(inputs.first_half)
    root = tracer.open("ladder.stall")
    slowest = 0.0
    for op in ops:
        if op.kind != "write":
            continue
        start = time.perf_counter()
        higgs.insert_batch(op.edges)
        end = time.perf_counter()
        tracer.record("core.insert_batch", start, end, root.span_id,
                      edges=len(op.edges))
        slowest = max(slowest, end - start)
    tracer.close(root)
    return slowest


# ---------------------------------------------------------------------- #
# the sharded engine: ingest then query
# ---------------------------------------------------------------------- #

@dataclass
class Transport:
    """Transport counters summed over the traced sharded rungs."""

    sub_batches: float = 0.0
    edges: int = 0
    packed_batches: int = 0
    packed_bytes: int = 0
    fallback_batches: int = 0

    def add(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        """Add the change in ``transport_stats()`` between two readings."""
        self.packed_batches += after["packed_batches"] - before["packed_batches"]
        self.packed_bytes += after["packed_bytes"] - before["packed_bytes"]
        self.fallback_batches += \
            after["fallback_batches"] - before["fallback_batches"]

    def report(self, metrics: Dict[str, float]) -> None:
        metrics["transport.packed_ratio"] = \
            self.packed_batches / max(1.0, self.sub_batches)
        metrics["transport.packed_bytes_per_edge"] = \
            self.packed_bytes / max(1, self.edges)
        metrics["transport.fallback_batches"] = float(self.fallback_batches)


def rung_sharded(tracer: Tracer, inputs: Inputs, metrics: Dict[str, float],
                 transport: Transport, outcome: Outcome) -> Dict[str, float]:
    """``ingest``'s replay, then one pass of ``query``'s mix, per call."""
    edges = inputs.stream
    warm = int(len(edges) * workloads.INGEST_WARM_FRACTION)
    engine = workloads.new_engine(len(edges))
    try:
        engine.insert_stream(edges[:warm])
        round_size = engine.config.batch_size * engine.num_shards
        root = tracer.open("ladder.sharded.ingest")
        wire0 = engine.transport_stats()
        busy0, calls0 = shard_counters(engine)
        busy, overhead, ingest_spent = busy0, 0.0, 0.0
        for start in range(warm, len(edges), round_size):
            chunk = edges[start:start + round_size]
            span = tracer.open("sharding.insert_batch", root.span_id)
            engine.insert_batch(chunk)
            tracer.close(span, edges=len(chunk))
            after, _ = shard_counters(engine)
            ingest_spent += span.end - span.start
            overhead += span.end - span.start - max(delta(busy, after))
            busy = after
        tracer.close(root)
        busy1, calls1 = shard_counters(engine)
        transport.add(wire0, engine.transport_stats())
        if engine.items_ingested != len(edges):
            outcome.problems.append(
                f"traced ingest acknowledged {engine.items_ingested} of "
                f"{len(edges)} edges")
        outcome.attempted += len(edges) - warm
        per_shard = delta(busy0, busy1)
        metrics["sharding.busy_s.max"] = max(per_shard)
        metrics["sharding.imbalance"] = max(per_shard) / statistics.fmean(per_shard)
        metrics["sharding.insert.overhead_s"] = overhead
        transport.sub_batches += sum(delta(calls0, calls1))
        transport.edges += len(edges) - warm

        root = tracer.open("ladder.sharded.query")
        busy, overhead, spent, answered = shard_counters(engine)[0], 0.0, 0.0, 0
        for _, batch, expected in QueryMix(inputs, outcome).batches:
            span = tracer.open("sharding.query_batch", root.span_id)
            answers = engine.query_batch(batch)
            tracer.close(span, queries=len(batch))
            after, _ = shard_counters(engine)
            overhead += span.end - span.start - max(delta(busy, after))
            busy = after
            spent += span.end - span.start
            answered += len(batch)
            outcome.failed += workloads.underestimates(answers, expected)
        tracer.close(root)
        outcome.attempted += answered
        metrics["sharding.query.overhead_s"] = overhead
        return {"ingest": (len(edges) - warm) / ingest_spent,
                "query": answered / spent}
    finally:
        engine.close()


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #

class TracedSummary:
    """Delegates to a ``ShardedSummary``, timing epochs and read rounds.

    Handed to ``ServingEngine`` in place of the engine; all calls arrive on
    the serving scheduler thread, one at a time.
    """

    def __init__(self, engine, tracer: Tracer, parent: int,
                 transport: Transport) -> None:
        self._engine = engine
        self._tracer = tracer
        self._parent = parent
        self._transport = transport
        self.epoch_s: List[float] = []
        self.read_round_s: List[float] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def insert_batch_async(self, edges):
        # Counting the shards an epoch reaches by partitioning it again
        # costs microseconds; asking the workers would add round trips.
        parts = sum(1 for part in self._engine.partitioner.split(edges) if part)
        self._transport.sub_batches += parts
        self._transport.edges += len(edges)
        span = self._tracer.open("serving.epoch", self._parent)
        pending = self._engine.insert_batch_async(edges)
        return _TracedPending(self, span, pending, len(edges))

    def query_batch(self, queries):
        start = time.perf_counter()
        answers = self._engine.query_batch(queries)
        end = time.perf_counter()
        self._tracer.record("serving.read_round", start, end, self._parent,
                            queries=len(queries))
        self.read_round_s.append(end - start)
        return answers


class _TracedPending:
    """The epoch barrier: resolving it closes the epoch's span."""

    def __init__(self, owner: TracedSummary, span: Span, pending,
                 edges: int) -> None:
        self._owner = owner
        self._span = span
        self._pending = pending
        self._edges = edges

    def result(self) -> int:
        inserted = self._pending.result() if self._pending is not None else 0
        span = self._owner._tracer.close(self._span, edges=self._edges)
        self._owner.epoch_s.append(span.end - span.start)
        return inserted


def rung_serve(tracer: Tracer, inputs: Inputs, ops, metrics: Dict[str, float],
               transport: Transport, outcome: Outcome) -> float:
    """One window of ``serve``'s open loop through the timing wrapper;
    returns its p50 latency in ms."""
    engine = workloads.new_engine(len(inputs.stream))
    try:
        engine.insert_stream(inputs.first_half)
        root = tracer.open("ladder.serve")
        wire0 = engine.transport_stats()
        traced = TracedSummary(engine, tracer, root.span_id, transport)
        with ServingEngine(traced, workloads.serve_config(ops)) as serving:
            result = workloads.drive_open_loop(serving, ops)
            serving.flush()
            stats = serving.stats()
            snapshot = serving.metrics.snapshot()
        tracer.close(root)
        transport.add(wire0, engine.transport_stats())
        for due, latency in zip(result.dues, result.latencies, strict=True):
            if latency != math.inf:
                tracer.record("serve.request", due, due + latency,
                              root.span_id)
        workloads.check_serve(engine, inputs, ops, result, outcome)
        workloads.check_final_state(engine, inputs, ops, outcome)
    finally:
        engine.close()
    metrics["serving.epoch.p99_ms"] = percentile(traced.epoch_s, 0.99) * 1e3
    metrics["serving.read_round.p99_ms"] = \
        percentile(traced.read_round_s, 0.99) * 1e3
    metrics["serving.epochs"] = float(stats["epochs"])
    metrics["serving.epoch_edges.mean"] = histogram_mean(
        snapshot, "serving_epoch_edges")
    metrics["serving.round_reads.mean"] = histogram_mean(
        snapshot, "serving_round_reads")
    metrics["serving.queue_peak"] = float(
        snapshot["serving_queue_depth_peak"]["values"][""])
    metrics["serving.engine_p99_ms"] = max(
        report.get("p99", 0.0) for report in stats["latency"].values()) * 1e3
    metrics["loadgen.lag_p99_ms"] = percentile(result.lags, 0.99) * 1e3
    return percentile(result.latencies, 0.50) * 1e3


def histogram_mean(snapshot, name: str) -> float:
    entry = snapshot[name]["values"][""]
    return entry["sum"] / max(1.0, entry["count"])


# ---------------------------------------------------------------------- #
# the whole ladder
# ---------------------------------------------------------------------- #

def run_traced(workload: str, inputs: Inputs, seconds: float) -> Outcome:
    """Run ``workload`` untraced, then every rung traced; report the layers."""
    baseline = workloads.WORKLOADS[workload](inputs, seconds)
    outcome = Outcome(attempted=baseline.attempted, failed=baseline.failed,
                      problems=list(baseline.problems))
    tracer = Tracer()
    metrics: Dict[str, float] = {}
    transport = Transport()
    ops = inputs_mod.serve_ops(inputs, seconds / workloads.ROUNDS, 0)

    rung_bare(tracer, inputs, metrics, outcome)
    metrics["core.insert.stall_ms"] = rung_stall(tracer, inputs, ops) * 1e3
    rates = rung_sharded(tracer, inputs, metrics, transport, outcome)
    p50_ms = rung_serve(tracer, inputs, ops, metrics, transport, outcome)
    transport.report(metrics)
    # Cost is time per edge on ingest, per query on query, and the median
    # request latency on serve.
    if workload == "serve":
        ratio = p50_ms / baseline.metrics["p50_ms"][0]
    else:
        ratio = baseline.metrics["ops_per_s"][0] / rates[workload]
    metrics["trace.overhead_frac"] = ratio - 1.0
    outcome.metrics = {name: (metrics[name], unit)
                       for name, (unit, _) in LAYER_METRICS.items()}
    outcome.trace = {"spans": tracer.export(),
                     "self_times": tracer.self_times()}
    return outcome
