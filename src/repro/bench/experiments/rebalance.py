"""Elastic rebalancing and crash-recovery experiment.

Two row groups, both on the sharded HIGGS engine:

* ``figure = "rebalance"`` — the live-migration story.  A 4-shard,
  source-partitioned engine ingests three phases of one stream family:

  1. ``balanced`` — the natural stream; hash partitioning spreads sources
     evenly, the projected-parallel throughput is the healthy baseline.
  2. ``skewed`` — the same stream reskewed so ~90 % of edges hash into one
     hot shard (:func:`~repro.streams.generators.reskew_to_shards`).  The
     slowest-shard term dominates and the projected throughput collapses.
  3. ``rebalanced`` — mid-run, a :class:`~repro.sharding.RebalancePlan`
     reassigns the hottest observed sources off the hot shard (the elastic
     ``rebalance()`` path: quiesce, reassign keys, keep serving), then the
     skewed tail continues.  Throughput recovers because future edges of
     the moved keys land on cold shards while reads stay exact (owner
     unions).

  The headline ratio ``recovery_x`` compares the slowest-shard *item
  count* of the skewed phase against the rebalanced phase.  In the
  projected-parallel model (see ``sharded.py``) the slowest shard's work
  is what bounds scale-out throughput and per-item cost cancels in the
  ratio, so this **is** the throughput-recovery factor — computed from
  deterministic counters, which is what makes it gateable
  (``rebalance_recovery_x`` in ``tools/check_perf.py``): a broken
  reassignment path leaves the hot shard hot and the ratio at ~1×, while
  wall-clock noise on sub-second phases cannot flake the gate.  The
  timed equivalent, ``measured_x = rebalanced_eps / skewed_eps`` from
  busy-counter deltas, is reported alongside as an informational metric.

* ``figure = "rebalance-recovery"`` — the crash story.  A process-executor
  engine with a configured snapshot directory ingests, snapshots, ingests
  more, then the busiest worker is SIGTERM-killed.  The row reports the
  wall-clock ``recover_s`` of
  :meth:`~repro.sharding.ShardedSummary.recover_dead_shards` and
  ``lost_edges`` — which the engine's loss bound pins to exactly the
  victim's acknowledged-since-snapshot count (test-asserted in
  ``tests/test_rebalance.py``).
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import Counter
from typing import Dict, List, Optional

from ...sharding import (HiggsShardFactory, RebalancePlan, ShardedSummary,
                         SnapshotConfig)
from ...streams.edge import GraphStream
from ...streams.generators import StreamSpec, generate_stream, reskew_to_shards
from ..methods import make_sharded_higgs, scaled_higgs_config

#: Shared column order for both row groups: phase rows leave the recovery
#: columns blank and vice versa, so one aligned table tells both stories.
COLUMNS = ("figure", "dataset", "phase", "shards", "items", "max_items",
           "wall_s", "parallel_s", "parallel_eps", "imbalance",
           "recovery_x", "measured_x", "snapshot_s", "recover_s",
           "lost_edges")


def _row(**values: object) -> Dict[str, object]:
    """A result row with every column present (blank when not measured)."""
    row: Dict[str, object] = {column: "" for column in COLUMNS}
    row.update(values)
    return row


def _shard_busy(engine) -> List[float]:
    """Cumulative per-shard busy seconds, from the engine's stats sweep."""
    return [float(entry["busy_seconds"]) for entry in engine.shard_stats()]


def _phase_metrics(engine, edges) -> Dict[str, float]:
    """Ingest ``edges``; return projected-parallel metrics for this phase.

    Uses busy-counter and item-counter *deltas* around the phase so each
    phase is measured in isolation even though all phases share one
    engine.  ``max_items`` (the slowest shard's edge count) is the
    deterministic load figure the gated recovery ratio is built from.
    """
    busy_before = _shard_busy(engine)
    items_before = engine.shard_items()
    start = time.perf_counter()
    engine.insert_batch(edges)
    wall = time.perf_counter() - start
    busy = [after - before for after, before
            in zip(_shard_busy(engine), busy_before)]
    per_shard = [after - before for after, before
                 in zip(engine.shard_items(), items_before)]
    overhead = max(0.0, wall - sum(busy))
    parallel_s = overhead + (max(busy) if busy else 0.0)
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    return {
        "items": len(edges),
        "max_items": max(per_shard) if per_shard else 0,
        "wall_s": wall,
        "parallel_s": parallel_s,
        "parallel_eps": len(edges) / parallel_s if parallel_s else 0.0,
        "imbalance": (max(busy) / mean_busy) if mean_busy > 0 else 1.0,
    }


def _hot_reassignment_plan(engine, edges, num_shards: int,
                           max_keys: int) -> RebalancePlan:
    """Move the hottest observed sources off their shard, round-robin.

    Picks the ``max_keys`` most frequent sources in ``edges`` that hash
    into the busiest shard and spreads them across the other shards — the
    decision a load-aware rebalancer would make from the same counters the
    engine already exposes.
    """
    part = engine.partitioner
    per_shard = Counter(part.shard_of_vertex(e.source) for e in edges)
    hot_shard = per_shard.most_common(1)[0][0]
    hot_sources = Counter(e.source for e in edges
                          if part.shard_of_vertex(e.source) == hot_shard)
    cold = [s for s in range(num_shards) if s != hot_shard]
    reassign = {vertex: cold[rank % len(cold)]
                for rank, (vertex, _) in
                enumerate(hot_sources.most_common(max_keys))}
    return RebalancePlan(reassign=reassign)


def run_rebalance(*, num_edges: int = 60_000, num_vertices: int = 2_000,
                  time_span: int = 10_000, seed: int = 7,
                  skewness: float = 1.5, shards: int = 4,
                  hot_fraction: float = 0.9, reassign_keys: int = 96,
                  scale: Optional[float] = None) -> List[Dict[str, object]]:
    """Throughput recovery after live rebalancing, plus kill-a-worker cost.

    See the module docstring for the experimental design.  ``num_edges``
    is the *per-phase* edge count; ``scale`` (the CLI knob) scales it and
    ``time_span`` together.  Returns one row per phase plus one
    crash-recovery row.
    """
    if scale is not None:
        num_edges = max(1_000, int(num_edges * scale))
        time_span = max(100, int(time_span * scale))
    spec = StreamSpec(num_vertices=num_vertices, num_edges=num_edges * 2,
                      time_span=time_span, skewness=skewness,
                      arrival_variance=800.0, seed=seed,
                      name=f"rebalance-synth-{num_edges}")
    natural = generate_stream(spec)
    skewed = reskew_to_shards(natural, num_shards=shards, hot_shards=1,
                              hot_fraction=hot_fraction)
    balanced_edges = list(natural)[:num_edges]
    skewed_edges = list(skewed)
    skew_head, skew_tail = skewed_edges[:num_edges], skewed_edges[num_edges:]

    rows: List[Dict[str, object]] = []
    engine = make_sharded_higgs(natural, shards, executor="serial",
                                partition_by="source")
    try:
        phases = [("balanced", natural.name, balanced_edges, None),
                  ("skewed", skewed.name, skew_head, None),
                  ("rebalanced", skewed.name, skew_tail, skew_head)]
        by_phase: Dict[str, Dict[str, float]] = {}
        for phase, dataset, edges, observed in phases:
            if observed is not None:
                plan = _hot_reassignment_plan(engine, observed, shards,
                                              reassign_keys)
                engine.rebalance(plan)
            metrics = _phase_metrics(engine, edges)
            by_phase[phase] = metrics
            extra: Dict[str, object] = {}
            if phase == "rebalanced":
                skewed_metrics = by_phase["skewed"]
                if metrics["max_items"]:
                    extra["recovery_x"] = (skewed_metrics["max_items"] /
                                           metrics["max_items"])
                if skewed_metrics["parallel_eps"]:
                    extra["measured_x"] = (metrics["parallel_eps"] /
                                           skewed_metrics["parallel_eps"])
            rows.append(_row(figure="rebalance", dataset=dataset,
                             phase=phase, shards=shards, **metrics, **extra))
    finally:
        engine.close()

    rows.append(_run_crash_recovery(natural, shards, num_edges))
    return rows


def _run_crash_recovery(stream: GraphStream, shards: int,
                        num_edges: int) -> Dict[str, object]:
    """Kill one worker of a process-executor engine; time the recovery."""
    edges = list(stream)[:num_edges]
    half = len(edges) // 2
    factory = HiggsShardFactory(scaled_higgs_config(len(edges)))
    with tempfile.TemporaryDirectory() as tmp:
        engine = ShardedSummary(
            factory, shards=shards, executor="process",
            partition_by="source",
            snapshot=SnapshotConfig(directory=os.path.join(tmp, "snap")))
        try:
            engine.insert_batch(edges[:half])
            snap_start = time.perf_counter()
            engine.snapshot()
            snapshot_s = time.perf_counter() - snap_start
            engine.insert_batch(edges[half:])
            before = engine.shard_items()
            victim = max(range(shards), key=lambda s: before[s])
            worker = engine._workers[victim]
            worker._process.terminate()
            worker._process.join(timeout=10)
            recover_start = time.perf_counter()
            recovered = engine.recover_dead_shards()
            recover_s = time.perf_counter() - recover_start
            assert recovered == [victim]
            lost = before[victim] - engine.shard_items()[victim]
        finally:
            engine.close()
    return _row(figure="rebalance-recovery", dataset=stream.name,
                phase="kill-worker", shards=shards, items=len(edges),
                snapshot_s=snapshot_s, recover_s=recover_s, lost_edges=lost)
