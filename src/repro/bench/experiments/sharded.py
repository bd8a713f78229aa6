"""Sharded-ingestion scaling experiment.

Sweeps the shard count of the :class:`~repro.sharding.ShardedSummary` engine
on a 100 k-edge synthetic stream (the batch-speedup experiment's stream
family, with a flatter vertex popularity so the partition keys carry real
entropy — a stream whose head vertex owns most of the edges cannot be
balanced by *any* hash partitioner, which is precisely what the skew rows
demonstrate).  Per shard count it reports two honestly distinct throughput
figures:

* ``wall_eps`` — single-core wall-clock ingest throughput of the engine with
  the serial executor.  On one core this only improves through *work
  reduction*: smaller per-shard trees aggregate fewer levels, long overflow
  chains disappear, and so on.  Expect a modest gain.
* ``parallel_eps`` — the scale-out throughput: partition/dispatch overhead
  plus the **slowest single shard's** ingest time, from per-worker busy
  counters measured around every ``insert_batch`` call.  This is the wall
  time the ``"process"`` executor converges to when every shard gets its own
  core (shards are fully independent after partitioning; nothing is shared),
  and the standard scale-out metric for partitioned stream systems.  The
  accompanying ``imbalance`` column (slowest shard / mean shard) reports how
  far hash partitioning is from a perfect split, i.e. how trustworthy the
  projection is.

Shards are measured with the serial executor precisely so the two figures
separate cleanly: the GIL makes in-process thread workers useless for
pure-Python ingest, and on a single-CPU host worker processes only add IPC
overhead.  On a multi-core host, ``ShardedSummary(..., executor="process")``
realizes the projected figure directly.

The shard-count sweep partitions by **edge** key (the balanced choice under
vertex-degree skew: a hot source vertex spreads across its destinations).  A
second row group (``figure = "sharded-skew"``) measures the 4-shard engine
under **source** partitioning — first on the natural stream, then on streams
whose source keys are biased toward one hot shard
(:func:`~repro.streams.generators.reskew_to_shards`) — showing how partition
imbalance erodes the projected speedup while wall-clock work barely moves.

A third row group (``figure = "sharded-process"``) measures the projection
directly: wall-clock ingest through the ``"process"`` executor (worker
processes fed packed edge batches through their pipes) at 1 shard and at
the largest swept shard count.  Its ``wall_x`` is the *measured*
parallel speedup; every row carries ``host_cores`` because the figure is
meaningless without it — on a single-core host the measured speedup cannot
exceed 1× no matter how well the engine scales.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ...streams.edge import GraphStream
from ...streams.generators import StreamSpec, generate_stream, reskew_to_shards
from ..methods import make_sharded_higgs


def _measure_engine(stream: GraphStream, shards: int,
                    partition_by: str,
                    executor: str = "serial") -> Dict[str, float]:
    """Ingest ``stream`` into a fresh ``shards``-way engine; return metrics."""
    engine = make_sharded_higgs(stream, shards, executor=executor,
                                partition_by=partition_by)
    try:
        start = time.perf_counter()
        inserted = engine.insert_stream(stream)
        wall = time.perf_counter() - start
        busy = [float(entry["busy_seconds"]) for entry in engine.shard_stats()]
        memory = engine.memory_bytes()
        transport = engine.transport_stats()
    finally:
        engine.close()
    total_busy = sum(busy)
    max_busy = max(busy) if busy else 0.0
    mean_busy = total_busy / len(busy) if busy else 0.0
    # Everything the workers did not account for is engine overhead:
    # partitioning, routing, and dispatch.  It is serial in both figures.
    overhead = max(0.0, wall - total_busy)
    return {
        "transport_packed_batches": transport["packed_batches"],
        "items": inserted,
        "wall_s": wall,
        "overhead_s": overhead,
        "max_shard_s": max_busy,
        "parallel_s": overhead + max_busy,
        "imbalance": (max_busy / mean_busy) if mean_busy > 0 else 1.0,
        "memory_mb": memory / (1024 * 1024),
    }


def run_sharded_scaling(*, num_edges: int = 100_000, num_vertices: int = 2_000,
                        time_span: int = 10_000, seed: int = 7,
                        skewness: float = 1.5,
                        shard_counts: Sequence[int] = (1, 2, 4, 8),
                        hot_fractions: Sequence[float] = (0.0, 0.5, 0.9),
                        scale: Optional[float] = None
                        ) -> List[Dict[str, object]]:
    """Sharded ingestion scaling: shard-count sweep plus hot-shard skew rows.

    Replays the batch-speedup experiment's synthetic stream (power-law
    vertex popularity, bursty arrivals) into a fresh
    :class:`~repro.sharding.ShardedSummary` per shard count and reports
    wall-clock and projected-parallel throughput — see the module docstring
    for exactly what each column means.  Speedup columns (``wall_x``,
    ``parallel_x``) are relative to the 1-shard engine.

    ``scale`` (the CLI's dataset knob) scales ``num_edges`` and
    ``time_span`` together when given, preserving items-per-slice density:
    the CLI's default ``--scale 0.1`` measures a 10 k-edge stream while
    ``--scale 1`` measures the full 100 k-edge stream of the paper-scale
    comparison.

    Returns the table as a list of row dictionaries (one per shard count,
    then one per hot-skew fraction at 4 shards).
    """
    if scale is not None:
        num_edges = max(1_000, int(num_edges * scale))
        time_span = max(100, int(time_span * scale))
    spec = StreamSpec(num_vertices=num_vertices, num_edges=num_edges,
                      time_span=time_span, skewness=skewness,
                      arrival_variance=800.0, seed=seed,
                      name=f"shard-synth-{num_edges}")
    stream = generate_stream(spec)

    host_cores = os.cpu_count() or 1
    rows: List[Dict[str, object]] = []
    baseline_wall = baseline_parallel = None
    for shards in shard_counts:
        metrics = _measure_engine(stream, shards, "edge")
        if baseline_wall is None:
            baseline_wall = metrics["wall_s"]
            baseline_parallel = metrics["parallel_s"]
        rows.append({
            "figure": "sharded",
            "host_cores": host_cores,
            "dataset": stream.name,
            "shards": shards,
            "items": metrics["items"],
            "wall_s": metrics["wall_s"],
            "wall_eps": metrics["items"] / metrics["wall_s"]
                        if metrics["wall_s"] else 0.0,
            "wall_x": baseline_wall / metrics["wall_s"]
                      if metrics["wall_s"] else 0.0,
            "max_shard_s": metrics["max_shard_s"],
            "parallel_s": metrics["parallel_s"],
            "parallel_eps": metrics["items"] / metrics["parallel_s"]
                            if metrics["parallel_s"] else 0.0,
            "parallel_x": baseline_parallel / metrics["parallel_s"]
                          if metrics["parallel_s"] else 0.0,
            "imbalance": metrics["imbalance"],
            "memory_mb": metrics["memory_mb"],
        })

    # Hot-shard skew: same engine shape (4 shards), stream keys biased so
    # hash partitioning cannot spread them.  parallel_x keeps the unskewed
    # 1-shard baseline so the erosion is visible in one column.
    skew_shards = 4
    for hot_fraction in hot_fractions:
        skewed = (stream if hot_fraction == 0.0 else
                  reskew_to_shards(stream, num_shards=skew_shards,
                                   hot_shards=1, hot_fraction=hot_fraction))
        metrics = _measure_engine(skewed, skew_shards, "source")
        rows.append({
            "figure": "sharded-skew",
            "host_cores": host_cores,
            "dataset": skewed.name,
            "shards": skew_shards,
            "items": metrics["items"],
            "wall_s": metrics["wall_s"],
            "wall_eps": metrics["items"] / metrics["wall_s"]
                        if metrics["wall_s"] else 0.0,
            "wall_x": (baseline_wall / metrics["wall_s"])
                      if metrics["wall_s"] else 0.0,
            "max_shard_s": metrics["max_shard_s"],
            "parallel_s": metrics["parallel_s"],
            "parallel_eps": metrics["items"] / metrics["parallel_s"]
                            if metrics["parallel_s"] else 0.0,
            "parallel_x": (baseline_parallel / metrics["parallel_s"])
                          if metrics["parallel_s"] else 0.0,
            "imbalance": metrics["imbalance"],
            "memory_mb": metrics["memory_mb"],
        })

    # Measured (not projected) parallel ingest: the process executor with
    # packed edge batches on its pipes, 1 shard vs the largest swept shard
    # count.  ``wall_x`` here is the *measured* wall-clock speedup —
    # the figure the projection above promises; on a host with fewer cores
    # than shards it degrades toward 1× (plus IPC overhead), which is why
    # the perf gate only enforces it when ``host_cores`` suffices
    # (``sharded_wall_x4``'s ``min_cores`` attribute).
    process_shards = max(shard_counts)
    process_baseline = None
    for shards in (1, process_shards):
        metrics = _measure_engine(stream, shards, "edge", executor="process")
        if process_baseline is None:
            process_baseline = metrics["wall_s"]
        rows.append({
            "figure": "sharded-process",
            "host_cores": host_cores,
            "dataset": stream.name,
            "shards": shards,
            "items": metrics["items"],
            "wall_s": metrics["wall_s"],
            "wall_eps": metrics["items"] / metrics["wall_s"]
                        if metrics["wall_s"] else 0.0,
            "wall_x": process_baseline / metrics["wall_s"]
                      if metrics["wall_s"] else 0.0,
            "imbalance": metrics["imbalance"],
            "memory_mb": metrics["memory_mb"],
            "transport_packed_batches": metrics["transport_packed_batches"],
        })
    return rows
