"""Update cost experiments: insertion throughput (Fig. 16), insertion latency
(Fig. 17), deletion throughput (Fig. 18), and the batch-ingestion speedup
comparison (per-item ``insert`` versus the bulk ``insert_batch`` path).

Fresh structures are built for every measurement (the shared context cache is
not used here because its structures are already full).  Insertion throughput
drives the batch API — the ingestion path every experiment uses — while the
batch-speedup experiment measures both paths explicitly on the same stream.
Deletion replays a sample of the inserted items and removes them again, as
the paper's deletion workload does.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, Iterable, List, Optional

from ...streams.datasets import DATASET_ORDER, load_dataset
from ...streams.generators import StreamSpec, generate_stream
from ..context import DEFAULT_SCALE
from ..methods import METHOD_ORDER, ingest, make_methods


#: Timed ingests per method and dataset in Figs. 16-17; the median is reported.
_INGEST_REPEATS = 3


def run_fig16_17_update_cost(*, datasets: Iterable[str] = tuple(DATASET_ORDER),
                             scale: float = DEFAULT_SCALE,
                             methods: Optional[Iterable[str]] = None
                             ) -> List[Dict[str, object]]:
    """Figs. 16-17: insertion throughput (items/s) and per-item latency (µs).

    Ingestion goes through the batch insert API (the harness's standard
    path), so each method's native batch fast path is what gets measured.
    Each method ingests the stream :data:`_INGEST_REPEATS` times, each time
    into a fresh structure built just before it (no other method's
    structure alive) and after a full garbage collection, and the median
    time is reported, so a collection pause landing in one ingest cannot
    decide which method is faster.
    """
    names = list(methods) if methods is not None else METHOD_ORDER
    rows: List[Dict[str, object]] = []
    # The caller's heap is frozen out of the collector meanwhile: each
    # ingest still pays for collecting its own structure, but no collection
    # of the caller's objects can land inside one.
    gc.collect()
    gc.freeze()
    try:
        for dataset in datasets:
            stream = load_dataset(dataset, scale=scale)
            timings: Dict[str, List[float]] = {name: [] for name in names}
            for _ in range(_INGEST_REPEATS):
                for name in names:
                    summary = make_methods(stream, include=(name,))[name]
                    gc.collect()
                    _count, elapsed = ingest(summary, stream)
                    timings[name].append(elapsed)
                    del summary
            for name, samples in timings.items():
                elapsed = statistics.median(samples)
                throughput = len(stream) / elapsed if elapsed > 0 else 0.0
                rows.append({
                    "figure": "fig16/17",
                    "dataset": dataset,
                    "method": name,
                    "items": len(stream),
                    "insert_seconds": elapsed,
                    "throughput_eps": throughput,
                    "latency_us": (elapsed / len(stream)) * 1e6 if len(stream) else 0.0,
                })
    finally:
        gc.unfreeze()
    return rows


def run_batch_speedup(*, num_edges: int = 100_000, num_vertices: int = 2_000,
                      time_span: int = 10_000, seed: int = 7,
                      methods: Optional[Iterable[str]] = None,
                      scale: Optional[float] = None
                      ) -> List[Dict[str, object]]:
    """Batch-ingestion speedup: per-item ``insert`` vs ``insert_batch``.

    Replays the same synthetic stream (default 100k edges with power-law
    vertex popularity and ~10 items per time slice — the many-edges-per-slice
    regime of the paper's real traces) into two fresh instances of each
    method — once through the per-item loop, once through the batch path —
    and reports both throughputs and their ratio.

    ``scale`` (the CLI's dataset knob) scales ``num_edges`` and ``time_span``
    together when given — preserving the items-per-slice density — so the
    CLI's default ``--scale 0.1`` measures a 10k-edge stream while a direct
    call (or ``--scale 1``) measures the full 100k.
    """
    if scale is not None:
        num_edges = max(1_000, int(num_edges * scale))
        time_span = max(100, int(time_span * scale))
    spec = StreamSpec(num_vertices=num_vertices, num_edges=num_edges,
                      time_span=time_span, skewness=2.5,
                      arrival_variance=800.0, seed=seed,
                      name=f"batch-synth-{num_edges}")
    stream = generate_stream(spec)
    rows: List[Dict[str, object]] = []
    methods_a = make_methods(stream, include=methods)
    methods_b = make_methods(stream, include=methods)
    for name in methods_a:
        per_item = methods_a[name]
        start = time.perf_counter()
        for edge in stream:
            per_item.insert(edge.source, edge.destination,
                            edge.weight, edge.timestamp)
        item_seconds = time.perf_counter() - start

        batch = methods_b[name]
        _count, batch_seconds = ingest(batch, stream)
        rows.append({
            "figure": "batch",
            "dataset": stream.name,
            "method": name,
            "items": len(stream),
            "per_item_eps": len(stream) / item_seconds if item_seconds else 0.0,
            "batch_eps": len(stream) / batch_seconds if batch_seconds else 0.0,
            "speedup": (item_seconds / batch_seconds) if batch_seconds else 0.0,
        })
    return rows


def run_fig18_delete_throughput(*, datasets: Iterable[str] = tuple(DATASET_ORDER),
                                scale: float = DEFAULT_SCALE,
                                delete_fraction: float = 0.2,
                                methods: Optional[Iterable[str]] = None,
                                seed: int = 17) -> List[Dict[str, object]]:
    """Fig. 18: deletion throughput (items/s) after a full stream insert."""
    rows: List[Dict[str, object]] = []
    rng = random.Random(seed)
    for dataset in datasets:
        stream = load_dataset(dataset, scale=scale)
        delete_count = max(1, int(len(stream) * delete_fraction))
        to_delete = rng.sample(list(stream.edges), delete_count)
        summaries = make_methods(stream, include=methods)
        for name, summary in summaries.items():
            summary.insert_stream(stream)
            start = time.perf_counter()
            for edge in to_delete:
                summary.delete(edge.source, edge.destination, edge.weight,
                               edge.timestamp)
            elapsed = time.perf_counter() - start
            rows.append({
                "figure": "fig18",
                "dataset": dataset,
                "method": name,
                "deletions": delete_count,
                "delete_seconds": elapsed,
                "throughput_dps": delete_count / elapsed if elapsed > 0 else 0.0,
            })
    return rows
