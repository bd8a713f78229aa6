"""Optimization ablation (paper Fig. 20).

Three panels:

* **Parallelization** — insertion throughput of HIGGS with batched ingest
  versus plain per-item insertion.  The paper reports ≥3× from one thread
  per tree layer; under CPython's GIL batched ingest takes its place (see
  "Paper substitutions" in docs/ARCHITECTURE.md).
* **Multiple mapping buckets (MMB)** — space efficiency with ``r = 4``
  candidate addresses versus ``r = 1`` (single bucket).
* **Overflow blocks (OB)** — edge-query accuracy with and without overflow
  blocks on streams with many simultaneous arrivals.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from ...baselines.exact import ExactTemporalGraph
from ...core import Higgs
from ...queries.evaluation import evaluate_queries
from ...queries.workload import QueryWorkloadGenerator, WorkloadConfig
from ...streams.datasets import DATASET_ORDER, load_dataset
from ..context import DEFAULT_SCALE
from ..methods import scaled_higgs_config


def run_fig20a_parallelization(*, datasets: Iterable[str] = tuple(DATASET_ORDER),
                               scale: float = DEFAULT_SCALE
                               ) -> List[Dict[str, object]]:
    """Fig. 20(a): HIGGS insertion throughput, per-item versus batched.

    ``HIGGS-serial`` is the per-item :meth:`~repro.core.higgs.Higgs.insert`
    loop; ``HIGGS-batched`` is
    :meth:`~repro.summary.TemporalGraphSummary.insert_stream`, which drives
    the batch fast path.  Both build the same structure.
    """
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        stream = load_dataset(dataset, scale=scale)
        for mode in ("serial", "batched"):
            summary = Higgs(scaled_higgs_config(len(stream)))
            start = time.perf_counter()
            if mode == "batched":
                summary.insert_stream(stream)
            else:
                for edge in stream:
                    summary.insert(edge.source, edge.destination,
                                   edge.weight, edge.timestamp)
            elapsed = time.perf_counter() - start
            rows.append({
                "figure": "fig20a",
                "dataset": dataset,
                "variant": f"HIGGS-{mode}",
                "items": len(stream),
                "insert_seconds": elapsed,
                "throughput_eps": len(stream) / elapsed if elapsed else 0.0,
            })
    return rows


def run_fig20b_mmb_and_ob(*, datasets: Iterable[str] = tuple(DATASET_ORDER),
                          scale: float = DEFAULT_SCALE,
                          edge_queries: int = 150,
                          range_fraction: float = 0.05,
                          workload_seed: int = 29) -> List[Dict[str, object]]:
    """Fig. 20(b): space cost without MMB and accuracy without overflow blocks.

    Four HIGGS variants are compared: the full structure, MMB disabled
    (``num_probes = 1``), OB disabled, and both disabled.
    """
    variants = {
        "HIGGS": dict(num_probes=4, enable_overflow_blocks=True),
        "HIGGS-noMMB": dict(num_probes=1, enable_overflow_blocks=True),
        "HIGGS-noOB": dict(num_probes=4, enable_overflow_blocks=False),
        "HIGGS-noMMB-noOB": dict(num_probes=1, enable_overflow_blocks=False),
    }
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        stream = load_dataset(dataset, scale=scale)
        truth = ExactTemporalGraph()
        truth.insert_stream(stream)
        workload = QueryWorkloadGenerator(stream, WorkloadConfig(seed=workload_seed))
        t_min, t_max = stream.time_span
        range_length = max(1, int((t_max - t_min + 1) * range_fraction))
        queries = workload.edge_queries(edge_queries, range_length)
        for variant, options in variants.items():
            summary = Higgs(scaled_higgs_config(len(stream), **options))
            summary.insert_stream(stream)
            result = evaluate_queries(summary, queries, truth)
            rows.append({
                "figure": "fig20b",
                "dataset": dataset,
                "variant": variant,
                "memory_mb": summary.memory_bytes() / 1e6,
                "leaf_count": summary.leaf_count,
                "aae": result.aae,
                "are": result.are,
            })
    return rows
