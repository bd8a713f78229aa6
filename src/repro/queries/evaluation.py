"""Query evaluation: run a workload against a summary and the exact store.

This module connects workloads (:mod:`repro.queries.workload`), summaries
(:mod:`repro.summary`) and metrics (:mod:`repro.metrics`) into the evaluation
loop every experiment uses: for each query, obtain the estimate from the
summary under test, the truth from the exact store, the per-query latency,
and finally the aggregate AAE / ARE / latency statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..baselines.exact import ExactTemporalGraph
from ..metrics.accuracy import AccuracyReport, accuracy_report
from ..summary import TemporalGraphSummary
from .types import Query


@dataclass(frozen=True, slots=True)
class EvaluationResult:
    """Accuracy and latency of one (summary, workload) pair."""

    method: str
    accuracy: AccuracyReport
    average_latency_micros: float
    total_queries: int

    @property
    def aae(self) -> float:
        """Average absolute error of the batch."""
        return self.accuracy.aae

    @property
    def are(self) -> float:
        """Average relative error of the batch."""
        return self.accuracy.are


def evaluate_queries(summary: TemporalGraphSummary, queries: Sequence[Query],
                     truth: ExactTemporalGraph, *,
                     use_batch: bool = False) -> EvaluationResult:
    """Evaluate ``queries`` on ``summary`` against the exact ``truth`` store.

    With ``use_batch=True`` the estimates are obtained from one
    ``summary.query_batch`` call (timed as a whole, latency amortized per
    query); estimates are bit-identical to the per-item path by the batch-API
    contract, so accuracy metrics do not depend on this flag.

    Latency is the CPU time of this process (:func:`time.process_time`),
    not wall clock: every summary the figures evaluate answers in-process,
    and a stall of a shared host (another tenant, steal time) then adds
    nothing to the few milliseconds one pass of a workload takes.
    """
    estimates: List[float] = []
    truths: List[float] = []
    if use_batch:
        start = time.process_time()
        estimates = list(summary.query_batch(queries))
        elapsed = time.process_time() - start
        truths = [query.evaluate(truth) for query in queries]
    else:
        elapsed = 0.0
        for query in queries:
            start = time.process_time()
            estimates.append(query.evaluate(summary))
            elapsed += time.process_time() - start
            truths.append(query.evaluate(truth))
    report = accuracy_report(truths, estimates)
    average_latency = (elapsed / len(queries) * 1e6) if queries else 0.0
    return EvaluationResult(method=summary.name, accuracy=report,
                            average_latency_micros=average_latency,
                            total_queries=len(queries))

