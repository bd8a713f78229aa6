"""Shared experiment context: datasets, ground truth and pre-built methods.

Several figures (10-13, 16-19) evaluate the same six methods over the same
three datasets; building and filling the structures dominates the wall-clock
cost of the harness.  ``get_context`` memoizes one fully inserted context per
``(dataset, scale, z_multiple)`` so that running the full benchmark suite
replays each stream into each method only once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..baselines.exact import ExactTemporalGraph
from ..queries.workload import QueryWorkloadGenerator, WorkloadConfig
from ..streams.datasets import load_dataset
from ..streams.edge import GraphStream
from ..summary import TemporalGraphSummary
from .methods import DEFAULT_Z_MULTIPLE, METHOD_ORDER, ingest, make_methods

#: Default dataset scale used by the pytest benchmark harness.  0.2 keeps the
#: full suite under a few minutes in CPython while preserving the relative
#: dataset sizes (see "Paper substitutions" in docs/ARCHITECTURE.md).
DEFAULT_SCALE = 0.2


@dataclass
class ExperimentContext:
    """Everything an accuracy/latency experiment needs for one dataset."""

    dataset: str
    stream: GraphStream
    truth: ExactTemporalGraph
    methods: Dict[str, TemporalGraphSummary]
    insert_seconds: Dict[str, float]
    workload: QueryWorkloadGenerator

    @property
    def time_span(self) -> Tuple[int, int]:
        """Inclusive ``(t_min, t_max)`` of the stream."""
        return self.stream.time_span

    @property
    def span_length(self) -> int:
        """Total number of time units covered by the stream."""
        t_min, t_max = self.stream.time_span
        return t_max - t_min + 1


_CACHE: Dict[Tuple[str, float, float, Tuple[str, ...]], ExperimentContext] = {}


def build_context(dataset: str, *, scale: float = DEFAULT_SCALE,
                  z_multiple: float = DEFAULT_Z_MULTIPLE,
                  include: Optional[Iterable[str]] = None,
                  workload_seed: int = 42) -> ExperimentContext:
    """Build (without caching) a fully inserted experiment context."""
    stream = load_dataset(dataset, scale=scale)
    truth = ExactTemporalGraph()
    truth.insert_stream(stream)
    methods = make_methods(stream, include=include, z_multiple=z_multiple)
    insert_seconds: Dict[str, float] = {}
    for name, method in methods.items():
        _count, insert_seconds[name] = ingest(method, stream)
    workload = QueryWorkloadGenerator(stream, WorkloadConfig(seed=workload_seed))
    return ExperimentContext(dataset=dataset, stream=stream, truth=truth,
                             methods=methods, insert_seconds=insert_seconds,
                             workload=workload)


def get_context(dataset: str, *, scale: float = DEFAULT_SCALE,
                z_multiple: float = DEFAULT_Z_MULTIPLE,
                include: Optional[Iterable[str]] = None) -> ExperimentContext:
    """Return a cached, fully inserted context for ``dataset`` at ``scale``."""
    key = (dataset, scale, z_multiple,
           tuple(include) if include is not None else tuple(METHOD_ORDER))
    context = _CACHE.get(key)
    if context is None:
        context = build_context(dataset, scale=scale, z_multiple=z_multiple,
                                include=include)
        _CACHE[key] = context
    return context


def clear_context_cache() -> None:
    """Drop every cached context (used by tests to keep memory bounded)."""
    _CACHE.clear()
