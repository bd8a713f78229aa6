"""Observability layer: metrics registry and exporters.

This package is the operational window into the serving stack:

* :class:`MetricsRegistry` holds named metric families — :class:`Counter`,
  :class:`Gauge`, and :class:`WindowedHistogram` — with optional labels,
  and renders them two ways: Prometheus text exposition
  (:meth:`MetricsRegistry.render_prometheus`) and a JSON-able snapshot
  (:meth:`MetricsRegistry.snapshot`).
* :class:`SnapshotEmitter` periodically serializes a registry snapshot as a
  structured JSON log line to a pluggable sink (stderr by default), so an
  operator can tail engine health without scraping.

The serving engine (:class:`~repro.serving.ServingEngine`) and the sharded
engine (:class:`~repro.sharding.ShardedSummary`) both instrument themselves
against a registry — their own private one by default, or a caller-provided
registry when one dashboard should cover both (the ``serve`` benchmark does
this).  :func:`nearest_rank` is the percentile definition shared by every
latency report in the repository.
"""

from .logs import SnapshotEmitter
from .registry import (Counter, Gauge, MetricsRegistry, WindowedHistogram,
                       nearest_rank)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "WindowedHistogram",
    "nearest_rank", "SnapshotEmitter",
]
