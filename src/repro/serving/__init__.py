"""Concurrent serving layer: mixed read/write traffic over one summary.

This package turns a passive :class:`~repro.summary.TemporalGraphSummary`
into a served system:

* :class:`ServingEngine` multiplexes many client threads through a bounded
  admission queue onto one summary, coalescing writes into
  ``insert_batch`` epochs and reads into ``query_batch`` rounds, with an
  epoch barrier between them so no read ever observes a torn mid-batch
  shard state,
* :class:`ServingFuture` is the per-request completion handle (and latency
  probe) clients wait on.

Configuration (queue bound, block/drop backpressure, coalescing limits)
lives in :class:`~repro.core.config.ServingConfig`; the mixed-workload
generator that drives the ``serve`` benchmark lives in
:mod:`repro.streams.generators`.
"""

from ..core.config import SERVING_ADMISSION_POLICIES, ServingConfig
from .engine import ServingEngine
from .requests import (MAINTENANCE, READ, WRITE, MaintenanceRequest,
                       ReadRequest, ServingFuture, WriteRequest)

__all__ = [
    "ServingEngine", "ServingConfig", "SERVING_ADMISSION_POLICIES",
    "ServingFuture", "ReadRequest", "WriteRequest", "MaintenanceRequest",
    "READ", "WRITE", "MAINTENANCE",
]
