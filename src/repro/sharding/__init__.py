"""Sharded ingestion and querying on top of the batch substrate.

This package scales any :class:`~repro.summary.TemporalGraphSummary` out
across ``N`` hash-partitioned shards:

* :class:`ShardPartitioner` assigns stream items to shards by a stable hash
  of the partition key (source vertex, or the whole edge),
* :class:`ShardedSummary` is the engine: it routes inserts and deletes to
  owning shards, drives per-shard ingestion through each summary's native
  ``insert_batch`` fast path (serially or on worker processes), and answers edge / vertex / path / subgraph queries by
  scatter-gather with an exact sum-merge,
* :class:`HiggsShardFactory` is the picklable default factory building one
  HIGGS summary per shard,
* elasticity: :meth:`ShardedSummary.snapshot` /
  :meth:`ShardedSummary.restore` persist and rebuild the whole engine
  through the checksummed on-disk format in :mod:`repro.sharding.snapshot`,
  :class:`RebalancePlan` + :meth:`ShardedSummary.rebalance` move hot keys
  and live shards, and :meth:`ShardedSummary.recover_dead_shards` rebuilds
  crashed workers from the last snapshot with a bounded loss.

The worker machinery (inline or process execution with a uniform
submit-collect protocol) lives in :mod:`repro.core.executor`.
"""

from ..core.config import SnapshotConfig
from ..errors import SnapshotError
from .engine import (HiggsShardFactory, PendingBatch, RebalancePlan,
                     ShardedSummary)
from .partition import PARTITION_MODES, ShardPartitioner

__all__ = [
    "HiggsShardFactory", "PendingBatch", "RebalancePlan", "ShardedSummary",
    "ShardPartitioner", "PARTITION_MODES", "SnapshotConfig", "SnapshotError",
]
