"""Configuration for the HIGGS structure.

The defaults follow the paper's experimental configuration (Section VI-A):
leaf matrix size ``d1 = 16``, fingerprint length ``F1 = 19`` bits, ``b = 3``
entries per bucket, 4 candidate addresses per vertex (multiple mapping
buckets), and ``θ = 4`` children per node so one fingerprint bit is shifted
into the address per aggregation level (``R = 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Final, Optional, Tuple

from ..errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True, slots=True)
class HiggsConfig:
    """Tunable parameters of a :class:`~repro.core.higgs.Higgs` summary.

    Attributes
    ----------
    leaf_matrix_size:
        ``d1`` — rows/columns of each leaf compressed matrix.  Must be a
        power of two so bit-shift aggregation is exact.
    bucket_entries:
        ``b`` — number of entries stored per bucket.
    fingerprint_bits:
        ``F1`` — fingerprint length at the leaf layer.
    fanout:
        ``θ`` — maximum children per tree node.  Must be a power of four so
        the parent matrix is ``√θ`` times larger per dimension and the number
        of shifted fingerprint bits ``R = log2(√θ)`` is an integer.
    num_probes:
        ``r`` — number of candidate addresses per vertex (multiple mapping
        buckets).  ``1`` disables the MMB optimization.
    enable_overflow_blocks:
        Enable the overflow-block optimization: edges that overflow a leaf
        while sharing its last timestamp go into a chained overflow matrix
        instead of forcing a new leaf.  Overflow blocks use the same matrix
        dimension as the leaf so their entries aggregate upward exactly like
        regular leaf entries, but with fewer entries per bucket
        (``overflow_block_entries``), which keeps them small.
    overflow_block_entries:
        Entries per bucket in each overflow block.
    hash_seed:
        Seed of the vertex hash function.
    weight_bytes / timestamp_bytes / key_bytes / pointer_bytes:
        Field widths used by the analytic memory model (see "Paper
        substitutions" in docs/ARCHITECTURE.md).
    """

    leaf_matrix_size: int = 16
    bucket_entries: int = 3
    fingerprint_bits: int = 19
    fanout: int = 4
    num_probes: int = 4
    enable_overflow_blocks: bool = True
    overflow_block_entries: int = 2
    hash_seed: int = 0
    weight_bytes: int = 4
    timestamp_bytes: int = 4
    key_bytes: int = 8
    pointer_bytes: int = 8

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.leaf_matrix_size):
            raise ConfigurationError("leaf_matrix_size (d1) must be a power of two")
        if self.bucket_entries < 1:
            raise ConfigurationError("bucket_entries (b) must be >= 1")
        if not 1 <= self.fingerprint_bits <= 56:
            raise ConfigurationError("fingerprint_bits (F1) must be in [1, 56]")
        if self.fanout < 4 or round(math.log(self.fanout, 4)) != math.log(self.fanout, 4):
            raise ConfigurationError("fanout (theta) must be a power of four (4, 16, 64, ...)")
        if self.num_probes < 1:
            raise ConfigurationError("num_probes (r) must be >= 1")
        if self.enable_overflow_blocks and self.overflow_block_entries < 1:
            raise ConfigurationError("overflow_block_entries must be >= 1")

    @property
    def shift_bits(self) -> int:
        """``R`` — fingerprint bits moved into the address per aggregation level."""
        return int(round(math.log2(math.isqrt(self.fanout))))

    def fingerprint_bits_at(self, level: int) -> int:
        """Fingerprint length at tree layer ``level`` (leaf layer is 1)."""
        if level < 1:
            raise ConfigurationError("levels are 1-based; the leaf layer is level 1")
        return max(0, self.fingerprint_bits - (level - 1) * self.shift_bits)

    def matrix_size_at(self, level: int) -> int:
        """Matrix dimension at tree layer ``level`` (leaf layer is 1)."""
        if level < 1:
            raise ConfigurationError("levels are 1-based; the leaf layer is level 1")
        size = self.leaf_matrix_size
        for lower in range(1, level):
            shift = min(self.shift_bits, self.fingerprint_bits_at(lower))
            size *= (1 << shift)
        return size

    def leaf_entry_bytes(self) -> int:
        """Analytic size of one leaf-matrix entry in bytes."""
        probe_bits = 2 * max(1, (self.num_probes - 1).bit_length()) if self.num_probes > 1 else 0
        fingerprint_bits = 2 * self.fingerprint_bits
        id_bytes = math.ceil((fingerprint_bits + probe_bits) / 8)
        return id_bytes + self.timestamp_bytes + self.weight_bytes

    def internal_entry_bytes(self, level: int) -> int:
        """Analytic size of one non-leaf entry at tree layer ``level``."""
        probe_bits = 2 * max(1, (self.num_probes - 1).bit_length()) if self.num_probes > 1 else 0
        fingerprint_bits = 2 * self.fingerprint_bits_at(level)
        id_bytes = math.ceil((fingerprint_bits + probe_bits) / 8)
        return id_bytes + self.weight_bytes


#: Executor modes accepted by :class:`ShardingConfig`.
SHARD_EXECUTORS: Final[Tuple[str, ...]] = ("serial", "process")

#: Partition-key modes accepted by :class:`ShardingConfig`.
SHARD_PARTITION_MODES: Final[Tuple[str, ...]] = ("source", "edge")


@dataclass(frozen=True, slots=True)
class ShardingConfig:
    """Tunable parameters of a :class:`~repro.sharding.ShardedSummary`.

    Attributes
    ----------
    num_shards:
        Number of independent inner summaries the edge stream is
        hash-partitioned across.  Must be >= 1; ``1`` degenerates to a
        pass-through wrapper whose behaviour is bit-identical to the wrapped
        summary.
    partition_by:
        Partition key.  ``"source"`` (default) assigns each edge to the
        shard of its source vertex, so outgoing vertex queries and edge
        queries route to a single shard; ``"edge"`` hashes the
        ``(source, destination)`` pair, which balances better under
        source-vertex skew but forces every vertex query to scatter.
    executor:
        How per-shard work is driven: ``"serial"`` runs shards inline in the
        calling thread, and ``"process"`` gives each shard a worker process
        (true parallelism; the shard factory and all arguments must be
        picklable).
    batch_size:
        Per-shard batch size used when a stream is replayed through the
        engine; the engine reads ``num_shards * batch_size`` items per
        partition round so every shard sees full batches.
    hash_seed:
        Seed of the shard-assignment hash (see
        :func:`~repro.core.hashing.shard_of`).
    """

    num_shards: int = 4
    partition_by: str = "source"
    executor: str = "serial"
    batch_size: int = 1024
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.partition_by not in SHARD_PARTITION_MODES:
            raise ConfigurationError(
                f"partition_by must be one of {SHARD_PARTITION_MODES}, "
                f"got {self.partition_by!r}")
        if self.executor not in SHARD_EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {SHARD_EXECUTORS}, "
                f"got {self.executor!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass(frozen=True, slots=True)
class SnapshotConfig:
    """Snapshot and crash-recovery policy of a sharded summary engine.

    Attributes
    ----------
    directory:
        Default destination directory of :meth:`~repro.sharding.ShardedSummary.
        snapshot` and the source of restore-on-crash.  ``None`` means every
        snapshot call must pass an explicit path and automatic crash recovery
        is limited to rebuilding an *empty* shard.
    auto_recover:
        When ``True`` (default), a shard worker found dead during a failed
        operation is rebuilt immediately — restored from the engine's last
        snapshot when one exists, empty otherwise — before the failure is
        re-raised to the caller.  The failed operation itself is never
        silently retried; only the engine's subsequent operations benefit.

    Restore and crash recovery always verify the manifest and every payload
    against their SHA-256 checksums before deserializing anything.
    """

    directory: Optional[str] = None
    auto_recover: bool = True

    def __post_init__(self) -> None:
        if self.directory is not None and not str(self.directory).strip():
            raise ConfigurationError(
                "snapshot directory must be None or a non-empty path")


#: Admission policies accepted by :class:`ServingConfig`.
SERVING_ADMISSION_POLICIES: Final[Tuple[str, ...]] = ("block", "drop")


@dataclass(frozen=True, slots=True)
class ServingConfig:
    """Tunable parameters of a :class:`~repro.serving.ServingEngine`.

    Attributes
    ----------
    max_pending:
        Bound of the admission queue (requests admitted but not yet served).
        When the queue is full, :attr:`admission` decides what happens to
        the next submission.
    admission:
        Backpressure policy at a full admission queue: ``"block"`` makes the
        submitting client wait until the scheduler frees capacity (closed
        systems self-regulate), ``"drop"`` rejects the request immediately
        with :class:`~repro.errors.ServingError` (open systems shed load
        instead of building unbounded latency).
    max_batch_writes:
        Maximum number of *edges* coalesced into one write epoch.  Larger
        epochs amortize per-batch overhead but delay the reads queued behind
        them.
    max_batch_reads:
        Maximum number of queries coalesced into one ``query_batch`` call.
    poll_interval_s:
        How long the scheduler sleeps waiting for work when the admission
        queue is empty, in seconds.
    latency_window:
        Number of most-recent per-request latency samples kept per request
        kind for the p50/p95/p99 percentile report.
    adaptive_epochs:
        Enable the closed-loop epoch-size controller
        (:class:`~repro.observability.AdaptiveEpochController`): instead of
        always coalescing up to :attr:`max_batch_writes` edges per epoch,
        the scheduler moves its per-epoch edge cap between
        :attr:`min_epoch_size` and :attr:`max_epoch_size` based on
        admission-queue depth — wide under backlog (throughput), narrow
        when the queue stays shallow (read latency).
    min_epoch_size / max_epoch_size:
        Bounds the adaptive epoch cap moves between (edges per epoch).
        Only consulted when :attr:`adaptive_epochs` is on; the effective
        cap is additionally never above :attr:`max_batch_writes`.
    epoch_grow_factor:
        Multiplier applied to the cap when the queue is deep (> 1).
    epoch_shrink_factor:
        Multiplier applied after a sustained shallow-queue streak (in
        ``(0, 1)``).
    queue_high_fraction / queue_low_fraction:
        Queue-depth fractions of :attr:`max_pending` that trigger growing
        and count toward shrinking; ``0 <= low < high <= 1``.
    epoch_cooldown_rounds:
        Consecutive shallow-queue rounds required before one shrink step —
        the oscillation-damping term (>= 1).
    """

    max_pending: int = 1024
    admission: str = "block"
    max_batch_writes: int = 8192
    max_batch_reads: int = 4096
    poll_interval_s: float = 0.05
    latency_window: int = 65536
    adaptive_epochs: bool = False
    min_epoch_size: int = 256
    max_epoch_size: int = 16384
    epoch_grow_factor: float = 2.0
    epoch_shrink_factor: float = 0.5
    queue_high_fraction: float = 0.5
    queue_low_fraction: float = 0.125
    epoch_cooldown_rounds: int = 3

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if self.admission not in SERVING_ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission must be one of {SERVING_ADMISSION_POLICIES}, "
                f"got {self.admission!r}")
        if self.max_batch_writes < 1:
            raise ConfigurationError("max_batch_writes must be >= 1")
        if self.max_batch_reads < 1:
            raise ConfigurationError("max_batch_reads must be >= 1")
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")
        if self.latency_window < 1:
            raise ConfigurationError("latency_window must be >= 1")
        if self.min_epoch_size < 1:
            raise ConfigurationError("min_epoch_size must be >= 1")
        if self.max_epoch_size < self.min_epoch_size:
            raise ConfigurationError(
                f"max_epoch_size ({self.max_epoch_size}) must be >= "
                f"min_epoch_size ({self.min_epoch_size})")
        if self.epoch_grow_factor <= 1.0:
            raise ConfigurationError("epoch_grow_factor must be > 1")
        if not 0.0 < self.epoch_shrink_factor < 1.0:
            raise ConfigurationError("epoch_shrink_factor must be in (0, 1)")
        if not 0.0 <= self.queue_low_fraction < self.queue_high_fraction <= 1.0:
            raise ConfigurationError(
                "need 0 <= queue_low_fraction < queue_high_fraction <= 1, "
                f"got low {self.queue_low_fraction} / "
                f"high {self.queue_high_fraction}")
        if self.epoch_cooldown_rounds < 1:
            raise ConfigurationError("epoch_cooldown_rounds must be >= 1")
