"""Compressed matrices: the storage primitive of HIGGS.

A compressed matrix (paper Section IV-A) is a ``d × d`` grid of buckets.
Each bucket holds up to ``b`` entries.  A leaf-level entry records
``(f(s), f(d), probe indices, timestamp, weight)``; a non-leaf (aggregated)
entry omits the timestamp.  With the *multiple mapping buckets* optimization
an edge has ``r × r`` candidate buckets obtained from per-vertex probe
sequences; the probe index pair ``(i, j)`` is stored so the canonical
addresses can be recovered during aggregation.  HIGGS's own aggregated
nodes keep exact maps instead of a timestamp-free matrix (see
:class:`~repro.core.node.InternalNode`); the Horae and AuxoTime baselines
still use one.

The implementation stores buckets sparsely (only occupied buckets allocate a
Python list), while the analytic memory model charges the full pre-allocated
capacity ``d² · b`` entries — matching how the paper accounts space for the
C++ arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from .hashing import probe_address, probe_step


@dataclass(slots=True)
class MatrixEntry:
    """One stored edge record inside a bucket.

    ``timestamp`` is ``None`` for entries in aggregated (non-leaf) matrices.
    ``src_probe`` / ``dst_probe`` are the probe indices of the bucket this
    entry landed in, relative to the canonical addresses of its endpoints.
    """

    src_fingerprint: int
    dst_fingerprint: int
    src_probe: int
    dst_probe: int
    weight: float
    timestamp: Optional[int] = None

    def matches(self, src_fingerprint: int, dst_fingerprint: int,
                timestamp: Optional[int] = None) -> bool:
        """Return True if this entry identifies the same (edge, timestamp) item."""
        if self.src_fingerprint != src_fingerprint:
            return False
        if self.dst_fingerprint != dst_fingerprint:
            return False
        if timestamp is not None and self.timestamp != timestamp:
            return False
        return True


class CompressedMatrix:
    """A ``size × size`` grid of buckets with ``bucket_entries`` slots each.

    Parameters
    ----------
    size:
        Matrix dimension ``d``.
    bucket_entries:
        Entries per bucket ``b``.
    num_probes:
        Number of candidate addresses per vertex ``r`` (``1`` disables MMB).
    store_timestamps:
        Leaf matrices store per-item timestamps; aggregated matrices do not.
    entry_bytes:
        Analytic size of one entry, used by :meth:`memory_bytes`.
    """

    __slots__ = ("size", "bucket_entries", "num_probes", "store_timestamps",
                 "entry_bytes", "_buckets", "_rows", "_cols", "_entry_count",
                 "start_time", "end_time")

    def __init__(self, size: int, bucket_entries: int, *, num_probes: int = 1,
                 store_timestamps: bool = True, entry_bytes: int = 16) -> None:
        if size < 1:
            raise ConfigurationError("matrix size must be positive")
        if bucket_entries < 1:
            raise ConfigurationError("bucket_entries must be >= 1")
        if num_probes < 1:
            raise ConfigurationError("num_probes must be >= 1")
        self.size = size
        self.bucket_entries = bucket_entries
        self.num_probes = num_probes
        self.store_timestamps = store_timestamps
        self.entry_bytes = entry_bytes
        #: Sparse bucket grid keyed by the flat index ``row * size + col``
        #: (an int key avoids a tuple allocation per probe in the hot path).
        self._buckets: Dict[int, List[MatrixEntry]] = {}
        self._rows: Dict[int, Set[int]] = {}
        self._cols: Dict[int, Set[int]] = {}
        self._entry_count = 0
        #: Earliest / latest item timestamp stored (leaf matrices only).
        self.start_time: Optional[int] = None
        self.end_time: Optional[int] = None

    # ------------------------------------------------------------------ #
    # capacity & bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Total number of entry slots (``d² · b``)."""
        return self.size * self.size * self.bucket_entries

    @property
    def entry_count(self) -> int:
        """Number of occupied entry slots."""
        return self._entry_count

    @property
    def utilization(self) -> float:
        """Fraction of the allocated capacity currently occupied."""
        return self._entry_count / self.capacity if self.capacity else 0.0

    def memory_bytes(self) -> int:
        """Analytic memory of the fully allocated matrix (see module docstring)."""
        return self.capacity * self.entry_bytes

    def _bucket(self, row: int, col: int) -> List[MatrixEntry]:
        key = row * self.size + col
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = []
            self._buckets[key] = bucket
            self._rows.setdefault(row, set()).add(col)
            self._cols.setdefault(col, set()).add(row)
        return bucket

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    # hot-path
    def probe_rows(self, fingerprint: int, address: int) -> Tuple[int, ...]:
        """The vertex's candidate row/column indices, probe order.

        Precomputing these once per vertex is the basis of
        :meth:`insert_probed`; batch paths use
        :func:`repro.core.vectorized.probe_rows_array`.
        """
        step = probe_step(fingerprint)
        size = self.size
        return tuple((address + i * step) % size for i in range(self.num_probes))

    def insert(self, src_fingerprint: int, dst_fingerprint: int,
               src_address: int, dst_address: int, weight: float,
               timestamp: Optional[int] = None) -> bool:
        """Insert (or accumulate) one item.  Returns False if every candidate
        bucket is full and no matching entry exists (an insertion failure in
        the paper's terminology — the caller then opens a new leaf)."""
        return self.insert_probed(
            src_fingerprint, dst_fingerprint,
            self.probe_rows(src_fingerprint, src_address),
            self.probe_rows(dst_fingerprint, dst_address),
            weight, timestamp) is not None

    # hot-path
    def insert_probed(self, src_fingerprint: int, dst_fingerprint: int,
                      src_rows: Sequence[int], dst_cols: Sequence[int],
                      weight: float,
                      timestamp: Optional[int] = None) -> Optional[MatrixEntry]:
        """:meth:`insert` with precomputed probe sequences (see
        :meth:`probe_rows`); bit-identical placement, probe order and result.

        Returns the entry the weight was accumulated into (or appended as),
        or ``None`` on insertion failure.  A matrix holds at most one entry
        per ``(fingerprints, probe positions, timestamp)`` key — accumulation
        prevents duplicates — so batch callers may memoize the returned entry
        and add follow-up weights to it directly, skipping the bucket scan.

        This is the bulk-ingestion hot path: batch callers memoize the probe
        sequences per vertex, so repeated endpoints skip all probe-address
        arithmetic."""
        ts = timestamp if self.store_timestamps else None
        free_slot: Optional[Tuple[int, int]] = None
        buckets = self._buckets
        bucket_entries = self.bucket_entries
        size = self.size

        for i, row in enumerate(src_rows):
            row_base = row * size
            for j, col in enumerate(dst_cols):
                bucket = buckets.get(row_base + col)
                if bucket is None:
                    if free_slot is None:
                        free_slot = (i, j)
                    continue
                for entry in bucket:
                    if (entry.src_probe == i and entry.dst_probe == j
                            and entry.src_fingerprint == src_fingerprint
                            and entry.dst_fingerprint == dst_fingerprint
                            and (ts is None or entry.timestamp == ts)):
                        entry.weight += weight
                        # start/end-time tracking is inlined (twice: here and
                        # on the append path) — this is the ingest hot loop.
                        if ts is not None:
                            if self.start_time is None or ts < self.start_time:
                                self.start_time = ts
                            if self.end_time is None or ts > self.end_time:
                                self.end_time = ts
                        return entry
                if free_slot is None and len(bucket) < bucket_entries:
                    free_slot = (i, j)

        if free_slot is None:
            return None
        i, j = free_slot
        entry = MatrixEntry(src_fingerprint, dst_fingerprint, i, j, weight, ts)
        self._bucket(src_rows[i], dst_cols[j]).append(entry)
        self._entry_count += 1
        if ts is not None:
            if self.start_time is None or ts < self.start_time:
                self.start_time = ts
            if self.end_time is None or ts > self.end_time:
                self.end_time = ts
        return entry

    def decrement(self, src_fingerprint: int, dst_fingerprint: int,
                  src_address: int, dst_address: int, weight: float,
                  timestamp: Optional[int] = None) -> bool:
        """Subtract ``weight`` from the matching entry (deletion support).

        Returns True if a matching entry was found.
        """
        ts = timestamp if self.store_timestamps else None
        for i in range(self.num_probes):
            row = probe_address(src_address, i, src_fingerprint, self.size)
            for j in range(self.num_probes):
                col = probe_address(dst_address, j, dst_fingerprint, self.size)
                bucket = self._buckets.get(row * self.size + col)
                if not bucket:
                    continue
                for entry in bucket:
                    if (entry.matches(src_fingerprint, dst_fingerprint, ts)
                            and entry.src_probe == i and entry.dst_probe == j):
                        entry.weight -= weight
                        return True
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    # hot-path
    def query_edge(self, src_fingerprint: int, dst_fingerprint: int,
                   src_address: int, dst_address: int,
                   t_start: Optional[int] = None,
                   t_end: Optional[int] = None) -> float:
        """Sum the stored weight of entries identifying ``(src, dst)``.

        For leaf matrices an optional ``[t_start, t_end]`` filter restricts
        the sum to items whose timestamp falls in the range.
        """
        total = 0.0
        for i in range(self.num_probes):
            row = probe_address(src_address, i, src_fingerprint, self.size)
            for j in range(self.num_probes):
                col = probe_address(dst_address, j, dst_fingerprint, self.size)
                bucket = self._buckets.get(row * self.size + col)
                if not bucket:
                    continue
                for entry in bucket:
                    if entry.src_probe != i or entry.dst_probe != j:
                        continue
                    if not entry.matches(src_fingerprint, dst_fingerprint):
                        continue
                    if self.store_timestamps and t_start is not None:
                        if entry.timestamp is None:
                            continue
                        if not (t_start <= entry.timestamp <= t_end):
                            continue
                    total += entry.weight
        return total

    # hot-path
    def query_vertex(self, fingerprint: int, address: int, *,
                     direction: str = "out",
                     t_start: Optional[int] = None,
                     t_end: Optional[int] = None) -> float:
        """Sum weights of entries whose source (``out``) or destination
        (``in``) endpoint identifies the queried vertex."""
        total = 0.0
        size = self.size
        for i in range(self.num_probes):
            lane = probe_address(address, i, fingerprint, size)
            if direction == "out":
                cols = self._rows.get(lane, ())
                cells = (lane * size + col for col in cols)
            else:
                rows = self._cols.get(lane, ())
                cells = (row * size + lane for row in rows)
            for cell in cells:
                bucket = self._buckets.get(cell)
                if not bucket:
                    continue
                for entry in bucket:
                    if direction == "out":
                        if entry.src_probe != i or entry.src_fingerprint != fingerprint:
                            continue
                    else:
                        if entry.dst_probe != i or entry.dst_fingerprint != fingerprint:
                            continue
                    if self.store_timestamps and t_start is not None:
                        if entry.timestamp is None:
                            continue
                        if not (t_start <= entry.timestamp <= t_end):
                            continue
                    total += entry.weight
        return total

    # ------------------------------------------------------------------ #
    # aggregation support
    # ------------------------------------------------------------------ #

    # hot-path
    def canonical_entries_arrays(self):
        """``(f(s), f(d), h(s), h(d), weight)`` arrays, one row per entry.

        Addresses are the *canonical* (probe index 0) addresses, recovered
        vectorized from the bucket coordinates and the stored probe indices
        (``base = probed - probe * (2 * fp + 1) mod size``).  Timestamps
        are omitted — the only consumer is the parent-level aggregation,
        which drops them.
        """
        src_fps: List[int] = []
        dst_fps: List[int] = []
        rows: List[int] = []
        cols: List[int] = []
        src_probes: List[int] = []
        dst_probes: List[int] = []
        weights: List[float] = []
        size = self.size
        for key, bucket in self._buckets.items():
            row, col = divmod(key, size)
            for entry in bucket:
                src_fps.append(entry.src_fingerprint)
                dst_fps.append(entry.dst_fingerprint)
                rows.append(row)
                cols.append(col)
                src_probes.append(entry.src_probe)
                dst_probes.append(entry.dst_probe)
                weights.append(entry.weight)
        fs = np.asarray(src_fps, dtype=np.int64)
        fd = np.asarray(dst_fps, dtype=np.int64)
        hs = (np.asarray(rows, dtype=np.int64)
              - np.asarray(src_probes, dtype=np.int64) * (2 * fs + 1)) % size
        hd = (np.asarray(cols, dtype=np.int64)
              - np.asarray(dst_probes, dtype=np.int64) * (2 * fd + 1)) % size
        return fs, fd, hs, hd, np.asarray(weights, dtype=np.float64)

    def __len__(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"CompressedMatrix(size={self.size}, entries={self._entry_count}/"
                f"{self.capacity}, timestamps={self.store_timestamps})")
