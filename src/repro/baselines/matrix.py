"""Compressed matrices: the storage primitive of the GSS-style baselines.

A compressed matrix (paper Section IV-A) is a ``d × d`` grid of buckets.
Each bucket holds up to ``b`` entries, and an entry records
``(f(s), f(d), probe indices, weight)``.  With the *multiple mapping
buckets* optimization an edge has ``r × r`` candidate buckets obtained from
per-vertex probe sequences; the probe index pair ``(i, j)`` is stored so an
entry's canonical addresses stay recoverable.  The Horae, AuxoTime and Auxo
baselines keep their layers in these matrices.  HIGGS keeps the paper's
placement rule but not the bucket storage (see
:class:`~repro.core.node.LeafNode`), and its tests use this matrix as the
placement oracle.

The implementation stores buckets sparsely (only occupied buckets allocate a
Python list), while the analytic memory model charges the full pre-allocated
capacity ``d² · b`` entries — matching how the paper accounts space for the
C++ arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.hashing import probe_address, probe_step
from ..errors import ConfigurationError


@dataclass(slots=True)
class MatrixEntry:
    """One stored edge record inside a bucket.

    ``src_probe`` / ``dst_probe`` are the probe indices of the bucket this
    entry landed in, relative to the canonical addresses of its endpoints.
    """

    src_fingerprint: int
    dst_fingerprint: int
    src_probe: int
    dst_probe: int
    weight: float

    def matches(self, src_fingerprint: int, dst_fingerprint: int) -> bool:
        """Return True if this entry carries the given fingerprints."""
        return (self.src_fingerprint == src_fingerprint
                and self.dst_fingerprint == dst_fingerprint)


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
    entry_bytes:
        Analytic size of one entry, used by :meth:`memory_bytes`.
    """

    __slots__ = ("size", "bucket_entries", "num_probes", "entry_bytes",
                 "_buckets", "_rows", "_cols", "_entry_count")

    def __init__(self, size: int, bucket_entries: int, *, num_probes: int = 1,
                 entry_bytes: int = 16) -> None:
        if size < 1:
            raise ConfigurationError("matrix size must be positive")
        if bucket_entries < 1:
            raise ConfigurationError("bucket_entries must be >= 1")
        if num_probes < 1:
            raise ConfigurationError("num_probes must be >= 1")
        self.size = size
        self.bucket_entries = bucket_entries
        self.num_probes = num_probes
        self.entry_bytes = entry_bytes
        #: Sparse bucket grid keyed by the flat index ``row * size + col``
        #: (an int key avoids a tuple allocation per probe in the hot path).
        self._buckets: Dict[int, List[MatrixEntry]] = {}
        self._rows: Dict[int, Set[int]] = {}
        self._cols: Dict[int, Set[int]] = {}
        self._entry_count = 0

    # ------------------------------------------------------------------ #
    # capacity & bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Total number of entry slots (``d² · b``)."""
        return self.size * self.size * self.bucket_entries

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

    def probe_rows(self, fingerprint: int, address: int) -> Tuple[int, ...]:
        """The vertex's candidate row/column indices, probe order."""
        step = probe_step(fingerprint)
        size = self.size
        return tuple((address + i * step) % size for i in range(self.num_probes))

    def insert(self, src_fingerprint: int, dst_fingerprint: int,
               src_address: int, dst_address: int, weight: float) -> bool:
        """Insert (or accumulate) one item.  Returns False if every candidate
        bucket is full and no matching entry exists (an insertion failure in
        the paper's terminology)."""
        src_rows = self.probe_rows(src_fingerprint, src_address)
        dst_cols = self.probe_rows(dst_fingerprint, dst_address)
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
                            and entry.dst_fingerprint == dst_fingerprint):
                        entry.weight += weight
                        return True
                if free_slot is None and len(bucket) < bucket_entries:
                    free_slot = (i, j)

        if free_slot is None:
            return False
        i, j = free_slot
        entry = MatrixEntry(src_fingerprint, dst_fingerprint, i, j, weight)
        self._bucket(src_rows[i], dst_cols[j]).append(entry)
        self._entry_count += 1
        return True

    def decrement(self, src_fingerprint: int, dst_fingerprint: int,
                  src_address: int, dst_address: int, weight: float) -> bool:
        """Subtract ``weight`` from the matching entry (deletion support).

        Returns True if a matching entry was found.
        """
        for i in range(self.num_probes):
            row = probe_address(src_address, i, src_fingerprint, self.size)
            for j in range(self.num_probes):
                col = probe_address(dst_address, j, dst_fingerprint, self.size)
                bucket = self._buckets.get(row * self.size + col)
                if not bucket:
                    continue
                for entry in bucket:
                    if (entry.matches(src_fingerprint, dst_fingerprint)
                            and entry.src_probe == i and entry.dst_probe == j):
                        entry.weight -= weight
                        return True
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query_edge(self, src_fingerprint: int, dst_fingerprint: int,
                   src_address: int, dst_address: int) -> float:
        """Sum the stored weight of entries identifying ``(src, dst)``."""
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
                    total += entry.weight
        return total

    def query_vertex(self, fingerprint: int, address: int, *,
                     direction: str = "out") -> float:
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
                    total += entry.weight
        return total

    def __len__(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"CompressedMatrix(size={self.size}, entries={self._entry_count}/"
                f"{self.capacity})")
