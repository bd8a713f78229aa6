"""Packed-edge wire format over shared memory for process shard workers.

Pickling a Python list of :class:`~repro.streams.edge.StreamEdge` objects
into a pipe is the dominant cost of scattering batches to
:class:`~repro.core.executor.ProcessShardWorker` children: every edge pays
object header, per-field pickle opcodes, and a copy on each side.  This
module replaces the payload with a **packed wire format**: the batch's
distinct vertices are indexed once, and the per-edge records (vertex
indices, weight, timestamp) are laid out as a structured numpy array
(:data:`EDGE_DTYPE`) inside a ``multiprocessing.shared_memory`` ring
buffer.  Only a tiny :class:`PackedBatchRef` (segment name, offset, count,
and the vertex table) crosses the pipe; the child maps the records
zero-copy and hands the summary a :class:`PackedEdges` batch, which
:meth:`~repro.core.higgs.Higgs.insert_batch` consumes through its
``packed_arrays()`` fast path without ever materializing edge objects.

Lifecycle
---------
The parent owns one :class:`ShmRingSender` per worker: a single fixed-size
segment carved into FIFO regions, one per in-flight packed batch.  Workers
serve calls in FIFO order, so the oldest live region is exactly the one
whose result arrives next; the parent frees it on every result arrival and
unlinks the whole segment when the worker dies or closes (crash-safe: a
dead child can never hold the segment open on Linux, and the parent's
unlink removes the name immediately).  The child's :class:`ShmRingReceiver`
attaches lazily on the first packed batch, **copies** the records out of
the mapping (so the parent may recycle the region the moment the result is
on the pipe), and detaches on shutdown.

Batches below :data:`MIN_PACK_EDGES`, batches that do not fit in the ring
and batches that cannot be packed travel as pickled lists instead —
packing is an optimization, never a semantic change.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..streams.edge import StreamEdge, Vertex

#: Per-edge wire record: vertex-table indices, weight, timestamp.
#: 24 bytes per edge, little-endian, alignment-free — the layout is part of
#: the parent/child protocol and must match on both sides (both map the
#: same bytes), which the explicit field types guarantee.
EDGE_DTYPE = [("src", "<i4"), ("dst", "<i4"),
              ("weight", "<f8"), ("timestamp", "<i8")]

#: Bytes per packed edge record (fixed by :data:`EDGE_DTYPE`).
RECORD_BYTES = 24

#: Default ring-buffer capacity per worker.  At 24 bytes/edge this holds
#: ~43k in-flight edges — dozens of engine-sized batches; batches that do
#: not fit fall back to the pickled path rather than blocking.
DEFAULT_RING_BYTES = 1 << 20

#: Batches smaller than this are cheaper to pickle than to pack (the
#: vertex-table indexing pass costs more than the pickle savings).
MIN_PACK_EDGES = 32


class PackedEdges:
    """A batch of stream edges in packed (vertex table + records) form.

    Iterating yields :class:`~repro.streams.edge.StreamEdge` objects, so any
    summary accepts a packed batch wherever it accepts an edge list; HIGGS
    skips that entirely through :meth:`packed_arrays`, which is the
    duck-typed fast path :meth:`repro.core.higgs.Higgs.insert_batch` probes
    for with ``getattr``.
    """

    __slots__ = ("vertices", "records")

    def __init__(self, vertices: Sequence[Vertex], records: "np.ndarray") -> None:
        self.vertices = vertices
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[StreamEdge]:
        vertices = self.vertices
        for src, dst, weight, timestamp in self.records.tolist():
            yield StreamEdge(vertices[src], vertices[dst], weight, timestamp)

    def packed_arrays(self) -> Tuple[Sequence[Vertex], "np.ndarray",
                                     "np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(vertices, src_idx, dst_idx, weights, timestamps)`` arrays.

        The contract of the bulk-insert fast path: vertex-table indices per
        edge plus parallel weight/timestamp arrays, in batch order.
        """
        records = self.records
        return (self.vertices, records["src"], records["dst"],
                records["weight"], records["timestamp"])


def pack_edges(edges: Sequence) -> PackedEdges:
    """Pack an edge sequence into a :class:`PackedEdges` batch.

    Raises whatever the edge attributes raise on conversion (``TypeError``
    for unpackable weights, ``OverflowError`` for out-of-range timestamps,
    ...); callers treat any failure as "pickle instead".
    """
    index: Dict[Vertex, int] = {}
    setdefault = index.setdefault
    records = np.empty(len(edges), dtype=EDGE_DTYPE)
    src_col = records["src"]
    dst_col = records["dst"]
    weight_col = records["weight"]
    ts_col = records["timestamp"]
    for position, edge in enumerate(edges):
        src_col[position] = setdefault(edge.source, len(index))
        dst_col[position] = setdefault(edge.destination, len(index))
        weight_col[position] = edge.weight
        ts_col[position] = int(edge.timestamp)
    return PackedEdges(list(index), records)


@dataclass(frozen=True, slots=True)
class PackedBatchRef:
    """Pipe-sized reference to a packed batch living in shared memory.

    Crosses the parent→child pipe in place of the edge list; the child
    resolves it through its :class:`ShmRingReceiver`.  The vertex table
    rides along in the ref (vertex identifiers are arbitrary Python values
    and pickle compactly once per distinct vertex).
    """

    shm_name: str
    offset: int
    count: int
    vertices: Tuple[Vertex, ...]


class ShmRingSender:
    """Parent-side FIFO ring allocator over one shared-memory segment.

    Regions are allocated at :attr:`_head` and freed strictly oldest-first
    (:meth:`free_oldest`), mirroring the FIFO submit/collect protocol of
    :class:`~repro.core.executor.ShardWorker`.  When the live list empties
    the head resets to zero, and an allocation that does not fit contiguously
    before the oldest live region simply fails (the caller falls back to
    pickling) — the ring never blocks and never fragments.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_RING_BYTES) -> None:
        from multiprocessing import shared_memory
        self._shm = shared_memory.SharedMemory(create=True, size=capacity)
        self.capacity = capacity
        self.name = name
        self._head = 0
        self._live: List[Tuple[int, int]] = []
        #: Transport counters surfaced via worker/engine stats.
        self.packed_batches = 0
        self.packed_bytes = 0

    @property
    def shm_name(self) -> str:
        """OS-level name of the segment (what the child attaches to)."""
        return self._shm.name

    @property
    def live_regions(self) -> int:
        """Number of in-flight packed batches currently holding ring space."""
        return len(self._live)

    def send(self, packed: PackedEdges) -> Optional[PackedBatchRef]:
        """Copy a packed batch into the ring; ``None`` when it does not fit."""
        nbytes = packed.records.nbytes
        offset = self._alloc(nbytes)
        if offset is None:
            return None
        view = np.ndarray(len(packed.records), dtype=EDGE_DTYPE,
                          buffer=self._shm.buf, offset=offset)
        view[:] = packed.records
        self.packed_batches += 1
        self.packed_bytes += nbytes
        return PackedBatchRef(self._shm.name, offset, len(packed.records),
                              tuple(packed.vertices))

    def _alloc(self, nbytes: int) -> Optional[int]:
        if nbytes > self.capacity:
            return None
        if not self._live:
            self._head = 0
        tail = self._live[0][0] if self._live else 0
        head = self._head
        if not self._live or head > tail:
            # Free space is [head, capacity) then [0, tail).
            if nbytes <= self.capacity - head:
                offset = head
            elif nbytes < tail:
                offset = 0
            else:
                return None
        else:
            # Free space is [head, tail) only.
            if nbytes > tail - head:
                return None
            offset = head
        self._live.append((offset, nbytes))
        self._head = offset + nbytes
        return offset

    def free_oldest(self) -> None:
        """Release the oldest live region (its result arrived)."""
        if self._live:
            self._live.pop(0)

    def cancel_last(self) -> None:
        """Release the newest live region (its submit never reached the child)."""
        if self._live:
            offset, _nbytes = self._live.pop()
            self._head = offset

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent, crash-safe)."""
        self._live.clear()
        with contextlib.suppress(BufferError, FileNotFoundError, OSError):
            self._shm.close()
        with contextlib.suppress(BufferError, FileNotFoundError, OSError):
            self._shm.unlink()


class ShmRingReceiver:
    """Child-side reader resolving :class:`PackedBatchRef` into batches.

    Attaches to the parent's segment lazily on the first ref and keeps the
    mapping for the worker's lifetime.  Records are **copied** out of the
    mapping — the parent recycles ring regions as soon as results arrive,
    so a zero-copy view could be overwritten while the summary still reads
    it.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, object] = {}

    def read(self, ref: PackedBatchRef) -> PackedEdges:
        """Materialize a packed batch from its shared-memory reference."""
        shm = self._segments.get(ref.shm_name)
        if shm is None:
            from multiprocessing import resource_tracker, shared_memory
            # CPython <3.13 registers attached segments with the resource
            # tracker as if this process owned them (bpo-39959); depending
            # on fork timing the worker's tracker may be its own or shared
            # with the parent, so both unregistering and leaving the
            # registration corrupt someone's bookkeeping.  Suppressing the
            # registration during attach is the one variant that is correct
            # in both topologies: the parent's create/unlink pair stays the
            # sole owner of the segment's lifetime.
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=ref.shm_name)
            finally:
                resource_tracker.register = original_register
            self._segments[ref.shm_name] = shm
        view = np.ndarray(ref.count, dtype=EDGE_DTYPE,
                          buffer=shm.buf, offset=ref.offset)
        return PackedEdges(list(ref.vertices), view.copy())

    def close(self) -> None:
        """Detach from every mapped segment (idempotent)."""
        for shm in self._segments.values():
            with contextlib.suppress(BufferError, OSError):
                shm.close()  # type: ignore[attr-defined]
        self._segments.clear()
