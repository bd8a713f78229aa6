"""Shard worker abstraction for sharded execution.

The sharded summary engine (:mod:`repro.sharding`) scatters batch-sized
method calls across one worker per shard and gathers the results.
:class:`ShardWorker` and its two implementations
(:class:`InlineShardWorker`, :class:`ProcessShardWorker`) give it a uniform
submit/collect protocol for dispatching named method calls to a long-lived
target object, inline or in a child process.

Every shard worker tracks the cumulative wall-clock time it spent executing
calls and the number of calls it executed (:meth:`ShardWorker.stats`), which
the benchmark harness uses to report per-shard load balance and projected
parallel ingest time.

A process worker's calls and results are pickled through its pipe.  Large
edge batches travel as :class:`PackedEdges` (a vertex table plus 24-byte
records) instead of lists of edge objects, which pickle smaller and which
:meth:`~repro.core.higgs.Higgs.insert_batch` ingests without building edge
objects in the child.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import pickle
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShardingError
from ..streams.edge import StreamEdge, Vertex
from .vectorized import int64_timestamps, real_weights

#: Reserved method name: returns the worker's load counters —
#: ``{"busy_seconds": float, "calls": int}`` — in one round trip instead of
#: invoking the target (handled uniformly by every worker implementation).
#: The stats call itself never counts toward the counters it reports.
STATS_OP = "__stats__"

#: Reserved method name: a no-op barrier.  Because every worker serves its
#: calls in FIFO order, collecting the result of a drain op proves that every
#: call submitted before it has finished executing — the epoch barrier the
#: serving engine builds on (see :meth:`ShardWorker.drain`).
DRAIN_OP = "__drain__"

#: Reserved method name: returns the target serialized to ``pickle`` bytes
#: instead of invoking a target method.  The elastic-sharding layer builds
#: snapshots and live shard migration on this op: the payload is produced
#: inside the worker (child process for process workers), so the caller
#: never needs direct access to the target object.
SERIALIZE_OP = "__serialize__"

#: Reserved method name: replaces the worker's target with the object
#: deserialized from the single ``bytes`` argument.  The inverse of
#: :data:`SERIALIZE_OP`; restore and migration swap shard state in through
#: this op, on whatever execution vehicle the worker uses.
LOAD_OP = "__load__"

#: How often the process-worker collect loop re-checks child liveness, in
#: seconds.  Small enough that a dead child surfaces promptly; large enough
#: that polling stays invisible next to real shard work.
_COLLECT_POLL_SECONDS = 0.05

#: Per-edge packed record: vertex-table indices, weight, timestamp.
#: 24 bytes per edge, little-endian, alignment-free.
EDGE_DTYPE = [("src", "<i4"), ("dst", "<i4"),
              ("weight", "<f8"), ("timestamp", "<i8")]

#: Bytes per packed edge record (fixed by :data:`EDGE_DTYPE`).
RECORD_BYTES = 24

#: Batches smaller than this are cheaper to pickle than to pack (the
#: vertex-table indexing pass costs more than the pickle savings).
MIN_PACK_EDGES = 32


class PackedEdges:
    """A batch of stream edges in packed (vertex table + records) form.

    This is the form in which :class:`ProcessShardWorker` pickles large edge
    batches to its child.  Iterating yields
    :class:`~repro.streams.edge.StreamEdge` objects, so any summary accepts
    a packed batch wherever it accepts an edge list; HIGGS skips that
    entirely through :meth:`packed_arrays`, which is the duck-typed fast
    path :meth:`repro.core.higgs.Higgs.insert_batch` probes for with
    ``getattr``.
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

    Raises ``ValueError`` for a weight that is not a real number
    (:func:`~repro.core.vectorized.real_weights`), ``TypeError`` for a
    timestamp that is not an integer and ``OverflowError`` for one outside
    ``int64`` (:func:`~repro.core.vectorized.int64_timestamps`), and
    whatever reading the edge attributes raises; callers treat any failure
    as "send the list instead", so the summary that receives the list
    decides.
    """
    index: Dict[Vertex, int] = {}
    setdefault = index.setdefault
    src_idx: List[int] = []
    dst_idx: List[int] = []
    weights: List[Any] = []
    timestamps: List[Any] = []
    for edge in edges:
        src_idx.append(setdefault(edge.source, len(index)))
        dst_idx.append(setdefault(edge.destination, len(index)))
        weights.append(edge.weight)
        timestamps.append(edge.timestamp)
    # Packing fails with the builtin errors numpy's conversions raise; the
    # worker catches them and sends the list instead.
    values = real_weights(weights)
    if len(values) < len(weights):
        # repro-lint: ok ERR001 — see above
        raise ValueError(
            f"weight {weights[len(values)]!r} is not a real number")
    stamps = int64_timestamps(timestamps)
    if len(stamps) < len(timestamps):
        stamp = timestamps[len(stamps)]
        if isinstance(stamp, Integral):
            # repro-lint: ok ERR001 — see above
            raise OverflowError(f"timestamp {stamp} is outside int64")
        # repro-lint: ok ERR001 — see above
        raise TypeError(f"timestamp {stamp!r} is not an integer")
    records = np.empty(len(src_idx), dtype=EDGE_DTYPE)
    records["src"] = src_idx
    records["dst"] = dst_idx
    records["weight"] = values
    records["timestamp"] = stamps
    return PackedEdges(list(index), records)


@dataclass(slots=True)
class ShardResult:
    """Outcome of one shard-worker call.

    Attributes
    ----------
    ok:
        True when the call returned normally.
    value:
        The call's return value (None on failure).
    error:
        The exception that aborted the call (None on success).  For process
        workers the original exception cannot always cross the process
        boundary, so it is re-materialized as a :class:`ShardingError`
        carrying the original type name and message.
    """

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None


class ShardWorker(ABC):
    """One long-lived worker owning a target object (an inner summary).

    The protocol is submit/collect: :meth:`submit` dispatches a named method
    call on the target, :meth:`collect` returns one :class:`ShardResult` per
    submitted call, in submission order.  Callers keep at most a small,
    bounded number of calls in flight (the sharded engine's
    ``insert_stream`` keeps two partition rounds submitted, every other
    engine operation one call per shard), and collection order is
    submission order.

    Every worker carries a :attr:`name` (the engine uses ``"shard-<i>"``)
    that failure messages embed, so a dead worker is attributable to its
    shard without extra bookkeeping on the caller's side.
    """

    #: Human-readable worker identity, embedded in failure messages.
    name: str = "shard"

    @abstractmethod
    def submit(self, method: str, args: Tuple = (), kwargs: Optional[dict] = None) -> None:
        """Dispatch ``target.<method>(*args, **kwargs)`` asynchronously."""

    @abstractmethod
    def collect(self, timeout: Optional[float] = None) -> ShardResult:
        """Return the result of the oldest submitted, uncollected call.

        ``timeout`` bounds the wait in seconds; when it elapses the call is
        abandoned and a failed :class:`ShardResult` carrying a
        :class:`~repro.errors.ShardingError` is returned instead of blocking
        forever.  The abandoned call's eventual result is discarded
        internally, so later collects still pair with their own calls.
        ``None`` waits indefinitely (but never past the death of the
        worker's execution vehicle — a dead worker fails fast).
        """

    @abstractmethod
    def close(self) -> None:
        """Shut the worker down and release its resources (idempotent)."""

    def alive(self) -> bool:
        """Whether the worker's execution vehicle can still serve calls.

        Inline workers are always alive; process workers report the
        liveness of their child.  A worker that was :meth:`close`\\ d is not
        alive.  The sharded engine's crash recovery polls this to
        decide which shards need rebuilding.
        """
        return True

    def call(self, method: str, *args: Any, **kwargs: Any) -> ShardResult:
        """Synchronous convenience: submit one call and collect its result."""
        self.submit(method, args, kwargs or None)
        return self.collect()

    @property
    def outstanding(self) -> int:
        """Number of submitted calls whose results are not yet collected."""
        return self._outstanding

    def stats(self) -> dict:
        """Load counters of this worker: ``busy_seconds`` and ``calls``.

        One round trip through the reserved :data:`STATS_OP`; a dead worker
        reports zeros rather than raising, so a metrics sweep over a pool
        with a crashed shard still completes.
        """
        result = self.call(STATS_OP)
        if result.ok and isinstance(result.value, dict):
            return dict(result.value)
        return {"busy_seconds": 0.0, "calls": 0}

    def transport_stats(self) -> dict:
        """Wire-transport counters of this worker.

        Non-trivial only for :class:`ProcessShardWorker` (the only worker
        with a wire); inline workers pass arguments by reference and report
        zeros, so pool-wide sweeps need no type dispatch.
        """
        return {"packed_batches": 0, "packed_bytes": 0, "fallback_batches": 0}

    def drain(self, timeout: Optional[float] = None) -> ShardResult:
        """Block until every previously submitted call has finished.

        Submits the reserved no-op :data:`DRAIN_OP`; FIFO service order
        makes collecting its result a barrier.  Results of calls that were
        submitted but never collected are **discarded** on the way — after
        a barrier they can no longer be attributed to their callers — so
        callers that still need those results must collect them *before*
        draining (:class:`~repro.sharding.PendingBatch` enforces this at
        the engine level).  ``timeout`` bounds each internal wait, not the
        whole drain.  Returns the drain op's :class:`ShardResult` (failed
        when the worker died or a wait timed out), so a worker pool can be
        quiesced with per-shard failure attribution.
        """
        owed = self.outstanding
        self.submit(DRAIN_OP)
        result = ShardResult(True, None)
        for _ in range(owed + 1):
            result = self.collect(timeout)
        return result


def _apply_reserved(holder: Any, method: str, args: Tuple,
                    busy: List[float]) -> Optional[ShardResult]:
    """Execute a reserved op against ``holder.target``; ``None`` otherwise.

    ``holder`` is any object with a mutable ``target`` attribute (the worker
    itself, or the child process's target holder).  Reserved ops never count
    toward busy time or the call counter: those counters feed scale-out
    projections and load dashboards of real shard work, and
    snapshot/migration/metrics traffic would distort them.
    """
    if method == STATS_OP:
        return ShardResult(True, {"busy_seconds": busy[0],
                                  "calls": busy[1]})
    if method == DRAIN_OP:
        return ShardResult(True, None)
    if method == SERIALIZE_OP:
        try:
            return ShardResult(True, pickle.dumps(holder.target,
                                                  pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # noqa: BLE001 - reported via ShardResult
            return ShardResult(False, None, exc)
    if method == LOAD_OP:
        try:
            holder.target = pickle.loads(args[0])
            return ShardResult(True, None)
        except BaseException as exc:  # noqa: BLE001 - reported via ShardResult
            return ShardResult(False, None, exc)
    return None


def _timed_invoke(target: Any, method: str, args: Tuple, kwargs: Optional[dict],
                  busy: List[float]) -> Any:
    """Invoke ``target.<method>``; add elapsed time to ``busy[0]`` and one
    call to ``busy[1]``."""
    start = time.perf_counter()
    try:
        bound = getattr(target, method)
        return bound(*args) if not kwargs else bound(*args, **kwargs)
    finally:
        busy[0] += time.perf_counter() - start
        busy[1] += 1


class InlineShardWorker(ShardWorker):
    """Executes calls synchronously in the caller's thread.

    This is the ``"serial"`` executor mode: no concurrency, no queues, and
    direct access to the target object (used by tests and by analyses that
    inspect per-shard structures).
    """

    def __init__(self, factory: Callable[[], Any], *, name: str = "shard") -> None:
        self.target = factory()
        self.name = name
        self._busy = [0.0, 0]
        self._pending: List[ShardResult] = []

    @property
    def outstanding(self) -> int:
        """Number of submitted calls whose results are not yet collected."""
        return len(self._pending)

    def submit(self, method: str, args: Tuple = (), kwargs: Optional[dict] = None) -> None:
        reserved = _apply_reserved(self, method, args, self._busy)
        if reserved is not None:
            self._pending.append(reserved)
            return
        try:
            value = _timed_invoke(self.target, method, args, kwargs, self._busy)
            self._pending.append(ShardResult(True, value))
        except BaseException as exc:  # noqa: BLE001 - reported via ShardResult
            self._pending.append(ShardResult(False, None, exc))

    def collect(self, timeout: Optional[float] = None) -> ShardResult:
        return self._pending.pop(0)

    def close(self) -> None:
        self._pending.clear()


class _TargetHolder:
    """Mutable cell holding a worker process's target object.

    Exists so :data:`LOAD_OP` can swap the target in place via
    :func:`_apply_reserved`, which writes through a ``target`` attribute.
    """

    __slots__ = ("target",)

    def __init__(self, target: Any) -> None:
        self.target = target


def _process_worker_main(factory: Callable[[], Any], conn) -> None:
    """Entry point of a shard worker process.

    Builds the target from ``factory``, acknowledges readiness, then serves
    ``(method, args, kwargs)`` requests until the ``None`` sentinel arrives.
    Exceptions are reduced to ``(type name, message)`` pairs because arbitrary
    exception objects may not pickle.
    """
    # A forked child starts with a copy of the parent's whole heap.  Freeze
    # it, so the worker's collections walk only the objects it creates.
    gc.freeze()
    try:
        holder = _TargetHolder(factory())
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("fatal", (type(exc).__name__, str(exc))))
        conn.close()
        return
    conn.send(("ready", None))
    busy = [0.0, 0]
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            if request is None:
                break
            method, args, kwargs = request
            reserved = _apply_reserved(holder, method, args, busy)
            if reserved is not None:
                if reserved.ok:
                    conn.send(("ok", reserved.value))
                else:
                    error = reserved.error
                    conn.send(("err", (type(error).__name__, str(error))))
                continue
            try:
                value = _timed_invoke(holder.target, method, args, kwargs, busy)
                conn.send(("ok", value))
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                conn.send(("err", (type(exc).__name__, str(exc))))
    finally:
        conn.close()


class ProcessShardWorker(ShardWorker):
    """Executes calls in a dedicated child process (true parallelism).

    The factory and every call's arguments and return value must be
    picklable.  The target lives exclusively in the child, so
    :attr:`target` is ``None`` here; engines that need direct access to
    shard summaries must use the serial executor.

    Raises
    ------
    ShardingError
        From the constructor when the factory fails in the child, and from
        :meth:`collect` when the child dies mid-call.
    """

    target = None

    def __init__(self, factory: Callable[[], Any], *, name: str = "shard") -> None:
        self.name = name
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(target=_process_worker_main,
                                    args=(factory, child_conn),
                                    name=name, daemon=True)
        self._process.start()
        child_conn.close()
        self._closed = False
        #: One marker per uncollected submit: "sent" means a result will
        #: arrive on the pipe, "failed" means the send itself failed and
        #: collect() must synthesize the failure.  Keeping the markers in
        #: submission order preserves the submit/collect pairing even when
        #: the child dies mid-scatter.
        self._submit_markers: List[str] = []  # guarded-by: owner=submit,collect
        #: Results owed by calls a timed-out collect abandoned.  The child
        #: still delivers them eventually; collect discards exactly this many
        #: as they arrive, so later collects keep pairing with their own
        #: calls.
        self._stale = 0  # guarded-by: owner=collect
        self._outstanding = 0  # guarded-by: owner=submit,collect
        #: Counters reported by :meth:`transport_stats`.
        self._packed_batches = 0
        self._packed_bytes = 0
        self._fallback_batches = 0
        status, payload = self._conn.recv()
        if status != "ready":
            type_name, message = payload
            self._process.join()
            self._closed = True
            raise ShardingError(
                f"shard worker factory failed in child process: "
                f"{type_name}: {message}")

    def submit(self, method: str, args: Tuple = (), kwargs: Optional[dict] = None) -> None:
        if self._closed:
            raise ShardingError("submit on a closed shard worker")
        try:
            self._conn.send((method, self._maybe_pack(args), kwargs))
        except (BrokenPipeError, OSError):
            # A dead child must not leak a raw OSError out of submit (and
            # thereby desynchronize the caller's scatter loop); the failure
            # is delivered through the matching collect() instead.
            self._submit_markers.append("failed")
            self._outstanding += 1
            return
        self._submit_markers.append("sent")
        self._outstanding += 1

    def _maybe_pack(self, args: Tuple) -> Tuple:
        """Swap a large edge-list argument for its :class:`PackedEdges` form.

        Packing is attempted only when the call carries exactly one
        positional argument that is a list/tuple of at least
        :data:`MIN_PACK_EDGES` edge-shaped items; every other case —
        including a mid-pack conversion error — sends the arguments
        untouched.  The packed batch pickles with the call, and the child
        hands it to the target as it arrives.
        """
        if len(args) != 1 or not isinstance(args[0], (list, tuple)):
            return args
        batch = args[0]
        if len(batch) < MIN_PACK_EDGES:
            return args
        first = batch[0]
        if not (hasattr(first, "source") and hasattr(first, "destination")
                and hasattr(first, "weight") and hasattr(first, "timestamp")):
            return args
        try:
            packed = pack_edges(batch)
        except (TypeError, AttributeError, OverflowError, ValueError):
            self._fallback_batches += 1
            return args
        self._packed_batches += 1
        self._packed_bytes += packed.records.nbytes
        return (packed,)

    def transport_stats(self) -> dict:
        """Packed-batch counters of this worker (parent side): batches sent
        packed, their record bytes, and batches sent as lists because
        packing failed."""
        return {"packed_batches": self._packed_batches,
                "packed_bytes": self._packed_bytes,
                "fallback_batches": self._fallback_batches}

    def collect(self, timeout: Optional[float] = None) -> ShardResult:
        self._outstanding = max(0, self._outstanding - 1)
        marker = self._submit_markers.pop(0) if self._submit_markers else "sent"
        if marker == "failed":
            return self._death_result()
        # Poll instead of a blocking recv: a child that dies between submit
        # and collect (crash, OOM-kill, SIGKILL) may leave nothing on the
        # pipe, and an unbounded recv would hang the caller forever.  The
        # loop waits in short slices, re-checking child liveness each round
        # and honouring the caller's overall timeout.
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(_COLLECT_POLL_SECONDS):
                    status, payload = self._conn.recv()
                    if self._stale:
                        # A result owed to an earlier timed-out collect:
                        # discard it and keep waiting for this call's own.
                        self._stale -= 1
                        continue
                    break
            except (EOFError, OSError):
                return self._death_result()
            if not self._process.is_alive():
                # One last zero-wait poll: the child may have flushed its
                # result just before exiting.
                with contextlib.suppress(EOFError, OSError):
                    if self._conn.poll(0):
                        status, payload = self._conn.recv()
                        if self._stale:
                            self._stale -= 1
                            continue
                        break
                return self._death_result()
            if deadline is not None and time.monotonic() >= deadline:
                # Abandon the call but remember that its result is still
                # coming, so later collects keep pairing with their calls.
                self._stale += 1
                return ShardResult(False, None, ShardingError(
                    f"timed out after {timeout:.3f}s waiting for shard "
                    f"worker {self.name!r}"))
        if status == "ok":
            return ShardResult(True, payload)
        type_name, message = payload
        return ShardResult(False, None,
                           ShardingError(f"shard worker call failed on "
                                         f"{self.name!r}: "
                                         f"{type_name}: {message}"))

    def alive(self) -> bool:
        """Whether the child process is still serving calls."""
        return not self._closed and self._process.is_alive()

    def _death_result(self) -> ShardResult:
        """Failed :class:`ShardResult` for a dead child, naming the shard."""
        exit_code = self._process.exitcode
        detail = f" (exit code {exit_code})" if exit_code is not None else ""
        return ShardResult(False, None, ShardingError(
            f"shard worker process {self.name!r} died between submit and "
            f"collect{detail}"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(BrokenPipeError, OSError):
            self._conn.send(None)
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
        self._conn.close()


def make_shard_worker(mode: str, factory: Callable[[], Any], *,
                      name: str = "shard") -> ShardWorker:
    """Build one :class:`ShardWorker` for executor ``mode``.

    Raises
    ------
    ShardingError
        If ``mode`` is not a known executor mode.
    """
    if mode == "serial":
        return InlineShardWorker(factory, name=name)
    if mode == "process":
        return ProcessShardWorker(factory, name=name)
    raise ShardingError(f"unknown shard executor mode {mode!r}")
