"""Reusable fault-injection harness for the sharded engine's chaos tests.

Three kinds of fault, each aimed at a chosen shard and a chosen operation:

* **kill** — terminate the shard's worker process (process executor only),
  simulating a crash / OOM-kill at an exact point in the call sequence;
* **delay** — sleep before forwarding a call, widening race windows;
* **error** — synthesize a failed :class:`~repro.core.executor.ShardResult`
  without ever reaching the real worker, simulating a poisoned call.

The injection point is :class:`FaultyShardWorker`, a transparent wrapper
implementing the same submit/collect protocol as the workers it wraps, so
it can be swapped into ``ShardedSummary._workers[i]`` (``inject_fault``)
without the engine noticing.  Faults trigger when a submitted method name
matches :attr:`FaultSpec.method` (``"*"`` matches everything) and the
per-spec match counter reaches :attr:`FaultSpec.call_index`.

Also here: :func:`kill_worker` (immediate process kill, no wrapper) and
:func:`corrupt_byte` (flip one byte of a snapshot file on disk), shared by
``test_snapshot.py``, ``test_rebalance.py``, and the serving chaos tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.executor import ShardResult, ShardWorker
from repro.errors import ShardingError
from repro.sharding import ShardedSummary

#: Fault kinds understood by :class:`FaultSpec`.
KINDS = ("kill", "delay", "error")


@dataclass
class FaultSpec:
    """When and how to hurt a shard worker.

    Attributes
    ----------
    kind:
        ``"kill"`` (terminate the worker process), ``"delay"`` (sleep
        ``delay_s`` before forwarding), or ``"error"`` (fail the call with
        ``error`` without forwarding it).
    method:
        Method name that arms the fault; ``"*"`` arms on any call.
        Reserved ops (``__drain__`` etc.) match ``"*"`` too.
    call_index:
        Zero-based index among *matching* calls at which the fault fires
        (``0`` = the first matching call).
    delay_s:
        Sleep for ``"delay"`` faults, in seconds.
    error:
        Exception delivered by ``"error"`` faults; defaults to a
        :class:`~repro.errors.ShardingError` naming the injection.
    once:
        When ``True`` (default) the fault fires a single time; otherwise it
        fires on every matching call from ``call_index`` on.
    """

    kind: str
    method: str = "*"
    call_index: int = 0
    delay_s: float = 0.05
    error: Optional[BaseException] = None
    once: bool = True
    fired: int = field(default=0, init=False)
    _matched: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, "
                             f"got {self.kind!r}")

    def should_fire(self, method: str) -> bool:
        """Advance the match counter for ``method``; True when armed."""
        if self.method != "*" and method != self.method:
            return False
        matched = self._matched
        self._matched += 1
        if matched < self.call_index:
            return False
        if self.once and self.fired:
            return False
        self.fired += 1
        return True


class FaultyShardWorker(ShardWorker):
    """A shard worker wrapper injecting faults per a :class:`FaultSpec`.

    Forwards the submit/collect protocol to ``inner`` untouched except when
    the spec fires:

    * ``"kill"`` terminates the inner worker's child process *before*
      forwarding the submit, once the call submitted before it has finished
      (:func:`await_earlier_result`), so this call, and only this one,
      lands on a dead worker exactly the way a mid-call crash would
      (requires a process-executor inner worker);
    * ``"delay"`` sleeps, then forwards;
    * ``"error"`` swallows the submit and queues a synthetic failed result,
      keeping the FIFO submit/collect pairing intact.
    """

    def __init__(self, inner: ShardWorker, spec: FaultSpec) -> None:
        self.inner = inner
        self.spec = spec
        self.name = inner.name
        #: FIFO of injection markers, one per uncollected submit: True when
        #: the matching collect must synthesize the spec's error, False when
        #: it must forward to the inner worker.
        self._synthetic: List[bool] = []

    def submit(self, method: str, args: Tuple = (),
               kwargs: Optional[dict] = None) -> None:
        """Forward one submit, applying the fault if the spec fires."""
        if self.spec.should_fire(method):
            if self.spec.kind == "kill":
                await_earlier_result(self.inner)
                kill_inner_process(self.inner)
            elif self.spec.kind == "delay":
                time.sleep(self.spec.delay_s)
            else:  # error
                self._synthetic.append(True)
                return
        self._synthetic.append(False)
        self.inner.submit(method, args, kwargs)

    def collect(self, timeout: Optional[float] = None) -> ShardResult:
        """Return the synthetic failure or the inner worker's result."""
        synthetic = self._synthetic.pop(0) if self._synthetic else False
        if synthetic:
            error = self.spec.error or ShardingError(
                f"injected fault on shard worker {self.name!r}")
            return ShardResult(False, None, error)
        return self.inner.collect(timeout)

    @property
    def outstanding(self) -> int:
        """Uncollected submits, including swallowed (synthetic) ones."""
        return len(self._synthetic)

    @property
    def target(self):
        """The inner worker's target (None for process workers)."""
        return self.inner.target

    def alive(self) -> bool:
        """Liveness of the wrapped worker."""
        return self.inner.alive()

    def close(self) -> None:
        """Close the wrapped worker."""
        self.inner.close()


def inject_fault(engine: ShardedSummary, shard: int, spec: FaultSpec
                 ) -> FaultyShardWorker:
    """Wrap ``engine``'s shard ``shard`` in a :class:`FaultyShardWorker`."""
    wrapper = FaultyShardWorker(engine._workers[shard], spec)
    engine._workers[shard] = wrapper
    return wrapper


def await_earlier_result(worker: ShardWorker, timeout: float = 5.0) -> None:
    """Wait until a (possibly wrapped) process worker with an uncollected
    call has put that call's result on its pipe.

    A kill fault targets one call; without this wait it also kills the
    call submitted before it whenever the child is still running that one
    (``insert_stream`` keeps two rounds in flight), and the engine then
    sees the failure a round early.  The child runs calls in order, so
    with one call outstanding, as with two rounds in flight, that call is
    done once the pipe holds a result.
    """
    while isinstance(worker, FaultyShardWorker):
        worker = worker.inner
    connection = getattr(worker, "_conn", None)
    if connection is not None and worker.outstanding:
        connection.poll(timeout)


def kill_inner_process(worker: ShardWorker) -> None:
    """Terminate a (possibly wrapped) process worker's child, and wait."""
    while isinstance(worker, FaultyShardWorker):
        worker = worker.inner
    process = getattr(worker, "_process", None)
    if process is None:
        raise ShardingError(
            f"worker {worker.name!r} has no child process to kill; "
            f"kill faults need the 'process' executor")
    process.terminate()
    process.join(timeout=5)


def kill_worker(engine: ShardedSummary, shard: int) -> None:
    """Immediately SIGTERM shard ``shard``'s worker process and wait."""
    kill_inner_process(engine._workers[shard])


def corrupt_byte(path: str, offset: int = 0) -> None:
    """Flip one byte of the file at ``path`` in place."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
