"""Tests for the shard workers: drain barriers, timeouts, worker death and
the heap a process worker inherits."""

from __future__ import annotations

import gc
import os
import threading
import time

import pytest

from repro.core.executor import InlineShardWorker, ProcessShardWorker
from repro.errors import ShardingError


class _SlowTarget:
    """Picklable worker target whose method blocks long enough to be killed."""

    def nap(self, seconds: float = 60.0) -> str:
        time.sleep(seconds)
        return "rested"

    def ping(self) -> str:
        return "pong"

    def exit_now(self, code: int) -> None:
        os._exit(code)


class _HeapProbe:
    """Picklable worker target that counts its process's GC-tracked objects."""

    def tracked_objects(self) -> int:
        return len(gc.get_objects())


class TestProcessWorkerDeath:
    """Regression: a worker that dies between submit and collect must surface
    a :class:`ShardingError` naming the shard, not hang on the result pipe."""

    @pytest.mark.parametrize("kill_while_waiting", [False, True],
                             ids=["before-wait", "during-wait"])
    def test_killed_worker_fails_collect_promptly(self, kill_while_waiting):
        """Killed before the collect, the child's pipe already reads EOF;
        killed while the parent waits in collect, the wake comes from the
        child's exit."""
        worker = ProcessShardWorker(_SlowTarget, name="shard-7")
        try:
            worker.submit("nap", (60.0,))
            # Let the child dequeue the call, then kill it mid-nap: nothing
            # will ever arrive on the result pipe for this submit.
            time.sleep(0.2)
            if not kill_while_waiting:
                worker._process.kill()

            outcome: dict = {}

            def collect() -> None:
                outcome["result"] = worker.collect()

            caller = threading.Thread(target=collect, daemon=True)
            start = time.perf_counter()
            caller.start()
            if kill_while_waiting:
                time.sleep(0.3)
                assert caller.is_alive(), "collect returned before the kill"
                worker._process.kill()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "collect hung on a dead worker"
            assert time.perf_counter() - start < 10.0
            result = outcome["result"]
            assert not result.ok
            assert isinstance(result.error, ShardingError)
            assert "shard-7" in str(result.error)
        finally:
            worker.close()

    def test_result_written_before_exit_is_delivered(self):
        """A result the child wrote just before it exited comes first; the
        next collect reports the death with the shard and exit code."""
        worker = ProcessShardWorker(_SlowTarget, name="shard-5")
        try:
            worker.submit("ping")
            worker.submit("exit_now", (3,))
            worker._process.join(timeout=10.0)
            assert not worker._process.is_alive()
            first = worker.collect(timeout=10.0)
            assert first.ok and first.value == "pong"
            second = worker.collect(timeout=10.0)
            assert not second.ok
            assert isinstance(second.error, ShardingError)
            assert "shard-5" in str(second.error)
            assert "exit code 3" in str(second.error)
        finally:
            worker.close()

    def test_collect_timeout_on_slow_worker(self):
        worker = ProcessShardWorker(_SlowTarget, name="shard-3")
        try:
            worker.submit("nap", (60.0,))
            start = time.perf_counter()
            result = worker.collect(timeout=0.5)
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0
            assert not result.ok
            assert isinstance(result.error, ShardingError)
            assert "timed out" in str(result.error)
            assert "shard-3" in str(result.error)
        finally:
            worker._process.kill()  # don't wait out the 60s nap in close()
            worker.close()

    def test_healthy_worker_still_collects(self):
        worker = ProcessShardWorker(_SlowTarget, name="shard-0")
        try:
            result = worker.call("ping")
            assert result.ok and result.value == "pong"
        finally:
            worker.close()


class TestInheritedHeap:
    """A forked worker starts with a copy of the parent's heap; it must keep
    that copy out of its own collections, or every full collection in the
    worker walks the parent's data."""

    def test_worker_does_not_track_the_parent_heap(self):
        ballast = [[] for _ in range(100_000)]
        worker = ProcessShardWorker(_HeapProbe, name="shard-4")
        try:
            result = worker.call("tracked_objects")
            assert result.ok
            assert result.value < len(ballast)
        finally:
            worker.close()


class TestWorkerDrain:
    """The reserved drain op is a FIFO barrier on every worker kind."""

    @pytest.mark.parametrize("worker_cls", [InlineShardWorker])
    def test_drain_waits_for_submitted_work(self, worker_cls):
        events: list = []

        class Recorder:
            def work(self, tag: str) -> None:
                time.sleep(0.02)
                events.append(tag)

        worker = worker_cls(Recorder)
        try:
            worker.submit("work", ("a",))
            worker.submit("work", ("b",))
            worker.collect()
            worker.collect()
            result = worker.drain(timeout=5.0)
            assert result.ok
            assert events == ["a", "b"]
        finally:
            worker.close()

    def test_process_worker_drain(self):
        worker = ProcessShardWorker(_SlowTarget, name="shard-1")
        try:
            worker.submit("ping")
            assert worker.collect(timeout=5.0).value == "pong"
            assert worker.drain(timeout=5.0).ok
        finally:
            worker.close()


class TestCollectTimeoutPairing:
    """A timed-out collect abandons its call without desynchronizing the
    FIFO submit/collect pairing: the stale result is discarded when it
    arrives, and later collects return their own calls' results."""

    def test_process_worker_stays_paired_after_timeout(self):
        worker = ProcessShardWorker(_SlowTarget, name="shard-6")
        try:
            worker.submit("nap", (0.4,))
            timed_out = worker.collect(timeout=0.05)
            assert not timed_out.ok and "timed out" in str(timed_out.error)
            # The abandoned nap's "rested" must NOT surface as ping's result.
            result = worker.call("ping")
            assert result.ok and result.value == "pong"
        finally:
            worker.close()


class TestDrainWithOutstandingCalls:
    """drain() must be a real barrier even when submitted calls were never
    collected: it discards their results and returns the barrier op's own
    result, leaving the FIFO pairing clean for subsequent calls."""

    @pytest.mark.parametrize("worker_cls", [InlineShardWorker])
    def test_drain_discards_uncollected_results(self, worker_cls):
        worker = worker_cls(_SlowTarget)
        try:
            worker.submit("nap", (0.1,))   # never collected by the caller
            worker.submit("ping")          # never collected by the caller
            assert worker.outstanding == 2
            result = worker.drain(timeout=10.0)
            assert result.ok and result.value is None
            assert worker.outstanding == 0
            # Pairing is clean: the next call gets its own result, not a
            # leftover "rested"/"pong" from before the barrier.
            follow_up = worker.call("ping")
            assert follow_up.ok and follow_up.value == "pong"
        finally:
            worker.close()

    def test_process_worker_drain_discards_uncollected_results(self):
        worker = ProcessShardWorker(_SlowTarget, name="shard-9")
        try:
            worker.submit("nap", (0.1,))
            assert worker.outstanding == 1
            result = worker.drain(timeout=10.0)
            assert result.ok and result.value is None
            follow_up = worker.call("ping")
            assert follow_up.ok and follow_up.value == "pong"
        finally:
            worker.close()
