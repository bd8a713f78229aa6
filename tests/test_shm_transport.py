"""The packed-edge shared-memory transport: ring allocator, wire format,
worker integration, and crash-safe segment cleanup.

The transport (``repro.core.shm``) must be invisible to correctness — a
packed batch read back by the child is edge-for-edge the list the parent
submitted — and invisible to resource accounting: whatever happens to the
worker (clean close, crash mid-transfer), the parent unlinks the segment
and nothing is left behind under ``/dev/shm``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import shm
from repro.core.executor import make_shard_worker
from repro.errors import ShardingError
from repro.sharding import ShardedSummary
from repro.streams.edge import StreamEdge

def _edges(count, vertices=40):
    return [StreamEdge(f"v{i % vertices}", f"v{(i * 7 + 1) % vertices}",
                       float(i % 5 + 1), i) for i in range(count)]


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


class TestPackedEdges:
    def test_round_trip_preserves_edges(self):
        edges = _edges(100)
        packed = shm.pack_edges(edges)
        assert len(packed) == 100
        assert list(packed) == edges

    def test_packed_arrays_match_batch_order(self):
        edges = _edges(50)
        packed = shm.pack_edges(edges)
        vertices, src, dst, weights, timestamps = packed.packed_arrays()
        for i, edge in enumerate(edges):
            assert vertices[src[i]] == edge.source
            assert vertices[dst[i]] == edge.destination
            assert weights[i] == edge.weight
            assert timestamps[i] == edge.timestamp

    def test_record_bytes_matches_dtype(self):
        assert shm.pack_edges(_edges(1)).records.nbytes == shm.RECORD_BYTES

    def test_pack_rejects_unconvertible_timestamp(self):
        bad = [StreamEdge("a", "b", 1.0, "not-a-time")]
        with pytest.raises((TypeError, ValueError)):
            shm.pack_edges(bad)


class TestRingAllocator:
    def _sender(self, capacity):
        return shm.ShmRingSender("ring-test", capacity=capacity)

    def test_fifo_alloc_and_free(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 100)
        try:
            refs = [sender.send(shm.pack_edges(_edges(10))) for _ in range(3)]
            assert [ref.offset for ref in refs] == [0, 240, 480]
            assert sender.live_regions == 3
            sender.free_oldest()
            sender.free_oldest()
            sender.free_oldest()
            assert sender.live_regions == 0
            # Empty ring resets the head: the next batch starts at zero.
            assert sender.send(shm.pack_edges(_edges(10))).offset == 0
        finally:
            sender.destroy()

    def test_wraps_before_oldest_live_region(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 100)
        try:
            first = sender.send(shm.pack_edges(_edges(40)))   # [0, 960)
            second = sender.send(shm.pack_edges(_edges(40)))  # [960, 1920)
            assert (first.offset, second.offset) == (0, 960)
            sender.free_oldest()                              # free [0, 960)
            # 30 more records do not fit in [1920, 2400) but do fit in the
            # freed prefix [0, 960) — the ring wraps.
            third = sender.send(shm.pack_edges(_edges(30)))
            assert third.offset == 0
        finally:
            sender.destroy()

    def test_full_ring_rejects_without_blocking(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 100)
        try:
            assert sender.send(shm.pack_edges(_edges(60))) is not None
            assert sender.send(shm.pack_edges(_edges(60))) is None
            assert sender.live_regions == 1
        finally:
            sender.destroy()

    def test_oversized_batch_rejected(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 8)
        try:
            assert sender.send(shm.pack_edges(_edges(9))) is None
        finally:
            sender.destroy()

    def test_cancel_last_restores_head(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 100)
        try:
            sender.send(shm.pack_edges(_edges(10)))
            ref = sender.send(shm.pack_edges(_edges(10)))
            sender.cancel_last()
            assert sender.live_regions == 1
            replay = sender.send(shm.pack_edges(_edges(10)))
            assert replay.offset == ref.offset
        finally:
            sender.destroy()

    def test_destroy_unlinks_segment_idempotently(self):
        sender = self._sender(capacity=shm.RECORD_BYTES * 10)
        name = sender.shm_name
        assert _segment_exists(name)
        sender.destroy()
        assert not _segment_exists(name)
        sender.destroy()  # second destroy is a no-op


def _higgs_factory():
    from repro.sharding.engine import HiggsShardFactory
    return HiggsShardFactory()


class TestWorkerTransport:
    def test_process_worker_ships_packed_batches(self):
        worker = make_shard_worker("process", _higgs_factory(),
                                   name="shm-probe")
        try:
            edges = _edges(200)
            result = worker.call("insert_batch", edges)
            assert result.ok and result.value == 200
            stats = worker.transport_stats()
            assert stats["packed_batches"] == 1
            assert stats["packed_bytes"] == 200 * shm.RECORD_BYTES
            assert stats["fallback_batches"] == 0
            assert stats["live_regions"] == 0  # freed when the result arrived
            # The child really ingested the packed form.
            assert worker.call("edge_query", "v0", "v1", 0, 300).value >= 1.0
        finally:
            worker.close()

    def test_small_batches_fall_through_to_pickle(self):
        worker = make_shard_worker("process", _higgs_factory(),
                                   name="shm-small")
        try:
            result = worker.call("insert_batch",
                                 _edges(shm.MIN_PACK_EDGES - 1))
            assert result.ok
            assert worker.transport_stats()["packed_batches"] == 0
        finally:
            worker.close()

    def test_packed_and_pickled_results_identical(self):
        packed_worker = make_shard_worker("process", _higgs_factory(),
                                          name="shm-eq-a")
        inline_worker = make_shard_worker("serial", _higgs_factory(),
                                          name="shm-eq-b")
        try:
            edges = _edges(500)
            assert packed_worker.call("insert_batch", edges).value == 500
            assert inline_worker.call("insert_batch", edges).value == 500
            assert packed_worker.transport_stats()["packed_batches"] == 1
            for source, destination in {(e.source, e.destination)
                                        for e in edges}:
                a = packed_worker.call("edge_query", source, destination,
                                       0, 600).value
                b = inline_worker.call("edge_query", source, destination,
                                       0, 600).value
                assert a == b
        finally:
            packed_worker.close()
            inline_worker.close()

    def test_clean_close_unlinks_segment(self):
        worker = make_shard_worker("process", _higgs_factory(),
                                   name="shm-close")
        assert worker.call("insert_batch", _edges(200)).ok
        name = worker._transport.shm_name
        assert _segment_exists(name)
        worker.close()
        assert not _segment_exists(name)

    @pytest.mark.faultinject
    def test_killed_worker_unlinks_segment(self):
        from faultinject import kill_inner_process

        worker = make_shard_worker("process", _higgs_factory(),
                                   name="shm-kill")
        try:
            assert worker.call("insert_batch", _edges(200)).ok
            name = worker._transport.shm_name
            assert _segment_exists(name)
            kill_inner_process(worker)
            worker.submit("insert_batch", _edges(200))
            result = worker.collect()
            assert not result.ok
            assert isinstance(result.error, ShardingError)
            assert not worker.alive()
            assert not _segment_exists(name)
            assert worker.transport_stats()["live_regions"] == 0
        finally:
            worker.close()

    @pytest.mark.faultinject
    def test_engine_survives_shard_crash_without_leaking(self):
        from faultinject import kill_worker

        engine = ShardedSummary(shards=2, executor="process")
        try:
            engine.insert_batch(_edges(400))
            names = [w._transport.shm_name for w in engine._workers
                     if w._transport is not None]
            assert names and all(_segment_exists(n) for n in names)
            kill_worker(engine, 0)
            with pytest.raises(ShardingError):
                engine.insert_batch(_edges(400))
                engine.memory_bytes()
            assert not _segment_exists(names[0])
        finally:
            engine.close()
        assert all(not _segment_exists(n) for n in names)


class TestEngineTransportStats:
    def test_process_engine_reports_packed_traffic(self):
        engine = ShardedSummary(shards=2, executor="process")
        try:
            engine.insert_batch(_edges(400))
            stats = engine.transport_stats()
            assert stats["packed_batches"] >= 2
            assert stats["packed_bytes"] == 400 * shm.RECORD_BYTES
            rendered = engine.metrics.render_prometheus()
            assert ("sharding_transport_packed_batches "
                    f"{stats['packed_batches']}") in rendered
        finally:
            engine.close()

    def test_serial_engine_reports_zeros(self):
        engine = ShardedSummary(shards=2)
        try:
            engine.insert_batch(_edges(400))
            assert engine.transport_stats() == {
                "packed_batches": 0, "packed_bytes": 0,
                "fallback_batches": 0, "live_regions": 0}
            assert "transport" in engine.stats()
        finally:
            engine.close()
