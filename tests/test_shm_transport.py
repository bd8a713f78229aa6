"""The packed-edge transport to process shard workers: wire format, worker
integration, the pack-failure fallback, and worker crashes.

A process worker packs every large edge batch (``repro.core.executor``'s
``pack_edges``) and pickles the packed batch through its pipe; the child
hands it to the summary as it arrives.  Packing must be invisible to
correctness: a packed batch, pickled or not, is edge-for-edge the list the
parent submitted, and a batch that cannot be packed travels as the list.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.executor import (MIN_PACK_EDGES, RECORD_BYTES,
                                 make_shard_worker, pack_edges)
from repro.errors import ShardingError
from repro.sharding import HiggsShardFactory, ShardedSummary
from repro.streams.edge import StreamEdge


def _edges(count, vertices=40):
    return [StreamEdge(f"v{i % vertices}", f"v{(i * 7 + 1) % vertices}",
                       float(i % 5 + 1), i) for i in range(count)]


class TestPackedEdges:
    def test_round_trip_preserves_edges(self):
        edges = _edges(100)
        packed = pack_edges(edges)
        for batch in (packed, pickle.loads(pickle.dumps(packed))):
            assert len(batch) == 100
            assert list(batch) == edges

    def test_packed_arrays_match_batch_order(self):
        edges = _edges(50)
        packed = pack_edges(edges)
        vertices, src, dst, weights, timestamps = packed.packed_arrays()
        for i, edge in enumerate(edges):
            assert vertices[src[i]] == edge.source
            assert vertices[dst[i]] == edge.destination
            assert weights[i] == edge.weight
            assert timestamps[i] == edge.timestamp

    def test_record_bytes_matches_dtype(self):
        assert pack_edges(_edges(1)).records.nbytes == RECORD_BYTES

    def test_pack_rejects_unconvertible_timestamp(self):
        bad = [StreamEdge("a", "b", 1.0, "not-a-time")]
        with pytest.raises((TypeError, ValueError)):
            pack_edges(bad)


class TestWorkerTransport:
    def test_process_worker_ships_packed_batches(self):
        worker = make_shard_worker("process", HiggsShardFactory(),
                                   name="pack-probe")
        try:
            edges = _edges(200)
            result = worker.call("insert_batch", edges)
            assert result.ok and result.value == 200
            stats = worker.transport_stats()
            assert stats["packed_batches"] == 1
            assert stats["packed_bytes"] == 200 * RECORD_BYTES
            assert stats["fallback_batches"] == 0
            # The child really ingested the packed form.
            assert worker.call("edge_query", "v0", "v1", 0, 300).value >= 1.0
        finally:
            worker.close()

    def test_small_batches_fall_through_to_pickle(self):
        worker = make_shard_worker("process", HiggsShardFactory(),
                                   name="pack-small")
        try:
            result = worker.call("insert_batch", _edges(MIN_PACK_EDGES - 1))
            assert result.ok
            assert worker.transport_stats()["packed_batches"] == 0
        finally:
            worker.close()

    def test_packed_and_pickled_results_identical(self):
        packed_worker = make_shard_worker("process", HiggsShardFactory(),
                                          name="pack-eq-a")
        inline_worker = make_shard_worker("serial", HiggsShardFactory(),
                                          name="pack-eq-b")
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

    def test_unpackable_batch_travels_as_list(self):
        # The last timestamp does not fit the int64 record, so packing fails
        # and the list goes instead; the child applies the prefix and fails
        # on the last edge, as a bare summary does.
        prefix = _edges(40)
        edges = prefix + [StreamEdge("v0", "v1", 1.0, 2**63)]
        engine = ShardedSummary(shards=1, executor="process")
        try:
            with pytest.raises(ShardingError, match="shard-0"):
                engine.insert_batch(edges)
            stats = engine.transport_stats()
            assert stats["fallback_batches"] == 1
            assert stats["packed_batches"] == 0
            reference = HiggsShardFactory()()
            reference.insert_batch(prefix)
            for edge in prefix:
                assert engine.edge_query(edge.source, edge.destination,
                                         0, 100) == \
                    reference.edge_query(edge.source, edge.destination,
                                         0, 100)
        finally:
            engine.close()

    @pytest.mark.faultinject
    def test_killed_worker_unlinks_segment(self):
        from faultinject import kill_inner_process

        worker = make_shard_worker("process", HiggsShardFactory(),
                                   name="pack-kill")
        try:
            assert worker.call("insert_batch", _edges(200)).ok
            kill_inner_process(worker)
            worker.submit("insert_batch", _edges(200))
            result = worker.collect()
            assert not result.ok
            assert isinstance(result.error, ShardingError)
            assert not worker.alive()
        finally:
            worker.close()

    @pytest.mark.faultinject
    def test_engine_survives_shard_crash_without_leaking(self):
        from faultinject import kill_worker

        engine = ShardedSummary(shards=2, executor="process")
        try:
            engine.insert_batch(_edges(400))
            kill_worker(engine, 0)
            with pytest.raises(ShardingError):
                engine.insert_batch(_edges(400))
            # The failure path rebuilt shard 0 (auto-recovery is on by
            # default), so the engine answers again.
            assert all(worker.alive() for worker in engine._workers)
            assert engine.memory_bytes() > 0
        finally:
            engine.close()


class TestEngineTransportStats:
    def test_process_engine_reports_packed_traffic(self):
        engine = ShardedSummary(shards=2, executor="process")
        try:
            engine.insert_batch(_edges(400))
            stats = engine.transport_stats()
            assert stats["packed_batches"] >= 2
            assert stats["packed_bytes"] == 400 * RECORD_BYTES
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
                "fallback_batches": 0}
            assert "transport" in engine.stats()
        finally:
            engine.close()
