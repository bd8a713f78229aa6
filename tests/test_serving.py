"""Tests for the concurrent serving engine, its config, metrics, and the
mixed-workload generator — including the epoch-consistency stress test."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ServingConfig, ServingEngine, ShardedSummary
from repro.baselines.exact import ExactTemporalGraph
from repro.errors import ConfigurationError, DatasetError, QueryError, ServingError
from repro.observability import nearest_rank
from repro.queries.types import EdgeQuery, VertexQuery
from repro.streams.edge import StreamEdge
from repro.streams.generators import (MixedWorkloadSpec, StreamSpec,
                                      generate_mixed_workload, generate_stream)


def _edges(n, offset=0):
    return [StreamEdge(f"s{(i + offset) % 11}", f"d{(i + offset) % 7}", 1.0,
                       i + offset) for i in range(n)]


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.admission == "block"
        assert config.max_pending >= 1

    @pytest.mark.parametrize("kwargs", [
        {"max_pending": 0},
        {"admission": "explode"},
        {"max_batch_writes": 0},
        {"max_batch_reads": 0},
        {"poll_interval_s": 0.0},
        {"latency_window": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)


class TestLatencyTracker:
    """The engine's per-kind latency tracking: the percentile definition,
    the sliding window and the ``stats()`` report."""

    def test_nearest_rank_percentiles(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert nearest_rank(samples, 50.0) == 50.0
        assert nearest_rank(samples, 95.0) == 95.0
        assert nearest_rank(samples, 99.0) == 99.0
        assert nearest_rank(samples, 100.0) == 100.0
        assert nearest_rank([7.0], 50.0) == 7.0

    def test_nearest_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)

    def test_window_and_snapshot(self):
        with ServingEngine(ExactTemporalGraph(),
                           ServingConfig(latency_window=4)) as engine:
            latencies = []
            for i in range(5):
                future = engine.submit_write(StreamEdge("a", "b", 1.0, i))
                future.result(30)
                latencies.append(future.latency_s)
            assert engine.flush(timeout=30)
            report = engine.latency_percentiles("write")
            # The window dropped the first sample: percentiles and mean
            # cover the last four, the count stays lifetime.
            window = sorted(latencies[1:])
            assert report["p50"] == nearest_rank(window, 50.0)
            assert report["p99"] == nearest_rank(window, 99.0)
            assert report["mean"] == pytest.approx(sum(window) / 4)
            assert engine.latency_percentiles("read") == {}
            snapshot = engine.stats()["latency"]
            assert set(snapshot) == {"write"}
            assert snapshot["write"]["count"] == 5.0
            assert snapshot["write"]["p50"] == report["p50"]


class TestServingEngineBasics:
    def test_writes_then_reads_are_exact(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            engine.submit_write(StreamEdge("a", "b", 2.0, 5)).result(5)
            engine.submit_write([("a", "b", 1.0, 7), ("b", "c", 3.0, 8)]).result(5)
            assert engine.submit_query(EdgeQuery("a", "b", 0, 10)).result(5) == 3.0
            assert engine.submit_query(
                VertexQuery("b", 0, 10, "out")).result(5) == 3.0
            stats = engine.stats()
            assert stats["edges_inserted"] == 3
            assert stats["writes_served"] == 2
            assert stats["reads_served"] == 2
            assert stats["epochs"] >= 1
            assert stats["latency"]["write"]["count"] == 2.0

    def test_write_future_reports_per_request_count(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            futures = [engine.submit_write(_edges(3, offset=i * 3))
                       for i in range(5)]
            assert [future.result(5) for future in futures] == [3] * 5

    def test_empty_write_rejected(self):
        with ServingEngine(ExactTemporalGraph()) as engine, \
                pytest.raises(ServingError):
            engine.submit_write([])

    def test_malformed_query_rejected_at_admission(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            with pytest.raises(QueryError):
                engine.submit_query(EdgeQuery("a", "b", 10, 5))
            # The engine still serves well-formed traffic afterwards.
            engine.submit_write(StreamEdge("a", "b", 1.0, 1)).result(5)
            assert engine.submit_query(EdgeQuery("a", "b", 0, 5)).result(5) == 1.0

    def test_submit_after_close_rejected(self):
        engine = ServingEngine(ExactTemporalGraph())
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ServingError):
            engine.submit_write(StreamEdge("a", "b", 1.0, 1))
        with pytest.raises(ServingError):
            engine.submit_query(EdgeQuery("a", "b", 0, 5))

    def test_close_drains_admitted_requests(self):
        engine = ServingEngine(ExactTemporalGraph())
        futures = [engine.submit_write(_edges(2, offset=2 * i))
                   for i in range(50)]
        engine.close()
        assert all(future.result(5) == 2 for future in futures)

    def test_write_failure_delivered_via_future(self):
        class Exploding(ExactTemporalGraph):
            def insert_batch(self, edges):
                raise RuntimeError("disk on fire")

        with ServingEngine(Exploding()) as engine:
            future = engine.submit_write(StreamEdge("a", "b", 1.0, 1))
            with pytest.raises(RuntimeError, match="disk on fire"):
                future.result(5)
            assert engine.stats()["failed"] == 1

    def test_latency_percentiles_exposed(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            for i in range(20):
                engine.submit_write(StreamEdge("a", "b", 1.0, i)).result(5)
            report = engine.latency_percentiles("write")
            assert set(report) == {"p50", "p95", "p99", "mean"}
            assert report["p50"] <= report["p95"] <= report["p99"]


class TestBackpressure:
    def test_drop_policy_rejects_at_capacity(self):
        config = ServingConfig(max_pending=4, admission="drop",
                               poll_interval_s=0.01)

        class Slow(ExactTemporalGraph):
            def insert_batch(self, edges):
                time.sleep(0.05)
                return super().insert_batch(edges)

        engine = ServingEngine(Slow(), config)
        try:
            dropped = 0
            futures = []
            for i in range(100):
                try:
                    futures.append(engine.submit_write(
                        StreamEdge("a", "b", 1.0, i)))
                except ServingError:
                    dropped += 1
            assert dropped > 0
            assert engine.stats()["dropped"] == dropped
            for future in futures:
                assert future.result(30) == 1
        finally:
            engine.close()

    @pytest.mark.lockgraph
    def test_block_policy_admits_everything(self, lock_monitor):
        config = ServingConfig(max_pending=2, admission="block",
                               poll_interval_s=0.01)
        with ServingEngine(ExactTemporalGraph(), config) as engine:
            futures = [engine.submit_write(StreamEdge("a", "b", 1.0, i))
                       for i in range(200)]
            assert all(future.result(10) == 1 for future in futures)
            assert engine.stats()["dropped"] == 0
            assert engine.stats()["edges_inserted"] == 200


class TestServingOverShards:
    @pytest.mark.lockgraph
    def test_sharded_serving_matches_exact(self, tiny_stream, lock_monitor):
        with ShardedSummary(ExactTemporalGraph, shards=3,
                            executor="process") as sharded:
            with ServingEngine(sharded) as engine:
                for edge in tiny_stream:
                    engine.submit_write(edge)
                engine.flush(10)
                t_min, t_max = tiny_stream.time_span
                truth = ExactTemporalGraph()
                truth.insert_stream(tiny_stream)
                for source, destination in tiny_stream.distinct_edges():
                    served = engine.submit_query(
                        EdgeQuery(source, destination, t_min, t_max)).result(5)
                    assert served == truth.edge_query(source, destination,
                                                      t_min, t_max)
            assert sharded.items_ingested == len(tiny_stream)

    @pytest.mark.lockgraph
    def test_flush_goes_idle(self, lock_monitor):
        with (ShardedSummary(ExactTemporalGraph, shards=2,
                             executor="process") as sharded,
              ServingEngine(sharded) as engine):
            for i in range(100):
                engine.submit_write(StreamEdge(f"v{i % 5}", "d", 1.0, i))
            assert engine.flush(timeout=10)
            stats = engine.stats()
            assert stats["pending"] == 0 and stats["inflight"] == 0
            assert stats["edges_inserted"] == 100


class TestEpochConsistency:
    """Stress test: concurrent reads through the engine must always observe a
    prefix-consistent state — the summary exactly as it was after some whole
    number of committed write epochs, never a torn mid-batch shard state.

    Shards hold Exact summaries, so any torn read (one shard ahead of
    another inside a write batch) would produce a value that matches *no*
    prefix of acknowledged batches.
    """

    QUERY = ("s1", "d1")
    BATCHES = 60
    BATCH = 40

    def _batches(self):
        batches = []
        t = 0
        for _ in range(self.BATCHES):
            batch = []
            for j in range(self.BATCH):
                # Every batch adds weight to the probed edge from several
                # sources, spread across shards, so a torn read mid-batch
                # would surface as a non-prefix value.
                batch.append(StreamEdge(f"s{j % 5}", f"d{j % 3}", 1.0, t))
                t += 1
            batches.append(batch)
        return batches

    @pytest.mark.lockgraph
    def test_interleaved_reads_observe_prefix_states(self, lock_monitor):
        batches = self._batches()
        t_max = self.BATCHES * self.BATCH + 1

        # Expected value of the probed query after each whole-batch prefix.
        truth = ExactTemporalGraph()
        source, destination = self.QUERY
        prefix_values = {0.0}
        for batch in batches:
            truth.insert_batch(batch)
            prefix_values.add(truth.edge_query(source, destination, 0, t_max))

        violations = []
        stop_reading = threading.Event()

        with (ShardedSummary(ExactTemporalGraph, shards=3,
                             executor="process") as sharded,
              ServingEngine(sharded) as engine):
            def reader():
                while not stop_reading.is_set():
                    value = engine.submit_query(
                        EdgeQuery(source, destination, 0, t_max)).result(30)
                    if value not in prefix_values:
                        violations.append(value)

            readers = [threading.Thread(target=reader, daemon=True)
                       for _ in range(4)]
            for thread in readers:
                thread.start()
            write_futures = [engine.submit_write(batch)
                             for batch in batches]
            for future in write_futures:
                future.result(30)
            stop_reading.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in readers)

        assert violations == [], (
            f"torn reads observed values outside every prefix state: "
            f"{sorted(set(violations))[:5]}")
        final = truth.edge_query(source, destination, 0, t_max)
        assert max(prefix_values) == final


class TestMixedWorkloadGenerator:
    def _stream(self):
        return generate_stream(StreamSpec(num_vertices=50, num_edges=1_000,
                                          time_span=1_000, seed=3,
                                          name="workload-src"))

    def test_deterministic_and_ratio_respected(self):
        stream = self._stream()
        # 200 requests at ratio 0.5 expect ~100 writes; the 1000-edge stream
        # supports 125 write_batch=8 requests, so the write side never runs
        # dry and the realized ratio stays near the configured one.
        spec = MixedWorkloadSpec(num_requests=200, read_ratio=0.5,
                                 write_batch=8, seed=5)
        ops_a = generate_mixed_workload(stream, spec)
        ops_b = generate_mixed_workload(stream, spec)
        assert [op.kind for op in ops_a] == [op.kind for op in ops_b]
        reads = sum(1 for op in ops_a if op.kind == "read")
        assert 0.35 <= reads / len(ops_a) <= 0.65
        assert ops_a[0].kind == "write"

    def test_writes_replay_stream_in_order(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=300, read_ratio=0.3,
                                 write_batch=16, seed=5)
        ops = generate_mixed_workload(stream, spec)
        replayed = [edge for op in ops if op.kind == "write"
                    for edge in op.edges]
        assert replayed == list(stream)[:len(replayed)]

    def test_reads_are_valid_queries_on_seen_keys(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=200, read_ratio=0.6, seed=9)
        ops = generate_mixed_workload(stream, spec)
        t_min, t_max = stream.time_span
        sources = {edge.source for edge in stream}
        pairs = stream.distinct_edges()
        for op in ops:
            if op.kind != "read":
                continue
            query = op.query
            assert t_min <= query.t_start <= query.t_end <= t_max
            if isinstance(query, EdgeQuery):
                assert (query.source, query.destination) in pairs
            else:
                assert query.vertex in sources

    def test_open_loop_arrivals_monotonic(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=100, read_ratio=0.5,
                                 arrival="open", rate_rps=500.0, seed=2)
        ops = generate_mixed_workload(stream, spec)
        arrivals = [op.arrival_s for op in ops]
        assert all(a is not None for a in arrivals)
        assert arrivals == sorted(arrivals)
        closed = generate_mixed_workload(
            stream, MixedWorkloadSpec(num_requests=10, seed=2))
        assert all(op.arrival_s is None for op in closed)

    @pytest.mark.parametrize("kwargs", [
        {"num_requests": 0},
        {"num_requests": 10, "read_ratio": 1.5},
        {"num_requests": 10, "write_batch": 0},
        {"num_requests": 10, "arrival": "warp"},
        {"num_requests": 10, "arrival": "open", "rate_rps": 0.0},
        {"num_requests": 10, "edge_fraction": -0.1},
        {"num_requests": 10, "range_fraction": 0.0},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(DatasetError):
            generate_mixed_workload(self._stream(), MixedWorkloadSpec(**kwargs))

    def test_empty_stream_rejected(self):
        from repro.streams.edge import GraphStream
        with pytest.raises(DatasetError):
            generate_mixed_workload(GraphStream([]),
                                    MixedWorkloadSpec(num_requests=5))


class TestFailedEpochAbortsReads:
    """A read coalesced into a round whose write epoch fails must NOT be
    answered against the partially-applied state — it fails with
    ServingError instead (the no-torn-reads guarantee's error path)."""

    class _BlockingQuery:
        """Query whose evaluation parks the scheduler until released."""

        def __init__(self):
            self.started = threading.Event()
            self.release = threading.Event()

        def evaluate(self, summary):
            self.started.set()
            assert self.release.wait(10)
            return 0.0

    def test_reads_in_failed_round_get_serving_error(self):
        class PoisonedBatch(ExactTemporalGraph):
            def insert_batch(self, edges):
                if any(edge.source == "poison" for edge in edges):
                    raise RuntimeError("shard blew up mid-epoch")
                return super().insert_batch(edges)

        with ServingEngine(PoisonedBatch()) as engine:
            # Round 1: a blocking read parks the scheduler so the next
            # submissions are guaranteed to coalesce into one round.
            blocker = self._BlockingQuery()
            blocked_future = engine.submit_query(blocker)
            assert blocker.started.wait(10)
            poisoned_write = engine.submit_write(
                StreamEdge("poison", "b", 1.0, 1))
            coalesced_read = engine.submit_query(EdgeQuery("a", "b", 0, 10))
            blocker.release.set()
            assert blocked_future.result(10) == 0.0

            with pytest.raises(RuntimeError, match="blew up"):
                poisoned_write.result(10)
            with pytest.raises(ServingError, match="write epoch failed"):
                coalesced_read.result(10)

            # The engine keeps serving after the failed round.
            engine.submit_write(StreamEdge("a", "b", 2.0, 3)).result(10)
            assert engine.submit_query(EdgeQuery("a", "b", 0, 10)).result(10) == 2.0


class TestSchedulerRobustness:
    """An unexpected scheduler error fails the round's futures instead of
    silently killing the scheduler thread and stranding all requests."""

    def test_short_query_batch_fails_round_but_engine_survives(self):
        class ShortAnswers(ExactTemporalGraph):
            def query_batch(self, queries):
                return []  # broken contract: fewer answers than queries

        with ServingEngine(ShortAnswers()) as engine:
            engine.submit_write(StreamEdge("a", "b", 1.0, 1)).result(5)
            future = engine.submit_query(EdgeQuery("a", "b", 0, 10))
            with pytest.raises(ServingError, match="0 answers for 1 queries"):
                future.result(10)
            # The scheduler survived: writes still serve and flush goes idle.
            assert engine.submit_write(StreamEdge("a", "b", 1.0, 2)).result(10) == 1
            assert engine.flush(timeout=10)


class TestMaintenanceRounds:
    """run_maintenance executes between epochs with the summary to itself."""

    @pytest.mark.lockgraph
    def test_maintenance_sees_all_prior_writes_and_blocks_later_ones(
            self, lock_monitor):
        observed = []
        with (ShardedSummary(ExactTemporalGraph, shards=2,
                             executor="process") as sharded,
              ServingEngine(sharded) as engine):
            for batch in (_edges(30), _edges(30, offset=100)):
                engine.submit_write(batch)
            fence = engine.run_maintenance(
                lambda s: observed.append(s.items_ingested))
            engine.submit_write(_edges(30, offset=200))
            engine.flush(timeout=30)
            fence.result(10)
        # The maintenance round ran after both earlier epochs committed
        # (60 edges) and before the later epoch started (90 edges).
        assert observed == [60]

    def test_maintenance_failure_fails_only_its_future(self):
        with (ShardedSummary(ExactTemporalGraph, shards=2) as sharded,
              ServingEngine(sharded) as engine):
            bad = engine.run_maintenance(
                lambda s: (_ for _ in ()).throw(ValueError("surgery slipped")))
            with pytest.raises(ValueError, match="surgery slipped"):
                bad.result(10)
            assert engine.submit_write(StreamEdge("a", "b", 1.0, 1)).result(10) == 1
            assert engine.submit_query(EdgeQuery("a", "b", 0, 10)).result(10) == 1.0


@pytest.mark.faultinject
class TestChaosRecovery:
    """Kill a process shard worker mid-epoch under live serving traffic.

    The probed edge's source pins it to the victim shard and is written
    only *before* the snapshot, so across the kill and the snapshot-based
    recovery every successful read of it must return exactly the committed
    pre-snapshot value — a torn or rolled-back-too-far read would produce
    anything else.  Failed requests may only carry the engine's typed
    errors (ServingError / ShardingError), never a raw worker exception.
    """

    PROBE_WRITES = 8

    @pytest.mark.lockgraph
    def test_reads_stay_prefix_consistent_across_recovery(
            self, lock_monitor, tmp_path):
        from faultinject import kill_worker
        from repro import SnapshotConfig
        from repro.errors import ShardingError

        with ShardedSummary(
                ExactTemporalGraph, shards=3, executor="process",
                snapshot=SnapshotConfig(directory=str(tmp_path / "snap"))
                ) as sharded:
            part = sharded.partitioner
            probe_src, probe_dst = "hot-src", "hot-dst"
            victim = part.shard_of_vertex(probe_src)
            # Phase-2 filler sources that share the victim shard but are
            # not the probed edge, plus some spread over other shards.
            fillers = [f"f{i}" for i in range(200)]
            t_max = 10**6

            with ServingEngine(sharded) as engine:
                # Phase 1: commit the probed edge's full history, snapshot.
                for i in range(self.PROBE_WRITES):
                    engine.submit_write(
                        StreamEdge(probe_src, probe_dst, float(i + 1), i))
                assert engine.flush(timeout=30)
                final = float(sum(range(1, self.PROBE_WRITES + 1)))
                engine.run_maintenance(lambda s: s.snapshot()).result(30)

                # Phase 2: victim-shard traffic + concurrent probed reads.
                torn, bad_errors = [], []
                stop = threading.Event()

                def reader():
                    while not stop.is_set():
                        try:
                            value = engine.submit_query(EdgeQuery(
                                probe_src, probe_dst, 0, t_max)).result(30)
                        except (ServingError, ShardingError):
                            continue  # aborted round / dead shard: typed, ok
                        except BaseException as exc:
                            # Anything untyped leaking out of the engine is
                            # exactly what this test exists to catch.
                            bad_errors.append(exc)
                            return
                        if value != final:
                            torn.append(value)

                readers = [threading.Thread(target=reader, daemon=True)
                           for _ in range(3)]
                for thread in readers:
                    thread.start()
                write_futures = []
                for round_no in range(30):
                    batch = [StreamEdge(fillers[(round_no * 7 + j) % 200],
                                        f"d{j}", 1.0, 1000 + round_no)
                             for j in range(10)]
                    write_futures.append(engine.submit_write(batch))
                    if round_no == 10:
                        kill_worker(sharded, victim)
                    time.sleep(0.002)
                failed = 0
                for future in write_futures:
                    try:
                        future.result(30)
                    except (ServingError, ShardingError):
                        failed += 1
                stop.set()
                for thread in readers:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in readers)

                assert torn == [], (
                    f"reads observed non-prefix values across recovery: "
                    f"{sorted(set(torn))[:5]}")
                assert bad_errors == [], bad_errors
                # Auto-recovery rebuilt the victim from the snapshot and
                # the engine kept serving typed failures only.
                assert all(worker.alive() for worker in sharded._workers)
                assert engine.submit_query(EdgeQuery(
                    probe_src, probe_dst, 0, t_max)).result(30) == final
                # The victim shard holds at least its snapshot prefix.
                assert sharded.shard_items()[victim] >= \
                    sharded.snapshot_items()[victim]


class TestServingMetrics:
    """The engine's ``serving_*`` metric families track real traffic."""

    def test_counters_follow_traffic(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            for edge in _edges(20):
                engine.submit_write(edge)
            queries = [EdgeQuery(f"s{i % 11}", f"d{i % 7}", 0, 100)
                       for i in range(5)]
            futures = [engine.submit_query(query) for query in queries]
            engine.run_maintenance(lambda s: None).result(30)
            assert engine.flush(timeout=30)
            for future in futures:
                future.result(30)

            registry = engine.metrics
            requests = registry.get("serving_requests_total")
            assert requests.value(kind="write") == 20.0
            assert requests.value(kind="read") == 5.0
            assert requests.value(kind="maintenance") == 1.0
            assert registry.get("serving_edges_inserted_total").value() == 20.0
            assert registry.get("serving_maintenance_total").value() == 1.0
            epochs = registry.get("serving_epochs_total").value()
            assert 1.0 <= epochs <= 20.0
            assert epochs == float(engine.epoch)
            # Every committed epoch contributed one coalescing-size sample.
            assert registry.get("serving_epoch_edges").count() == epochs
            assert registry.get("serving_queue_depth_peak").value() >= 1.0

    def test_queue_depth_gauges_are_live(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            release = threading.Event()
            gate = engine.run_maintenance(lambda s: release.wait(10))
            deadline = time.time() + 10
            while engine.stats()["inflight"] == 0 and time.time() < deadline:
                time.sleep(0.001)
            blocked = engine.submit_write(_edges(3))
            depth = engine.metrics.get("serving_queue_depth")
            inflight = engine.metrics.get("serving_inflight")
            assert depth.value() >= 1.0  # the gated write is visibly queued
            assert inflight.value() >= 1.0
            release.set()
            gate.result(30)
            blocked.result(30)
            assert engine.flush(timeout=30)
            assert depth.value() == 0.0
            assert inflight.value() == 0.0

    def test_dropped_counter_under_drop_policy(self):
        config = ServingConfig(admission="drop", max_pending=2)
        with ServingEngine(ExactTemporalGraph(), config) as engine:
            release = threading.Event()
            gate = engine.run_maintenance(lambda s: release.wait(10))
            admitted, dropped = [], 0
            for edge in _edges(30):
                try:
                    admitted.append(engine.submit_write(edge))
                except ServingError:
                    dropped += 1
            release.set()
            gate.result(30)
            assert engine.flush(timeout=30)
            assert dropped >= 1
            registry = engine.metrics
            assert registry.get("serving_dropped_total").value() == \
                float(dropped)
            assert engine.stats()["dropped"] == dropped

    def test_failed_counter_on_failed_epoch(self):
        class ExplodingSummary(ExactTemporalGraph):
            def insert_batch(self, edges):
                raise RuntimeError("disk on fire")

        with ServingEngine(ExplodingSummary()) as engine:
            future = engine.submit_write(_edges(1))
            with pytest.raises(RuntimeError):
                future.result(30)
            assert engine.flush(timeout=30)
            assert engine.metrics.get("serving_failed_total").value() == 1.0

    def test_latency_tracker_folded_into_registry(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            engine.submit_write(_edges(1)[0]).result(30)
            histogram = engine.metrics.get("serving_latency_seconds")
            assert histogram is not None
            assert histogram.count(kind="write") == 1
            report = engine.stats()["latency"]
            assert report["write"]["count"] == 1

    def test_render_prometheus_exposes_the_families(self):
        with ServingEngine(ExactTemporalGraph()) as engine:
            engine.submit_write(_edges(2)).result(30)
            text = engine.render_prometheus()
            assert "# TYPE serving_queue_depth gauge" in text
            # One admitted request carrying a two-edge batch.
            assert 'serving_requests_total{kind="write"} 1' in text
            assert "serving_edges_inserted_total 2" in text
            assert "# TYPE serving_latency_seconds summary" in text

    def test_caller_provided_registry_is_used(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        with ServingEngine(ExactTemporalGraph(), registry=registry) as engine:
            assert engine.metrics is registry
            engine.submit_write(_edges(1)[0]).result(30)
        assert registry.get("serving_requests_total").value(kind="write") == 1.0


class TestAdaptiveEpochSizing:
    """Closed-loop stress: queue depth drives the write-epoch cap."""

    CONFIG = dict(adaptive_epochs=True, min_epoch_size=4, max_epoch_size=16,
                  max_batch_writes=1024, max_pending=32,
                  queue_high_fraction=0.5, queue_low_fraction=0.125,
                  epoch_cooldown_rounds=3)

    @staticmethod
    def _gated_backlog(engine, n):
        """Hold the scheduler on a maintenance gate while ``n`` writes pile
        up behind it, then release — the next round observes the full
        backlog at once."""
        started, release = threading.Event(), threading.Event()

        def gate(summary):
            started.set()
            release.wait(10)

        maintenance = engine.run_maintenance(gate)
        assert started.wait(10)
        futures = [engine.submit_write(edge) for edge in _edges(n)]
        release.set()
        maintenance.result(30)
        return futures

    def test_fixed_engine_never_moves_the_cap(self):
        with ServingEngine(ExactTemporalGraph(),
                           ServingConfig(max_batch_writes=8)) as engine:
            assert engine.stats()["epoch_limit"] == 8
            for future in self._gated_backlog(engine, 20):
                future.result(30)
            assert engine.stats()["epoch_limit"] == 8

    def test_deep_queue_widens_then_quiet_traffic_narrows(self):
        with ServingEngine(ExactTemporalGraph(),
                           ServingConfig(**self.CONFIG)) as engine:
            assert engine.stats()["epoch_limit"] == 4  # starts at min

            # Each saturated backlog (16/32 >= high fraction) is one deep
            # observation -> one immediate doubling: 4 -> 8 -> 16.
            for expected in (8, 16):
                futures = self._gated_backlog(engine, 16)
                for future in futures:
                    future.result(30)
                assert engine.flush(timeout=30)
                assert engine.stats()["epoch_limit"] == expected

            # Quiet traffic: single awaited writes keep depth at 1/32,
            # below the low fraction.  Every cooldown_rounds-th quiet round
            # halves the cap until it rests at min and stays there.
            for edge in _edges(6 * self.CONFIG["epoch_cooldown_rounds"],
                               offset=100):
                engine.submit_write(edge).result(30)
            assert engine.stats()["epoch_limit"] == 4
            gauge = engine.metrics.get("serving_epoch_limit")
            assert gauge.value() == 4.0

    def test_wide_epochs_actually_coalesce_wider(self):
        with ServingEngine(ExactTemporalGraph(),
                           ServingConfig(**self.CONFIG)) as engine:
            for _ in range(2):
                for future in self._gated_backlog(engine, 16):
                    future.result(30)
            assert engine.flush(timeout=30)
            histogram = engine.metrics.get("serving_epoch_edges")
            report = histogram.report()
            # At least one committed epoch coalesced past the fixed minimum.
            assert report["p99"] > self.CONFIG["min_epoch_size"]


class TestBurstyWorkloadGenerator:
    def _stream(self):
        return generate_stream(StreamSpec(num_vertices=50, num_edges=2_000,
                                          time_span=1_000, seed=3,
                                          name="bursty-src"))

    @pytest.mark.parametrize("kwargs", [
        {"burst_factor": 0.5},
        {"burst_factor": 4.0},  # bursty but arrival stays "closed"
        {"arrival": "open", "rate_rps": 100.0, "burst_factor": 4.0},
        {"arrival": "open", "rate_rps": 100.0, "burst_factor": 4.0,
         "burst_period_s": 1.0, "burst_duty": 1.0},
    ])
    def test_invalid_burst_specs_rejected(self, kwargs):
        with pytest.raises(DatasetError):
            MixedWorkloadSpec(num_requests=10, **kwargs).validate()

    def test_bursty_arrivals_deterministic_and_monotone(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=400, arrival="open",
                                 rate_rps=200.0, burst_factor=8.0,
                                 burst_period_s=0.5, burst_duty=0.25, seed=7)
        ops_a = generate_mixed_workload(stream, spec)
        ops_b = generate_mixed_workload(stream, spec)
        assert [op.arrival_s for op in ops_a] == \
            [op.arrival_s for op in ops_b]
        arrivals = [op.arrival_s for op in ops_a]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_burst_windows_carry_excess_arrival_mass(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=1_000, arrival="open",
                                 rate_rps=100.0, burst_factor=10.0,
                                 burst_period_s=1.0, burst_duty=0.25, seed=7)
        ops = generate_mixed_workload(stream, spec)
        in_window = sum(1 for op in ops
                        if (op.arrival_s % spec.burst_period_s) <
                        spec.burst_period_s * spec.burst_duty)
        # 25% duty at 10x rate: the burst window should hold the majority
        # of arrivals (10*0.25 / (10*0.25 + 0.75) ~ 77%), far above the
        # ~25% a homogeneous process would put there.
        assert in_window / len(ops) > 0.5

    def test_homogeneous_default_keeps_uniform_rate(self):
        stream = self._stream()
        spec = MixedWorkloadSpec(num_requests=1_000, arrival="open",
                                 rate_rps=100.0, seed=7)
        ops = generate_mixed_workload(stream, spec)
        arrivals = [op.arrival_s for op in ops]
        in_window = sum(1 for t in arrivals if (t % 1.0) < 0.25)
        assert 0.15 < in_window / len(arrivals) < 0.35
