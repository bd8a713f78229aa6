"""Tests for the sharded summary engine (:mod:`repro.sharding`)."""

from __future__ import annotations

import random

import pytest

from faultinject import FaultSpec, inject_fault
from repro import (Higgs, HiggsConfig, HiggsShardFactory, ShardedSummary,
                   ShardingConfig, SnapshotConfig)
from repro.baselines.exact import ExactTemporalGraph
from repro.core.executor import make_shard_worker
from repro.core.hashing import shard_of
from repro.errors import ConfigurationError, QueryError, ShardingError
from repro.queries.types import EdgeQuery, PathQuery, SubgraphQuery, VertexQuery
from repro.sharding import ShardPartitioner
from repro.streams.edge import GraphStream, StreamEdge
from repro.streams.generators import StreamSpec, generate_stream, reskew_to_shards
from repro.summary import TemporalGraphSummary


def _config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=8, fingerprint_bits=14)


def _factory() -> HiggsShardFactory:
    return HiggsShardFactory(_config())


def _ranges(stream):
    t_min, t_max = stream.time_span
    mid = (t_min + t_max) // 2
    return [(t_min, t_max), (t_min, mid), (mid, t_max)]


class TestPartitioner:
    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPartitioner(0)
        with pytest.raises(ConfigurationError):
            ShardPartitioner(2, partition_by="rainbow")

    def test_assignment_is_deterministic_and_stable(self):
        a = ShardPartitioner(4, partition_by="source", seed=3)
        b = ShardPartitioner(4, partition_by="source", seed=3)
        for vertex in ("v1", "v2", 77, "x"):
            assert a.shard_of_vertex(vertex) == b.shard_of_vertex(vertex)
            assert a.shard_of_vertex(vertex) == shard_of(vertex, 4, 3)

    def test_source_mode_keeps_all_out_edges_together(self, small_stream):
        partitioner = ShardPartitioner(4, partition_by="source")
        for edge in small_stream:
            assert (partitioner.shard_of_edge(edge.source, edge.destination)
                    == partitioner.shard_of_vertex(edge.source))

    def test_split_preserves_order_and_loses_nothing(self, small_stream):
        partitioner = ShardPartitioner(3, partition_by="edge")
        parts = partitioner.split(small_stream)
        assert sum(len(part) for part in parts) == len(small_stream)
        for shard, part in enumerate(parts):
            expected = [e for e in small_stream
                        if partitioner.shard_of_edge(e.source, e.destination) == shard]
            assert part == expected

    def test_group_pairs_matches_edge_assignment(self):
        partitioner = ShardPartitioner(4, partition_by="source")
        pairs = [("a", "b"), ("c", "d"), ("a", "z")]
        grouped = partitioner.group_pairs(pairs)
        for shard, members in grouped.items():
            for source, destination in members:
                assert partitioner.shard_of_edge(source, destination) == shard


class TestShardingConfig:
    def test_defaults_valid(self):
        config = ShardingConfig()
        assert config.num_shards == 4

    @pytest.mark.parametrize("kwargs", [
        {"num_shards": 0},
        {"partition_by": "destination"},
        {"executor": "quantum"},
        {"batch_size": 0},
        {"executor": "thread"},
        {"executor": "auto"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ShardingConfig(**kwargs)


class TestSingleShardBitIdentity:
    """``shards=1`` must be indistinguishable from the wrapped summary."""

    def test_queries_identical_to_unsharded(self, small_stream):
        plain = Higgs(_config())
        plain.insert_stream(small_stream)
        sharded = ShardedSummary(_factory(), shards=1)
        sharded.insert_stream(small_stream)

        edges = sorted(small_stream.distinct_edges())[:80]
        vertices = sorted(small_stream.vertices())[:40]
        for t_start, t_end in _ranges(small_stream):
            for source, destination in edges:
                assert (sharded.edge_query(source, destination, t_start, t_end)
                        == plain.edge_query(source, destination, t_start, t_end))
            for vertex in vertices:
                for direction in ("out", "in"):
                    assert (sharded.vertex_query(vertex, t_start, t_end, direction)
                            == plain.vertex_query(vertex, t_start, t_end, direction))

    def test_composites_and_memory_identical(self, small_stream):
        plain = Higgs(_config())
        plain.insert_stream(small_stream)
        sharded = ShardedSummary(_factory(), shards=1)
        sharded.insert_stream(small_stream)

        edges = sorted(small_stream.distinct_edges())[:6]
        path = [edges[0][0], edges[0][1], edges[1][1], edges[2][1]]
        t_min, t_max = small_stream.time_span
        assert (sharded.path_query(path, t_min, t_max)
                == plain.path_query(path, t_min, t_max))
        assert (sharded.subgraph_query(edges, t_min, t_max)
                == plain.subgraph_query(edges, t_min, t_max))
        assert sharded.memory_bytes() == plain.memory_bytes()

    def test_structure_identical(self, small_stream):
        plain = Higgs(_config())
        plain.insert_stream(small_stream)
        sharded = ShardedSummary(_factory(), shards=1)
        sharded.insert_stream(small_stream)
        (inner,) = sharded.shard_summaries()
        assert inner.leaf_count == plain.leaf_count
        assert inner.height == plain.height
        assert inner.tree.items_inserted == plain.tree.items_inserted


class TestScatterGather:
    def test_sharded_result_is_sum_of_per_shard_results(self, small_stream):
        sharded = ShardedSummary(_factory(), shards=4, partition_by="source")
        sharded.insert_stream(small_stream)
        shards = sharded.shard_summaries()
        t_min, t_max = small_stream.time_span

        for source, destination in sorted(small_stream.distinct_edges())[:50]:
            expected = sum(s.edge_query(source, destination, t_min, t_max)
                           for s in shards)
            assert (sharded.edge_query(source, destination, t_min, t_max)
                    == pytest.approx(expected))
        for vertex in sorted(small_stream.vertices())[:25]:
            for direction in ("out", "in"):
                expected = sum(s.vertex_query(vertex, t_min, t_max, direction)
                               for s in shards)
                assert (sharded.vertex_query(vertex, t_min, t_max, direction)
                        == pytest.approx(expected))

    def test_every_item_lands_on_exactly_one_shard(self, small_stream):
        sharded = ShardedSummary(_factory(), shards=4)
        sharded.insert_stream(small_stream)
        assert sharded.items_ingested == len(small_stream)
        assert sum(sharded.shard_items()) == len(small_stream)
        inner_total = sum(s.tree.items_inserted for s in sharded.shard_summaries())
        assert inner_total == len(small_stream)

    def test_query_batch_matches_per_item_queries(self, small_stream):
        sharded = ShardedSummary(_factory(), shards=3, partition_by="source")
        sharded.insert_stream(small_stream)
        edges = sorted(small_stream.distinct_edges())
        t_min, t_max = small_stream.time_span
        queries = [
            EdgeQuery(*edges[0], t_min, t_max),
            VertexQuery(edges[1][0], t_min, t_max, "out"),
            VertexQuery(edges[2][1], t_min, t_max, "in"),
            PathQuery((edges[3][0], edges[3][1], edges[4][1]), t_min, t_max),
            SubgraphQuery(tuple(edges[5:8]), t_min, t_max),
            EdgeQuery(*edges[9], t_min, t_max),
        ]
        calls = [entry["calls"] for entry in sharded.shard_stats()]
        batched = sharded.query_batch(queries)
        # One call per involved shard: the incoming vertex query involves
        # all three, and the path and subgraph queries ride in those calls.
        assert [entry["calls"] - before for entry, before
                in zip(sharded.shard_stats(), calls, strict=True)] == [1, 1, 1]
        singles = [query.evaluate(sharded) for query in queries]
        assert batched == singles

    def test_query_batch_adds_shard_estimates_in_shard_order(self):
        """A batch adds each query's per-shard estimates in shard order, as
        the per-item methods do.  With non-integer weights on three shards,
        adding them in the order the batch first reached each shard (here
        shard 2 first, through the edge query) changes the last bits."""
        rng = random.Random(3)
        edges = []
        for t in range(3000):
            source = f"u{rng.randrange(200)}"
            destination = "hub" if t % 3 == 0 else f"u{rng.randrange(200)}"
            edges.append(StreamEdge(source, destination, rng.random() * 10, t))
        sharded = ShardedSummary(HiggsShardFactory(), shards=3)
        sharded.insert_batch(edges)
        partitioner = sharded.partitioner
        first = next(f"u{i}" for i in range(200)
                     if partitioner.shard_of_vertex(f"u{i}") == 2)
        vertices = [f"u{i}" for i in range(200)] + ["hub"]
        mismatches = 0
        for t_start, t_end in [(0, 2999), (0, 1499), (1000, 2999)]:
            for vertex in vertices:
                batch = [EdgeQuery(first, "hub", t_start, t_end),
                         VertexQuery(vertex, t_start, t_end, "in")]
                answers = sharded.query_batch(batch)
                mismatches += answers != [query.evaluate(sharded)
                                          for query in batch]
        assert mismatches == 0

    def test_accuracy_matches_unsharded_at_equal_config(self, small_stream,
                                                        small_truth):
        """Sharding must not degrade estimates: same config per shard means
        the same collision regime, and shard sums are exact unions."""
        plain = Higgs(_config())
        plain.insert_stream(small_stream)
        sharded = ShardedSummary(_factory(), shards=4)
        sharded.insert_stream(small_stream)
        t_min, t_max = small_stream.time_span
        edges = sorted(small_stream.distinct_edges())[:60]
        plain_err = sharded_err = 0.0
        for source, destination in edges:
            truth = small_truth.edge_query(source, destination, t_min, t_max)
            plain_err += abs(plain.edge_query(source, destination, t_min, t_max)
                             - truth)
            sharded_err += abs(sharded.edge_query(source, destination, t_min, t_max)
                               - truth)
        assert sharded_err <= plain_err + 1e-9


class TestExecutors:
    @pytest.mark.lockgraph
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executors_agree(self, executor, small_stream, lock_monitor):
        with ShardedSummary(_factory(), shards=3, executor=executor) as sharded:
            sharded.insert_stream(small_stream)
            assert sharded.items_ingested == len(small_stream)
            t_min, t_max = small_stream.time_span
            results = [sharded.edge_query(s, d, t_min, t_max)
                       for s, d in sorted(small_stream.distinct_edges())[:30]]
        serial = ShardedSummary(_factory(), shards=3, executor="serial")
        serial.insert_stream(small_stream)
        expected = [serial.edge_query(s, d, t_min, t_max)
                    for s, d in sorted(small_stream.distinct_edges())[:30]]
        assert results == expected

    def test_process_mode_hides_shard_summaries(self):
        with ShardedSummary(_factory(), shards=2, executor="process") as sharded:
            sharded.insert("a", "b", 1.0, 5)
            assert sharded.edge_query("a", "b", 0, 10) >= 0.0
            with pytest.raises(ShardingError):
                sharded.shard_summaries()

    def test_process_factory_failure_raises(self):
        def boom():
            raise RuntimeError("no summary for you")
        with pytest.raises(ShardingError):
            make_shard_worker("process", boom)

    def test_dead_worker_process_surfaces_as_sharding_error(self, small_stream):
        """Killing a shard child mid-life must not desynchronize the engine:
        the failed operation raises ShardingError (never a raw OSError), and
        — with auto-recovery disabled — later scatters keep failing cleanly
        while the surviving shard still answers routed queries."""
        with ShardedSummary(_factory(), shards=2, executor="process",
                            snapshot=SnapshotConfig(auto_recover=False)) as sharded:
            sharded.insert_stream(small_stream)
            sharded._workers[1]._process.terminate()
            sharded._workers[1]._process.join(timeout=5)
            with pytest.raises(ShardingError):
                sharded.memory_bytes()
            # Pairing intact: a second scatter still fails cleanly, and the
            # surviving shard still answers routed queries.
            with pytest.raises(ShardingError):
                sharded.memory_bytes()
            partitioner = sharded.partitioner
            vertex = next(f"v{i}" for i in range(1000)
                          if partitioner.shard_of_vertex(f"v{i}") == 0)
            assert sharded.vertex_query(vertex, 0, 10**6, "out") >= 0.0

    def test_dead_worker_auto_recovers_by_default(self, small_stream):
        """With the default SnapshotConfig, the first failed operation still
        raises (no silent retry) but rebuilds the dead shard, so subsequent
        operations succeed; without a snapshot the shard restarts empty."""
        with ShardedSummary(_factory(), shards=2, executor="process") as sharded:
            sharded.insert_stream(small_stream)
            survivor_items = sharded.shard_items()[0]
            sharded._workers[1]._process.terminate()
            sharded._workers[1]._process.join(timeout=5)
            with pytest.raises(ShardingError):
                sharded.memory_bytes()
            assert all(worker.alive() for worker in sharded._workers)
            assert sharded.memory_bytes() >= 0
            assert sharded.shard_items() == (survivor_items, 0)

    def test_busy_seconds_accumulate(self, small_stream):
        sharded = ShardedSummary(_factory(), shards=2)
        sharded.insert_stream(small_stream)
        busy = [entry["busy_seconds"] for entry in sharded.shard_stats()]
        assert len(busy) == 2
        assert all(b >= 0.0 for b in busy)
        assert sum(b > 0.0 for b in busy) >= 1


class _FailingSummary(TemporalGraphSummary):
    """Inserts normally until the fuse burns, then raises forever."""

    name = "failing"

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse
        self.count = 0

    def insert(self, source, destination, weight, timestamp):
        if self.count >= self.fuse:
            raise RuntimeError("shard blew its fuse")
        self.count += 1

    def edge_query(self, source, destination, t_start, t_end):
        return 0.0

    def vertex_query(self, vertex, t_start, t_end, direction="out"):
        return 0.0

    def memory_bytes(self):
        return 0


class TestFailureSemantics:
    def _engine_with_one_failing_shard(self, fuse: int) -> ShardedSummary:
        sharded = ShardedSummary(_factory(), shards=2, partition_by="source")
        # Replace shard 1's summary with a failing stub (serial workers hold
        # their targets in-process).
        sharded._workers[1].target = _FailingSummary(fuse)
        return sharded

    def test_mid_batch_failure_keeps_accounting_consistent(self, small_stream):
        sharded = self._engine_with_one_failing_shard(fuse=10)
        edges = list(small_stream)[:400]
        partitioner = sharded.partitioner
        healthy = [e for e in edges
                   if partitioner.shard_of_edge(e.source, e.destination) == 0]
        with pytest.raises(ShardingError) as excinfo:
            sharded.insert_batch(edges)
        assert "shard(s) [1]" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The healthy shard's items were acknowledged and counted; the failed
        # shard contributed nothing to the engine's count.
        assert sharded.shard_items() == (len(healthy), 0)
        assert sharded.items_ingested == len(healthy)
        # The engine stays usable: the healthy shard still answers queries.
        source, destination = healthy[0].source, healthy[0].destination
        assert sharded.edge_query(source, destination, 0, 10**6) >= 0.0

    def test_single_insert_failure_reraises_original(self):
        sharded = self._engine_with_one_failing_shard(fuse=0)
        partitioner = sharded.partitioner
        vertex = next(f"v{i}" for i in range(1000)
                      if partitioner.shard_of_vertex(f"v{i}") == 1)
        with pytest.raises(RuntimeError):
            sharded.insert(vertex, "dst", 1.0, 1)
        assert sharded.items_ingested == 0


class TestValidation:
    def test_malformed_ranges_rejected_before_dispatch(self):
        sharded = ShardedSummary(_factory(), shards=2)
        with pytest.raises(QueryError):
            sharded.edge_query("a", "b", 10, 5)
        with pytest.raises(QueryError):
            sharded.vertex_query("a", -1, 5)
        with pytest.raises(QueryError):
            sharded.path_query(["a"], 0, 5)
        with pytest.raises(QueryError):
            sharded.subgraph_query([], 0, 5)
        with pytest.raises(QueryError):
            sharded.vertex_query("a", 0, 5, direction="sideways")
        # A batch checks its path and subgraph queries before any shard
        # sees the batch.
        calls = [entry["calls"] for entry in sharded.shard_stats()]
        for bad in (PathQuery(("a",), 0, 5), SubgraphQuery((), 0, 5),
                    SubgraphQuery((("a", "b"),), 5, 0)):
            with pytest.raises(QueryError):
                sharded.query_batch([EdgeQuery("a", "b", 0, 5), bad])
        assert [entry["calls"] for entry in sharded.shard_stats()] == calls

    def test_insert_stream_returns_acknowledged_count(self, small_stream):
        sharded = ShardedSummary(_factory(), shards=4, batch_size=64)
        assert sharded.insert_stream(small_stream) == len(small_stream)


class TestShardSkewGenerator:
    def test_reskew_concentrates_sources_on_hot_shards(self, small_stream):
        skewed = reskew_to_shards(small_stream, num_shards=4, hot_shards=1,
                                  hot_fraction=1.0)
        assert len(skewed) == len(small_stream)
        assert all(shard_of(edge.source, 4, 0) == 0 for edge in skewed)
        # Everything except sources is untouched.
        for original, rerouted in zip(small_stream, skewed, strict=True):
            assert rerouted.destination == original.destination
            assert rerouted.weight == original.weight
            assert rerouted.timestamp == original.timestamp

    def test_reskew_is_deterministic(self, small_stream):
        a = reskew_to_shards(small_stream, num_shards=4, hot_fraction=0.5, seed=5)
        b = reskew_to_shards(small_stream, num_shards=4, hot_fraction=0.5, seed=5)
        assert list(a) == list(b)

    def test_reskew_validates_arguments(self, small_stream):
        from repro.errors import DatasetError
        with pytest.raises(DatasetError):
            reskew_to_shards(small_stream, num_shards=4, hot_shards=5)
        with pytest.raises(DatasetError):
            reskew_to_shards(small_stream, num_shards=4, hot_fraction=1.5)

    def test_reskewed_stream_unbalances_source_partitioning(self, small_stream):
        skewed = reskew_to_shards(small_stream, num_shards=4, hot_shards=1,
                                  hot_fraction=1.0)
        partitioner = ShardPartitioner(4, partition_by="source")
        parts = partitioner.split(skewed)
        assert len(parts[0]) == len(skewed)


class TestAsyncBatchInterleaveGuard:
    """While an insert_batch_async handle is unresolved, every other engine
    operation must fail loudly instead of silently collecting the pending
    batch's shard results."""

    def _engine(self):
        from repro.baselines.exact import ExactTemporalGraph
        return ShardedSummary(ExactTemporalGraph, shards=2, executor="process")

    def test_interleaved_operations_rejected_until_resolved(self):
        from repro.errors import ShardingError
        from repro.streams.edge import StreamEdge
        edges = [StreamEdge(f"s{i}", f"d{i}", 1.0, i) for i in range(10)]
        with self._engine() as engine:
            pending = engine.insert_batch_async(edges)
            with pytest.raises(ShardingError, match="unresolved"):
                engine.edge_query("s1", "d1", 0, 100)
            with pytest.raises(ShardingError, match="unresolved"):
                engine.insert_batch(edges)
            with pytest.raises(ShardingError, match="unresolved"):
                engine.quiesce(timeout=1.0)
            with pytest.raises(ShardingError, match="unresolved"):
                engine.insert_batch_async(edges)
            assert pending.result() == 10
            # Resolved: the engine serves normally again.
            assert engine.edge_query("s1", "d1", 0, 100) == 1.0
            engine.quiesce(timeout=5.0)
            assert engine.items_ingested == 10

    def test_empty_async_batch_needs_no_resolution(self):
        with self._engine() as engine:
            assert engine.insert_batch_async([]) is None
            engine.quiesce(timeout=5.0)  # nothing pending; must not raise


class TestShardingMetrics:
    """The engine's ``sharding_*`` metric families track real shard state."""

    def test_items_gauge_tracks_acknowledged_inserts(self):
        with ShardedSummary(_factory(), shards=3, executor="process") as sharded:
            for i in range(30):
                sharded.insert(f"s{i % 7}", f"d{i % 5}", 1.0, i)
            items = sharded.metrics.get("sharding_shard_items")
            per_shard = [items.value(shard=str(s)) for s in range(3)]
            assert sum(per_shard) == 30.0
            assert per_shard == [float(n) for n in sharded.shard_items()]

    def test_shard_stats_sweep_refreshes_load_gauges(self):
        with ShardedSummary(_factory(), shards=2, executor="process") as sharded:
            for i in range(20):
                sharded.insert(f"s{i}", f"d{i}", 1.0, i)
            stats = sharded.shard_stats()
            assert all(set(entry) == {"busy_seconds", "calls"}
                       for entry in stats)
            assert sum(entry["calls"] for entry in stats) >= 20
            busy = sharded.metrics.get("sharding_shard_busy_seconds")
            calls = sharded.metrics.get("sharding_shard_calls")
            for shard, entry in enumerate(stats):
                assert busy.value(shard=str(shard)) == entry["busy_seconds"]
                assert calls.value(shard=str(shard)) == float(entry["calls"])

    def test_migration_and_snapshot_counters(self, tmp_path):
        with ShardedSummary(
                _factory(), shards=2, executor="process",
                snapshot=SnapshotConfig(directory=str(tmp_path))) as sharded:
            sharded.insert("a", "b", 1.0, 5)
            registry = sharded.metrics
            assert registry.get("sharding_migrations_total").value() == 0.0
            sharded.migrate_shard(0, executor="serial")
            assert registry.get("sharding_migrations_total").value() == 1.0
            sharded.snapshot()
            assert registry.get("sharding_snapshots_total").value() == 1.0
            # Nothing died: a recovery sweep is a no-op and counts nothing.
            assert sharded.recover_dead_shards() == []
            assert registry.get("sharding_recoveries_total").value() == 0.0

    def test_caller_provided_registry_shared_with_serving(self):
        from repro.observability import MetricsRegistry
        from repro.serving import ServingEngine

        registry = MetricsRegistry()
        with ShardedSummary(_factory(), shards=2, executor="process",
                            registry=registry) as sharded, \
                ServingEngine(sharded, registry=registry) as engine:
            engine.submit_write(StreamEdge("a", "b", 1.0, 5)).result(30)
            assert sharded.metrics is registry
            text = registry.render_prometheus()
            # One dashboard covers both layers.
            assert "sharding_shard_items" in text
            assert "serving_epochs_total 1" in text


class TestWorkerStats:
    def test_worker_stats_round_trip(self):
        worker = make_shard_worker("process", _factory(), name="stats-probe")
        try:
            assert worker.stats() == {"busy_seconds": 0.0, "calls": 0}
            result = worker.call("insert", "a", "b", 1.0, 5)
            assert result.ok
            stats = worker.stats()
            assert stats["calls"] == 1
            assert stats["busy_seconds"] >= 0.0
            # The reserved stats op itself never counts toward load.
            assert worker.stats()["calls"] == 1
        finally:
            worker.close()

    @pytest.mark.faultinject
    def test_dead_worker_reports_zeros(self):
        from faultinject import kill_inner_process

        worker = make_shard_worker("process", _factory(), name="dead-probe")
        try:
            assert worker.call("insert", "a", "b", 1.0, 5).ok
            kill_inner_process(worker)
            assert not worker.alive()
            # A metrics sweep over a pool with a crashed shard must still
            # complete: the dead worker contributes zeros, not an exception.
            assert worker.stats() == {"busy_seconds": 0.0, "calls": 0}
        finally:
            worker.close()


def _exact_of(edges) -> ExactTemporalGraph:
    reference = ExactTemporalGraph()
    reference.insert_batch(edges)
    return reference


def _assert_answers_exactly(engine: ShardedSummary, edges) -> None:
    """Every edge and vertex answer equals an exact store of ``edges``."""
    reference = _exact_of(edges)
    vertices = sorted({e.source for e in edges} | {e.destination for e in edges})
    queries = [EdgeQuery(s, d, 0, 10**6)
               for s, d in sorted({(e.source, e.destination) for e in edges})]
    queries += [VertexQuery(v, 0, 10**6, direction)
                for v in vertices for direction in ("out", "in")]
    assert engine.query_batch(queries) == \
        [query.evaluate(reference) for query in queries]


class TestRoundsInFlight:
    """``insert_stream`` keeps two partition rounds in flight; a failure,
    or a stream that raises, still collects every submitted round before
    anything propagates, and the acknowledged counts stay exact."""

    BATCH = 8  # per shard: 16-edge rounds on two shards

    @staticmethod
    def _edges(count: int, offset: int = 0):
        return [StreamEdge(f"s{(i * 7) % 31}", f"d{(i * 5) % 17}",
                           float(1 + i % 4), offset + i)
                for i in range(count)]

    def _engine(self, **kwargs) -> ShardedSummary:
        return ShardedSummary(ExactTemporalGraph, shards=2, executor="process",
                              batch_size=self.BATCH, **kwargs)

    def _applied(self, engine: ShardedSummary, rounds, failing_call: int,
                 kind: str):
        """Edges each shard applied from ``rounds`` when shard 1's
        ``failing_call``-th sub-batch fails: shard 0 applies every round up
        to the one after the failing round; shard 1 applies the rounds
        before it, and the one after too unless it died."""
        parts = [engine.partitioner.split(chunk) for chunk in rounds]
        calls = [index for index, split in enumerate(parts) if split[1]]
        failing = calls[failing_call]
        last = min(failing + 1, len(parts) - 1)
        shard0 = [e for split in parts[:last + 1] for e in split[0]]
        shard1 = [e for split in parts[:failing] for e in split[1]]
        if kind == "error":
            shard1 += parts[last][1] if last > failing else []
        return shard0, shard1

    @pytest.mark.faultinject
    @pytest.mark.parametrize("kind", ["kill", "error"])
    def test_failed_round_drains_rounds_and_counts_exactly(self, kind,
                                                           tmp_path):
        warm, rest = self._edges(64), self._edges(400, offset=64)
        size = 2 * self.BATCH
        rounds = [rest[i:i + size] for i in range(0, len(rest), size)]
        with self._engine(snapshot=SnapshotConfig(
                directory=str(tmp_path))) as engine:
            engine.insert_stream(warm)
            engine.snapshot()
            warm0, warm1 = engine.shard_items()
            wrapper = inject_fault(engine, 1, FaultSpec(
                kind=kind, method="insert_batch", call_index=5))
            survivor = engine._workers[0]
            with pytest.raises(ShardingError, match=r"shard\(s\) \[1\]"):
                engine.insert_stream(rest)
            assert wrapper.outstanding == 0
            assert survivor.outstanding == 0
            shard0, shard1 = self._applied(engine, rounds, 5, kind)
            if kind == "kill":
                # Auto-recovery rebuilt shard 1 from the snapshot: it lost
                # exactly what it acknowledged after the snapshot.
                assert all(worker.alive() for worker in engine._workers)
                assert engine.shard_items() == (warm0 + len(shard0), warm1)
                assert engine.snapshot_items() == (warm0, warm1)
                shard1 = []
            else:
                assert engine.shard_items() == (warm0 + len(shard0),
                                                warm1 + len(shard1))
            for shard in range(2):
                engine.migrate_shard(shard, executor="serial")
            assert tuple(summary.item_count for summary
                         in engine.shard_summaries()) == engine.shard_items()
            # The engine ingests again and answers exactly what it holds.
            more = self._edges(48, offset=1000)
            assert engine.insert_stream(more) == len(more)
            parts = engine.partitioner.split(warm)
            held = parts[0] + shard0 + parts[1] + shard1 + more
            assert engine.items_ingested == len(held)
            _assert_answers_exactly(engine, held)

    @pytest.mark.faultinject
    def test_stream_that_raises_drains_rounds_first(self):
        class Boom(RuntimeError):
            pass

        edges = self._edges(100)

        def stream():
            yield from edges
            raise Boom()

        size = 2 * self.BATCH
        applied = edges[:len(edges) // size * size]
        with self._engine() as engine:
            with pytest.raises(Boom):
                engine.insert_stream(stream())
            assert [worker.outstanding for worker in engine._workers] == [0, 0]
            # Whole rounds were applied; the partial last round was not.
            assert engine.items_ingested == len(applied)
            for shard in range(2):
                engine.migrate_shard(shard, executor="serial")
            assert tuple(summary.item_count for summary
                         in engine.shard_summaries()) == engine.shard_items()
            _assert_answers_exactly(engine, applied)

    def test_stream_cannot_call_the_engine_while_rounds_are_in_flight(self):
        edges = self._edges(100)
        engine = ShardedSummary(ExactTemporalGraph, shards=2,
                                batch_size=self.BATCH)

        def stream():
            for index, edge in enumerate(edges):
                if index == 40:
                    # A round is in flight: this call would collect its
                    # result, so the engine refuses it.
                    engine.edge_query("s0", "d0", 0, 10**6)
                yield edge

        with pytest.raises(ShardingError, match="rounds in flight"):
            engine.insert_stream(stream())
        assert engine.items_ingested == 32
        _assert_answers_exactly(engine, edges[:32])
