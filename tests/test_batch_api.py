"""Tests for the batch execution layer: ``insert_batch`` / ``query_batch``.

The batch-API contract is *bit-identical* results: a summary built through
``insert_batch`` must equal one built through per-item ``insert`` calls, and
``query_batch`` must return exactly the estimates the per-item query path
returns — on the same fig10-13-style workloads the paper evaluates.
"""

from __future__ import annotations

import pytest

from repro import Higgs, HiggsConfig
from repro.baselines import (AuxoTime, AuxoTimeCompact, Horae, HoraeCompact,
                             PGSS)
from repro.baselines.auxo import Auxo
from repro.baselines.exact import ExactTemporalGraph
from repro.bench.methods import make_methods
from repro.errors import InsertionError, ShardingError
from repro.queries.workload import QueryWorkloadGenerator, WorkloadConfig
from repro.sharding import ShardedSummary
from repro.streams.edge import StreamEdge
from repro.summary import TemporalGraphSummary


def _pairwise_summaries(small_stream):
    """Two freshly built instances of every TRQ method plus Exact."""
    first = dict(make_methods(small_stream))
    second = dict(make_methods(small_stream))
    first["Exact"] = ExactTemporalGraph()
    second["Exact"] = ExactTemporalGraph()
    return first, second


class TestInsertBatchEquivalence:
    def test_all_methods_build_identical_summaries(self, small_stream):
        per_item, batched = _pairwise_summaries(small_stream)
        for summary in per_item.values():
            for edge in small_stream:
                summary.insert(edge.source, edge.destination,
                               edge.weight, edge.timestamp)
        for summary in batched.values():
            inserted = summary.insert_stream(small_stream, batch_size=257)
            assert inserted == len(small_stream)

        t_min, t_max = small_stream.time_span
        edges = sorted(small_stream.distinct_edges())[:60]
        vertices = sorted(small_stream.vertices())[:30]
        ranges = [(t_min, t_max), (t_min, (t_min + t_max) // 2),
                  ((t_min + t_max) // 2, t_max)]
        for name in per_item:
            a, b = per_item[name], batched[name]
            assert a.memory_bytes() == b.memory_bytes(), name
            for source, destination in edges:
                for t0, t1 in ranges:
                    assert a.edge_query(source, destination, t0, t1) == \
                        b.edge_query(source, destination, t0, t1), name
            for vertex in vertices:
                for direction in ("out", "in"):
                    assert a.vertex_query(vertex, t_min, t_max,
                                          direction=direction) == \
                        b.vertex_query(vertex, t_min, t_max,
                                       direction=direction), name

    def test_default_insert_batch_returns_count(self, tiny_stream):
        summary = ExactTemporalGraph()
        assert summary.insert_batch(list(tiny_stream)) == len(tiny_stream)

    def test_insert_stream_chunks_through_batches(self, tiny_stream):
        one_chunk = ExactTemporalGraph()
        assert one_chunk.insert_stream(tiny_stream) == len(tiny_stream)
        t_min, t_max = tiny_stream.time_span
        # batch_size=0 is clamped to one-item batches.
        for batch_size in (3, 0):
            many_chunks = ExactTemporalGraph()
            assert many_chunks.insert_stream(
                tiny_stream, batch_size=batch_size) == len(tiny_stream)
            for edge in tiny_stream:
                assert one_chunk.edge_query(edge.source, edge.destination,
                                            t_min, t_max) == \
                    many_chunks.edge_query(edge.source, edge.destination,
                                           t_min, t_max)

    def test_non_temporal_batch_helpers(self):
        items = [(f"s{i % 7}", f"d{i % 5}", float(i % 3 + 1))
                 for i in range(200)]
        a = Auxo(matrix_size=8, fingerprint_bits=10)
        b = Auxo(matrix_size=8, fingerprint_bits=10)
        for source, destination, weight in items:
            a.insert(source, destination, weight)
        assert b.insert_batch(items) == len(items)
        for source, destination, _w in items[:50]:
            assert a.edge_query(source, destination) == \
                b.edge_query(source, destination)


class TestQueryBatchEquivalence:
    @pytest.fixture(scope="class")
    def loaded_methods(self, small_stream):
        methods = dict(make_methods(small_stream))
        methods["Exact"] = ExactTemporalGraph()
        for summary in methods.values():
            summary.insert_stream(small_stream)
        return methods

    @pytest.fixture(scope="class")
    def fig_workloads(self, small_stream):
        """Edge/vertex/path/subgraph workloads in the shape of Figs. 10-13."""
        generator = QueryWorkloadGenerator(small_stream, WorkloadConfig(seed=5))
        t_min, t_max = small_stream.time_span
        span = t_max - t_min + 1
        return {
            "fig10_edge": generator.edge_queries(60, max(1, span // 10)),
            "fig11_vertex": generator.vertex_queries(30, max(1, span // 10)),
            "fig12_path": generator.path_queries(15, 4, max(1, span // 3)),
            "fig13_subgraph": generator.subgraph_queries(6, 10,
                                                         max(1, span // 3)),
        }

    def test_query_batch_bit_identical(self, loaded_methods, fig_workloads):
        for name, summary in loaded_methods.items():
            for workload_name, queries in fig_workloads.items():
                batch = summary.query_batch(queries)
                per_item = [query.evaluate(summary) for query in queries]
                assert batch == per_item, (name, workload_name)

    def test_query_batch_mixed_workload(self, loaded_methods, fig_workloads):
        mixed = [query for queries in fig_workloads.values()
                 for query in queries]
        for name, summary in loaded_methods.items():
            assert summary.query_batch(mixed) == \
                [query.evaluate(summary) for query in mixed], name


class TestBatchExceptionSafety:
    """A mid-batch exception must leave the tree consistent and accounted."""

    _CONFIG = dict(leaf_matrix_size=4, bucket_entries=1, fingerprint_bits=12,
                   num_probes=1, enable_overflow_blocks=False)

    def test_generator_exception_keeps_tree_usable(self):
        summary = Higgs(HiggsConfig(**self._CONFIG))

        def poisoned(limit: int):
            for i in range(10_000):
                if i == limit:
                    raise RuntimeError("stream died")
                yield StreamEdge(f"s{i}", f"d{i}", 1.0, i)

        with pytest.raises(RuntimeError, match="stream died"):
            summary.insert_batch(poisoned(150))
        # Every applied item is accounted and the plan cache invalidates.
        assert summary.tree.items_inserted == 150
        assert summary.tree.version > 0
        # Groups completed before the failure were aggregated, so continued
        # per-item insertion cascades cleanly (no out-of-order materialize).
        for i in range(150, 700):
            summary.insert(f"s{i}", f"d{i}", 1.0, i)
        assert summary.height >= 3
        assert summary.edge_query("s10", "d10", 0, 1_000) >= 1.0


class TestTimestampRange:
    """Per-item and batch ingest agree on timestamps outside ``int64``: both
    raise InsertionError, after applying the items before the bad one."""

    _CONFIG = HiggsConfig(leaf_matrix_size=8)

    @staticmethod
    def _edges(timestamp):
        return [StreamEdge("a", "b", 1.0, 1), StreamEdge("b", "c", 2.0, 2),
                StreamEdge("a", "b", 4.0, timestamp),
                StreamEdge("c", "a", 1.0, 3)]

    @pytest.mark.parametrize("timestamp", [2 ** 63, -(2 ** 63) - 1])
    def test_higgs_paths_reject_identically(self, timestamp):
        edges = self._edges(timestamp)
        per_item = Higgs(self._CONFIG)
        with pytest.raises(InsertionError, match="int64"):
            for edge in edges:
                per_item.insert(edge.source, edge.destination, edge.weight,
                                edge.timestamp)
        assert per_item.tree.items_inserted == 2
        for batch in (edges, iter(edges)):
            batched = Higgs(self._CONFIG)
            with pytest.raises(InsertionError, match="int64"):
                batched.insert_batch(batch)
            assert batched.stats() == per_item.stats()
            assert batched.edge_query("a", "b", 0, 10) == 1.0

    @pytest.mark.parametrize("timestamp", [2 ** 63 - 1, -(2 ** 63)])
    def test_int64_bounds_accepted(self, timestamp):
        edges = self._edges(timestamp)
        per_item = Higgs(self._CONFIG)
        for edge in edges:
            per_item.insert(edge.source, edge.destination, edge.weight,
                            edge.timestamp)
        batched = Higgs(self._CONFIG)
        assert batched.insert_batch(edges) == len(edges)
        assert batched.stats() == per_item.stats()

    def test_serial_sharded_summary(self):
        edge = StreamEdge("a", "b", 1.0, 2 ** 63)
        engine = ShardedSummary(shards=2, executor="serial")
        try:
            with pytest.raises(InsertionError, match="int64"):
                engine.insert(edge.source, edge.destination, edge.weight,
                              edge.timestamp)
            # Scattered batches wrap shard failures in ShardingError.
            with pytest.raises(ShardingError) as failure:
                engine.insert_batch([edge])
            assert isinstance(failure.value.__cause__, InsertionError)
            assert engine.items_ingested == 0
        finally:
            engine.close()

