"""End-to-end tests for the public :class:`repro.Higgs` summary."""

from __future__ import annotations

import pytest

from repro import Higgs, HiggsConfig
from repro.baselines.exact import ExactTemporalGraph
from repro.errors import QueryError


@pytest.fixture()
def higgs() -> Higgs:
    # Generous fingerprints: at test scale the estimates should be exact.
    return Higgs(HiggsConfig(leaf_matrix_size=8, fingerprint_bits=18))


class TestBasicOperations:
    def test_single_edge_round_trip(self, higgs):
        higgs.insert("alice", "bob", 2.0, 100)
        assert higgs.edge_query("alice", "bob", 0, 200) == 2.0
        assert higgs.edge_query("alice", "bob", 0, 99) == 0.0
        assert higgs.edge_query("bob", "alice", 0, 200) == 0.0

    def test_repeated_edge_aggregates_over_time(self, higgs):
        for timestamp in (10, 20, 30):
            higgs.insert("a", "b", 1.5, timestamp)
        assert higgs.edge_query("a", "b", 0, 100) == pytest.approx(4.5)
        assert higgs.edge_query("a", "b", 15, 25) == pytest.approx(1.5)

    def test_vertex_query_directions(self, higgs):
        higgs.insert("a", "b", 1.0, 1)
        higgs.insert("a", "c", 2.0, 2)
        higgs.insert("d", "a", 4.0, 3)
        assert higgs.vertex_query("a", 0, 10) == 3.0
        assert higgs.vertex_query("a", 0, 10, direction="in") == 4.0
        assert higgs.vertex_query("b", 0, 10, direction="in") == 1.0

    def test_paper_example1_aggregates(self, higgs, tiny_stream):
        """Reproduce the aggregates of the paper's Example 1 (Fig. 5)."""
        higgs.insert_stream(tiny_stream)
        # Edge v2->v3 from t5 to t10 has weight 3 (items at t6 and t9).
        assert higgs.edge_query("v2", "v3", 5, 10) == 3.0
        # Vertex v4's outgoing weight from t1 to t11 is 6.
        assert higgs.vertex_query("v4", 1, 11) == 6.0
        # Subgraph {(v2,v3),(v3,v7),(v2,v4)} between t4 and t8 weighs 3.
        assert higgs.subgraph_query((("v2", "v3"), ("v3", "v7"), ("v2", "v4")),
                                    4, 8) == 3.0

    def test_path_query_sums_edges(self, higgs):
        higgs.insert("a", "b", 1.0, 1)
        higgs.insert("b", "c", 2.0, 2)
        higgs.insert("c", "d", 3.0, 3)
        assert higgs.path_query(["a", "b", "c", "d"], 0, 10) == 6.0

    def test_invalid_arguments_raise(self, higgs):
        with pytest.raises(QueryError):
            higgs.edge_query("a", "b", 10, 5)
        with pytest.raises(QueryError):
            higgs.vertex_query("a", 10, 5)
        with pytest.raises(QueryError):
            higgs.vertex_query("a", 0, 5, direction="sideways")
        with pytest.raises(QueryError):
            higgs.path_query(["a"], 0, 5)
        with pytest.raises(QueryError):
            higgs.subgraph_query([], 0, 5)


class TestAgainstExactStore:
    def test_exact_on_small_stream(self, small_stream, small_truth):
        summary = Higgs(HiggsConfig(fingerprint_bits=20))
        summary.insert_stream(small_stream)
        t_min, t_max = small_stream.time_span
        edges = sorted(small_stream.distinct_edges())[:150]
        for source, destination in edges:
            for t_start, t_end in ((t_min, t_max), (t_min + 100, t_min + 600)):
                estimate = summary.edge_query(source, destination, t_start, t_end)
                truth = small_truth.edge_query(source, destination, t_start, t_end)
                assert estimate == pytest.approx(truth)

    def test_vertex_queries_never_underestimate(self, small_stream, small_truth):
        summary = Higgs(HiggsConfig(fingerprint_bits=14))
        summary.insert_stream(small_stream)
        t_min, t_max = small_stream.time_span
        vertices = sorted(small_stream.vertices())[:80]
        for vertex in vertices:
            estimate = summary.vertex_query(vertex, t_min, t_max)
            truth = small_truth.vertex_query(vertex, t_min, t_max)
            assert estimate >= truth - 1e-9

    def test_deep_tree_remains_exact(self, small_stream, small_truth):
        # Tiny leaves force a tall tree with several aggregation levels.
        summary = Higgs(HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                                    fingerprint_bits=20, num_probes=2))
        summary.insert_stream(small_stream)
        assert summary.height >= 4
        t_min, t_max = small_stream.time_span
        for source, destination in sorted(small_stream.distinct_edges())[:60]:
            estimate = summary.edge_query(source, destination, t_min, t_max)
            truth = small_truth.edge_query(source, destination, t_min, t_max)
            assert estimate == pytest.approx(truth)


class TestDeletion:
    def test_delete_removes_weight_everywhere(self, small_stream):
        summary = Higgs(HiggsConfig(fingerprint_bits=20))
        summary.insert_stream(small_stream)
        edge = small_stream[0]
        t_min, t_max = small_stream.time_span
        before = summary.edge_query(edge.source, edge.destination, t_min, t_max)
        summary.delete(edge.source, edge.destination, edge.weight, edge.timestamp)
        after = summary.edge_query(edge.source, edge.destination, t_min, t_max)
        assert after == pytest.approx(before - edge.weight)

    def test_delete_unknown_item_is_noop(self, higgs):
        higgs.insert("a", "b", 1.0, 1)
        higgs.delete("ghost", "phantom", 1.0, 1)
        assert higgs.edge_query("a", "b", 0, 10) == 1.0


class TestIntrospection:
    def test_stats_and_memory(self, small_stream):
        summary = Higgs()
        summary.insert_stream(small_stream)
        stats = summary.stats()
        assert stats["items_inserted"] == len(small_stream)
        assert summary.memory_bytes() == stats["memory_bytes"]
        assert summary.leaf_count == stats["leaf_count"]
        assert summary.height >= 1
        assert "Higgs" in repr(summary)

    def test_timestamps_are_coerced_to_int(self, higgs):
        higgs.insert("a", "b", 1.0, 3.0)
        assert higgs.edge_query("a", "b", 0, 10) == 1.0
