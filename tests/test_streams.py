"""Tests for the graph stream substrate: edge model, generators, datasets
and descriptive statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.streams import analysis
from repro.streams.datasets import (DATASET_ORDER, DATASETS, load_dataset,
                                    table2_rows)
from repro.streams.edge import GraphStream, StreamEdge
from repro.streams.generators import StreamSpec, generate_stream


class TestGraphStream:
    def test_accepts_tuples_and_edges(self):
        stream = GraphStream([("a", "b", 1, 3), StreamEdge("b", "c", 2.0, 1)])
        assert len(stream) == 2
        assert isinstance(stream[0], StreamEdge)
        weight, timestamp = stream[0].weight, stream[0].timestamp
        assert (weight, timestamp) == (1.0, 3)
        assert type(weight) is float and type(timestamp) is int

    @pytest.mark.parametrize("item, field", [
        (("a", "b", "3", 1.5), "weight '3'"),
        (("a", "b", None, 1), "weight None"),
        (("a", "b", 1.0, "12"), "timestamp '12'"),
        (("a", "b", 1.0, None), "timestamp None"),
        (StreamEdge("a", "b", 1.0, 2.0), "timestamp 2.0")])
    def test_refuses_what_every_write_path_refuses(self, item, field):
        # A weight that is not a real number, or a timestamp that is not an
        # integer within int64, is refused, not coerced; the error names
        # the first bad item and its position.
        with pytest.raises(DatasetError, match=f"stream item 1 .*{field}"):
            GraphStream([("a", "b", 1.0, 0), item, ("a", "b", None, None)])

    def test_sort_by_time(self):
        stream = GraphStream([("a", "b", 1, 5), ("b", "c", 1, 2)],
                             sort_by_time=True)
        assert [e.timestamp for e in stream] == [2, 5]

    def test_time_span_and_vertices(self, tiny_stream):
        t_min, t_max = tiny_stream.time_span
        assert t_min == 1
        assert t_max == 11
        assert "v1" in tiny_stream.vertices()
        assert ("v2", "v3") in tiny_stream.distinct_edges()

    def test_time_span_of_empty_stream_raises(self):
        with pytest.raises(ValueError):
            GraphStream([]).time_span


class TestGenerators:
    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            StreamSpec(num_vertices=1, num_edges=10).validate()
        with pytest.raises(DatasetError):
            StreamSpec(num_vertices=10, num_edges=0).validate()
        with pytest.raises(DatasetError):
            StreamSpec(num_vertices=10, num_edges=10, skewness=0.5).validate()
        with pytest.raises(DatasetError):
            StreamSpec(num_vertices=10, num_edges=10, arrival_variance=-1).validate()

    def test_generation_is_deterministic(self):
        spec = StreamSpec(num_vertices=50, num_edges=500, seed=4)
        a = generate_stream(spec)
        b = generate_stream(spec)
        assert list(a) == list(b)

    def test_requested_size_and_sorted_timestamps(self):
        spec = StreamSpec(num_vertices=80, num_edges=700, time_span=1_000, seed=2)
        stream = generate_stream(spec)
        assert len(stream) == 700
        timestamps = [e.timestamp for e in stream]
        assert timestamps == sorted(timestamps)
        assert all(0 <= t < 1_000 for t in timestamps)

    def test_no_self_loops(self):
        stream = generate_stream(StreamSpec(num_vertices=20, num_edges=800, seed=6))
        assert all(e.source != e.destination for e in stream)

    def test_higher_skew_concentrates_degrees(self):
        flat = generate_stream(StreamSpec(num_vertices=300, num_edges=4_000,
                                          skewness=1.5, seed=8))
        steep = generate_stream(StreamSpec(num_vertices=300, num_edges=4_000,
                                           skewness=3.0, seed=8))
        assert analysis.degree_stats(steep).top1_percent_share > \
            analysis.degree_stats(flat).top1_percent_share

    def test_variance_increases_burstiness(self):
        calm = generate_stream(StreamSpec(num_vertices=200, num_edges=4_000,
                                          arrival_variance=0, seed=5))
        bursty = generate_stream(StreamSpec(num_vertices=200, num_edges=4_000,
                                            arrival_variance=1_600, seed=5))
        assert analysis.arrival_variance(bursty) > analysis.arrival_variance(calm)


class TestDatasets:
    def test_dataset_registry(self):
        assert set(DATASETS) == set(DATASET_ORDER)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("imaginary")

    def test_scaled_loading_preserves_relative_sizes(self):
        lkml = load_dataset("lkml", scale=0.05)
        stackoverflow = load_dataset("stackoverflow", scale=0.05)
        assert len(stackoverflow) > len(lkml)

    def test_loading_is_deterministic(self):
        a = load_dataset("lkml", scale=0.05)
        b = load_dataset("lkml", scale=0.05)
        assert list(a) == list(b)

    def test_table2_rows_structure(self):
        rows = table2_rows(scale=0.05)
        assert len(rows) == 3
        for row in rows:
            assert row["edges"] > 0
            assert row["nodes"] > 0
            assert row["paper_edges"] > row["edges"]


class TestAnalysis:
    def test_degree_distributions(self, tiny_stream):
        out_degrees = analysis.out_degree_distribution(tiny_stream)
        in_degrees = analysis.in_degree_distribution(tiny_stream)
        assert out_degrees["v2"] == 4
        assert in_degrees["v3"] == 3

    def test_ccdf_is_monotone_decreasing(self, small_stream):
        ccdf = analysis.degree_ccdf(small_stream)
        probabilities = [p for _, p in ccdf]
        assert probabilities == sorted(probabilities, reverse=True)
        assert probabilities[0] == 1.0

    def test_degree_stats_fields(self, small_stream):
        stats = analysis.degree_stats(small_stream)
        assert stats.max_degree >= stats.median_degree
        assert 0.0 <= stats.gini <= 1.0
        assert 0.0 < stats.top1_percent_share <= 1.0

    def test_arrival_histogram_covers_all_edges(self, small_stream):
        histogram = analysis.arrival_histogram(small_stream, num_bins=20)
        assert sum(count for _, count in histogram) == len(small_stream)

    def test_empty_stream_statistics(self):
        empty = GraphStream([])
        assert analysis.degree_ccdf(empty) == []
        assert analysis.arrival_histogram(empty) == []
        assert analysis.arrival_variance(empty) == 0.0
        stats = analysis.degree_stats(empty)
        assert stats.max_degree == 0
