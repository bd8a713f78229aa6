"""Tests for query types, workload generation and evaluation."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import Higgs, HiggsConfig
from repro.baselines.exact import ExactTemporalGraph
from repro.errors import ConfigurationError
from repro.queries import (EdgeQuery, PathQuery, QueryWorkloadGenerator,
                           SubgraphQuery, VertexQuery, WorkloadConfig,
                           evaluate_queries)
from repro.streams.edge import GraphStream


class TestQueryTypes:
    def test_each_query_evaluates_against_a_summary(self, tiny_stream):
        truth = ExactTemporalGraph()
        truth.insert_stream(tiny_stream)
        assert EdgeQuery("v2", "v3", 5, 10).evaluate(truth) == 3.0
        assert VertexQuery("v4", 1, 11).evaluate(truth) == 6.0
        assert VertexQuery("v3", 1, 11, direction="in").evaluate(truth) == 5.0
        path = PathQuery(("v2", "v3", "v7"), 1, 11)
        assert path.hops == 2
        assert path.evaluate(truth) == 5.0 + 3.0
        subgraph = SubgraphQuery((("v2", "v3"), ("v3", "v7"), ("v2", "v4")), 4, 8)
        assert subgraph.size == 3
        assert subgraph.evaluate(truth) == 3.0

    def test_queries_survive_pickle_and_deepcopy(self):
        queries = [EdgeQuery("v2", 3, 5, 10), VertexQuery("v4", 1, 11, "in"),
                   PathQuery(("v2", "v3", "v7"), 1, 11),
                   SubgraphQuery((("v2", "v3"), ("v3", "v7")), 4, 8)]
        for query in queries:
            copies = [pickle.loads(pickle.dumps(query, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies.append(copy.deepcopy(query))
            for duplicate in copies:
                assert type(duplicate) is type(query)
                assert duplicate == query


class TestWorkloadGenerator:
    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryWorkloadGenerator(GraphStream([]))

    def test_edge_queries_have_requested_shape(self, small_stream):
        generator = QueryWorkloadGenerator(small_stream, WorkloadConfig(seed=1))
        queries = generator.edge_queries(25, range_length=100)
        assert len(queries) == 25
        t_min, t_max = small_stream.time_span
        for query in queries:
            assert query.t_end - query.t_start + 1 <= 100
            assert t_min <= query.t_start <= query.t_end <= t_max

    def test_range_length_clamped_to_span(self, small_stream):
        generator = QueryWorkloadGenerator(small_stream)
        query = generator.edge_queries(1, range_length=10**9)[0]
        t_min, t_max = small_stream.time_span
        assert (query.t_start, query.t_end) == (t_min, t_max)

    def test_generation_is_deterministic_per_seed(self, small_stream):
        a = QueryWorkloadGenerator(small_stream, WorkloadConfig(seed=7))
        b = QueryWorkloadGenerator(small_stream, WorkloadConfig(seed=7))
        assert a.edge_queries(10, 50) == b.edge_queries(10, 50)

    def test_existing_fraction_controls_hit_rate(self, small_stream, small_truth):
        t_min, t_max = small_stream.time_span
        always = QueryWorkloadGenerator(
            small_stream, WorkloadConfig(seed=3, existing_fraction=1.0))
        hits = sum(small_truth.edge_query(q.source, q.destination, t_min, t_max) > 0
                   for q in always.edge_queries(40, t_max - t_min + 1))
        assert hits == 40

    def test_vertex_queries(self, small_stream):
        generator = QueryWorkloadGenerator(small_stream)
        queries = generator.vertex_queries(15, range_length=200, direction="in")
        assert len(queries) == 15
        assert all(q.direction == "in" for q in queries)

    def test_path_queries_have_requested_hops(self, small_stream):
        generator = QueryWorkloadGenerator(small_stream)
        for hops in (1, 3, 5):
            queries = generator.path_queries(5, hops=hops, range_length=300)
            assert all(q.hops == hops for q in queries)
        with pytest.raises(ConfigurationError):
            generator.path_queries(1, hops=0, range_length=10)

    def test_subgraph_queries_have_requested_size(self, small_stream):
        generator = QueryWorkloadGenerator(small_stream)
        for size in (5, 20):
            queries = generator.subgraph_queries(3, size=size, range_length=300)
            assert all(q.size == size for q in queries)
        with pytest.raises(ConfigurationError):
            generator.subgraph_queries(1, size=0, range_length=10)
        # Two vertices form only four pairs, so five edges are unreachable.
        pair = QueryWorkloadGenerator(GraphStream([("a", "b", 1, 1)]))
        with pytest.raises(ConfigurationError):
            pair.subgraph_queries(1, size=5, range_length=10)


class TestEvaluation:
    def test_exact_summary_scores_zero_error(self, small_stream, small_truth):
        generator = QueryWorkloadGenerator(small_stream)
        queries = generator.edge_queries(30, 500)
        result = evaluate_queries(small_truth, queries, small_truth)
        assert result.aae == 0.0
        assert result.are == 0.0
        assert result.accuracy.exact_fraction == 1.0
        assert result.total_queries == 30
        assert result.average_latency_micros >= 0.0

    def test_higgs_is_one_sided_in_evaluation(self, small_stream, small_truth):
        summary = Higgs(HiggsConfig(fingerprint_bits=16))
        summary.insert_stream(small_stream)
        generator = QueryWorkloadGenerator(small_stream)
        queries = generator.edge_queries(40, 400) + generator.vertex_queries(10, 400)
        result = evaluate_queries(summary, queries, small_truth)
        assert result.accuracy.underestimates == 0
        assert result.method == "HIGGS"
