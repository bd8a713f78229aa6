"""Tests for the benchmark harness: method factory, context cache, reporting,
and smoke runs of every per-figure experiment at miniature scale."""

from __future__ import annotations

import json

import pytest

from repro.errors import BenchmarkError
from repro.bench import (METHOD_ORDER, clear_context_cache, format_table,
                         get_context, make_methods, save_rows,
                         scaled_higgs_config)
from repro.bench import experiments
from repro.streams.datasets import load_dataset

TINY_SCALE = 0.02
TINY_DATASETS = ("lkml",)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


class TestMethodFactory:
    def test_all_methods_constructed_in_order(self):
        stream = load_dataset("lkml", scale=TINY_SCALE)
        methods = make_methods(stream)
        assert list(methods) == METHOD_ORDER
        for name, summary in methods.items():
            assert summary.name == name

    def test_include_subset_and_unknown_rejected(self):
        stream = load_dataset("lkml", scale=TINY_SCALE)
        methods = make_methods(stream, include=["HIGGS", "PGSS"])
        assert list(methods) == ["HIGGS", "PGSS"]
        with pytest.raises(BenchmarkError):
            make_methods(stream, include=["HIGGS", "NotAMethod"])

    def test_scaled_config_tracks_stream_size(self):
        small = scaled_higgs_config(1_000)
        large = scaled_higgs_config(1_000_000)
        assert large.fingerprint_bits > small.fingerprint_bits
        assert small.leaf_matrix_size == 16


class TestContext:
    def test_context_is_cached_and_fully_inserted(self):
        first = get_context("lkml", scale=TINY_SCALE, include=["HIGGS"])
        second = get_context("lkml", scale=TINY_SCALE, include=["HIGGS"])
        assert first is second
        assert first.methods["HIGGS"].tree.items_inserted == len(first.stream)
        assert first.insert_seconds["HIGGS"] > 0
        assert first.span_length >= 1

    def test_different_scales_get_different_contexts(self):
        a = get_context("lkml", scale=TINY_SCALE, include=["HIGGS"])
        b = get_context("lkml", scale=TINY_SCALE * 2, include=["HIGGS"])
        assert a is not b
        assert len(b.stream) > len(a.stream)


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"method": "HIGGS", "aae": 0.0}, {"method": "PGSS", "aae": 12.5}]
        table = format_table(rows, title="fig-x")
        lines = table.splitlines()
        assert lines[0] == "fig-x"
        assert "method" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_save_rows_writes_text_and_json(self, tmp_path):
        rows = [{"method": "HIGGS", "value": 1}]
        path = save_rows(rows, tmp_path / "out" / "fig.txt", title="t")
        assert path.exists()
        data = json.loads(path.with_suffix(".json").read_text())
        assert data[0]["method"] == "HIGGS"


class TestExperimentSmokeRuns:
    """Each per-figure runner produces non-empty, well-formed rows at tiny scale."""

    METHODS = ("HIGGS", "PGSS")

    def test_motivation_experiments(self):
        assert len(experiments.run_table2(scale=TINY_SCALE)) == 3
        skew = experiments.run_fig2_skewness(scale=TINY_SCALE,
                                             datasets=TINY_DATASETS)
        irregularity = experiments.run_fig3_irregularity(scale=TINY_SCALE,
                                                         datasets=TINY_DATASETS)
        assert skew[0]["max_out_degree"] >= 1
        assert irregularity[0]["peak_edges_per_bin"] >= 1

    def test_edge_and_vertex_query_experiments(self):
        rows = experiments.run_fig10_edge_queries(
            datasets=TINY_DATASETS, scale=TINY_SCALE, range_lengths=(10,),
            queries_per_length=10, methods=self.METHODS)
        assert {row["method"] for row in rows} == set(self.METHODS)
        assert all(row["underestimates"] == 0 for row in rows
                   if row["method"] == "HIGGS")
        rows = experiments.run_fig11_vertex_queries(
            datasets=TINY_DATASETS, scale=TINY_SCALE, range_lengths=(10,),
            queries_per_length=8, methods=self.METHODS)
        assert all(row["queries"] > 0 for row in rows)

    def test_path_and_subgraph_experiments(self):
        rows = experiments.run_fig12_path_queries(
            datasets=TINY_DATASETS, scale=TINY_SCALE, hops=(1, 2),
            queries_per_setting=4, methods=self.METHODS)
        assert {row["hops"] for row in rows} == {1, 2}
        rows = experiments.run_fig13_subgraph_queries(
            datasets=TINY_DATASETS, scale=TINY_SCALE, sizes=(3,),
            queries_per_setting=2, methods=self.METHODS)
        assert all(row["subgraph_size"] == 3 for row in rows)

    def test_irregularity_experiments(self):
        rows = experiments.run_fig14_skewness(
            skewness_values=(1.5, 2.5), num_vertices=120, num_edges=600,
            vertex_queries=5, methods=self.METHODS)
        assert {row["skewness"] for row in rows} == {1.5, 2.5}
        rows = experiments.run_fig15_variance(
            variance_values=(600,), num_vertices=120, num_edges=600,
            vertex_queries=5, methods=self.METHODS)
        assert all(row["variance"] == 600 for row in rows)

    def test_update_and_space_experiments(self):
        rows = experiments.run_fig16_17_update_cost(
            datasets=TINY_DATASETS, scale=TINY_SCALE, methods=self.METHODS)
        assert all(row["throughput_eps"] > 0 for row in rows)
        rows = experiments.run_fig18_delete_throughput(
            datasets=TINY_DATASETS, scale=TINY_SCALE, methods=self.METHODS)
        assert all(row["throughput_dps"] > 0 for row in rows)
        rows = experiments.run_fig19_space_cost(
            datasets=TINY_DATASETS, scale=TINY_SCALE, methods=self.METHODS)
        assert all(row["memory_mb"] > 0 for row in rows)

    def test_ablation_and_parameter_experiments(self):
        rows = experiments.run_fig20a_parallelization(
            datasets=TINY_DATASETS, scale=TINY_SCALE)
        assert {row["variant"] for row in rows} == {
            "HIGGS-serial", "HIGGS-batched"}
        rows = experiments.run_fig20b_mmb_and_ob(
            datasets=TINY_DATASETS, scale=TINY_SCALE, edge_queries=10)
        assert {row["variant"] for row in rows} == {
            "HIGGS", "HIGGS-noMMB", "HIGGS-noOB", "HIGGS-noMMB-noOB"}
        rows = experiments.run_fig21_parameters(
            datasets=TINY_DATASETS, scale=TINY_SCALE, leaf_sizes=(8, 16),
            edge_queries=10)
        assert {row["d1"] for row in rows} == {8, 16}


class TestServeDrivers:
    """Regression tests for the serving-benchmark client drivers: client
    errors surface as ``BenchmarkError`` (never silently absorbed into the
    throughput numbers) and joins are bounded, so a wedged client aborts the
    run with attribution instead of hanging the bench."""

    @staticmethod
    def _ops(n=8):
        from repro.streams.edge import StreamEdge
        from repro.streams.generators import ServingOp
        return [ServingOp("write", edges=[StreamEdge("a", "b", 1.0, i)])
                for i in range(n)]

    @staticmethod
    def _engine(backend=None):
        from repro.baselines.exact import ExactTemporalGraph
        from repro.serving import ServingEngine
        return ServingEngine(backend or ExactTemporalGraph())

    def test_closed_loop_happy_path(self):
        from repro.bench.experiments.serve import _drive_closed_loop
        with self._engine() as engine:
            timing = _drive_closed_loop(engine, self._ops(), clients=3)
        assert timing["wall_s"] >= 0.0

    def test_closed_loop_client_error_raises_benchmark_error(self):
        from repro.baselines.exact import ExactTemporalGraph
        from repro.bench.experiments.serve import _drive_closed_loop

        class Exploding(ExactTemporalGraph):
            def insert_batch(self, edges):
                raise RuntimeError("disk on fire")

        with self._engine(Exploding()) as engine:
            with pytest.raises(BenchmarkError, match="clients failed") as info:
                _drive_closed_loop(engine, self._ops(), clients=2)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_closed_loop_stuck_client_reported(self, monkeypatch):
        import time as time_mod

        from repro.bench.experiments import serve

        class _HangingFuture:
            def result(self, timeout=None):
                time_mod.sleep(2.0)

        class _HangingEngine:
            def submit_write(self, edges):
                return _HangingFuture()

            def submit_query(self, query):
                return _HangingFuture()

        monkeypatch.setattr(serve, "_CLIENT_JOIN_TIMEOUT_S", 0.05)
        with pytest.raises(BenchmarkError, match="still running"):
            serve._drive_closed_loop(_HangingEngine(), self._ops(2), clients=2)

    def test_open_loop_counts_rejections_but_raises_on_failures(self):
        from repro.bench.experiments.serve import _drive_open_loop
        from repro.errors import ServingError

        class _Future:
            def __init__(self, exc=None):
                self._exc = exc

            def result(self, timeout=None):
                if self._exc is not None:
                    raise self._exc
                return 1

        class _StubEngine:
            """Rejects every third submit, fails every fourth future."""

            def __init__(self):
                self.count = 0

            def submit_write(self, edges):
                self.count += 1
                if self.count % 3 == 0:
                    raise ServingError("queue full")
                if self.count % 4 == 0:
                    return _Future(RuntimeError("shard died"))
                return _Future()

            def submit_query(self, query):
                return self.submit_write(None)

        stub = _StubEngine()
        with pytest.raises(BenchmarkError, match="accepted open-loop") as info:
            _drive_open_loop(stub, self._ops(12))
        assert isinstance(info.value.__cause__, RuntimeError)

        class _CleanRejecting(_StubEngine):
            def submit_write(self, edges):
                self.count += 1
                if self.count % 3 == 0:
                    raise ServingError("queue full")
                return _Future()

        timing = _drive_open_loop(_CleanRejecting(), self._ops(12))
        assert timing["rejected"] == 4
        assert timing["accepted"] == 8
