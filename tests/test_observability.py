"""Tests for the observability layer: metric registry, Prometheus/JSON
rendering, the snapshot emitter, and the adaptive epoch controller."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.observability import (AdaptiveEpochController, Counter, Gauge,
                                 MetricsRegistry, SnapshotEmitter,
                                 WindowedHistogram, nearest_rank)


class TestCounter:
    def test_increments_and_value(self):
        counter = Counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5.0

    def test_negative_increment_rejected(self):
        counter = Counter("requests_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("requests_total", labelnames=("kind",))
        counter.inc(kind="read")
        counter.inc(2, kind="write")
        assert counter.value(kind="read") == 1.0
        assert counter.value(kind="write") == 2.0
        assert counter.value(kind="unseen") == 0.0

    def test_wrong_label_set_rejected(self):
        counter = Counter("requests_total", labelnames=("kind",))
        with pytest.raises(ConfigurationError):
            counter.inc(shard="0")
        with pytest.raises(ConfigurationError):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value() == 12.0

    def test_set_max_is_a_watermark(self):
        gauge = Gauge("peak")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.value() == 4.0
        gauge.set_max(9)
        assert gauge.value() == 9.0

    def test_callback_child_evaluated_at_collection(self):
        backing = {"value": 1.0}
        gauge = Gauge("depth")
        gauge.set_function(lambda: backing["value"])
        assert gauge.value() == 1.0
        backing["value"] = 7.0
        assert gauge.value() == 7.0

    def test_set_replaces_callback_and_vice_versa(self):
        gauge = Gauge("depth")
        gauge.set_function(lambda: 3.0)
        gauge.set(5.0)
        assert gauge.value() == 5.0
        gauge.set_function(lambda: 9.0)
        assert gauge.value() == 9.0


class TestWindowedHistogram:
    def test_report_over_window_only(self):
        histogram = WindowedHistogram("latency", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        report = histogram.report()
        assert report["p50"] == 3.0  # window is [2, 3, 4, 100]
        assert histogram.count() == 5  # lifetime count survives the window

    def test_cold_series_reports_empty(self):
        histogram = WindowedHistogram("latency", labelnames=("kind",))
        assert histogram.report(kind="read") == {}
        assert histogram.count(kind="read") == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedHistogram("latency", window=0)

    def test_nearest_rank_contract(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert nearest_rank(samples, 50.0) == 50.0
        assert nearest_rank(samples, 99.0) == 99.0
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101.0)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("requests_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("requests_total")

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("2bad")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_name", labelnames=("bad-label",))
        with pytest.raises(ConfigurationError):
            registry.counter("dup_labels", labelnames=("a", "a"))

    def test_get_and_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("b_total")
        registry.gauge("a_depth")
        assert registry.get("b_total") is counter
        assert registry.get("missing") is None
        assert registry.names() == ["a_depth", "b_total"]


class TestPrometheusRendering:
    def test_counter_and_gauge_text_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests served.",
                                   labelnames=("kind",))
        counter.inc(3, kind="read")
        gauge = registry.gauge("queue_depth", "Queue depth.")
        gauge.set(7)
        text = registry.render_prometheus()
        assert "# HELP requests_total Requests served.\n" in text
        assert "# TYPE requests_total counter\n" in text
        assert 'requests_total{kind="read"} 3\n' in text
        assert "# TYPE queue_depth gauge\n" in text
        assert "queue_depth 7\n" in text

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", "Latency.",
                                       labelnames=("kind",))
        for value in (0.5, 1.5):
            histogram.observe(value, kind="read")
        text = registry.render_prometheus()
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{kind="read",quantile="0.5"} 0.5' in text
        assert 'latency_seconds{kind="read",quantile="0.99"} 1.5' in text
        assert 'latency_seconds_count{kind="read"} 2' in text
        assert 'latency_seconds_sum{kind="read"} 2' in text

    def test_help_and_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "weird_total", 'help with \\ backslash\nand newline',
            labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert "# HELP weird_total help with \\\\ backslash\\nand newline" \
            in text
        assert 'weird_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_output_stable_across_registration_and_observation_order(self):
        def build(order):
            registry = MetricsRegistry()
            if order:
                counter = registry.counter("z_total", labelnames=("kind",))
                gauge = registry.gauge("a_depth")
            else:
                gauge = registry.gauge("a_depth")
                counter = registry.counter("z_total", labelnames=("kind",))
            kinds = ("read", "write") if order else ("write", "read")
            for kind in kinds:
                counter.inc(kind=kind)
            gauge.set(3)
            return registry.render_prometheus()

        assert build(True) == build(False)

    def test_sample_lines_sorted_by_label_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("shard_items", labelnames=("shard",))
        for shard in ("2", "0", "1"):
            gauge.set(1.0, shard=shard)
        text = registry.render_prometheus()
        lines = [line for line in text.splitlines()
                 if line.startswith("shard_items{")]
        assert lines == sorted(lines)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestSnapshot:
    def test_snapshot_is_json_able_and_keyed_by_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", labelnames=("kind",))
        counter.inc(2, kind="read")
        histogram = registry.histogram("latency_seconds")
        histogram.observe(0.25)
        snapshot = registry.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["requests_total"]["values"]["kind=read"] == 2.0
        entry = round_tripped["latency_seconds"]["values"][""]
        assert entry["count"] == 1.0
        assert entry["p50"] == 0.25


class TestSnapshotEmitter:
    def test_emit_once_structure(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(3)
        lines = []
        emitter = SnapshotEmitter(registry, lines.append, source="test",
                                  clock=lambda: 1234.5)
        line = emitter.emit_once()
        assert lines == [line]
        parsed = json.loads(line)
        assert parsed["event"] == "metrics"
        assert parsed["source"] == "test"
        assert parsed["ts"] == 1234.5
        assert parsed["metrics"]["requests_total"]["values"][""] == 3.0
        # Sorted keys: identical state serializes identically.
        assert line == emitter.emit_once()

    def test_sink_errors_counted_not_raised(self):
        def broken_sink(line):
            raise RuntimeError("pipe closed")

        emitter = SnapshotEmitter(MetricsRegistry(), broken_sink)
        emitter.emit_once()
        assert emitter.sink_errors == 1
        assert emitter.emitted == 1

    def test_periodic_emission_and_stop(self):
        lines = []
        emitter = SnapshotEmitter(MetricsRegistry(), lines.append,
                                  interval_s=0.02)
        with emitter:
            deadline = time.time() + 5.0
            while len(lines) < 3 and time.time() < deadline:
                time.sleep(0.01)
        assert len(lines) >= 3
        emitter.stop()  # idempotent
        settled = len(lines)
        time.sleep(0.06)
        assert len(lines) == settled

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SnapshotEmitter(MetricsRegistry(), interval_s=0.0)


class TestAdaptiveEpochController:
    def test_starts_at_min_and_clamps_initial(self):
        controller = AdaptiveEpochController(min_size=100, max_size=1000)
        assert controller.size == 100
        low = AdaptiveEpochController(min_size=100, max_size=1000, initial=5)
        assert low.size == 100
        high = AdaptiveEpochController(min_size=100, max_size=1000,
                                       initial=5000)
        assert high.size == 1000

    def test_deep_queue_grows_immediately_and_clamps_at_max(self):
        controller = AdaptiveEpochController(min_size=100, max_size=350,
                                             grow_factor=2.0)
        assert controller.observe(60, 100) == 200
        assert controller.observe(60, 100) == 350  # clamped, not 400
        assert controller.observe(100, 100) == 350  # saturated: no change
        assert controller.adjustments == 2

    def test_shrink_needs_sustained_quiet(self):
        controller = AdaptiveEpochController(min_size=100, max_size=1000,
                                             initial=800, cooldown_rounds=3,
                                             shrink_factor=0.5)
        assert controller.observe(0, 100) == 800
        assert controller.observe(0, 100) == 800
        assert controller.observe(0, 100) == 400  # third quiet round shrinks
        assert controller.adjustments == 1

    def test_interrupted_quiet_streak_resets_damping(self):
        controller = AdaptiveEpochController(min_size=100, max_size=1000,
                                             initial=800, cooldown_rounds=3,
                                             high_fraction=0.5,
                                             low_fraction=0.1)
        controller.observe(0, 100)
        controller.observe(0, 100)
        controller.observe(30, 100)  # mid-band: streak resets, size holds
        assert controller.size == 800
        controller.observe(0, 100)
        controller.observe(0, 100)
        assert controller.size == 800  # streak restarted, not yet 3
        controller.observe(0, 100)
        assert controller.size == 400

    def test_zero_traffic_walks_down_to_min_and_idles(self):
        controller = AdaptiveEpochController(min_size=100, max_size=1000,
                                             initial=1000, cooldown_rounds=2)
        for _ in range(20):
            controller.observe(0, 100)
        assert controller.size == 100
        adjustments = controller.adjustments
        for _ in range(10):
            controller.observe(0, 100)
        assert controller.size == 100
        assert controller.adjustments == adjustments  # idle: no churn

    def test_bursty_load_settles_wide_instead_of_thrashing(self):
        controller = AdaptiveEpochController(min_size=100, max_size=800,
                                             cooldown_rounds=3)
        # Alternating deep/shallow rounds: immediate growth wins because a
        # single shallow round never satisfies the shrink cooldown.
        for _ in range(6):
            controller.observe(80, 100)
            controller.observe(0, 100)
        assert controller.size == 800

    def test_depth_beyond_capacity_counts_as_full(self):
        controller = AdaptiveEpochController(min_size=100, max_size=400)
        assert controller.observe(250, 100) == 200

    @pytest.mark.parametrize("kwargs", [
        {"min_size": 0, "max_size": 10},
        {"min_size": 20, "max_size": 10},
        {"min_size": 1, "max_size": 10, "grow_factor": 1.0},
        {"min_size": 1, "max_size": 10, "shrink_factor": 1.0},
        {"min_size": 1, "max_size": 10, "shrink_factor": 0.0},
        {"min_size": 1, "max_size": 10, "low_fraction": 0.5,
         "high_fraction": 0.5},
        {"min_size": 1, "max_size": 10, "cooldown_rounds": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveEpochController(**kwargs)

    def test_invalid_capacity_rejected(self):
        controller = AdaptiveEpochController(min_size=1, max_size=10)
        with pytest.raises(ConfigurationError):
            controller.observe(0, 0)
