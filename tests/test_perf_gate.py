"""Tests for the CI performance-regression gate (``tools/check_perf.py``)."""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_perf():
    spec = importlib.util.spec_from_file_location(
        "check_perf", REPO_ROOT / "tools" / "check_perf.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_perf", module)
    spec.loader.exec_module(module)
    return module


check_perf = _load_check_perf()


class TestCompare:
    BASELINES = {"batch_higgs_speedup_x": {"value": 2.0},
                 "sharded_parallel_x4": {"value": 2.4}}

    def test_within_tolerance_passes(self):
        measured = {"batch_higgs_speedup_x": 1.5, "sharded_parallel_x4": 2.0,
                    "batch_higgs_eps": 100_000.0}
        rows = check_perf.compare(measured, self.BASELINES, tolerance=0.30)
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["batch_higgs_speedup_x"]["ok"]          # 1.5 >= 1.4
        assert by_metric["sharded_parallel_x4"]["ok"]            # 2.0 >= 1.68
        info = by_metric["batch_higgs_eps"]
        assert not info["gated"] and info["ok"]

    def test_regression_past_tolerance_fails(self):
        measured = {"batch_higgs_speedup_x": 1.3, "sharded_parallel_x4": 2.4}
        rows = check_perf.compare(measured, self.BASELINES, tolerance=0.30)
        failed = [row for row in rows if row["gated"] and not row["ok"]]
        assert [row["metric"] for row in failed] == ["batch_higgs_speedup_x"]
        assert failed[0]["limit"] == pytest.approx(1.4)
        assert failed[0]["direction"] == "higher"

    def test_missing_gated_metric_fails(self):
        rows = check_perf.compare({"batch_higgs_speedup_x": 2.0},
                                  self.BASELINES, tolerance=0.30)
        missing = [row for row in rows if row["measured"] is None]
        assert [row["metric"] for row in missing] == ["sharded_parallel_x4"]
        assert missing[0]["gated"] and not missing[0]["ok"]

    def test_lower_direction_gates_as_a_ceiling(self):
        baselines = {"serving_read_p99_p50_x":
                     {"value": 5.0, "direction": "lower"}}
        ok_rows = check_perf.compare({"serving_read_p99_p50_x": 6.0},
                                     baselines, tolerance=0.30)
        assert ok_rows[0]["ok"]                                  # 6.0 <= 6.5
        assert ok_rows[0]["limit"] == pytest.approx(6.5)
        bad_rows = check_perf.compare({"serving_read_p99_p50_x": 7.0},
                                      baselines, tolerance=0.30)
        assert not bad_rows[0]["ok"]                             # 7.0 > 6.5

    def test_per_metric_tolerance_overrides_file_wide(self):
        baselines = {"serving_shed_fraction":
                     {"value": 0.5, "direction": "lower", "tolerance": 0.1}}
        rows = check_perf.compare({"serving_shed_fraction": 0.6},
                                  baselines, tolerance=0.30)
        # File-wide 30% would allow 0.65; the per-metric 10% caps at 0.55.
        assert rows[0]["limit"] == pytest.approx(0.55)
        assert not rows[0]["ok"]

    def test_unknown_direction_rejected(self):
        baselines = {"some_metric": {"value": 1.0, "direction": "sideways"}}
        with pytest.raises(ValueError):
            check_perf.compare({"some_metric": 1.0}, baselines, tolerance=0.3)

    def test_min_cores_skips_on_small_host(self, monkeypatch):
        baselines = {"sharded_wall_x4": {"value": 2.0, "min_cores": 4}}
        monkeypatch.setattr(check_perf.os, "cpu_count", lambda: 2)
        rows = check_perf.compare({"sharded_wall_x4": 0.9}, baselines,
                                  tolerance=0.30)
        # Way below the limit, yet recorded-but-skipped: the host cannot
        # realize parallel speedup, so the verdict is a skip, not a failure.
        assert rows[0]["ok"]
        assert rows[0]["skipped"] == "skipped: 2 cores"
        assert rows[0]["measured"] == 0.9

    def test_min_cores_enforced_on_big_host(self, monkeypatch):
        baselines = {"sharded_wall_x4": {"value": 2.0, "min_cores": 4}}
        monkeypatch.setattr(check_perf.os, "cpu_count", lambda: 8)
        rows = check_perf.compare({"sharded_wall_x4": 0.9}, baselines,
                                  tolerance=0.30)
        assert not rows[0]["ok"]
        assert rows[0]["skipped"] is None


class TestMarkdownSummary:
    def _rows(self):
        baselines = {
            "batch_higgs_speedup_x": {"value": 2.0},
            "sharded_wall_x4": {"value": 2.0, "min_cores": 4},
        }
        return check_perf.compare(
            {"batch_higgs_speedup_x": 1.0, "sharded_wall_x4": 1.1,
             "host_cores": 1.0},
            baselines, tolerance=0.30)

    def test_table_includes_every_metric_with_verdicts(self, monkeypatch):
        monkeypatch.setattr(check_perf.os, "cpu_count", lambda: 1)
        text = check_perf.render_markdown(self._rows(), scale=0.1,
                                          tolerance=0.30)
        assert "| metric | measured | baseline | delta | verdict |" in text
        assert "| `batch_higgs_speedup_x` | 1.000 | 2.000 | -50.0% |" in text
        assert "❌ FAIL" in text
        assert "skipped: 1 cores" in text
        assert "| `host_cores` | 1.000 | — | — | info |" in text

    def test_summary_flag_appends_to_step_summary_file(
            self, tmp_path, monkeypatch):
        target = tmp_path / "step_summary.md"
        target.write_text("prior content\n", encoding="utf-8")
        monkeypatch.setattr(check_perf.os, "cpu_count", lambda: 1)
        markdown = check_perf.render_markdown(self._rows(), scale=0.1,
                                              tolerance=0.30)
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        text = target.read_text(encoding="utf-8")
        assert text.startswith("prior content\n")
        assert "### Perf gate" in text


class TestShardedBreakdown:
    """``sharded_parallel_x4``'s parts are reported beside it and never
    gate."""

    _BREAKDOWN = ("sharded_parallel_s_1", "sharded_overhead_s_4",
                  "sharded_max_shard_s_4", "sharded_parallel_eps_4")

    @staticmethod
    def _canned(monkeypatch):
        """Replace the experiments ``run_measurements`` runs with fixed
        rows, so the test reads the arithmetic, not the host."""
        from repro.bench import experiments

        def sharded(row_shards, parallel_s, max_shard_s):
            return {"figure": "sharded", "shards": row_shards,
                    "parallel_x": 0.05 / parallel_s, "wall_eps": 1e5,
                    "parallel_s": parallel_s, "max_shard_s": max_shard_s,
                    "parallel_eps": 10_000 / parallel_s}

        monkeypatch.setattr(experiments, "run_batch_speedup", lambda **_: [
            {"method": "HIGGS", "speedup": 3.5, "batch_eps": 1e5,
             "per_item_eps": 3e4}])
        monkeypatch.setattr(experiments, "run_sharded_scaling", lambda **_: [
            sharded(1, 0.05, 0.04), sharded(4, 0.04, 0.01),
            {"figure": "sharded-process", "shards": 4, "wall_x": 0.6,
             "host_cores": 2}])
        monkeypatch.setattr(experiments, "run_rebalance", lambda **_: [
            {"figure": "rebalance", "phase": "rebalanced",
             "recovery_x": 1.9, "measured_x": 1.5},
            {"figure": "rebalance-recovery", "phase": "recover",
             "recover_s": 0.2}])
        monkeypatch.setattr(experiments, "run_serving", lambda **_: [
            {"figure": "serving", "read_p99_ms": 4.0, "read_p50_ms": 1.0,
             "req_per_s": 900.0},
            {"figure": "serving-open", "requests": 900, "dropped": 100}])

    def test_breakdown_rows_are_reported(self, monkeypatch):
        self._canned(monkeypatch)
        measured = check_perf.run_measurements(scale=0.01)
        assert measured["sharded_parallel_s_1"] == pytest.approx(0.05)
        assert measured["sharded_overhead_s_4"] == pytest.approx(0.03)
        assert measured["sharded_max_shard_s_4"] == pytest.approx(0.01)
        assert measured["sharded_parallel_eps_4"] == pytest.approx(250_000)
        assert measured["sharded_parallel_x4"] == pytest.approx(1.25)

    def test_breakdown_rows_never_gate(self, monkeypatch):
        self._canned(monkeypatch)
        spec = json.loads((REPO_ROOT / "benchmarks" / "baselines.json")
                          .read_text(encoding="utf-8"))
        assert not set(self._BREAKDOWN) & set(spec["metrics"])
        measured = check_perf.run_measurements(scale=0.01)
        # Even absurd values pass: the rows are information only.
        measured.update({name: -1.0 for name in self._BREAKDOWN})
        rows = {row["metric"]: row for row in check_perf.compare(
            measured, spec["metrics"], tolerance=spec["tolerance"])}
        for name in self._BREAKDOWN:
            assert rows[name]["measured"] == -1.0
            assert not rows[name]["gated"] and rows[name]["ok"]


class TestCommittedBaselines:
    def test_baselines_file_is_well_formed(self):
        spec = json.loads((REPO_ROOT / "benchmarks" / "baselines.json")
                          .read_text(encoding="utf-8"))
        assert 0.0 < spec["tolerance"] < 1.0
        assert spec["scale"] > 0
        assert set(spec["metrics"]) == {"batch_higgs_speedup_x",
                                        "sharded_parallel_x4",
                                        "sharded_wall_x4",
                                        "rebalance_recovery_x",
                                        "serving_read_p99_p50_x",
                                        "serving_shed_fraction"}
        # The measured-parallel metric is hardware-gated: enforced only on
        # runners with at least four cores.
        assert spec["metrics"]["sharded_wall_x4"]["min_cores"] == 4
        assert spec["metrics"]["sharded_wall_x4"]["value"] >= 2.0
        for name, entry in spec["metrics"].items():
            direction = entry.get("direction", "higher")
            assert direction in ("higher", "lower")
            if direction == "higher":
                assert entry["value"] > 1.0, \
                    "a gated speedup baseline must be >1x"
        shed = spec["metrics"]["serving_shed_fraction"]
        assert 0.0 < shed["value"] < 1.0
        # The ceiling must leave the gate able to trip: shed fraction never
        # exceeds 1, so baseline * (1 + tolerance) has to stay below it.
        assert shed["value"] * (1.0 + shed["tolerance"]) < 1.0


class TestInjections:
    """The gate must demonstrably fail when the guarded path gets slower."""

    def test_injected_slowdown_collapses_batch_speedup(self, monkeypatch):
        from repro.core.higgs import Higgs

        original = Higgs.insert_batch

        def slowed(self, edges):
            time.sleep(0.02)
            return original(self, edges)

        # Miniature clean measurements first, then the same with a real
        # slowdown injected into the batch path; the gated ratio must
        # collapse below a 30% tolerance floor of the clean figure.  The
        # clean figure is the median of three, so one sample taken during
        # a host stall cannot stand for the clean path.
        clean = statistics.median(
            check_perf.run_measurements(scale=0.01)["batch_higgs_speedup_x"]
            for _ in range(3))
        monkeypatch.setattr(Higgs, "insert_batch", slowed)
        slow = check_perf.run_measurements(scale=0.01)

        baselines = {"batch_higgs_speedup_x": {"value": clean}}
        rows = check_perf.compare(slow, baselines, tolerance=0.30)
        gated = next(row for row in rows
                     if row["metric"] == "batch_higgs_speedup_x")
        assert not gated["ok"], (
            f"injected slowdown did not trip the gate: clean "
            f"{clean:.2f}x vs slowed "
            f"{slow['batch_higgs_speedup_x']:.2f}x")

    def test_read_tail_injection_is_tail_shaped(self, monkeypatch):
        # The latency gate's proof relies on the injection hitting only
        # every READ_TAIL_EVERY-th read: p50 must hold while p99 inflates.
        from repro.core.higgs import Higgs

        monkeypatch.setattr(Higgs, "query_batch",
                            lambda self, queries: [0.0])
        sleeps = []
        monkeypatch.setattr(check_perf.time, "sleep", sleeps.append)
        check_perf.inject_read_tail(0.05)
        for _ in range(2 * check_perf.READ_TAIL_EVERY):
            assert Higgs.query_batch(None, []) == [0.0]
        assert sleeps == [0.05, 0.05]

    def test_admission_squeeze_hits_only_drop_policy(self, monkeypatch):
        from repro.baselines.exact import ExactTemporalGraph
        from repro.core.config import ServingConfig
        from repro.serving.engine import ServingEngine

        monkeypatch.setattr(ServingEngine, "__init__",
                            ServingEngine.__init__)
        check_perf.inject_admission_squeeze(divisor=32)

        with ServingEngine(ExactTemporalGraph(),
                           ServingConfig(admission="drop",
                                         max_pending=4096)) as dropped, \
                ServingEngine(ExactTemporalGraph(),
                              ServingConfig(admission="block",
                                            max_pending=4096)) as blocking:
            assert dropped.config.max_pending == 128
            assert blocking.config.max_pending == 4096
