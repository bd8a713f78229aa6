"""Tests for ``tools.analyze``: the repro-lint rules, the driver's
suppression/baseline machinery, and the runtime lock-order detector.

Every rule gets one tripping fixture and a clean twin, so a rule that stops
firing (or starts over-firing) is caught by the suite, not by a broken CI
gate.  The source fixtures are parsed, never executed.
"""

from __future__ import annotations

import json
import textwrap
import threading
from pathlib import Path

import pytest

from tools.analyze import REPO_ROOT, analyze_source, main
from tools.analyze.callgraph import build_package_graph
from tools.analyze.deadcode import USE_DIRS, find_dead_definitions
from tools.analyze.driver import (BaselineError, apply_baseline,
                                  emit_baseline, load_baseline,
                                  load_or_build_graph, render_counts)
from tools.analyze.propagate import (EntrySpec, check_exception_contracts,
                                     check_pickle_safety,
                                     check_transitive_blocking,
                                     run_interprocedural)
from tools.analyze import lockgraph


def rules_of(source: str, path: str = "src/repro/mod.py"):
    """Rule ids found in ``source`` (dedented), in report order."""
    return [f.rule for f in analyze_source(textwrap.dedent(source), path)]


def make_package(root: Path, files: dict) -> Path:
    """Write a mini package named ``pkg`` under ``root`` for graph tests."""
    pkg = root / "pkg"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    if not (pkg / "__init__.py").exists():
        (pkg / "__init__.py").write_text("")
    return pkg


def graph_of(root: Path, files: dict):
    return build_package_graph(make_package(root, files))


def edges_of(graph):
    return {(site.caller, site.callee) for site in graph.calls}


@pytest.fixture(scope="module")
def repo_graph():
    """The call graph over the live ``src/repro`` package, built once."""
    graph, _ = load_or_build_graph()
    return graph


# --------------------------------------------------------------------- #
# CONC001 — blocking call under a lock
# --------------------------------------------------------------------- #

class TestBlockingUnderLock:
    def test_queue_get_under_lock_trips(self):
        assert rules_of("""
            class Engine:
                def bad(self):
                    with self._lock:
                        self._queue.get()
            """) == ["CONC001"]

    def test_clean_twin_get_outside_lock(self):
        assert rules_of("""
            class Engine:
                def good(self):
                    with self._lock:
                        size = len(self._pending)
                    return self._queue.get()
            """) == []

    def test_dict_get_and_str_join_not_blocking(self):
        assert rules_of("""
            class Engine:
                def good(self):
                    with self._lock:
                        value = self._cache.get("key")
                        label = ", ".join(self._names)
                        path = os.path.join(base, "x")
                    return value, label, path
            """) == []

    def test_wait_on_held_condition_allowed(self):
        # Condition.wait releases the lock it guards — the correct pattern.
        assert rules_of("""
            class Engine:
                def good(self):
                    with self._state:
                        self._state.wait_for(lambda: self._ready)
            """) == []

    def test_sleep_and_foreign_wait_trip(self):
        found = rules_of("""
            class Engine:
                def bad(self):
                    with self._lock:
                        time.sleep(0.1)
                        self._other_event.wait()
            """)
        assert found == ["CONC001", "CONC001"]


# --------------------------------------------------------------------- #
# CONC002 — guarded-by discipline
# --------------------------------------------------------------------- #

class TestGuardedBy:
    def test_unlocked_access_trips(self):
        findings = analyze_source(textwrap.dedent("""
            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock
                def bad(self):
                    return len(self._items)
            """), "src/repro/mod.py")
        assert [f.rule for f in findings] == ["CONC002"]
        assert findings[0].symbol == "Engine.bad"

    def test_clean_twin_with_lock_held(self):
        assert rules_of("""
            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock
                def good(self):
                    with self._lock:
                        return len(self._items)
            """) == []

    def test_nested_def_loses_the_lock(self):
        # A closure body runs later, outside the lexical with-block.
        assert rules_of("""
            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock
                def bad(self):
                    with self._lock:
                        def later():
                            return self._items
                        return later
            """) == ["CONC002"]

    def test_owner_confinement_form(self):
        found = rules_of("""
            class Worker:
                def __init__(self):
                    self._count = 0  # guarded-by: owner=submit,collect
                def submit(self):
                    self._count += 1
                def collect(self):
                    self._count -= 1
                def peek(self):
                    return self._count
            """)
        assert found == ["CONC002"]  # only peek violates

    def test_init_is_always_exempt(self):
        assert rules_of("""
            class Worker:
                def __init__(self):
                    self._count = 0  # guarded-by: owner=submit
                def submit(self):
                    self._count += 1
            """) == []


# --------------------------------------------------------------------- #
# CONC003 — thread lifecycle
# --------------------------------------------------------------------- #

class TestThreadLifecycle:
    def test_untracked_thread_trips(self):
        assert rules_of("""
            def run(target):
                worker = threading.Thread(target=target)
                worker.start()
            """) == ["CONC003"]

    def test_daemon_thread_clean(self):
        assert rules_of("""
            def run(target):
                worker = threading.Thread(target=target, daemon=True)
                worker.start()
            """) == []

    def test_joined_thread_clean(self):
        assert rules_of("""
            def run(target):
                worker = threading.Thread(target=target)
                worker.start()
                worker.join()
            """) == []

    def test_self_attribute_alias_join_clean(self):
        assert rules_of("""
            class Engine:
                def start(self):
                    self._thread = threading.Thread(target=self._loop)
                    self._thread.start()
                def close(self):
                    runner = self._thread
                    runner.join()
            """) == []

    def test_inline_thread_without_daemon_trips(self):
        assert rules_of("""
            def fire(target):
                threading.Thread(target=target).start()
            """) == ["CONC003"]


# --------------------------------------------------------------------- #
# EXC001 — swallowed broad excepts
# --------------------------------------------------------------------- #

class TestSwallowedExcept:
    def test_broad_pass_trips(self):
        assert rules_of("""
            def risky(op):
                try:
                    op()
                except Exception:
                    pass
            """) == ["EXC001"]

    def test_narrow_pass_clean(self):
        assert rules_of("""
            def risky(op):
                try:
                    op()
                except ValueError:
                    pass
            """) == []

    def test_logged_or_recorded_clean(self):
        assert rules_of("""
            def risky(op, errors):
                try:
                    op()
                except Exception as exc:
                    errors.append(exc)
            """) == []

    def test_broad_contextlib_suppress_trips(self):
        assert rules_of("""
            import contextlib
            def risky(op):
                with contextlib.suppress(Exception):
                    op()
            """) == ["EXC001"]

    def test_narrow_suppress_clean(self):
        assert rules_of("""
            from contextlib import suppress
            def risky(op):
                with suppress(OSError, EOFError):
                    op()
            """) == []


# --------------------------------------------------------------------- #
# ERR001 — builtin raises in src/repro
# --------------------------------------------------------------------- #

class TestBuiltinRaises:
    def test_builtin_raise_trips_inside_repro(self):
        assert rules_of("""
            def check(value):
                if value < 0:
                    raise ValueError("negative")
            """) == ["ERR001"]

    def test_repro_error_clean(self):
        assert rules_of("""
            from repro.errors import QueryError
            def check(value):
                if value < 0:
                    raise QueryError("negative")
            """) == []

    def test_outside_repro_package_exempt(self):
        assert rules_of("""
            def check(value):
                raise ValueError("negative")
            """, path="tools/check_perf.py") == []

    def test_not_implemented_is_idiomatic(self):
        assert rules_of("""
            def stub():
                raise NotImplementedError
            """) == []


# --------------------------------------------------------------------- #
# HOT001 — loops in hot-path functions
# --------------------------------------------------------------------- #

class TestHotPathLoops:
    def test_marked_function_loop_trips(self):
        findings = analyze_source(textwrap.dedent("""
            # hot-path
            def kernel(values):
                total = 0.0
                for value in values:
                    total += value
                return total
            """), "src/repro/core/mod.py")
        assert [f.rule for f in findings] == ["HOT001"]
        assert findings[0].symbol == "kernel"

    def test_unmarked_twin_clean(self):
        assert rules_of("""
            def kernel(values):
                total = 0.0
                for value in values:
                    total += value
                return total
            """) == []

    def test_marked_loop_free_function_clean(self):
        assert rules_of("""
            # hot-path
            def kernel(values):
                return sum(values)
            """) == []

    def test_bulk_qualifier_is_not_an_exemption(self):
        # Naming an array twin on the marker does not excuse a loop: a
        # deliberately scalar kernel is baselined with a justification.
        findings = analyze_source(textwrap.dedent("""
            # hot-path: bulk=kernel_array
            def kernel(values):
                total = 0.0
                for value in values:
                    total += value
                return total

            def kernel_array(values):
                return values.sum()
            """), "src/repro/core/mod.py")
        assert [f.rule for f in findings] == ["HOT001"]
        assert findings[0].symbol == "kernel"

    def test_bulk_call_suffix_makes_loops_compliant(self):
        # A hot-path function whose body drives *_array kernels may keep
        # orchestration loops: the per-item math already moved to numpy.
        assert rules_of("""
            # hot-path
            def kernel(matrix, items):
                rows = matrix.probe_rows_array(items)
                return [tuple(row) for row in rows.tolist()]
            """) == []

    def test_numpy_rooted_call_makes_loops_compliant(self):
        assert rules_of("""
            # hot-path
            def kernel(columns):
                stacked = np.concatenate(columns)
                return [c for c in stacked.tolist()]
            """) == []

    def test_non_bulk_calls_still_trip(self):
        findings = analyze_source(textwrap.dedent("""
            # hot-path
            def kernel(matrix, items):
                out = []
                for item in items:
                    out.append(matrix.probe_rows(item))
                return out
            """), "src/repro/core/mod.py")
        assert [f.rule for f in findings] == ["HOT001"]


# --------------------------------------------------------------------- #
# driver: suppressions and baseline
# --------------------------------------------------------------------- #

class TestDriver:
    def test_inline_suppression_covers_its_line(self):
        assert rules_of("""
            class Engine:
                def bad(self):
                    with self._lock:
                        self._queue.get()  # repro-lint: ok CONC001 — bounded
            """) == []

    def test_standalone_suppression_covers_next_line(self):
        assert rules_of("""
            class Engine:
                def bad(self):
                    with self._lock:
                        # repro-lint: ok CONC001 — bounded by design
                        self._queue.get()
            """) == []

    def test_suppression_is_rule_specific(self):
        # Suppressing the wrong rule must not hide the finding.
        assert rules_of("""
            class Engine:
                def bad(self):
                    with self._lock:
                        self._queue.get()  # repro-lint: ok EXC001
            """) == ["CONC001"]

    def test_syntax_error_reports_pseudo_finding(self):
        assert rules_of("def broken(:\n    pass\n") == ["SYNTAX"]

    def test_baseline_requires_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps([{"rule": "HOT001", "path": "x.py",
                                     "symbol": "f", "justification": "  "}]))
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_baseline_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    def test_apply_baseline_splits_new_and_stale(self):
        findings = analyze_source(textwrap.dedent("""
            # hot-path
            def kernel(values):
                for value in values:
                    yield value
            """), "src/repro/core/mod.py")
        entries = [
            {"rule": "HOT001", "path": "src/repro/core/mod.py",
             "symbol": "kernel", "justification": "inventoried"},
            {"rule": "HOT001", "path": "src/repro/core/gone.py",
             "symbol": "removed", "justification": "stale"},
        ]
        new, stale = apply_baseline(findings, entries)
        assert new == []
        assert [e["symbol"] for e in stale] == ["removed"]

    def test_emit_baseline_skeleton_round_trips(self):
        findings = analyze_source(textwrap.dedent("""
            # hot-path
            def kernel(values):
                for value in values:
                    yield value
            """), "src/repro/core/mod.py")
        skeleton = json.loads(emit_baseline(findings))
        assert skeleton == [{"rule": "HOT001",
                             "path": "src/repro/core/mod.py",
                             "symbol": "kernel", "justification": ""}]

    def test_repo_src_passes_with_committed_baseline(self):
        """The live acceptance gate: ``python -m tools.analyze src/`` is 0."""
        assert main([str(REPO_ROOT / "src")]) == 0

    def test_repo_src_baseline_is_inventoried_rules_only(self):
        """The committed baseline must contain nothing but the HOT001
        vectorization inventory, the two justified ERR002 entries for
        runtime-guarded internal metric paths, and the DEAD001 keep-list of
        oracles, observability and planned hooks — every other concurrency/
        error finding gets fixed, and other dead code deleted, not
        baselined."""
        entries = load_baseline(REPO_ROOT / "tools" / "analyze" / "baseline.json")
        assert entries, "committed baseline missing"
        assert {entry["rule"] for entry in entries} == {
            "HOT001", "ERR002", "DEAD001"}
        err002 = [e for e in entries if e["rule"] == "ERR002"]
        assert {e["symbol"] for e in err002} == {
            "ServingEngine.latency_percentiles", "ServingEngine.stats"}
        dead001 = {e["symbol"] for e in entries if e["rule"] == "DEAD001"}
        assert dead001 == {
            "ShardedSummary.shard_summaries", "ShardedSummary.snapshot_items",
            "HiggsTree.internal_levels", "ShardPartitioner.has_reassignments",
            "ExactTemporalGraph.item_count", "interval_bounds",
            "RangeDecomposition.matrices_accessed", "Horae.num_layers",
            "AuxoTime.num_layers", "PGSS.num_granularities",
            "Auxo.node_count", "Higgs.plan_cache",
            "ServingEngine.run_maintenance", "ServingEngine.epoch",
            "ServingEngine.render_prometheus",
            "ServingEngine.latency_percentiles",
            "AdaptiveEpochController.adjustments", "SnapshotEmitter",
            "SnapshotEmitter.emitted", "SnapshotEmitter.sink_errors",
            "clear_context_cache"}


# --------------------------------------------------------------------- #
# runtime lock-order detector
# --------------------------------------------------------------------- #

class TestLockGraph:
    def test_opposite_orders_form_a_cycle(self):
        graph = lockgraph.LockGraph()
        lock_a = lockgraph.InstrumentedLock(graph, "Lock@a")
        lock_b = lockgraph.InstrumentedLock(graph, "Lock@b")

        def thread_one():
            with lock_a, lock_b:
                pass

        def thread_two():
            with lock_b, lock_a:
                pass

        thread_one()
        worker = threading.Thread(target=thread_two)
        worker.start()
        worker.join()

        cycles = graph.cycles()
        assert cycles and set(cycles[0]) == {"Lock@a", "Lock@b"}
        with pytest.raises(AssertionError, match="lock-order cycle"):
            graph.assert_clean()

    def test_consistent_order_is_clean(self):
        graph = lockgraph.LockGraph()
        lock_a = lockgraph.InstrumentedLock(graph, "Lock@a")
        lock_b = lockgraph.InstrumentedLock(graph, "Lock@b")
        for _ in range(3):
            with lock_a, lock_b:
                pass
        assert graph.cycles() == []
        graph.assert_clean()

    def test_wait_while_holding_another_lock_flagged(self):
        graph = lockgraph.LockGraph()
        outer = lockgraph.InstrumentedLock(graph, "Lock@outer")
        cond = lockgraph.InstrumentedCondition(graph, "Cond@inner")
        with outer, cond:
            cond.wait(timeout=0.01)
        assert graph.wait_violations
        assert graph.wait_violations[0]["holding"] == ["Lock@outer"]
        with pytest.raises(AssertionError, match="blocking wait"):
            graph.assert_clean()
        graph.assert_clean(allow_waits=True)  # cycles-only mode passes

    def test_wait_on_own_condition_alone_is_clean(self):
        graph = lockgraph.LockGraph()
        cond = lockgraph.InstrumentedCondition(graph, "Cond@only")
        with cond:
            cond.wait(timeout=0.01)
        assert graph.wait_violations == []
        graph.assert_clean()

    def test_reentrant_rlock_adds_no_self_edge(self):
        graph = lockgraph.LockGraph()
        rlock = lockgraph.InstrumentedRLock(graph, "RLock@r")
        with rlock, rlock:
            pass
        assert graph.edges == {}
        graph.assert_clean()

    def test_install_instruments_only_matching_modules(self):
        graph = lockgraph.LockGraph()
        uninstall = lockgraph.install(graph, modules=(__name__,))
        try:
            assert isinstance(threading.Lock(),
                              lockgraph.InstrumentedLock)
            assert isinstance(threading.Condition(),
                              lockgraph.InstrumentedCondition)
        finally:
            uninstall()
        assert threading.Lock is lockgraph._REAL_LOCK

    def test_default_install_leaves_foreign_modules_raw(self):
        graph = lockgraph.LockGraph()
        uninstall = lockgraph.install(graph)  # repro-only filter
        try:
            # This module is not part of the repro package.
            assert not isinstance(threading.Lock(),
                                  lockgraph.InstrumentedLock)
        finally:
            uninstall()

    def test_wait_for_predicate_wakes_across_threads(self):
        graph = lockgraph.LockGraph()
        cond = lockgraph.InstrumentedCondition(graph, "Cond@box")
        box = {"ready": False}

        def producer():
            with cond:
                box["ready"] = True
                cond.notify_all()

        worker = threading.Thread(target=producer)
        with cond:
            worker.start()
            assert cond.wait_for(lambda: box["ready"], timeout=5)
        worker.join()
        graph.assert_clean()


# --------------------------------------------------------------------- #
# call graph — resolution edge cases
# --------------------------------------------------------------------- #

class TestCallGraphResolution:
    def test_decorated_function_keeps_its_edges(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            def deco(fn):
                return fn

            @deco
            def leaf():
                raise ValueError("x")

            def caller():
                return leaf()
        """})
        assert ("pkg.mod.caller", "pkg.mod.leaf") in edges_of(graph)

    def test_nested_def_resolves_to_its_enclosing_qname(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            def outer():
                def inner():
                    raise ValueError("y")
                return inner()
        """})
        assert ("pkg.mod.outer", "pkg.mod.outer.inner") in edges_of(graph)

    def test_functools_partial_resolves_both_spellings(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            import functools
            from functools import partial

            def psum(a, b):
                return a + b

            def attr_form():
                return functools.partial(psum, 1)

            class Engine:
                def _step(self, x):
                    return x

                def method_form(self):
                    return partial(self._step)
        """})
        edges = edges_of(graph)
        assert ("pkg.mod.attr_form", "pkg.mod.psum") in edges
        assert ("pkg.mod.Engine.method_form", "pkg.mod.Engine._step") in edges

    def test_self_dispatch_reaches_subclass_overrides(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            class Base:
                def insert(self, x):
                    return self._apply(x)

                def _apply(self, x):
                    raise NotImplementedError

            class Child(Base):
                def _apply(self, x):
                    return x + 1
        """})
        edges = edges_of(graph)
        assert ("pkg.mod.Base.insert", "pkg.mod.Base._apply") in edges
        assert ("pkg.mod.Base.insert", "pkg.mod.Child._apply") in edges

    def test_repo_dispatch_through_temporal_graph_summary(self, repo_graph):
        """``TemporalGraphSummary.insert_batch`` calling ``self.insert``
        must reach every summary implementation, across modules."""
        edges = edges_of(repo_graph)
        caller = "repro.summary.TemporalGraphSummary.insert_batch"
        for impl in ("repro.core.higgs.Higgs.insert",
                     "repro.baselines.exact.ExactTemporalGraph.insert",
                     "repro.sharding.engine.ShardedSummary.insert"):
            assert (caller, impl) in edges

    def test_graph_fingerprint_is_stable_and_source_sensitive(self, tmp_path):
        files = {"mod.py": "def f():\n    return 1\n"}
        # Anchor relpaths at each tree's root so only content matters.
        first = build_package_graph(make_package(tmp_path / "a", files),
                                    repo_root=tmp_path / "a")
        second = build_package_graph(make_package(tmp_path / "b", files),
                                     repo_root=tmp_path / "b")
        changed = build_package_graph(
            make_package(tmp_path / "c",
                         {"mod.py": "def f():\n    return 2\n"}),
            repo_root=tmp_path / "c")
        assert first.source_key == second.source_key
        assert first.source_key != changed.source_key


# --------------------------------------------------------------------- #
# CONC004 — transitive blocking through the call graph
# --------------------------------------------------------------------- #

class TestTransitiveBlocking:
    def test_lock_held_chain_to_blocking_primitive_trips(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            import queue
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def _drain(self):
                    return self._queue.get()

                def bad(self):
                    with self._lock:
                        return self._drain()
        """})
        findings = check_transitive_blocking(graph)
        assert [f.rule for f in findings] == ["CONC004"]
        assert findings[0].symbol == "Engine.bad"
        # The report names the full chain down to the primitive.
        assert "_drain" in findings[0].message
        assert "queue.Queue.get" in findings[0].message

    def test_clean_twin_calls_outside_the_lock(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            import queue
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def _drain(self):
                    return self._queue.get()

                def good(self):
                    with self._lock:
                        size = 1
                    return self._drain()
        """})
        assert check_transitive_blocking(graph) == []

    def test_depth_zero_left_to_conc001(self, tmp_path):
        """A lock-held call to an internal method *named* like a blocking
        primitive is CONC001's syntactic territory — not re-reported."""
        graph = graph_of(tmp_path, {"mod.py": """
            import threading
            import time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def collect(self):
                    time.sleep(0.1)

                def depth_zero(self):
                    with self._lock:
                        self.collect()
        """})
        assert check_transitive_blocking(graph) == []

    def test_recursive_chain_terminates_and_trips(self, tmp_path):
        """The fixpoint must terminate on self-recursion and still find
        the blocking primitive past the cycle."""
        graph = graph_of(tmp_path, {"mod.py": """
            import threading
            import time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def _spin(self, n):
                    if n:
                        self._spin(n - 1)
                    time.sleep(0.01)

                def bad(self):
                    with self._lock:
                        self._spin(3)
        """})
        findings = check_transitive_blocking(graph)
        assert [f.symbol for f in findings] == ["Engine.bad"]
        assert "time.sleep" in findings[0].message

    def test_repo_has_no_transitive_blocking_under_locks(self, repo_graph):
        assert check_transitive_blocking(repo_graph) == []


# --------------------------------------------------------------------- #
# ERR002 — exception contracts of public entry points
# --------------------------------------------------------------------- #

SPEC = EntrySpec(entry_classes=("Api",), entry_modules=())


class TestExceptionContracts:
    def test_builtin_escaping_entry_point_trips(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            def _helper(value):
                if value < 0:
                    raise ValueError("negative")
                return value

            class Api:
                def entry(self, value):
                    return _helper(value)
        """})
        findings = check_exception_contracts(graph, SPEC)
        assert [f.symbol for f in findings] == ["Api.entry"]
        assert "ValueError" in findings[0].message
        assert "_helper" in findings[0].message  # escape chain reported

    def test_clean_twin_handler_converts_to_package_error(self, tmp_path):
        graph = graph_of(tmp_path, {
            "errors.py": """
                class PkgError(Exception):
                    pass
            """,
            "mod.py": """
                from .errors import PkgError

                def _helper(value):
                    if value < 0:
                        raise ValueError("negative")
                    return value

                class Api:
                    def safe(self, value):
                        try:
                            return _helper(value)
                        except ValueError as exc:
                            raise PkgError(str(exc)) from exc

                    def typed(self):
                        raise PkgError("sanctioned contract")
            """})
        assert check_exception_contracts(graph, SPEC) == []

    def test_private_methods_are_not_entry_points(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            class Api:
                def _internal(self):
                    raise ValueError("mine")
        """})
        assert check_exception_contracts(graph, SPEC) == []

    def test_mutual_recursion_terminates_and_propagates(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            def ping(n):
                if n <= 0:
                    raise TypeError("done")
                return pong(n - 1)

            def pong(n):
                return ping(n - 1)

            class Api:
                def entry(self):
                    return ping(3)
        """})
        findings = check_exception_contracts(graph, SPEC)
        assert [f.symbol for f in findings] == ["Api.entry"]
        assert "TypeError" in findings[0].message

    def test_entry_modules_cover_public_functions(self, tmp_path):
        graph = graph_of(tmp_path, {
            "snap/__init__.py": "",
            "snap/disk.py": """
                def write(value):
                    return int(value)

                def _private(value):
                    return int(value)
            """})
        spec = EntrySpec(entry_classes=(), entry_modules=("snap.disk",))
        findings = check_exception_contracts(graph, spec)
        assert [f.symbol for f in findings] == ["write"]

    def test_repo_entry_points_leak_only_baselined_paths(self, repo_graph):
        """Live contract: the only builtin-exception escapes from
        ``ShardedSummary``/``ServingEngine``/snapshot entry points are the
        two justified (baselined) internal-metric chains."""
        symbols = {f.symbol for f in check_exception_contracts(repo_graph)}
        assert symbols == {"ServingEngine.latency_percentiles",
                           "ServingEngine.stats"}


# --------------------------------------------------------------------- #
# PICK001 — pickle safety across worker/snapshot boundaries
# --------------------------------------------------------------------- #

class TestPickleSafety:
    FIXTURE = {"work.py": """
        import threading

        class Payload:
            def __init__(self):
                self.values = []

        class Holder:
            def __init__(self):
                self._cond = threading.Condition()

        class GoodFactory:
            def __init__(self, size):
                self.size = size

            def __call__(self):
                return Payload()

        class BadFactory:
            def __init__(self):
                self._lock = threading.Lock()
                self.holder = Holder()
                self.hook = lambda x: x

            def __call__(self):
                return Payload()

        def boot(make_shard_worker):
            worker = make_shard_worker("process", BadFactory())
            clean = make_shard_worker("process", GoodFactory(4))
            return worker, clean
    """}

    def test_unpicklable_state_behind_boundary_trips(self, tmp_path):
        graph = graph_of(tmp_path, self.FIXTURE)
        assert graph.boundary_factories == {"pkg.work.BadFactory",
                                            "pkg.work.GoodFactory"}
        findings = check_pickle_safety(graph)
        symbols = {f.symbol for f in findings}
        assert "BadFactory._lock" in symbols      # direct lock attribute
        assert "BadFactory.hook" in symbols       # lambda attribute
        assert "Holder._cond" in symbols          # transitive reachability
        assert all(not s.startswith("GoodFactory") for s in symbols)
        holder = next(f for f in findings if f.symbol == "Holder._cond")
        assert "BadFactory -> holder:Holder -> _cond" in holder.message

    def test_clean_twin_factory_with_plain_state(self, tmp_path):
        graph = graph_of(tmp_path, {"work.py": """
            class Payload:
                def __init__(self):
                    self.values = []

            class GoodFactory:
                def __init__(self, size):
                    self.size = size

                def __call__(self):
                    return Payload()

            def boot(make_shard_worker):
                return make_shard_worker("process", GoodFactory(4))
        """})
        assert check_pickle_safety(graph) == []

    def test_lambda_through_submit_boundary_trips(self, tmp_path):
        graph = graph_of(tmp_path, {"work.py": """
            def send(worker):
                worker.submit(lambda item: item)
        """})
        findings = check_pickle_safety(graph)
        assert [f.symbol for f in findings] == ["send"]
        assert "lambda" in findings[0].message

    def test_repo_boundary_classes_are_pickle_safe(self, repo_graph):
        assert check_pickle_safety(repo_graph) == []
        # The live boundary discovery found the real shard factory.
        assert "repro.sharding.engine.HiggsShardFactory" in \
            repo_graph.boundary_factories


# --------------------------------------------------------------------- #
# DEAD001 — package definition nothing outside tests/ names
# --------------------------------------------------------------------- #

class TestDeadDefinitions:
    """DEAD001 over a temporary repository: a package under ``src/pkg``,
    the directories whose names count as uses, and a ``tests/`` whose
    names do not."""

    def _dead(self, root: Path, files: dict):
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        findings = find_dead_definitions(root / "src" / "pkg",
                                         [root / name for name in USE_DIRS])
        return {finding.symbol for finding in findings}

    def test_definition_named_only_in_tests_is_flagged(self, tmp_path):
        assert self._dead(tmp_path, {
            "src/pkg/mod.py": """
                def helper():
                    return 1

                def used():
                    return 2
            """,
            "examples/demo.py": """
                from pkg.mod import used

                print(used())
            """,
            "tests/test_mod.py": """
                from pkg.mod import helper

                assert helper() == 1
            """}) == {"helper"}

    def test_worker_op_string_is_a_use(self, tmp_path):
        assert self._dead(tmp_path, {
            "src/pkg/shard.py": """
                class Summary:
                    def merge_counts(self):
                        return 0

                def fan_out(worker):
                    return worker.call("merge_counts")
            """,
            "tools/drive.py": """
                from pkg.shard import Summary, fan_out

                fan_out(Summary())
            """}) == set()

    def test_reexport_alone_is_still_flagged(self, tmp_path):
        # An import alias, an __all__ entry, a comment and a docstring that
        # all spell the name are none of them uses.
        assert self._dead(tmp_path, {
            "src/pkg/__init__.py": """
                from .mod import orphan  # orphan

                __all__ = ["orphan"]
            """,
            "src/pkg/mod.py": """
                def orphan():
                    "orphan"
                    return 1
            """}) == {"orphan"}

    def test_self_reference_is_still_flagged(self, tmp_path):
        assert self._dead(tmp_path, {
            "src/pkg/mod.py": """
                def countdown(n):
                    return countdown(n - 1) if n else 0

                class Node:
                    def walk(self):
                        return [Node, self.walk]
            """}) == {"countdown", "Node", "Node.walk"}


# --------------------------------------------------------------------- #
# driver integration: whole-package rules, cache, --ci, counts
# --------------------------------------------------------------------- #

CONC004_SEED = {"mod.py": """
    import queue
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.Lock()
            self._queue = queue.Queue()

        def _drain(self):
            return self._queue.get()

        def bad(self):
            with self._lock:
                return self._drain()
"""}

ERR002_SEED = {"mod.py": """
    class ServingEngine:
        def submit_write(self, value):
            return self._coerce(value)

        def _coerce(self, value):
            return int(value)
"""}

PICK001_SEED = {"work.py": """
    import threading

    class Factory:
        def __init__(self):
            self._lock = threading.Lock()

        def __call__(self):
            return 1

    def boot(make_shard_worker):
        return make_shard_worker("process", Factory())
"""}


class TestDriverInterprocedural:
    def _run_on(self, monkeypatch, tmp_path, files, extra_args=()):
        """Run the full driver CLI over a seeded mini package, with the
        whole-package rules pointed at it (as CI does for ``src/repro``)
        and no use roots beyond the package itself; no baseline so seeds
        surface directly."""
        import tools.analyze.driver as driver
        pkg = make_package(tmp_path, files)
        monkeypatch.setattr(driver, "PACKAGE_ROOT", pkg)
        monkeypatch.setattr(driver, "USE_ROOTS", ())
        return main([str(pkg), "--no-baseline", *extra_args])

    def test_seeded_conc004_fails_the_build(self, monkeypatch, tmp_path,
                                            capsys):
        assert self._run_on(monkeypatch, tmp_path, CONC004_SEED) == 1
        assert "CONC004" in capsys.readouterr().out

    def test_seeded_err002_fails_the_build(self, monkeypatch, tmp_path,
                                           capsys):
        assert self._run_on(monkeypatch, tmp_path, ERR002_SEED) == 1
        assert "ERR002" in capsys.readouterr().out

    def test_seeded_pick001_fails_the_build(self, monkeypatch, tmp_path,
                                            capsys):
        assert self._run_on(monkeypatch, tmp_path, PICK001_SEED) == 1
        assert "PICK001" in capsys.readouterr().out

    def test_seeded_dead001_fails_the_build(self, monkeypatch, tmp_path,
                                            capsys):
        assert self._run_on(monkeypatch, tmp_path, {"mod.py": """
            def fine():
                return 1
        """}) == 1
        assert "DEAD001 [fine]" in capsys.readouterr().out

    def test_clean_package_passes(self, monkeypatch, tmp_path):
        assert self._run_on(monkeypatch, tmp_path, {"mod.py": """
            def fine():
                return 1

            ANSWER = fine()
        """}) == 0

    def test_no_interprocedural_flag_skips_the_rules(self, monkeypatch,
                                                     tmp_path):
        assert self._run_on(monkeypatch, tmp_path, CONC004_SEED,
                            ("--no-interprocedural",)) == 0

    def test_inline_suppression_covers_interprocedural_finding(
            self, monkeypatch, tmp_path):
        files = {"mod.py": CONC004_SEED["mod.py"].replace(
            "return self._drain()",
            "return self._drain()  # repro-lint: ok CONC004 - bounded"),
            "app.py": "from .mod import Engine\n\nEngine().bad()\n"}
        assert self._run_on(monkeypatch, tmp_path, files) == 0

    def test_ci_promotes_stale_baseline_to_exit_2(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def fine():\n    return 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([
            {"rule": "HOT001", "path": "src/repro/gone.py",
             "symbol": "removed", "justification": "stale on purpose"}]))
        argv = [str(clean), "--baseline", str(baseline)]
        assert main(argv) == 0                       # warning only
        assert main([*argv, "--ci"]) == 2            # hard error under CI
        assert "stale baseline" in capsys.readouterr().err

    def test_cache_roundtrip_and_source_invalidation(self, tmp_path):
        pkg = make_package(tmp_path, {"mod.py": "def f():\n    return 1\n"})
        cache = tmp_path / "cache" / "graph.pkl"
        first, hit_first = load_or_build_graph(pkg, cache_path=cache)
        second, hit_second = load_or_build_graph(pkg, cache_path=cache)
        assert (hit_first, hit_second) == (False, True)
        assert second.source_key == first.source_key
        (pkg / "mod.py").write_text("def f():\n    return 2\n")
        third, hit_third = load_or_build_graph(pkg, cache_path=cache)
        assert not hit_third                      # fingerprint mismatch
        assert third.source_key != first.source_key

    def test_corrupt_cache_is_a_miss_not_an_error(self, tmp_path):
        pkg = make_package(tmp_path, {"mod.py": "def f():\n    return 1\n"})
        cache = tmp_path / "graph.pkl"
        cache.write_bytes(b"not a pickle")
        graph, hit = load_or_build_graph(pkg, cache_path=cache)
        assert not hit and "pkg.mod.f" in graph.functions

    def test_render_counts_table_covers_every_rule(self, tmp_path):
        table = render_counts([], [], [])
        for rule in ("CONC001", "CONC004", "ERR002", "PICK001", "HOT001",
                     "DEAD001"):
            assert rule in table

    def test_run_interprocedural_sorts_like_the_driver(self, tmp_path):
        graph = graph_of(tmp_path, {**CONC004_SEED, **PICK001_SEED})
        findings = run_interprocedural(graph, SPEC)
        keys = [(f.path, f.line, f.rule) for f in findings]
        assert keys == sorted(keys) and len(findings) >= 2
