"""Live migration, rebalancing, and crash recovery of the sharded engine.

Three contracts (ARCHITECTURE.md, "Elastic sharding & recovery"):

* **Migration is invisible**: moving a shard across workers (and executor
  modes) changes no query answer, and a failed migration leaves the old
  worker serving — never a torn shard.
* **Rebalancing is exact**: reassigning a hot vertex moves only its future
  edges; reads union the owner history, so every query type still answers
  exactly as an unsharded reference does.
* **Recovery is loss-bounded**: a killed worker process is rebuilt from the
  last snapshot and loses exactly the edges *it* acknowledged after that
  snapshot (``shard_items()[i] - snapshot_items()[i]``); surviving shards
  lose nothing.  The fault-injection harness (tests/faultinject.py)
  provides the kill/delay/error machinery.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from faultinject import FaultSpec, FaultyShardWorker, inject_fault, kill_worker
from repro import RebalancePlan, ShardedSummary, SnapshotConfig
from repro.baselines.exact import ExactTemporalGraph
from repro.errors import ShardingError
from repro.streams.edge import StreamEdge

FULL = (0, 10**9)


def _reference(stream) -> ExactTemporalGraph:
    truth = ExactTemporalGraph()
    truth.insert_batch(list(stream))
    return truth


def _assert_matches_reference(engine, truth, stream) -> None:
    pairs = sorted({(e.source, e.destination) for e in stream})
    vertices = sorted({v for e in stream for v in (e.source, e.destination)})
    for source, destination in pairs:
        assert engine.edge_query(source, destination, *FULL) == \
            truth.edge_query(source, destination, *FULL)
    for vertex in vertices:
        for direction in ("out", "in"):
            assert engine.vertex_query(vertex, *FULL, direction) == \
                truth.vertex_query(vertex, *FULL, direction)
    assert engine.subgraph_query(pairs, *FULL) == \
        truth.subgraph_query(pairs, *FULL)


class TestMigration:
    """migrate_shard moves live state without changing a single answer."""

    @pytest.mark.parametrize("target_mode", ["serial", "process"])
    def test_migration_preserves_every_answer(self, small_stream, target_mode):
        edges = list(small_stream)
        truth = _reference(edges)
        with ShardedSummary(ExactTemporalGraph, shards=4) as engine:
            engine.insert_batch(edges)
            for shard in range(4):
                engine.migrate_shard(shard, executor=target_mode)
            _assert_matches_reference(engine, truth, edges)
            # The engine stays writable on the new workers.
            engine.insert("post", "migration", 1.0, 5)
            assert engine.edge_query("post", "migration", *FULL) == 1.0

    def test_migration_from_process_to_serial_regains_inspection(
            self, small_stream):
        with ShardedSummary(ExactTemporalGraph, shards=2,
                            executor="process") as engine:
            engine.insert_stream(small_stream)
            with pytest.raises(ShardingError):
                engine.shard_summaries()
            engine.migrate_shard(0, executor="serial")
            engine.migrate_shard(1, executor="serial")
            summaries = engine.shard_summaries()
            assert sum(s.item_count for s in summaries) == \
                engine.items_ingested

    def test_migration_validates_arguments(self):
        with ShardedSummary(ExactTemporalGraph, shards=2) as engine:
            with pytest.raises(ShardingError, match="out of range"):
                engine.migrate_shard(7)
            with pytest.raises(ShardingError, match="not both"):
                engine.migrate_shard(0, engine._workers[0], executor="process")
            with pytest.raises(ShardingError,
                               match="unknown shard executor mode 'thread'"):
                engine.migrate_shard(0, executor="thread")

    @pytest.mark.faultinject
    def test_failed_migration_keeps_old_worker_serving(self, small_stream):
        """A replacement that cannot load is discarded; the shard is not
        torn — the old worker keeps answering exactly as before."""
        edges = list(small_stream)
        with ShardedSummary(ExactTemporalGraph, shards=2) as engine:
            engine.insert_batch(edges)
            before = engine.vertex_query(edges[0].source, *FULL, "out")
            broken = FaultyShardWorker(
                engine._workers[0].__class__(ExactTemporalGraph),
                FaultSpec(kind="error", method="__load__"))
            with pytest.raises(ShardingError, match="failed to load"):
                engine.migrate_shard(0, broken)
            assert engine.vertex_query(edges[0].source, *FULL, "out") == before


class TestRebalance:
    """rebalance() reassigns keys and migrates shards, exactly."""

    def test_reassigned_vertex_keeps_answering_exactly(self, small_stream):
        edges = list(small_stream)
        truth = _reference(edges)
        with ShardedSummary(ExactTemporalGraph, shards=4) as engine:
            half = len(edges) // 2
            engine.insert_batch(edges[:half])
            # Move the two hottest sources to fresh shards mid-stream.
            from collections import Counter
            hot = [v for v, _ in Counter(
                e.source for e in edges).most_common(2)]
            plan = RebalancePlan(reassign={
                v: (engine.partitioner.shard_of_vertex(v) + 1) % 4
                for v in hot})
            engine.rebalance(plan)
            assert engine.partitioner.has_reassignments
            engine.insert_batch(edges[half:])
            _assert_matches_reference(engine, truth, edges)
            # The hot vertices' edges really are split across owners now.
            for v in hot:
                assert len(engine.partitioner.owners_of_vertex(v)) == 2

    def test_rebalance_can_migrate_executors(self, small_stream):
        with ShardedSummary(ExactTemporalGraph, shards=2) as engine:
            engine.insert_stream(small_stream)
            items = engine.items_ingested
            engine.rebalance(RebalancePlan(migrate={0: "process",
                                                    1: "process"}))
            assert engine.items_ingested == items
            assert all(w.__class__.__name__ == "ProcessShardWorker"
                       for w in engine._workers)

    def test_rebalance_survives_snapshot_round_trip(self, small_stream):
        """Reassignment state (owner history) travels with the snapshot."""
        edges = list(small_stream)
        truth = _reference(edges)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            with ShardedSummary(ExactTemporalGraph, shards=4) as engine:
                half = len(edges) // 2
                engine.insert_batch(edges[:half])
                hot = edges[0].source
                engine.rebalance(RebalancePlan(reassign={
                    hot: (engine.partitioner.shard_of_vertex(hot) + 1) % 4}))
                engine.insert_batch(edges[half:])
                engine.snapshot(path)
                restored = ShardedSummary.restore(path)
                assert restored.partitioner.has_reassignments
                _assert_matches_reference(restored, truth, edges)
                restored.close()

    def test_rebalance_validates_the_whole_plan_first(self, small_stream):
        with ShardedSummary(ExactTemporalGraph, shards=2) as engine:
            engine.insert_stream(small_stream)
            items = engine.shard_items()
            with pytest.raises(ShardingError, match="out of range"):
                engine.rebalance(RebalancePlan(reassign={"v1": 9}))
            with pytest.raises(ShardingError, match="out of range"):
                engine.rebalance(RebalancePlan(migrate={5: "process"}))
            with pytest.raises(ShardingError, match="executor"):
                engine.rebalance(RebalancePlan(migrate={0: "quantum"}))
            assert engine.shard_items() == items  # nothing changed

    def test_reassignment_requires_source_partitioning(self):
        with ShardedSummary(ExactTemporalGraph, shards=2,
                            partition_by="edge") as engine, \
                pytest.raises(ShardingError, match="source"):
            engine.rebalance(RebalancePlan(reassign={"v1": 0}))


@pytest.mark.faultinject
class TestCrashRecovery:
    """Kill-a-worker recovery: exact, test-asserted loss bound."""

    def _engine(self, snapdir):
        return ShardedSummary(ExactTemporalGraph, shards=3,
                              executor="process",
                              snapshot=SnapshotConfig(directory=snapdir))

    def test_loss_bound_is_exactly_acked_since_snapshot(self, small_stream):
        edges = list(small_stream)
        with tempfile.TemporaryDirectory() as tmp, \
                self._engine(os.path.join(tmp, "snap")) as engine:
            half = len(edges) // 2
            engine.insert_batch(edges[:half])
            engine.snapshot()
            engine.insert_batch(edges[half:])
            before = engine.shard_items()
            snap = engine.snapshot_items()
            victim = 1
            kill_worker(engine, victim)
            recovered = engine.recover_dead_shards()
            assert recovered == [victim]
            after = engine.shard_items()
            # The victim is back at its snapshot count — it lost exactly
            # what it acknowledged after the snapshot, nothing more.
            assert after[victim] == snap[victim]
            assert before[victim] - after[victim] == \
                before[victim] - snap[victim]
            # Survivors lost nothing.
            for shard in range(3):
                if shard != victim:
                    assert after[shard] == before[shard]
            # The recovered shard answers its snapshot prefix exactly.
            truth = _reference(edges[:half])
            part = engine.partitioner
            for edge in edges[:half]:
                if part.shard_of_edge(edge.source,
                                      edge.destination) == victim:
                    assert engine.edge_query(edge.source,
                                             edge.destination, *FULL) == \
                        truth.edge_query(edge.source, edge.destination,
                                         *FULL)

    def test_without_snapshot_the_shard_restarts_empty(self, small_stream):
        with ShardedSummary(ExactTemporalGraph, shards=3,
                            executor="process") as engine:
            engine.insert_stream(small_stream)
            before = engine.shard_items()
            kill_worker(engine, 2)
            assert engine.recover_dead_shards() == [2]
            assert engine.shard_items() == (before[0], before[1], 0)

    def test_auto_recovery_fires_on_the_failure_path(self, small_stream):
        """The failed operation still raises (no silent retry), but the
        next operation finds the shard rebuilt from the snapshot."""
        edges = list(small_stream)
        with tempfile.TemporaryDirectory() as tmp, \
                self._engine(os.path.join(tmp, "snap")) as engine:
            engine.insert_batch(edges)
            engine.snapshot()
            snap = engine.snapshot_items()
            kill_worker(engine, 0)
            with pytest.raises(ShardingError):
                engine.memory_bytes()
            # No explicit recover_dead_shards() call needed:
            assert all(w.alive() for w in engine._workers)
            assert engine.shard_items()[0] == snap[0]
            assert engine.memory_bytes() > 0

    def test_kill_fault_fires_at_a_chosen_operation(self, small_stream):
        """FaultyShardWorker kills the child exactly at the Nth matching
        call, so the crash lands mid-scatter — between submit and collect."""
        edges = list(small_stream)
        with tempfile.TemporaryDirectory() as tmp, \
                self._engine(os.path.join(tmp, "snap")) as engine:
            engine.insert_batch(edges)
            engine.snapshot()
            inject_fault(engine, 1,
                         FaultSpec(kind="kill", method="insert_batch"))
            with pytest.raises(ShardingError):
                engine.insert_batch(edges)
            assert all(w.alive() for w in engine._workers)

    def test_delay_fault_slows_but_does_not_break(self, small_stream):
        with ShardedSummary(ExactTemporalGraph, shards=2,
                            executor="process") as engine:
            inject_fault(engine, 0, FaultSpec(kind="delay", delay_s=0.02,
                                              once=False))
            engine.insert_stream(small_stream)
            assert engine.items_ingested == len(list(small_stream))
