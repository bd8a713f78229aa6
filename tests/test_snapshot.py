"""Snapshot/restore: bit-identity round-trips, corruption, compatibility.

The contract under test (ARCHITECTURE.md, "Elastic sharding & recovery"):

* ``restore(snapshot(engine))`` answers **every** query type bit-identically
  to the original — property-tested over random streams, shard counts, and
  both partition modes, including after further inserts post-restore;
* a snapshot that was tampered with (or torn) refuses to load with a typed
  :class:`~repro.errors.SnapshotError` naming the offending shard / file;
* a correctly checksummed manifest whose mode or integer field this build
  cannot use refuses the same way, naming the field and its value.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultinject import corrupt_byte
from repro import Higgs, HiggsConfig, HiggsShardFactory, ShardedSummary, SnapshotConfig
from repro.baselines.exact import ExactTemporalGraph
from repro.errors import ConfigurationError, SnapshotError
from repro.sharding import snapshot as snapshot_format
from repro.streams.edge import StreamEdge

# Small vertex universe to force edge repetition and cross-shard spread.
_vertices = st.integers(min_value=0, max_value=15).map(lambda i: f"v{i}")
_items = st.lists(
    st.tuples(_vertices, _vertices, st.integers(1, 9), st.integers(0, 300)),
    min_size=1, max_size=80)

FULL = (0, 10**9)


def _edges(items):
    return [StreamEdge(s, d, float(w), t)
            for s, d, w, t in sorted(items, key=lambda item: item[3])]


def _assert_identical(a: ShardedSummary, b: ShardedSummary, items) -> None:
    """Every query type must agree exactly between the two engines."""
    pairs = sorted({(s, d) for s, d, _, _ in items})
    vertices = sorted({v for s, d, _, _ in items for v in (s, d)})
    t_mid = max(t for _, _, _, t in items) // 2
    for window in (FULL, (0, t_mid)):
        for source, destination in pairs:
            assert a.edge_query(source, destination, *window) == \
                b.edge_query(source, destination, *window)
        for vertex in vertices:
            for direction in ("out", "in"):
                assert a.vertex_query(vertex, *window, direction) == \
                    b.vertex_query(vertex, *window, direction)
        assert a.subgraph_query(pairs, *window) == \
            b.subgraph_query(pairs, *window)
    assert a.shard_items() == b.shard_items()
    assert a.items_ingested == b.items_ingested


class TestRoundTripProperties:
    """Hypothesis: restore(snapshot(s)) is query-exact, then stays exact."""

    @given(items=_items, shards=st.integers(1, 5),
           partition_by=st.sampled_from(["source", "edge"]))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bit_identical_all_query_types(self, items, shards,
                                                      partition_by):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            original = ShardedSummary(ExactTemporalGraph, shards=shards,
                                      partition_by=partition_by)
            original.insert_batch(_edges(items))
            original.snapshot(path)
            restored = ShardedSummary.restore(path)
            try:
                _assert_identical(original, restored, items)
                # Post-restore inserts must behave exactly as they would
                # have on the original: reinsert a shifted copy into both.
                extra = [StreamEdge(e.destination, e.source, e.weight + 1.0,
                                    e.timestamp + 301)
                         for e in _edges(items)]
                more = [(e.source, e.destination, e.weight, e.timestamp)
                        for e in extra] + list(items)
                original.insert_batch(extra)
                restored.insert_batch(extra)
                _assert_identical(original, restored, more)
            finally:
                original.close()
                restored.close()

    @given(items=_items)
    @settings(max_examples=10, deadline=None)
    def test_round_trip_higgs_shards(self, items):
        """The real HIGGS summary round-trips too (same estimates, exactly)."""
        factory = HiggsShardFactory(HiggsConfig(leaf_matrix_size=4,
                                                bucket_entries=2,
                                                fingerprint_bits=10,
                                                num_probes=2))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            original = ShardedSummary(factory, shards=3)
            original.insert_batch(_edges(items))
            original.snapshot(path)
            restored = ShardedSummary.restore(path)
            try:
                _assert_identical(original, restored, items)
            finally:
                original.close()
                restored.close()


def _rewrite_manifest(path, edit):
    """Apply ``edit`` to a snapshot's manifest body and re-checksum it."""
    manifest_path = os.path.join(path, snapshot_format.MANIFEST_NAME)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    edit(manifest["body"])
    manifest["checksum"] = snapshot_format._body_checksum(manifest["body"])
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


@pytest.fixture()
def snapshot_dir(small_stream):
    """A 4-shard Exact engine, its stream, and a written snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap")
        engine = ShardedSummary(ExactTemporalGraph, shards=4)
        engine.insert_stream(small_stream)
        engine.snapshot(path)
        try:
            yield engine, path
        finally:
            engine.close()


class TestSnapshotFormat:
    """Manifest semantics: atomicity, checksums, typed refusals."""

    def test_snapshot_requires_a_destination(self):
        engine = ShardedSummary(ExactTemporalGraph, shards=2)
        with pytest.raises(SnapshotError, match="destination"):
            engine.snapshot()
        engine.close()

    def test_snapshot_uses_configured_directory(self, small_stream):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "auto")
            engine = ShardedSummary(
                ExactTemporalGraph, shards=2,
                snapshot=SnapshotConfig(directory=path))
            engine.insert_stream(small_stream)
            assert engine.snapshot() == path
            assert os.path.exists(os.path.join(path,
                                               snapshot_format.MANIFEST_NAME))
            engine.close()

    def test_snapshot_config_rejects_blank_directory(self):
        with pytest.raises(ConfigurationError):
            SnapshotConfig(directory="   ")

    def test_missing_manifest_refuses(self):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.raises(SnapshotError, match="manifest"):
            ShardedSummary.restore(os.path.join(tmp, "nothing"))

    @pytest.mark.faultinject
    def test_corrupt_shard_payload_names_the_shard(self, snapshot_dir):
        """One flipped byte in shard 2's payload → SnapshotError('shard 2')."""
        _, path = snapshot_dir
        corrupt_byte(os.path.join(path, snapshot_format.shard_payload_name(2)),
                     offset=7)
        with pytest.raises(SnapshotError, match="shard 2"):
            ShardedSummary.restore(path)

    @pytest.mark.faultinject
    def test_torn_manifest_refuses(self, snapshot_dir):
        _, path = snapshot_dir
        manifest = os.path.join(path, snapshot_format.MANIFEST_NAME)
        with open(manifest, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(text[:len(text) // 2])  # torn mid-write
        with pytest.raises(SnapshotError, match="torn"):
            ShardedSummary.restore(path)

    @pytest.mark.faultinject
    def test_tampered_manifest_body_refuses(self, snapshot_dir):
        _, path = snapshot_dir
        manifest = os.path.join(path, snapshot_format.MANIFEST_NAME)
        with open(manifest, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"items_total"', '"items_Total"', 1))
        with pytest.raises(SnapshotError, match="checksum"):
            ShardedSummary.restore(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_version_refuses(self, snapshot_dir, version):
        # A correctly checksummed manifest from an older format version,
        # whose HIGGS payloads pickle an old node layout, must not load.
        _, path = snapshot_dir
        manifest_path = os.path.join(path, snapshot_format.MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = manifest["body"]["format_version"] = \
            version
        manifest["checksum"] = snapshot_format._body_checksum(manifest["body"])
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert snapshot_format.FORMAT_VERSION == 3
        with pytest.raises(SnapshotError,
                           match=f"format version {version}; this build "
                                 "reads version 3"):
            ShardedSummary.restore(path)

    @pytest.mark.parametrize("field, value", [
        ("partition_by", "vertex"), ("partition_by", 7),
        ("executor", "quantum"), ("executor", None),
        ("executor", "thread"), ("executor", "auto"),
    ])
    def test_unknown_mode_in_manifest_refuses(self, snapshot_dir, field,
                                              value):
        # A correctly checksummed manifest naming a partition mode or
        # executor this build does not know is a bad snapshot, not a bad
        # engine configuration: SnapshotError, naming the value.
        engine, path = snapshot_dir
        message = (f"'partition_by' is {value!r}" if field == "partition_by"
                   else f"executor {value!r}")
        _rewrite_manifest(path, lambda body: body.update({field: value}))
        with pytest.raises(SnapshotError, match=re.escape(message)):
            ShardedSummary.restore(path)
        if field == "partition_by":
            return
        # Shard state is executor-agnostic: an explicit executor reads the
        # snapshot.
        with ShardedSummary.restore(path, executor="serial") as restored:
            assert restored.shard_items() == engine.shard_items()

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -5), ("num_shards", 0),
        ("items", -7), ("batch_size", "8"), ("hash_seed", True),
    ])
    def test_bad_integer_in_manifest_refuses(self, snapshot_dir, field,
                                             value):
        # A correctly checksummed manifest with a mistyped or out-of-range
        # integer must not reach ShardingConfig (ConfigurationError) or
        # restore a negative item count into the loss accounting.
        _, path = snapshot_dir
        message = (f"items count {value!r}" if field == "items"
                   else f"{field!r} is {value!r}")

        def edit(body):
            if field == "items":
                body["shards"][0]["items"] = value
                return
            body[field] = value
            if field == "num_shards":
                body["shards"] = []

        _rewrite_manifest(path, edit)
        with pytest.raises(SnapshotError, match=re.escape(message)):
            ShardedSummary.restore(path)


class TestExecutorsAndFactories:
    """State is executor-agnostic; factories travel inside the snapshot."""

    def test_process_executor_round_trip(self, small_stream):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            original = ShardedSummary(ExactTemporalGraph, shards=2,
                                      executor="process")
            original.insert_stream(small_stream)
            original.snapshot(path)
            restored = ShardedSummary.restore(path)
            assert restored.executor_mode == "process"
            edges = list(small_stream)[:40]
            for edge in edges:
                assert original.edge_query(edge.source, edge.destination,
                                           *FULL) == \
                    restored.edge_query(edge.source, edge.destination, *FULL)
            original.close()
            restored.close()

    def test_restore_can_override_executor(self, snapshot_dir):
        """A serial snapshot restores onto worker processes (and vice versa)."""
        engine, path = snapshot_dir
        processes = ShardedSummary.restore(path, executor="process")
        assert processes.executor_mode == "process"
        assert processes.items_ingested == engine.items_ingested
        processes.close()

    def test_restore_without_embedded_factory_needs_one(self, small_stream):
        """A lambda factory cannot be pickled into the snapshot; restore
        must demand an explicit one and honour it when given."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            engine = ShardedSummary(lambda: ExactTemporalGraph(), shards=2)
            engine.insert_stream(small_stream)
            engine.snapshot(path)
            with pytest.raises(SnapshotError, match="factory"):
                ShardedSummary.restore(path)
            restored = ShardedSummary.restore(path,
                                              factory=ExactTemporalGraph)
            assert restored.items_ingested == engine.items_ingested
            engine.close()
            restored.close()

    def test_higgs_default_factory_round_trips_memory_model(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap")
            engine = ShardedSummary(shards=2)  # default HiggsShardFactory
            engine.insert("a", "b", 1.0, 1)
            engine.snapshot(path)
            restored = ShardedSummary.restore(path)
            assert isinstance(restored.factory, HiggsShardFactory)
            assert restored.memory_bytes() == engine.memory_bytes()
            assert isinstance(restored.shard_summaries()[0], Higgs)
            engine.close()
            restored.close()
