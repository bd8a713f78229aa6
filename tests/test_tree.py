"""Tests for the HIGGS tree (growth, aggregation cascade, deletion, stats)."""

from __future__ import annotations

import gc

import pytest

from repro import Higgs
from repro.bench import scaled_higgs_config
from repro.core.aggregation import lift_coordinates
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher
from repro.core.node import pack_edge, pack_vertex, vertex_bits
from repro.core.tree import HiggsTree
from repro.streams.generators import StreamSpec, generate_stream


@pytest.fixture()
def config() -> HiggsConfig:
    # A deliberately tiny leaf so trees grow quickly in tests.
    return HiggsConfig(leaf_matrix_size=4, bucket_entries=1, fingerprint_bits=10,
                       num_probes=1, enable_overflow_blocks=False)


@pytest.fixture()
def hasher(config) -> VertexHasher:
    return VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)


def _insert(tree: HiggsTree, hasher: VertexHasher, source, destination,
            weight, timestamp) -> None:
    fs, hs = hasher.split(source)
    fd, hd = hasher.split(destination)
    tree.insert_hashed(fs, fd, hs, hd, weight, timestamp)


def _edge(hasher: VertexHasher, config: HiggsConfig, source,
          destination) -> int:
    fs, hs = hasher.split(source)
    fd, hd = hasher.split(destination)
    return pack_edge(pack_vertex(fs, hs, config.fingerprint_bits),
                     pack_vertex(fd, hd, config.fingerprint_bits),
                     vertex_bits(config))


def _fill(tree: HiggsTree, hasher: VertexHasher, count: int,
          start_time: int = 0) -> None:
    for i in range(count):
        _insert(tree, hasher, f"s{i}", f"d{i}", 1.0, start_time + i)


class TestGrowth:
    def test_starts_with_single_leaf_on_first_insert(self, config, hasher):
        tree = HiggsTree(config)
        assert tree.leaf_count == 0
        _insert(tree, hasher, "a", "b", 1.0, 1)
        assert tree.leaf_count == 1
        assert tree.height == 1
        assert tree.items_inserted == 1

    def test_new_leaves_open_on_overflow(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 200)
        assert tree.leaf_count > 1
        assert tree.items_inserted == 200
        # Every leaf except the last is closed.
        assert all(leaf.closed for leaf in tree.leaves[:-1])
        assert not tree.leaves[-1].closed

    def test_internal_nodes_materialize_per_fanout_group(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 400)
        expected_level2 = (tree.leaf_count - 1) // config.fanout
        level2 = tree.internal_levels()[0] if tree.internal_levels() else []
        # Only complete groups (all four leaves closed) are materialized.
        assert len(level2) in (expected_level2, expected_level2 + 1)
        for index, node in enumerate(level2):
            assert node.index == index
            assert node.level == 2

    def test_height_grows_logarithmically(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 800)
        assert tree.height >= 3
        assert tree.leaf_count > config.fanout ** (tree.height - 2)

    def test_internal_node_lookup_bounds(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 300)
        assert tree.internal_node(2, 10_000) is None
        assert tree.internal_node(99, 0) is None
        if tree.internal_levels() and tree.internal_levels()[0]:
            assert tree.internal_node(2, 0) is tree.internal_levels()[0][0]


class TestTimestampTracking:
    def test_monotonic_flag(self, config, hasher):
        tree = HiggsTree(config)
        _insert(tree, hasher, "a", "b", 1.0, 5)
        _insert(tree, hasher, "a", "c", 1.0, 9)
        assert tree.stats()["monotonic"] is True
        _insert(tree, hasher, "a", "d", 1.0, 2)
        assert tree.stats()["monotonic"] is False

    def test_leaf_time_ranges_are_ordered_for_sorted_streams(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 300)
        previous_end = None
        for leaf in tree.leaves:
            if previous_end is not None:
                assert leaf.t_min >= previous_end - 1  # boundaries may touch
            previous_end = leaf.t_max


class TestOverflowBlocks:
    def test_same_timestamp_overflow_goes_to_block(self):
        config = HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                             fingerprint_bits=10, num_probes=1,
                             enable_overflow_blocks=True)
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        tree = HiggsTree(config)
        # Everything arrives at the same timestamp: instead of a long chain of
        # one-timestamp leaves, overflow blocks keep a single leaf.
        for i in range(120):
            _insert(tree, hasher, f"s{i}", f"d{i}", 1.0, 7)
        assert tree.leaf_count == 1
        assert tree.leaves[0].overflow_blocks > 0

    def test_disabled_overflow_blocks_open_new_leaves(self, config, hasher):
        tree = HiggsTree(config)
        for i in range(120):
            _insert(tree, hasher, f"s{i}", f"d{i}", 1.0, 7)
        assert tree.leaf_count > 1


class TestDeletion:
    def test_delete_reduces_leaf_weight(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 50)
        fs, hs = hasher.split("s10")
        fd, hd = hasher.split("d10")
        assert tree.delete_hashed(fs, fd, hs, hd, 1.0, 10)
        # The item is now zero-weighted.
        edge = _edge(hasher, config, "s10", "d10")
        for leaf in tree.leaves:
            assert leaf.query_edge(edge, 0, 1_000) <= 0.0 + 1e-9

    def test_delete_missing_item_returns_false(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 20)
        fs, hs = hasher.split("absent")
        fd, hd = hasher.split("ghost")
        assert not tree.delete_hashed(fs, fd, hs, hd, 1.0, 5)

    def test_delete_updates_materialized_ancestors(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 400)
        # Pick an item stored in the first (aggregated) leaf group.
        fs, hs = hasher.split("s0")
        fd, hd = hasher.split("d0")
        node = tree.internal_node(2, 0)
        assert node is not None
        # The node's key for the edge packs its lifted coordinates.
        bits = config.fingerprint_bits_at(2)
        edge = pack_edge(
            pack_vertex(*lift_coordinates(fs, hs, 1, 2, config), bits),
            pack_vertex(*lift_coordinates(fd, hd, 1, 2, config), bits),
            vertex_bits(config))
        assert edge == _edge(hasher, config, "s0", "d0")
        before = node.query_edge(edge)
        assert tree.delete_hashed(fs, fd, hs, hd, 1.0, 0)
        assert node.query_edge(edge) == pytest.approx(before - 1.0)


class TestStatsAndMemory:
    def test_stats_keys_present(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 150)
        stats = tree.stats()
        for key in ("leaf_count", "height", "items_inserted", "leaf_entries",
                    "leaf_utilization", "overflow_blocks", "internal_nodes",
                    "memory_bytes", "monotonic"):
            assert key in stats
        assert stats["items_inserted"] == 150
        assert stats["memory_bytes"] == tree.memory_bytes()

    def test_memory_grows_with_items(self, config, hasher):
        tree = HiggsTree(config)
        _fill(tree, hasher, 30)
        small = tree.memory_bytes()
        _fill(tree, hasher, 300, start_time=100)
        assert tree.memory_bytes() > small

    def test_tree_holds_few_gc_tracked_objects(self):
        # Nodes keep their answers in maps of ints, floats and tuples of
        # ints, which a full collection untracks, so a gen-2 collection
        # walks a few objects per node, not several per stored item.
        stream = generate_stream(StreamSpec(num_vertices=2_000,
                                            num_edges=20_000, seed=3))
        summary = Higgs(scaled_higgs_config(len(stream)))
        summary.insert_stream(stream)
        gc.collect()
        seen = set()
        pending = [summary.tree]
        while pending:
            obj = pending.pop()
            if (id(obj) in seen or isinstance(obj, type)
                    or not gc.is_tracked(obj)):
                continue
            seen.add(id(obj))
            pending.extend(gc.get_referents(obj))
        assert len(seen) < 0.1 * len(stream)
