"""Tests for HIGGS tree nodes (leaves and internal nodes)."""

from __future__ import annotations

import pytest

from repro.core.aggregation import aggregate_leaves, place_levels
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher, probe_address
from repro.core.node import (InternalNode, LeafNode, pack_edge, pack_item,
                             pack_vertex, vertex_bits)


@pytest.fixture()
def config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10)


@pytest.fixture()
def hasher(config) -> VertexHasher:
    return VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)


# d1 = 2, b = 1, r = 1: every key has one candidate bucket, so a second key
# in the same bucket overflows (in a leaf) or spills (in a parent).
_TINY = HiggsConfig(leaf_matrix_size=2, bucket_entries=1, fingerprint_bits=6,
                    num_probes=1, overflow_block_entries=1)
# Leaf-level (f(s), f(d), h(s), h(d)) keys.  B and C share A's leaf bucket
# and A's parent bucket; B shares A's source vertex, C its destination
# vertex.  D has a bucket of its own.
_A = (1, 2, 0, 1)
_B = (1, 9, 0, 1)
_C = (3, 2, 0, 1)
_D = (1, 2, 1, 0)


def _source(key, config=_TINY):
    return pack_vertex(key[0], key[2], config.fingerprint_bits)


def _destination(key, config=_TINY):
    return pack_vertex(key[1], key[3], config.fingerprint_bits)


def _edge(key, config=_TINY):
    return pack_edge(_source(key, config), _destination(key, config),
                     vertex_bits(config))


def _put(leaf, key, weight, timestamp, config=_TINY) -> bool:
    """Offer the item ``(key, timestamp)`` to ``leaf`` as a one-item run;
    True when the leaf takes it."""
    fs, fd, hs, hd = key
    probes = range(config.num_probes)
    size = config.leaf_matrix_size
    vertices = [
        (_source(key, config),
         tuple(probe_address(hs, i, fs, size) for i in probes)),
        (_destination(key, config),
         tuple(probe_address(hd, i, fd, size) for i in probes))]
    return leaf.fill(vertices, [0], [1], [weight], [timestamp], 0) == 1


def _key(hasher, source, destination):
    fs, hs = hasher.split(source)
    fd, hd = hasher.split(destination)
    return fs, fd, hs, hd


def _leaf_edge(leaf, edge, t_start, t_end):
    """A leaf's weight of one packed edge in range, read as queries read
    it."""
    return leaf.range_weight(leaf.edges.get(edge, ()), t_start, t_end)


class TestLeafNode:
    def test_empty_leaf_has_no_time_range(self, config):
        leaf = LeafNode(0, config)
        assert leaf.t_min is None
        assert leaf.t_max is None
        assert not leaf.overlaps(0, 100)
        assert leaf.entry_count() == 0

    def test_time_range_tracks_inserts(self, config, hasher):
        leaf = LeafNode(0, config)
        key = _key(hasher, "a", "b")
        assert _put(leaf, key, 1.0, 20, config)
        assert _put(leaf, key, 1.0, 5, config)
        assert leaf.t_min == 5
        assert leaf.t_max == 20
        assert leaf.overlaps(0, 10)
        assert leaf.overlaps(20, 30)
        assert not leaf.overlaps(21, 30)

    def test_overflow_blocks_extend_time_range_and_counts(self):
        # B overflows A's only bucket at A's timestamp: an overflow block
        # takes it, inside the leaf's time range and counted with it.
        leaf = LeafNode(0, _TINY)
        assert _put(leaf, _A, 1.0, 4)
        assert _put(leaf, _B, 1.0, 4)
        assert leaf.overflow_blocks == 1
        assert (leaf.t_min, leaf.t_max) == (4, 4)
        assert leaf.entry_count() == 2
        assert leaf.capacity() == 2 * 2 * (1 + 1)
        assert leaf.occupancy == [{1: 1}, {1: 1}]
        assert leaf.overflow == {pack_item(_edge(_B), 4)}

    def test_memory_includes_overflow_blocks(self):
        leaf = LeafNode(0, _TINY)
        assert _put(leaf, _A, 1.0, 4)
        base = leaf.memory_bytes(_TINY)
        assert _put(leaf, _B, 1.0, 4)
        assert leaf.memory_bytes(_TINY) - base == (
            2 * 2 * _TINY.overflow_block_entries * _TINY.leaf_entry_bytes())

    def test_overflow_takes_only_the_latest_timestamp(self):
        leaf = LeafNode(0, _TINY)
        assert _put(leaf, _A, 1.0, 4)
        assert _put(leaf, _B, 1.0, 4)
        # The block holding B accumulates it; the matrix still holds A.
        assert _put(leaf, _B, 2.0, 4)
        assert _put(leaf, _A, 5.0, 4)
        assert _leaf_edge(leaf, _edge(_B), 0, 9) == 3.0
        assert _leaf_edge(leaf, _edge(_A), 0, 9) == 6.0
        # A new key whose bucket is full is refused after t_max ...
        assert not _put(leaf, _C, 1.0, 5)
        # ... while one with room is taken and moves t_max on.
        assert _put(leaf, _D, 1.0, 5)
        assert leaf.t_max == 5
        # B re-arriving at its old timestamp is refused now.
        assert not _put(leaf, _B, 1.0, 4)
        assert leaf.overflow_blocks == 1
        assert leaf.entry_count() == 3

    def test_same_edge_different_timestamps_use_separate_entries(
            self, config, hasher):
        leaf = LeafNode(0, config)
        key = _key(hasher, "a", "b")
        _put(leaf, key, 1.0, 7, config)
        _put(leaf, key, 3.0, 8, config)
        assert leaf.entry_count() == 2
        assert _leaf_edge(leaf, _edge(key, config), 0, 100) == 4.0

    def test_timestamp_range_filter(self, config, hasher):
        leaf = LeafNode(0, config)
        key = _key(hasher, "a", "b")
        edge = _edge(key, config)
        _put(leaf, key, 1.0, 5, config)
        _put(leaf, key, 2.0, 15, config)
        assert _leaf_edge(leaf, edge, 0, 9) == 1.0
        assert _leaf_edge(leaf, edge, 10, 20) == 2.0
        assert _leaf_edge(leaf, edge, 0, 20) == 3.0
        assert _leaf_edge(leaf, edge, 16, 20) == 0.0

    def test_start_and_end_time_tracking(self, config, hasher):
        leaf = LeafNode(0, config)
        key = _key(hasher, "a", "b")
        _put(leaf, key, 1.0, 50, config)
        _put(leaf, key, 1.0, 10, config)
        _put(leaf, key, 1.0, 80, config)
        assert leaf.t_min == 10
        assert leaf.t_max == 80

    def test_vertex_query_respects_time_filter(self, config, hasher):
        leaf = LeafNode(0, config)
        key = _key(hasher, "a", "b")
        _put(leaf, key, 1.0, 1, config)
        _put(leaf, key, 2.0, 10, config)
        source, destination = _source(key, config), _destination(key, config)
        assert leaf.range_weight(leaf.sources[source], 0, 5) == 1.0
        assert leaf.range_weight(leaf.destinations[destination], 5, 20) \
            == 2.0
        assert source not in leaf.destinations


def _aggregated(*entries) -> InternalNode:
    """A placed level-2 node over one leaf per ``(key, weight)`` entry, in
    order."""
    leaves = []
    for index, (key, weight) in enumerate(entries):
        leaf = LeafNode(index, _TINY)
        assert _put(leaf, key, weight, index)
        leaves.append(leaf)
    node = aggregate_leaves(0, leaves, _TINY)
    place_levels([[node]], _TINY)
    return node


class TestInternalNode:
    def _node(self) -> InternalNode:
        return InternalNode(level=2, index=0, keys=[10, 20], t_min=0,
                            t_max=30)

    def test_covered_and_overlap_semantics(self):
        node = self._node()
        assert node.covered_by(0, 30)
        assert node.covered_by(-5, 100)
        assert not node.covered_by(1, 30)
        assert node.overlaps(25, 60)
        assert not node.overlaps(31, 60)

    def test_edge_query_combines_matrix_and_overflow(self):
        # A is placed in the aggregated matrix; B finds its only bucket
        # full and spills.  Both answer by lookup.
        node = _aggregated((_A, 5.0), (_B, 2.0))
        assert (node.placed, node.spilled) == (1, 1)
        assert node.weights[_edge(_A)] == 5.0
        assert node.weights[_edge(_B)] == 2.0
        assert _edge((1, 5, 0, 1)) not in node.weights

    def test_vertex_query_combines_matrix_and_overflow(self):
        node = _aggregated((_A, 5.0), (_B, 2.0), (_C, 1.0))
        assert (node.placed, node.spilled) == (1, 2)
        assert node.out_weights[_source(_A)] == 7.0
        assert node.in_weights[_destination(_A)] == 6.0
        assert node.out_weights[_source(_C)] == 1.0
        assert node.in_weights[_destination(_B)] == 2.0
        assert _destination(_A) not in node.out_weights

    def test_overflow_accumulates_same_key(self):
        # B spills from two children; its weights add into one spilled key.
        node = _aggregated((_A, 5.0), (_B, 1.0), (_B, 2.5))
        assert (node.placed, node.spilled) == (1, 1)
        assert list(node.weights.values()) == [5.0, 3.5]
        assert node.weights[_edge(_B)] == 3.5

    def test_decrement_prefers_matrix_then_overflow(self):
        # Deletion reaches a placed key and a spilled key alike, and the
        # vertex sums of both endpoints.
        node = _aggregated((_A, 5.0), (_B, 4.0))
        assert node.decrement(_edge(_A), _source(_A), _destination(_A), 2.0)
        assert node.weights[_edge(_A)] == 3.0
        assert node.decrement(_edge(_B), _source(_B), _destination(_B), 1.0)
        assert node.weights[_edge(_B)] == 3.0
        assert node.out_weights[_source(_A)] == 6.0
        assert node.in_weights[_destination(_A)] == 3.0
        assert node.in_weights[_destination(_B)] == 3.0
        before = (dict(node.weights), dict(node.out_weights),
                  dict(node.in_weights))
        absent = (1, 5, 0, 1)
        assert not node.decrement(_edge(absent), _source(absent),
                                  _destination(absent), 1.0)
        assert (node.weights, node.out_weights, node.in_weights) == before

    def test_memory_counts_keys_and_overflow(self):
        # Each spilled key costs one timestamp-free entry plus 2 bytes.
        placed_only = _aggregated((_A, 5.0), (_A, 1.0))
        with_spill = _aggregated((_A, 5.0), (_B, 1.0))
        assert with_spill.memory_bytes(_TINY) - placed_only.memory_bytes(
            _TINY) == _TINY.internal_entry_bytes(2) + 2
