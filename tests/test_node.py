"""Tests for HIGGS tree nodes (leaves and internal nodes)."""

from __future__ import annotations

import pytest

from repro.core.aggregation import aggregate_leaves, lift_coordinates
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher
from repro.core.matrix import CompressedMatrix
from repro.core.node import InternalNode, LeafNode, vertex_bits


@pytest.fixture()
def config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10)


@pytest.fixture()
def hasher(config) -> VertexHasher:
    return VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)


class TestLeafNode:
    def test_empty_leaf_has_no_time_range(self, config):
        leaf = LeafNode(0, config)
        assert leaf.t_min is None
        assert leaf.t_max is None
        assert not leaf.overlaps(0, 100)
        assert leaf.entry_count() == 0

    def test_time_range_tracks_inserts(self, config, hasher):
        leaf = LeafNode(0, config)
        fs, hs = hasher.split("a")
        fd, hd = hasher.split("b")
        leaf.matrix.insert(fs, fd, hs, hd, 1.0, timestamp=20)
        leaf.matrix.insert(fs, fd, hs, hd, 1.0, timestamp=5)
        assert leaf.t_min == 5
        assert leaf.t_max == 20
        assert leaf.overlaps(0, 10)
        assert leaf.overlaps(20, 30)
        assert not leaf.overlaps(21, 30)

    def test_overflow_blocks_extend_time_range_and_counts(self, config, hasher):
        leaf = LeafNode(0, config)
        fs, hs = hasher.split("a")
        fd, hd = hasher.split("b")
        leaf.matrix.insert(fs, fd, hs, hd, 1.0, timestamp=10)
        block = CompressedMatrix(config.leaf_matrix_size, 1,
                                 num_probes=config.num_probes,
                                 store_timestamps=True)
        block.insert(fs, fd, hs, hd, 1.0, timestamp=42)
        leaf.overflow_blocks.append(block)
        assert leaf.t_max == 42
        assert leaf.entry_count() == 2
        assert len(leaf.matrices()) == 2

    def test_memory_includes_overflow_blocks(self, config):
        leaf = LeafNode(0, config)
        base = leaf.memory_bytes(config)
        leaf.overflow_blocks.append(
            CompressedMatrix(config.leaf_matrix_size, 1,
                             entry_bytes=config.leaf_entry_bytes()))
        assert leaf.memory_bytes(config) > base


# d1 = 2, b = 1, r = 1: every lifted key has one candidate bucket, so a
# second key lifted into the same bucket spills.
_TINY = HiggsConfig(leaf_matrix_size=2, bucket_entries=1, fingerprint_bits=6,
                    num_probes=1)
# Leaf-level (f(s), f(d), h(s), h(d)) keys.  B and C share A's parent
# bucket; B shares A's source vertex, C its destination vertex.
_A = (1, 2, 0, 1)
_B = (1, 9, 0, 1)
_C = (3, 2, 0, 1)


def _aggregated(*entries) -> InternalNode:
    """A level-2 node over one leaf per ``(key, weight)`` entry, in order."""
    leaves = []
    for index, (key, weight) in enumerate(entries):
        leaf = LeafNode(index, _TINY)
        assert leaf.matrix.insert(*key, weight, timestamp=index)
        leaves.append(leaf)
    return aggregate_leaves(0, leaves, _TINY)


def _lifted(key):
    fs, fd, hs, hd = key
    lifted_fs, lifted_hs = lift_coordinates(fs, hs, 1, 2, _TINY)
    lifted_fd, lifted_hd = lift_coordinates(fd, hd, 1, 2, _TINY)
    return lifted_fs, lifted_fd, lifted_hs, lifted_hd


def _source(key):
    return lift_coordinates(key[0], key[2], 1, 2, _TINY)


def _destination(key):
    return lift_coordinates(key[1], key[3], 1, 2, _TINY)


class TestInternalNode:
    def _node(self, config) -> InternalNode:
        return InternalNode(level=2, index=0, keys=[10, 20], t_min=0,
                            t_max=30,
                            fingerprint_bits=config.fingerprint_bits_at(2),
                            vertex_bits=vertex_bits(config))

    def test_covered_and_overlap_semantics(self, config):
        node = self._node(config)
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
        assert node.query_edge(*_lifted(_A)) == 5.0
        assert node.query_edge(*_lifted(_B)) == 2.0
        assert node.query_edge(*_lifted((1, 5, 0, 1))) == 0.0

    def test_vertex_query_combines_matrix_and_overflow(self):
        node = _aggregated((_A, 5.0), (_B, 2.0), (_C, 1.0))
        assert (node.placed, node.spilled) == (1, 2)
        assert node.query_vertex(*_source(_A), direction="out") == 7.0
        assert node.query_vertex(*_destination(_A), direction="in") == 6.0
        assert node.query_vertex(*_source(_C), direction="out") == 1.0
        assert node.query_vertex(*_destination(_B), direction="in") == 2.0
        assert node.query_vertex(*_destination(_A), direction="out") == 0.0

    def test_overflow_accumulates_same_key(self):
        # B spills from two children; its weights add into one spilled key.
        node = _aggregated((_A, 5.0), (_B, 1.0), (_B, 2.5))
        assert (node.placed, node.spilled) == (1, 1)
        assert list(node.weights.values()) == [5.0, 3.5]
        assert node.query_edge(*_lifted(_B)) == 3.5

    def test_decrement_prefers_matrix_then_overflow(self):
        # Deletion reaches a placed key and a spilled key alike, and the
        # vertex sums of both endpoints.
        node = _aggregated((_A, 5.0), (_B, 4.0))
        assert node.decrement(*_lifted(_A), 2.0)
        assert node.query_edge(*_lifted(_A)) == 3.0
        assert node.decrement(*_lifted(_B), 1.0)
        assert node.query_edge(*_lifted(_B)) == 3.0
        assert node.query_vertex(*_source(_A), direction="out") == 6.0
        assert node.query_vertex(*_destination(_A), direction="in") == 3.0
        assert node.query_vertex(*_destination(_B), direction="in") == 3.0
        before = (dict(node.weights), dict(node.out_weights),
                  dict(node.in_weights))
        assert not node.decrement(*_lifted((1, 5, 0, 1)), 1.0)
        assert (node.weights, node.out_weights, node.in_weights) == before

    def test_memory_counts_keys_and_overflow(self):
        # Each spilled key costs one timestamp-free entry plus 2 bytes.
        placed_only = _aggregated((_A, 5.0), (_A, 1.0))
        with_spill = _aggregated((_A, 5.0), (_B, 1.0))
        assert with_spill.memory_bytes(_TINY) - placed_only.memory_bytes(
            _TINY) == _TINY.internal_entry_bytes(2) + 2
