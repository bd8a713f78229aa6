"""Tests for the bit-shift aggregation of child matrices (Algorithm 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Higgs
from repro.core.aggregation import (aggregate_internal, aggregate_leaves,
                                    lift_coordinates)
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher
from repro.core.matrix import CompressedMatrix
from repro.core.node import LeafNode, unpack_edge, unpack_vertex
from repro.streams.edge import StreamEdge


@pytest.fixture()
def config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10, num_probes=2)


def _fill_leaf(index: int, config: HiggsConfig, hasher: VertexHasher,
               items) -> LeafNode:
    leaf = LeafNode(index, config)
    for source, destination, weight, timestamp in items:
        fs, hs = hasher.split(source)
        fd, hd = hasher.split(destination)
        assert leaf.matrix.insert(fs, fd, hs, hd, weight, timestamp)
    return leaf


class TestLiftCoordinates:
    def test_identity_at_same_level(self, config):
        assert lift_coordinates(5, 3, 1, 1, config) == (5, 3)

    def test_single_level_lift_matches_formula(self, config):
        fingerprint, address = 0b1011001100, 5
        lifted_fp, lifted_addr = lift_coordinates(fingerprint, address, 1, 2, config)
        # One bit (R=1) moves from the top of the fingerprint to the address.
        assert lifted_addr == (address << 1) | (fingerprint >> 9)
        assert lifted_fp == fingerprint & ((1 << 9) - 1)

    def test_multi_level_lift_is_composition(self, config):
        fingerprint, address = 0b1010101010, 7
        step1 = lift_coordinates(fingerprint, address, 1, 2, config)
        step2 = lift_coordinates(*step1, 2, 3, config)
        direct = lift_coordinates(fingerprint, address, 1, 3, config)
        assert step2 == direct

    def test_lift_clamps_when_fingerprint_exhausted(self):
        config = HiggsConfig(leaf_matrix_size=8, fingerprint_bits=2)
        # Lifting far beyond the available bits must not raise.
        fingerprint, address = 0b11, 3
        lifted = lift_coordinates(fingerprint, address, 1, 6, config)
        assert lifted[0] >= 0 and lifted[1] >= 0

    @given(st.integers(0, 2**10 - 1), st.integers(0, 7))
    @settings(max_examples=100)
    def test_lifted_address_in_parent_range(self, fingerprint, address):
        config = HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10)
        _, lifted_addr = lift_coordinates(fingerprint, address, 1, 3, config)
        assert 0 <= lifted_addr < config.matrix_size_at(3)


class TestAggregateLeaves:
    def test_parent_preserves_per_edge_totals(self, config):
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        items_per_leaf = [
            [("a", "b", 1.0, 1), ("a", "c", 2.0, 2)],
            [("a", "b", 3.0, 5), ("d", "c", 1.0, 6)],
            [("e", "f", 4.0, 9)],
            [("a", "b", 1.0, 12), ("e", "f", 2.0, 13)],
        ]
        leaves = [_fill_leaf(i, config, hasher, items)
                  for i, items in enumerate(items_per_leaf)]
        node = aggregate_leaves(0, leaves, config)

        def parent_estimate(source, destination):
            fs, hs = hasher.split(source)
            fd, hd = hasher.split(destination)
            lifted_fs, lifted_hs = lift_coordinates(fs, hs, 1, 2, config)
            lifted_fd, lifted_hd = lift_coordinates(fd, hd, 1, 2, config)
            return node.query_edge(lifted_fs, lifted_fd, lifted_hs, lifted_hd)

        assert parent_estimate("a", "b") >= 5.0
        assert parent_estimate("a", "c") >= 2.0
        assert parent_estimate("e", "f") >= 6.0
        assert parent_estimate("d", "c") >= 1.0

    def test_parent_time_range_and_keys(self, config):
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        leaves = [
            _fill_leaf(0, config, hasher, [("a", "b", 1.0, 1)]),
            _fill_leaf(1, config, hasher, [("a", "b", 1.0, 8)]),
            _fill_leaf(2, config, hasher, [("a", "b", 1.0, 15)]),
            _fill_leaf(3, config, hasher, [("a", "b", 1.0, 22)]),
        ]
        node = aggregate_leaves(0, leaves, config)
        assert node.t_min == 1
        assert node.t_max == 22
        assert node.keys == [8, 15, 22]
        assert node.level == 2

    def test_aggregation_includes_overflow_blocks(self, config):
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        leaf = _fill_leaf(0, config, hasher, [("a", "b", 1.0, 4)])
        from repro.core.matrix import CompressedMatrix
        block = CompressedMatrix(config.leaf_matrix_size, 1,
                                 num_probes=config.num_probes,
                                 store_timestamps=True)
        fs, hs = hasher.split("a")
        fd, hd = hasher.split("b")
        block.insert(fs, fd, hs, hd, 7.0, timestamp=4)
        leaf.overflow_blocks.append(block)
        node = aggregate_leaves(0, [leaf], config)
        lifted_fs, lifted_hs = lift_coordinates(fs, hs, 1, 2, config)
        lifted_fd, lifted_hd = lift_coordinates(fd, hd, 1, 2, config)
        assert node.query_edge(lifted_fs, lifted_fd, lifted_hs, lifted_hd) >= 8.0


class TestAggregateInternal:
    def test_two_stage_aggregation_preserves_totals(self, config):
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        level2_nodes = []
        for group in range(4):
            leaves = [
                _fill_leaf(group * 4 + i, config, hasher,
                           [("a", "b", 1.0, group * 40 + i * 10 + 1)])
                for i in range(4)
            ]
            level2_nodes.append(aggregate_leaves(group, leaves, config))
        level3 = aggregate_internal(0, level2_nodes, config)
        assert level3.level == 3
        fs, hs = hasher.split("a")
        fd, hd = hasher.split("b")
        lifted_fs, lifted_hs = lift_coordinates(fs, hs, 1, 3, config)
        lifted_fd, lifted_hd = lift_coordinates(fd, hd, 1, 3, config)
        assert level3.query_edge(lifted_fs, lifted_fd, lifted_hs, lifted_hd) >= 16.0
        assert level3.t_min == 1
        assert level3.t_max == 151

    def test_parent_memory_charges_full_aggregated_matrix(self, config):
        # Even an empty parent charges its whole d_l x d_l x b matrix at the
        # timestamp-free entry size, plus its keys and child pointers.
        level2 = [aggregate_leaves(group, [LeafNode(i, config)
                                           for i in range(config.fanout)],
                                   config)
                  for group in range(config.fanout)]
        level3 = aggregate_internal(0, level2, config)
        for node in (level2[0], level3):
            size = config.matrix_size_at(node.level)
            assert node.memory_bytes(config) == (
                size * size * config.bucket_entries
                * config.internal_entry_bytes(node.level)
                + len(node.keys) * config.key_bytes
                + config.fanout * config.pointer_bytes)


# --------------------------------------------------------------------- #
# oracle: aggregation adds no error
# --------------------------------------------------------------------- #

# Small buckets and tiny matrices force parent-level spills into the
# exact overflow map; one-slot overflow blocks and repeated timestamps
# force leaf overflow blocks.  Two-slot buckets make the order in which a
# node hands its keys upward differ from placement order.  40-bit
# fingerprints make a packed edge key too wide for int64.
_SPILL_CONFIGS = [
    HiggsConfig(leaf_matrix_size=2, bucket_entries=1, fingerprint_bits=6,
                num_probes=1, overflow_block_entries=1),
    HiggsConfig(leaf_matrix_size=2, bucket_entries=1, fingerprint_bits=8,
                num_probes=2, overflow_block_entries=1),
    HiggsConfig(leaf_matrix_size=2, bucket_entries=2, fingerprint_bits=8,
                num_probes=2, overflow_block_entries=1),
    HiggsConfig(leaf_matrix_size=2, bucket_entries=1, fingerprint_bits=40,
                num_probes=2, overflow_block_entries=1),
]
_SPILL_IDS = ["r1", "r2", "r2b2", "wide"]

_streams = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 9),
              st.integers(0, 40)),
    min_size=1, max_size=300).map(
        lambda items: [StreamEdge(f"v{s}", f"v{d}", float(w), t)
                       for s, d, w, t in sorted(items, key=lambda i: i[3])])


def _fixed_stream():
    """600 items over 13 x 11 vertices, three per timestamp."""
    return [StreamEdge(f"v{(i * 7) % 13}", f"v{(i * 5) % 11}",
                       float(i % 4 + 1), i // 3) for i in range(600)]


def _node_entries(node):
    """An internal node's ``(f(s), f(d), h(s), h(d)) → weight`` map at its
    own level, in the order it hands its keys to its parent."""
    entries = {}
    for key, weight in node.weights.items():
        source, destination = unpack_edge(key, node.vertex_bits)
        fs, hs = unpack_vertex(source, node.fingerprint_bits)
        fd, hd = unpack_vertex(destination, node.fingerprint_bits)
        entries[(fs, fd, hs, hd)] = weight
    return entries


def _matrix_entries(matrix):
    """``(f(s), f(d), h(s), h(d), weight)`` rows of a matrix, bucket order."""
    columns = [array.tolist() for array in matrix.canonical_entries_arrays()]
    return list(zip(*columns, strict=True))


def _child_entries(child):
    """Every ``(key, weight)`` a child hands its parent, in order."""
    if isinstance(child, LeafNode):
        return [(tuple(row[:4]), row[4])
                for matrix in child.matrices()
                for row in _matrix_entries(matrix)]
    return list(_node_entries(child).items())


def _child_keys(child):
    """Every ``(f(s), f(d), h(s), h(d))`` key a child stores."""
    return {key for key, _ in _child_entries(child)}


def _child_edge(child, key):
    if isinstance(child, LeafNode):
        return sum(matrix.query_edge(*key) for matrix in child.matrices())
    return child.query_edge(*key)


def _child_vertex(child, fingerprint, address, direction):
    if isinstance(child, LeafNode):
        return sum(matrix.query_vertex(fingerprint, address,
                                       direction=direction)
                   for matrix in child.matrices())
    return child.query_vertex(fingerprint, address, direction=direction)


def _assert_aggregation_exact(summary):
    """Check every internal node against its children; return the number
    of spilled parent keys seen."""
    config = summary.config
    fanout = config.fanout
    spilled = 0
    lower = summary.tree.leaves
    for level, nodes in enumerate(summary.tree.internal_levels(), start=2):
        for node in nodes:
            children = lower[node.index * fanout:(node.index + 1) * fanout]
            vertices = set()
            for key in set().union(*map(_child_keys, children)):
                fs, fd, hs, hd = key
                lifted_fs, lifted_hs = lift_coordinates(fs, hs, level - 1,
                                                        level, config)
                lifted_fd, lifted_hd = lift_coordinates(fd, hd, level - 1,
                                                        level, config)
                assert node.query_edge(lifted_fs, lifted_fd,
                                       lifted_hs, lifted_hd) == \
                    sum(_child_edge(child, key) for child in children)
                vertices.add((fs, hs, lifted_fs, lifted_hs, "out"))
                vertices.add((fd, hd, lifted_fd, lifted_hd, "in"))
            for fp, addr, lifted_fp, lifted_addr, direction in vertices:
                assert node.query_vertex(lifted_fp, lifted_addr,
                                         direction=direction) == \
                    sum(_child_vertex(child, fp, addr, direction)
                        for child in children)
            spilled += node.spilled
        lower = nodes
    return spilled


def _assert_placement_matches_matrix(summary):
    """Check every internal node against a real aggregated matrix fed its
    children's lifted entries one at a time, the paper's Algorithm 2."""
    config = summary.config
    fanout = config.fanout
    lower = summary.tree.leaves
    for level, nodes in enumerate(summary.tree.internal_levels(), start=2):
        for node in nodes:
            children = lower[node.index * fanout:(node.index + 1) * fanout]
            reference = CompressedMatrix(
                config.matrix_size_at(level), config.bucket_entries,
                num_probes=config.num_probes, store_timestamps=False)
            spills = {}
            for child in children:
                for (fs, fd, hs, hd), weight in _child_entries(child):
                    lifted_fs, lifted_hs = lift_coordinates(
                        fs, hs, level - 1, level, config)
                    lifted_fd, lifted_hd = lift_coordinates(
                        fd, hd, level - 1, level, config)
                    if not reference.insert(lifted_fs, lifted_fd, lifted_hs,
                                            lifted_hd, weight):
                        key = (lifted_fs, lifted_fd, lifted_hs, lifted_hd)
                        spills[key] = spills.get(key, 0.0) + weight
            entries = list(_node_entries(node).items())
            assert entries[:node.placed] == [
                (tuple(row[:4]), row[4])
                for row in _matrix_entries(reference)]
            assert entries[node.placed:] == list(spills.items())
        lower = nodes


class TestAggregationAddsNoError:
    """Each internal node answers every child key's lifted edge query, and
    every child vertex's lifted out/in query, with exactly the sum of its
    children's answers (integer weights keep the float sums exact)."""

    @pytest.mark.parametrize("config", _SPILL_CONFIGS, ids=_SPILL_IDS)
    def test_fixed_stream_spills_and_stays_exact(self, config):
        summary = Higgs(config)
        summary.insert_batch(_fixed_stream())
        assert summary.height >= 3
        assert any(leaf.overflow_blocks for leaf in summary.tree.leaves)
        assert _assert_aggregation_exact(summary) > 0

    @pytest.mark.parametrize("config", _SPILL_CONFIGS, ids=_SPILL_IDS)
    @given(edges=_streams)
    @settings(max_examples=40, deadline=None)
    def test_every_internal_node_sums_its_children(self, config, edges):
        summary = Higgs(config)
        summary.insert_batch(edges)
        _assert_aggregation_exact(summary)


class TestPlacementMatchesMatrix:
    """The occupancy-only placement puts exactly the keys a real aggregated
    matrix accepts into each node's placed part, in the matrix's bucket
    order, and spills the rest in spill order with the same weights."""

    @pytest.mark.parametrize("config", _SPILL_CONFIGS, ids=_SPILL_IDS)
    def test_fixed_stream(self, config):
        summary = Higgs(config)
        summary.insert_batch(_fixed_stream())
        _assert_placement_matches_matrix(summary)

    @pytest.mark.parametrize("config", _SPILL_CONFIGS, ids=_SPILL_IDS)
    @given(edges=_streams)
    @settings(max_examples=40, deadline=None)
    def test_random_streams(self, config, edges):
        summary = Higgs(config)
        summary.insert_batch(edges)
        _assert_placement_matches_matrix(summary)
