"""Tests for the bit-shift aggregation of child nodes (Algorithm 2)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Higgs
from repro.baselines.matrix import CompressedMatrix
from repro.core.aggregation import (_place, aggregate_internal,
                                    aggregate_leaves, lift_coordinates,
                                    place_levels)
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher, probe_address, probe_step
from repro.core.node import (LeafNode, pack_edge, pack_vertex, unpack_edge,
                             unpack_vertex, vertex_bits)
from repro.errors import ReproError
from repro.streams.edge import StreamEdge

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


@pytest.fixture()
def config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10, num_probes=2)


def _insert(leaf: LeafNode, config: HiggsConfig, key, weight,
            timestamp) -> bool:
    """Offer the item of leaf-level key ``(f(s), f(d), h(s), h(d))`` to
    ``leaf`` as a one-item run; True when the leaf takes it."""
    fs, fd, hs, hd = key
    probes = range(config.num_probes)
    size = config.leaf_matrix_size
    vertices = [
        (pack_vertex(fs, hs, config.fingerprint_bits),
         tuple(probe_address(hs, i, fs, size) for i in probes)),
        (pack_vertex(fd, hd, config.fingerprint_bits),
         tuple(probe_address(hd, i, fd, size) for i in probes))]
    return leaf.fill(vertices, [0], [1], [weight], [timestamp], 0) == 1


def _hashed(hasher: VertexHasher, source, destination):
    fs, hs = hasher.split(source)
    fd, hd = hasher.split(destination)
    return fs, fd, hs, hd


def _packed_edge(hasher: VertexHasher, config: HiggsConfig, source,
                 destination) -> int:
    fs, fd, hs, hd = _hashed(hasher, source, destination)
    return pack_edge(pack_vertex(fs, hs, config.fingerprint_bits),
                     pack_vertex(fd, hd, config.fingerprint_bits),
                     vertex_bits(config))


def _fill_leaf(index: int, config: HiggsConfig, hasher: VertexHasher,
               items) -> LeafNode:
    leaf = LeafNode(index, config)
    for source, destination, weight, timestamp in items:
        assert _insert(leaf, config, _hashed(hasher, source, destination),
                       weight, timestamp)
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
            return node.weights.get(
                _packed_edge(hasher, config, source, destination), 0.0)

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

    def test_aggregation_includes_overflow_blocks(self):
        # One bucket per key: the edge's item at t=3 takes the matrix
        # bucket; once another item moves t_max to 4, its item at t=4
        # finds that bucket full and goes to an overflow block.
        config = HiggsConfig(leaf_matrix_size=8, fingerprint_bits=10,
                             bucket_entries=1, num_probes=1)
        leaf = LeafNode(0, config)
        assert _insert(leaf, config, (1, 2, 0, 1), 1.0, 3)
        assert _insert(leaf, config, (1, 2, 5, 5), 1.0, 4)
        assert _insert(leaf, config, (1, 2, 0, 1), 7.0, 4)
        assert leaf.overflow_blocks == 1
        node = aggregate_leaves(0, [leaf], config)
        edge = pack_edge(pack_vertex(1, 0, config.fingerprint_bits),
                         pack_vertex(2, 1, config.fingerprint_bits),
                         vertex_bits(config))
        assert node.weights[edge] == 8.0


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
        assert level3.weights[
            _packed_edge(hasher, config, "a", "b")] >= 16.0
        assert level3.t_min == 1
        assert level3.t_max == 151

    def test_parent_memory_charges_full_aggregated_matrix(self, config):
        # Even an empty parent charges its whole d_l x d_l x b matrix at the
        # timestamp-free entry size, plus its keys and child pointers.  A
        # node is built unplaced, and its spills and memory are unknown
        # until it is placed.
        level2 = [aggregate_leaves(group, [LeafNode(i, config)
                                           for i in range(config.fanout)],
                                   config)
                  for group in range(config.fanout)]
        level3 = aggregate_internal(0, level2, config)
        assert level3.placed is None
        with pytest.raises(ReproError):
            _ = level3.spilled
        with pytest.raises(ReproError):
            level3.memory_bytes(config)
        place_levels([level2, [level3]], config)
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
# force leaf overflow blocks.  Two-slot buckets put several keys in one
# bucket.  40-bit fingerprints make a packed edge key too wide for int64.
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


def _coordinates(edge, level, config):
    """``(f(s), f(d), h(s), h(d))`` of a packed edge key at tree ``level``."""
    fingerprint_bits = config.fingerprint_bits_at(level)
    source, destination = unpack_edge(edge, vertex_bits(config))
    fs, hs = unpack_vertex(source, fingerprint_bits)
    fd, hd = unpack_vertex(destination, fingerprint_bits)
    return fs, fd, hs, hd


def _handed_up(child):
    """Every ``(edge key, weight)`` a child hands its parent, in order: a
    leaf's in arrival order, an internal node's in stored order."""
    if isinstance(child, LeafNode):
        return [(key >> 64, weight) for key, weight in child.weights.items()]
    return list(child.weights.items())


def _entries(child, config):
    """:func:`_handed_up` with each key unpacked at the child's level."""
    level = 1 if isinstance(child, LeafNode) else child.level
    return [(_coordinates(edge, level, config), weight)
            for edge, weight in _handed_up(child)]


def _matrix_buckets(matrix):
    """Bucket → ``(f(s), f(d), h(s), h(d), weight)`` rows of a matrix, in
    placement order.

    Canonical addresses are recovered from each entry's bucket and probe
    indices: ``h = probed - probe * (2 * f + 1) mod d``.
    """
    buckets = {}
    for cell, bucket in matrix._buckets.items():
        row, col = divmod(cell, matrix.size)
        buckets[cell] = [(
            entry.src_fingerprint, entry.dst_fingerprint,
            (row - entry.src_probe * probe_step(entry.src_fingerprint))
            % matrix.size,
            (col - entry.dst_probe * probe_step(entry.dst_fingerprint))
            % matrix.size,
            entry.weight) for entry in bucket]
    return buckets


def _child_edge(child, edge):
    if isinstance(child, LeafNode):
        return child.range_weight(child.edges.get(edge, ()), _INT64_MIN,
                                  _INT64_MAX)
    return child.weights.get(edge, 0.0)


def _vertex_map(node, direction):
    return node.out_weights if direction == "out" else node.in_weights


def _child_vertex(child, vertex, direction):
    if isinstance(child, LeafNode):
        index = child.sources if direction == "out" else child.destinations
        return child.range_weight(index.get(vertex, ()), _INT64_MIN,
                                  _INT64_MAX)
    return _vertex_map(child, direction).get(vertex, 0.0)


def _assert_aggregation_exact(summary):
    """Check every internal node against its children; return the number
    of spilled parent keys seen."""
    summary.memory_bytes()  # places every internal node
    config = summary.config
    fanout = config.fanout
    bits = vertex_bits(config)
    spilled = 0
    lower = summary.tree.leaves
    for nodes in summary.tree.internal_levels():
        for node in nodes:
            children = lower[node.index * fanout:(node.index + 1) * fanout]
            vertices = set()
            for edge in {edge for child in children
                         for edge, _ in _handed_up(child)}:
                assert node.weights[edge] == \
                    sum(_child_edge(child, edge) for child in children)
                source, destination = unpack_edge(edge, bits)
                vertices.add((source, "out"))
                vertices.add((destination, "in"))
            for vertex, direction in vertices:
                assert _vertex_map(node, direction)[vertex] == \
                    sum(_child_vertex(child, vertex, direction)
                        for child in children)
            spilled += node.spilled
        lower = nodes
    return spilled


def _assert_placement_matches_matrix(summary):
    """Check every internal node against a real aggregated matrix fed its
    children's entries one at a time, in hand-up order, lifted by the
    paper's Algorithm 2: the node places as many keys as the matrix holds,
    its simulated buckets hold the matrix's entries bucket by bucket, and
    the keys it spills are the matrix's, with the same weights."""
    summary.memory_bytes()  # places every internal node
    config = summary.config
    fanout = config.fanout
    lower = summary.tree.leaves
    for level, nodes in enumerate(summary.tree.internal_levels(), start=2):
        for node in nodes:
            children = lower[node.index * fanout:(node.index + 1) * fanout]
            reference = CompressedMatrix(
                config.matrix_size_at(level), config.bucket_entries,
                num_probes=config.num_probes)
            spills = {}
            for child in children:
                for (fs, fd, hs, hd), weight in _entries(child, config):
                    lifted_fs, lifted_hs = lift_coordinates(
                        fs, hs, level - 1, level, config)
                    lifted_fd, lifted_hd = lift_coordinates(
                        fd, hd, level - 1, level, config)
                    if not reference.insert(lifted_fs, lifted_fd, lifted_hs,
                                            lifted_hd, weight):
                        key = (lifted_fs, lifted_fd, lifted_hs, lifted_hd)
                        spills[key] = spills.get(key, 0.0) + weight
            placed = node.placed
            assert placed == len(reference)
            # Placing again re-runs the simulation and changes nothing.
            cells = _place(node, config)
            assert node.placed == placed
            buckets = {}
            spilled = []
            for cell, entry in zip(cells, _entries(node, config),
                                   strict=True):
                if cell < 0:
                    spilled.append(entry)
                else:
                    buckets.setdefault(cell, []).append(entry)
            assert buckets == {
                cell: [(tuple(row[:4]), row[4]) for row in rows]
                for cell, rows in _matrix_buckets(reference).items()}
            assert spilled == list(spills.items())
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
    matrix accepts in the matrix's buckets, in the matrix's order within
    each bucket, and spills the rest in spill order with the same
    weights."""

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


# --------------------------------------------------------------------- #
# oracle: leaves place items as Algorithm 1 does in real matrices
# --------------------------------------------------------------------- #

def _leaves_by_matrix(config, edges):
    """Every leaf as Algorithm 1 fills real matrices: per leaf, each
    block's bucket occupancy, the ``(edge key, timestamp, weight)`` entries
    in arrival order, the ``(edge key, timestamp)`` identities the overflow
    blocks hold, and the memory the blocks charge.

    The matrices store no timestamps.  Feeding each item with source
    fingerprint ``f(s) + (d1 << F1) · rank(t)`` makes (edge, timestamp) an
    entry's identity and leaves the probe step ``2f + 1`` unchanged modulo
    ``d1``; ``divmod`` by ``d1 << F1`` recovers both.
    """
    hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size,
                          seed=config.hash_seed)
    times = sorted({edge.timestamp for edge in edges})
    rank = {timestamp: r for r, timestamp in enumerate(times)}
    stride = config.leaf_matrix_size << config.fingerprint_bits

    def block(entries):
        return CompressedMatrix(config.leaf_matrix_size, entries,
                                num_probes=config.num_probes,
                                entry_bytes=config.leaf_entry_bytes())

    def identity(fs, fd, hs, hd):
        r, fs = divmod(fs, stride)
        return (pack_edge(pack_vertex(fs, hs, config.fingerprint_bits),
                          pack_vertex(fd, hd, config.fingerprint_bits),
                          vertex_bits(config)), times[r])

    leaves = []  # per leaf: its blocks and its identities in arrival order
    t_max = None
    for edge in edges:
        fs, fd, hs, hd = _hashed(hasher, edge.source, edge.destination)
        item = (fs + stride * rank[edge.timestamp], fd, hs, hd, edge.weight)
        blocks, arrivals = leaves[-1] if leaves else ([], [])
        held = sum(len(matrix) for matrix in blocks)
        if blocks and blocks[0].insert(*item):
            pass
        elif (blocks and config.enable_overflow_blocks
              and edge.timestamp == t_max):
            if not any(overflow.insert(*item) for overflow in blocks[1:]):
                blocks.append(block(config.overflow_block_entries))
                assert blocks[-1].insert(*item)
        else:
            blocks, arrivals = [block(config.bucket_entries)], []
            leaves.append((blocks, arrivals))
            assert blocks[0].insert(*item)
            held, t_max = 0, None
        if sum(len(matrix) for matrix in blocks) > held:
            arrivals.append(identity(*item[:4]))
        t_max = edge.timestamp if t_max is None else max(t_max,
                                                         edge.timestamp)

    built = []
    for blocks, arrivals in leaves:
        weights = {identity(*row[:4]): row[4]
                   for matrix in blocks
                   for rows in _matrix_buckets(matrix).values()
                   for row in rows}
        built.append((
            [{cell: len(rows) for cell, rows in _matrix_buckets(matrix).items()}
             for matrix in blocks],
            [(*key, weights[key]) for key in arrivals],
            {identity(*row[:4]) for matrix in blocks[1:]
             for rows in _matrix_buckets(matrix).values() for row in rows},
            sum(matrix.memory_bytes() for matrix in blocks)
            + config.pointer_bytes))
    return built


def _leaves_by_tree(summary):
    """:func:`_leaves_by_matrix` read from a summary's leaves."""

    def identity(key):
        return key >> 64, (key & (2 ** 64 - 1)) - 2 ** 63

    return [([dict(block) for block in leaf.occupancy],
             [(*identity(key), weight) for key, weight in leaf.weights.items()],
             {identity(key) for key in leaf.overflow},
             leaf.memory_bytes(summary.config))
            for leaf in summary.tree.leaves]


_leaf_configs = st.builds(
    HiggsConfig, leaf_matrix_size=st.sampled_from([2, 4]),
    bucket_entries=st.integers(1, 2), fingerprint_bits=st.integers(3, 6),
    num_probes=st.integers(1, 3), enable_overflow_blocks=st.booleans(),
    overflow_block_entries=st.integers(1, 2))
_leaf_items = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 9),
              st.integers(0, 30)),
    min_size=1, max_size=200)


class TestLeafPlacementMatchesMatrix:
    """Each leaf fills its buckets exactly as Algorithm 1 fills a real leaf
    matrix and its overflow blocks, block by block and bucket by bucket,
    holds the same items with the same weights in arrival order, knows
    which of them the overflow blocks hold, and refuses exactly the items
    the matrices refuse.  Once the compressed form is verified, its memory
    is the real blocks' memory."""

    @given(config=_leaf_configs, items=_leaf_items, ordered=st.booleans())
    # (v0, v0) at t=3 goes to an overflow block; once t=5 is taken, it
    # re-arrives at t=3, and its leaf refuses it.
    @example(config=HiggsConfig(leaf_matrix_size=4, bucket_entries=2,
                                fingerprint_bits=6, num_probes=1,
                                overflow_block_entries=2),
             items=[(10, 5, 3, 3), (0, 10, 1, 3), (0, 0, 4, 3),
                    (7, 3, 1, 5), (0, 0, 8, 3)],
             ordered=False)
    @settings(max_examples=150, deadline=None)
    def test_leaves_match_real_matrices(self, config, items, ordered):
        if ordered:
            items = sorted(items, key=lambda item: item[3])
        edges = [StreamEdge(f"v{s}", f"v{d}", float(w), t)
                 for s, d, w, t in items]
        summary = Higgs(config)
        summary.insert_batch(edges)
        assert _leaves_by_tree(summary) == _leaves_by_matrix(config, edges)
