"""Tests for the boundary-search range decomposition (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.core.boundary import boundary_search
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher
from repro.core.tree import HiggsTree


@pytest.fixture()
def loaded_tree():
    config = HiggsConfig(leaf_matrix_size=4, bucket_entries=1, fingerprint_bits=12,
                         num_probes=1, enable_overflow_blocks=False)
    hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
    tree = HiggsTree(config)
    for i in range(600):
        fs, hs = hasher.split(f"s{i}")
        fd, hd = hasher.split(f"d{i}")
        tree.insert_hashed(fs, fd, hs, hd, 1.0, i)
    return tree


class TestBoundarySearch:
    def test_empty_tree_yields_empty_decomposition(self):
        config = HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                             fingerprint_bits=12, num_probes=1)
        tree = HiggsTree(config)
        result = boundary_search(tree, 0, 100)
        assert result.aggregated_nodes == []
        assert result.boundary_leaves == []
        assert result.matrices_accessed == 0

    def test_full_range_uses_aggregated_nodes(self, loaded_tree):
        result = boundary_search(loaded_tree, 0, 599)
        assert result.aggregated_nodes, "a full-span query should use aggregates"
        # Aggregated nodes plus boundary leaves must cover far fewer matrices
        # than the total number of leaves.
        assert result.matrices_accessed < loaded_tree.leaf_count

    def test_aggregated_nodes_fully_inside_range(self, loaded_tree):
        t_start, t_end = 100, 450
        result = boundary_search(loaded_tree, t_start, t_end)
        for node in result.aggregated_nodes:
            assert node.t_min >= t_start
            assert node.t_max <= t_end

    def test_boundary_leaves_overlap_range(self, loaded_tree):
        t_start, t_end = 123, 321
        result = boundary_search(loaded_tree, t_start, t_end)
        for leaf in result.boundary_leaves:
            assert leaf.overlaps(t_start, t_end)

    def test_no_leaf_is_covered_twice(self, loaded_tree):
        """No leaf may be both under a used aggregate and in the boundary list."""
        t_start, t_end = 50, 500
        result = boundary_search(loaded_tree, t_start, t_end)
        fanout = loaded_tree.config.fanout
        covered = set()
        for node in result.aggregated_nodes:
            width = fanout ** (node.level - 1)
            covered.update(range(node.index * width, (node.index + 1) * width))
        boundary = {leaf.index for leaf in result.boundary_leaves}
        assert not covered & boundary

    def test_out_of_range_query_touches_nothing(self, loaded_tree):
        result = boundary_search(loaded_tree, 10_000, 20_000)
        assert result.aggregated_nodes == []
        assert result.boundary_leaves == []

    def test_single_timestamp_query_touches_few_leaves(self, loaded_tree):
        result = boundary_search(loaded_tree, 300, 300)
        assert result.aggregated_nodes == []
        assert 1 <= len(result.boundary_leaves) <= 3

    def test_nodes_visited_counted(self, loaded_tree):
        result = boundary_search(loaded_tree, 0, 599)
        assert result.nodes_visited > 0

    def test_nodes_visited_excludes_phantom_children(self):
        """Regression: positions past the last leaf are not real nodes.

        With 5 leaves (fanout 4) the implicit tree spans 16 leaf slots; the
        old counter charged the phantom subtrees under slots 5-15 as
        "visited", inflating the efficiency metric.  A full-range search
        inspects exactly 4 real nodes: the root position, the complete
        level-2 group, the partial level-2 position, and leaf 4.
        """
        config = HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                             fingerprint_bits=12, num_probes=1,
                             enable_overflow_blocks=False)
        hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size)
        tree = HiggsTree(config)
        i = 0
        while tree.leaf_count < 5:
            fs, hs = hasher.split(f"s{i}")
            fd, hd = hasher.split(f"d{i}")
            tree.insert_hashed(fs, fd, hs, hd, 1.0, i)
            i += 1
        assert tree.leaf_count == 5
        t_max = max(leaf.t_max for leaf in tree.leaves)
        result = boundary_search(tree, 0, t_max)
        # root (3,0) + (2,0) complete + (2,1) partial + leaf 4 = 4 real nodes;
        # phantom positions (2,2), (2,3) and leaves 5-7 must not count.
        assert result.nodes_visited == 4

    def test_nodes_visited_counts_real_nodes_on_full_tree(self, loaded_tree):
        """Every visited position of a full-range search is a real node, so
        the count is bounded by the number of nodes that exist."""
        result = boundary_search(loaded_tree, 0, 599)
        real_nodes = loaded_tree.leaf_count + sum(
            len(nodes) for nodes in loaded_tree.internal_levels()) + 1
        assert result.nodes_visited <= real_nodes

    def test_larger_ranges_do_not_explode_matrix_accesses(self, loaded_tree):
        small = boundary_search(loaded_tree, 290, 310)
        large = boundary_search(loaded_tree, 0, 599)
        # Thanks to aggregation the full-span query touches a number of
        # matrices logarithmic in the leaf count, not linear.
        assert large.matrices_accessed <= small.matrices_accessed + \
            4 * loaded_tree.height + 4
