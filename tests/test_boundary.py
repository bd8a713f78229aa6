"""Tests for the boundary-search range decomposition (Algorithm 3)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import vertex_entry, walk_plan

from repro import Higgs
from repro.core.boundary import boundary_search
from repro.core.config import HiggsConfig
from repro.core.tree import HiggsTree
from repro.streams.edge import StreamEdge


@pytest.fixture()
def loaded_tree():
    config = HiggsConfig(leaf_matrix_size=4, bucket_entries=1, fingerprint_bits=12,
                         num_probes=1, enable_overflow_blocks=False)
    tree = HiggsTree(config)
    for i in range(600):
        tree.insert_packed([vertex_entry(config, f"s{i}"),
                            vertex_entry(config, f"d{i}")],
                           [0], [1], [1.0], [i])
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

    def test_larger_ranges_do_not_explode_matrix_accesses(self, loaded_tree):
        small = boundary_search(loaded_tree, 290, 310)
        large = boundary_search(loaded_tree, 0, 599)
        # Thanks to aggregation the full-span query touches a number of
        # matrices logarithmic in the leaf count, not linear.
        assert large.matrices_accessed <= small.matrices_accessed + \
            4 * loaded_tree.height + 4


@st.composite
def _filled_summaries(draw):
    """A small-config HIGGS holding 0-1,500 items, built through
    ``insert_batch`` or per-item ``insert``.

    Timestamps start at 10 and come sorted, in runs of equal values that
    straddle leaf boundaries, or shuffled.  Random lengths leave the spine's
    upper groups incomplete.
    """
    config = HiggsConfig(leaf_matrix_size=draw(st.sampled_from([2, 4])),
                         bucket_entries=draw(st.sampled_from([1, 2])),
                         enable_overflow_blocks=draw(st.booleans()),
                         fingerprint_bits=8, num_probes=2, fanout=4)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    count = rng.choice((rng.randrange(40), rng.randrange(1501)))
    stamps = [10 + step for step in itertools.accumulate(
        rng.choice((0, 0, 0, 1, 3)) for _ in range(count))]
    if draw(st.booleans()):
        rng.shuffle(stamps)
    edges = [StreamEdge(f"v{rng.randrange(40)}", f"v{rng.randrange(40)}",
                        1.0, stamp) for stamp in stamps]
    summary = Higgs(config)
    if draw(st.booleans()):
        summary.insert_batch(edges)
    else:
        for edge in edges:
            summary.insert(edge.source, edge.destination, edge.weight,
                           edge.timestamp)
    return summary, rng


class TestPlanMatchesWalk:
    """The one left-to-right pass yields the top-down walk's plan: the same
    aggregated nodes and boundary leaves, in the same order, so every
    answer sums in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(_filled_summaries())
    def test_plan_is_the_walks(self, built):
        summary, rng = built
        tree = summary.tree
        low = min((leaf.t_min for leaf in tree.leaves), default=10)
        high = max((leaf.t_max for leaf in tree.leaves), default=10)
        # Ranges that start before the span, end after it, or miss it.
        ranges = [(low - 10, low - 1), (high + 1, high + 10),
                  (low - 10, high + 10)] + [
            tuple(sorted(rng.randint(low - 10, high + 10) for _ in range(2)))
            for _ in range(300)]
        for t_start, t_end in ranges:
            plan = boundary_search(tree, t_start, t_end)
            walk = walk_plan(tree, t_start, t_end)
            assert [id(node) for node in plan.aggregated_nodes] == \
                [id(node) for node in walk.aggregated_nodes]
            assert [id(leaf) for leaf in plan.boundary_leaves] == \
                [id(leaf) for leaf in walk.boundary_leaves]
