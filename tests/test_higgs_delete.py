"""Edge-case tests for ``Higgs.delete`` (explicit entry deletion).

Two behaviours the interface promises but were previously untested:

* deleting an item that was never inserted leaves the summary untouched
  (byte-identical structure, not merely equal query answers), and
* deleting after upward aggregation decrements every materialized ancestor
  aggregate, not only the leaf entry: its edge weight and both endpoints'
  vertex sums.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Higgs, HiggsConfig
from repro.core.aggregation import lift_coordinates
from repro.core.node import pack_edge, pack_vertex, vertex_bits
from repro.errors import InsertionError


def _small_config() -> HiggsConfig:
    return HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                       fingerprint_bits=12, num_probes=1,
                       enable_overflow_blocks=False)


def _loaded(items: int = 600) -> Higgs:
    summary = Higgs(_small_config())
    for i in range(items):
        summary.insert(f"s{i}", f"d{i}", 1.0 + (i % 3), i)
    return summary


class TestDeleteNeverInserted:
    def test_structure_byte_identical(self):
        summary = _loaded()
        before = pickle.dumps(summary.tree)
        summary.delete("ghost-src", "ghost-dst", 1.0, 50)
        assert pickle.dumps(summary.tree) == before

    @pytest.mark.parametrize("weight", [None, "3", 1j])
    def test_weight_that_is_not_real_refused(self, weight):
        # The insert paths' weight rule: InsertionError, raised before the
        # tree is touched, not a builtin error from inside the leaf.
        summary = _loaded()
        before = pickle.dumps(summary.tree)
        with pytest.raises(InsertionError, match="not a real number"):
            summary.delete("s1", "d1", weight, 1)
        assert pickle.dumps(summary.tree) == before

    def test_wrong_timestamp_is_a_miss(self):
        summary = _loaded()
        before = pickle.dumps(summary.tree)
        # Existing edge, but no entry at this timestamp.
        summary.delete("s1", "d1", 1.0, 5_000)
        assert pickle.dumps(summary.tree) == before


def _ancestors(summary: Higgs, source: str, destination: str):
    """``(node, source key, destination key)`` for every materialized
    ancestor of leaf 0, bottom-up, each key packed from the endpoint's
    coordinates lifted to the node's level."""
    tree = summary.tree
    config = summary.config
    src_fp, src_addr = summary._hasher.split(source)
    dst_fp, dst_addr = summary._hasher.split(destination)
    ancestors = []
    level = 2
    while tree.internal_node(level, 0) is not None:
        bits = config.fingerprint_bits_at(level)
        ancestors.append((
            tree.internal_node(level, 0),
            pack_vertex(*lift_coordinates(src_fp, src_addr, 1, level, config),
                        bits),
            pack_vertex(*lift_coordinates(dst_fp, dst_addr, 1, level, config),
                        bits)))
        level += 1
    return ancestors


class TestDeleteAfterAggregation:
    def test_every_materialized_ancestor_decrements(self):
        summary = _loaded(600)
        assert summary.tree.height >= 3, \
            "test needs materialized internal levels"

        # Item i=0 lives in leaf 0; its ancestors are index 0 at every level.
        source, destination, weight, timestamp = "s0", "d0", 1.0, 0
        ancestors = _ancestors(summary, source, destination)
        assert len(ancestors) >= 2

        bits = vertex_bits(summary.config)
        before = [node.weights[pack_edge(src, dst, bits)]
                  for node, src, dst in ancestors]
        summary.delete(source, destination, weight, timestamp)
        after = [node.weights[pack_edge(src, dst, bits)]
                 for node, src, dst in ancestors]
        for value_before, value_after in zip(before, after, strict=True):
            assert value_after == pytest.approx(value_before - weight)

    def test_deletion_reaches_vertex_sums(self):
        # The whole-span vertex queries are answered from aggregated nodes;
        # a delete must lower the source's out-sum and the destination's
        # in-sum there and in every materialized ancestor.
        summary = _loaded(600)
        source, destination, weight, timestamp = "s0", "d0", 1.0, 0
        ancestors = _ancestors(summary, source, destination)
        assert len(ancestors) >= 2

        def vertex_sums():
            sums = [summary.vertex_query(source, 0, 1_000, "out"),
                    summary.vertex_query(destination, 0, 1_000, "in")]
            for node, src, dst in ancestors:
                sums.append(node.out_weights[src])
                sums.append(node.in_weights[dst])
            return sums

        before = vertex_sums()
        assert all(value >= weight for value in before)
        summary.delete(source, destination, weight, timestamp)
        assert vertex_sums() == [value - weight for value in before]

    def test_full_range_query_reflects_deletion(self):
        summary = _loaded(600)
        before = summary.edge_query("s0", "d0", 0, 1_000)
        summary.delete("s0", "d0", 1.0, 0)
        assert summary.edge_query("s0", "d0", 0, 1_000) == \
            pytest.approx(before - 1.0)

    def test_batch_built_summary_deletes_identically(self, small_stream):
        per_item = Higgs(_small_config())
        for edge in small_stream:
            per_item.insert(edge.source, edge.destination,
                            edge.weight, edge.timestamp)
        batched = Higgs(_small_config())
        batched.insert_stream(small_stream)

        victim = small_stream[0]
        per_item.delete(victim.source, victim.destination,
                        victim.weight, victim.timestamp)
        batched.delete(victim.source, victim.destination,
                       victim.weight, victim.timestamp)
        t_min, t_max = small_stream.time_span
        assert per_item.edge_query(victim.source, victim.destination,
                                   t_min, t_max) == \
            batched.edge_query(victim.source, victim.destination,
                               t_min, t_max)


class TestDeleteFindsItsLeaf:
    def test_timestamp_shared_across_a_leaf_boundary(self):
        # Two items per timestamp: where a leaf closes between them, the
        # earlier item is the last of leaf k and the later one opens leaf
        # k + 1, so both leaves cover the shared timestamp.
        summary = Higgs(_small_config())
        for i in range(200):
            summary.insert(f"s{i}", f"d{i}", 1.0, i // 2)
        leaves = summary.tree.leaves
        k = next(k for k in range(len(leaves) - 1)
                 if leaves[k].t_max == leaves[k + 1].t_min)
        shared = leaves[k].t_max
        later = pickle.dumps(leaves[k + 1])
        summary.delete(f"s{2 * shared}", f"d{2 * shared}", 1.0, shared)
        assert summary.edge_query(f"s{2 * shared}", f"d{2 * shared}",
                                  shared, shared) == 0.0
        assert summary.edge_query(f"s{2 * shared + 1}", f"d{2 * shared + 1}",
                                  shared, shared) == 1.0
        assert pickle.dumps(leaves[k + 1]) == later
