"""The HIGGS tree — an append-only, bottom-up aggregated B-tree.

This module implements the paper's central data structure.  Leaves hold the
timestamped items of the arriving stream (Algorithm 1); whenever a group of
``θ`` consecutive nodes at one layer is complete, an aggregated parent node
is materialized one layer up (Algorithm 2).  The tree operates on *hashed*
items throughout: the public :class:`~repro.core.higgs.Higgs` class owns the
vertex hasher and passes fingerprint/address pairs down, and the tree packs
them into the integer keys every node uses (:mod:`repro.core.node`), which
keeps the structural code independent of vertex identifier types.

Timestamps are expected to be non-decreasing across inserts (the natural
order of a stream replay).  Out-of-order inserts are still stored correctly —
every leaf tracks its exact time range — but the structure notes the
violation and the range decomposition then relies only on per-node ranges,
never on positional assumptions.

Insertion
---------
:meth:`HiggsTree.insert_hashed` packs one item with the scalar kernels and
:meth:`HiggsTree.insert_hashed_batch_arrays` packs a batch with the
vectorized ones; both then run one loop, which *defers the upward
aggregation* of leaf groups that complete mid-loop to its end.  Deferral is
sound because a completed group's leaves are closed — no later item can
change them — so aggregating at the end builds byte-identical internal
nodes.  The tree also carries a monotonically increasing :attr:`version`,
bumped by every mutation, which query-plan caches use as their invalidation
key.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from ..errors import InsertionError
from . import vectorized
from .aggregation import aggregate_internal, aggregate_leaves
from .config import HiggsConfig
from .hashing import probe_address
from .node import InternalNode, LeafNode, pack_edge, pack_vertex, vertex_bits


class HiggsTree:
    """Container managing the leaf layer and all aggregated layers."""

    def __init__(self, config: HiggsConfig) -> None:
        self.config = config
        self.leaves: List[LeafNode] = []
        #: ``self._internal[k]`` holds the nodes of tree layer ``k + 2``.
        self._internal: List[List[InternalNode]] = []
        self._last_timestamp: Optional[int] = None
        self._monotonic = True
        self._items_inserted = 0
        self._version = 0

    # ------------------------------------------------------------------ #
    # structure accessors
    # ------------------------------------------------------------------ #

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes (``n1`` in the paper)."""
        return len(self.leaves)

    @property
    def height(self) -> int:
        """Number of layers (leaf layer counts as 1)."""
        return 1 + sum(1 for level_nodes in self._internal if level_nodes)

    @property
    def items_inserted(self) -> int:
        """Total number of stream items inserted so far."""
        return self._items_inserted

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every insert/delete that may change a
        range decomposition.  Query-plan caches key on it for invalidation."""
        return self._version

    def internal_node(self, level: int, index: int) -> Optional[InternalNode]:
        """Return the materialized internal node at ``(level, index)`` or None.

        ``level`` is the tree layer (2 = parents of leaves).
        """
        slot = level - 2
        if slot < 0 or slot >= len(self._internal):
            return None
        nodes = self._internal[slot]
        if index >= len(nodes):
            return None
        return nodes[index]

    def internal_levels(self) -> List[List[InternalNode]]:
        """All materialized internal layers, bottom-up (layer 2 first)."""
        return self._internal

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    def insert_hashed(self, src_fingerprint: int, dst_fingerprint: int,
                      src_address: int, dst_address: int, weight: float,
                      timestamp: int) -> None:
        """Insert one hashed stream item (Algorithm 1).

        Packs the item with the scalar kernels, then runs the loop batch
        ingest runs, so its leaf closing and upward aggregation are the
        batch's.
        """
        config = self.config
        probes = range(config.num_probes)
        size = config.leaf_matrix_size
        fingerprint_bits = config.fingerprint_bits
        self._insert_packed(
            [pack_vertex(src_fingerprint, src_address, fingerprint_bits),
             pack_vertex(dst_fingerprint, dst_address, fingerprint_bits)],
            [[probe_address(src_address, i, src_fingerprint, size)
              for i in probes],
             [probe_address(dst_address, i, dst_fingerprint, size)
              for i in probes]],
            [0], [1], [weight], [timestamp])

    # hot-path
    def insert_hashed_batch_arrays(self, fingerprints, addresses,
                                   src_idx, dst_idx,
                                   weights, timestamps) -> int:
        """Insert a pre-hashed batch; returns the number of items inserted.

        ``fingerprints`` / ``addresses`` are per-*distinct-vertex* ``int64``
        arrays (the caller hashed the batch's distinct vertices in one
        vectorized pass, see :meth:`Higgs._hash_indexed`); ``src_idx`` /
        ``dst_idx`` map each batch item to its endpoints' rows.  Each
        distinct vertex is packed and probed vectorized, once, and the
        items then flow through the loop :meth:`insert_hashed` runs, so the
        result is bit-identical to per-item insertion.
        """
        config = self.config
        return self._insert_packed(
            vectorized.pack_vertex_array(fingerprints, addresses,
                                         config).tolist(),
            vectorized.probe_rows_array(fingerprints, addresses,
                                        config.num_probes,
                                        config.leaf_matrix_size).tolist(),
            src_idx.tolist(), dst_idx.tolist(), weights.tolist(),
            timestamps.tolist())

    def _insert_packed(self, vertices: List[int], rows: List[List[int]],
                       src_idx: List[int], dst_idx: List[int],
                       weights: List[float], timestamps: List[int]) -> int:
        """The insert loop of both paths.

        ``vertices`` / ``rows`` hold each distinct vertex's packed key and
        leaf-level probe addresses; ``src_idx`` / ``dst_idx`` index them
        per item.  A leaf that refuses an item is closed and a new leaf
        takes it.  The upward aggregation of leaf groups completed in the
        loop is deferred to its end: a completed group's leaves are closed,
        so no later item can change them, and aggregating at the end builds
        byte-identical internal nodes.
        """
        if not src_idx:
            return 0
        config = self.config
        vbits = vertex_bits(config)
        last_ts = self._last_timestamp
        monotonic = self._monotonic
        pending_groups: List[int] = []
        if not self.leaves:
            self.leaves.append(LeafNode(0, config))
        leaf = self.leaves[-1]
        count = 0
        try:
            for s, d, weight, timestamp in zip(src_idx, dst_idx, weights,
                                               timestamps, strict=True):
                if last_ts is None:
                    last_ts = timestamp
                elif timestamp < last_ts:
                    monotonic = False
                elif timestamp > last_ts:
                    last_ts = timestamp
                source = vertices[s]
                destination = vertices[d]
                edge = (source << vbits) | destination
                if not leaf.insert(edge, source, destination, rows[s],
                                   rows[d], weight, timestamp):
                    leaf.closed = True
                    pending_groups.append(leaf.index)
                    leaf = LeafNode(len(self.leaves), config)
                    self.leaves.append(leaf)
                    # An empty leaf matrix takes any item.
                    leaf.insert(edge, source, destination, rows[s], rows[d],
                                weight, timestamp)
                count += 1
        finally:
            # Runs even when an insert raises mid-batch: account exactly
            # the items applied and aggregate every group completed so far,
            # so the tree stays consistent and query-plan caches invalidate.
            self._last_timestamp = last_ts
            self._monotonic = monotonic
            self._items_inserted += count
            if count or pending_groups:
                # +1 covers a failed item that already closed a leaf; the
                # version only needs to grow on mutation.
                self._version += count + 1
            # Groups aggregate in leaf order, so internal nodes materialize
            # in order (``_append_internal`` enforces this).
            for index in pending_groups:
                self._aggregate_if_group_complete(index)
        return count

    # ------------------------------------------------------------------ #
    # upward aggregation
    # ------------------------------------------------------------------ #

    def _aggregate_if_group_complete(self, leaf_index: int) -> None:
        """Materialize the parent of the leaf group ending at ``leaf_index``
        (and cascade upward) once all ``θ`` leaves of the group are closed."""
        fanout = self.config.fanout
        if (leaf_index + 1) % fanout != 0:
            return
        group_start = leaf_index + 1 - fanout
        group = self.leaves[group_start:leaf_index + 1]
        parent_index = leaf_index // fanout
        node = aggregate_leaves(parent_index, group, self.config)
        self._append_internal(2, parent_index, node)
        self._maybe_close_internal(2, parent_index)

    def _append_internal(self, level: int, index: int, node: InternalNode) -> None:
        slot = level - 2
        while len(self._internal) <= slot:
            self._internal.append([])
        nodes = self._internal[slot]
        if len(nodes) != index:
            raise InsertionError(
                f"internal node at level {level} materialized out of order: "
                f"expected index {len(nodes)}, got {index}")
        nodes.append(node)

    def _maybe_close_internal(self, level: int, index: int) -> None:
        """Cascade aggregation upward when a group of ``θ`` internal nodes completes."""
        fanout = self.config.fanout
        if (index + 1) % fanout != 0:
            return
        slot = level - 2
        group_start = index + 1 - fanout
        children = self._internal[slot][group_start:index + 1]
        parent_index = index // fanout
        node = aggregate_internal(parent_index, children, self.config)
        self._append_internal(level + 1, parent_index, node)
        self._maybe_close_internal(level + 1, parent_index)

    # ------------------------------------------------------------------ #
    # deletion
    # ------------------------------------------------------------------ #

    def delete_hashed(self, src_fingerprint: int, dst_fingerprint: int,
                      src_address: int, dst_address: int, weight: float,
                      timestamp: int) -> bool:
        """Subtract ``weight`` from the matching leaf item and every
        materialized ancestor aggregate, all under the same packed keys.
        Returns True if a leaf item matched."""
        fingerprint_bits = self.config.fingerprint_bits
        source = pack_vertex(src_fingerprint, src_address, fingerprint_bits)
        destination = pack_vertex(dst_fingerprint, dst_address,
                                  fingerprint_bits)
        edge = pack_edge(source, destination, vertex_bits(self.config))
        for index in self._candidate_leaf_indices(timestamp):
            if self.leaves[index].decrement(edge, timestamp, weight):
                break
        else:
            return False
        self._version += 1
        for nodes in self._internal:
            index //= self.config.fanout
            if index >= len(nodes):
                break
            nodes[index].decrement(edge, source, destination, weight)
        return True

    def _candidate_leaf_indices(self, timestamp: int) -> List[int]:
        """Leaf indices whose time range may contain ``timestamp``."""
        if not self._monotonic:
            return [i for i, leaf in enumerate(self.leaves)
                    if leaf.overlaps(timestamp, timestamp)]
        # A monotonic stream fills leaves in time order, so their ``t_min``
        # values are sorted.
        starts = [timestamp if leaf.t_min is None else leaf.t_min
                  for leaf in self.leaves]
        index = bisect.bisect_right(starts, timestamp) - 1
        candidates = []
        while index >= 0 and self.leaves[index].overlaps(timestamp, timestamp):
            candidates.append(index)
            index -= 1
        return candidates

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Analytic footprint of all layers, keys and pointers."""
        total = sum(leaf.memory_bytes(self.config) for leaf in self.leaves)
        for nodes in self._internal:
            total += sum(node.memory_bytes(self.config) for node in nodes)
        return total

    def stats(self) -> Dict[str, object]:
        """Structural statistics used by benchmarks and debugging."""
        leaf_entries = sum(leaf.entry_count() for leaf in self.leaves)
        leaf_capacity = sum(leaf.capacity() for leaf in self.leaves)
        overflow_blocks = sum(leaf.overflow_blocks for leaf in self.leaves)
        return {
            "leaf_count": self.leaf_count,
            "height": self.height,
            "items_inserted": self._items_inserted,
            "leaf_entries": leaf_entries,
            "leaf_utilization": (leaf_entries / leaf_capacity) if leaf_capacity else 0.0,
            "overflow_blocks": overflow_blocks,
            "internal_nodes": sum(len(nodes) for nodes in self._internal),
            "memory_bytes": self.memory_bytes(),
            "monotonic": self._monotonic,
        }
