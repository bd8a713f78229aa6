"""The HIGGS tree — an append-only, bottom-up aggregated B-tree of matrices.

This module implements the paper's central data structure.  Leaves hold
timestamped compressed matrices built directly from the arriving stream;
whenever a group of ``θ`` consecutive nodes at one layer is complete, an
aggregated parent node is materialized one layer up (Algorithm 1 + 2).  The
tree operates on *hashed* items throughout: the public
:class:`~repro.core.higgs.Higgs` class owns the vertex hasher and passes
fingerprint/address pairs down, which keeps the structural code independent
of vertex identifier types.

Timestamps are expected to be non-decreasing across inserts (the natural
order of a stream replay).  Out-of-order inserts are still stored correctly —
every leaf tracks its exact time range — but the structure notes the
violation and the range decomposition then relies only on per-node ranges,
never on positional assumptions.

Batch insertion
---------------
:meth:`HiggsTree.insert_hashed_batch` is the bulk counterpart of
:meth:`HiggsTree.insert_hashed`: it applies a pre-hashed batch in one tight
loop and *defers the upward aggregation* of leaf groups that complete
mid-batch to the end of the batch.  Deferral is sound because a completed
group's leaves are closed — no later item of the batch can change them — so
aggregating at batch end builds byte-identical internal nodes.  The tree also
carries a monotonically increasing :attr:`version`, bumped by every mutation,
which query-plan caches use as their invalidation key.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import InsertionError
from . import vectorized
from .aggregation import aggregate_internal, aggregate_leaves, lift_coordinates
from .config import HiggsConfig
from .matrix import CompressedMatrix, MatrixEntry
from .node import InternalNode, LeafNode


class HiggsTree:
    """Container managing the leaf layer and all aggregated layers."""

    def __init__(self, config: HiggsConfig) -> None:
        self.config = config
        self.leaves: List[LeafNode] = []
        #: ``self._internal[k]`` holds the nodes of tree layer ``k + 2``.
        self._internal: List[List[InternalNode]] = []
        #: First timestamp inserted into each leaf (for delete-time lookup).
        self._leaf_first_ts: List[Optional[int]] = []
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

    def _current_leaf(self) -> LeafNode:
        if not self.leaves:
            self._open_leaf()
        return self.leaves[-1]

    def _open_leaf(self) -> LeafNode:
        leaf = LeafNode(len(self.leaves), self.config)
        self.leaves.append(leaf)
        self._leaf_first_ts.append(None)
        return leaf

    def insert_hashed(self, src_fingerprint: int, dst_fingerprint: int,
                      src_address: int, dst_address: int, weight: float,
                      timestamp: int) -> None:
        """Insert one hashed stream item, opening new leaves / overflow blocks
        and triggering upward aggregation as needed (Algorithm 1)."""
        self._version += 1
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            self._monotonic = False
        self._last_timestamp = (timestamp if self._last_timestamp is None
                                else max(self._last_timestamp, timestamp))

        leaf = self._current_leaf()
        if leaf.matrix.insert(src_fingerprint, dst_fingerprint,
                              src_address, dst_address, weight, timestamp):
            self._note_insert(leaf, timestamp)
            return

        if (self.config.enable_overflow_blocks
                and leaf.t_max is not None and timestamp == leaf.t_max):
            self._insert_into_overflow(leaf, src_fingerprint, dst_fingerprint,
                                       src_address, dst_address, weight, timestamp)
            self._note_insert(leaf, timestamp)
            return

        self._close_leaf(leaf)
        new_leaf = self._open_leaf()
        if not new_leaf.matrix.insert(src_fingerprint, dst_fingerprint,
                                      src_address, dst_address, weight, timestamp):
            raise InsertionError("insertion into a freshly opened leaf matrix failed; "
                                 "this indicates an invalid configuration")
        self._note_insert(new_leaf, timestamp)

    def _note_insert(self, leaf: LeafNode, timestamp: int) -> None:
        if self._leaf_first_ts[leaf.index] is None:
            self._leaf_first_ts[leaf.index] = timestamp
        self._items_inserted += 1

    def insert_hashed_batch(self, items: Iterable[Tuple[int, int,
                                                        Sequence[int],
                                                        Sequence[int],
                                                        float, int]]) -> int:
        """Insert a batch of pre-hashed items with precomputed probe rows.

        Each item is ``(f(s), f(d), src_probe_rows, dst_probe_rows, w, t)``
        where the probe rows come from
        :meth:`~repro.core.matrix.CompressedMatrix.probe_rows` at the leaf
        dimension (overflow blocks and fresh leaves share that dimension, so
        one sequence per vertex serves the whole batch; reusing one tuple
        per distinct vertex maximizes the placement memo's hit rate, but
        fresh tuples per item are also safe).  Applies
        the same per-item logic as :meth:`insert_hashed` but defers the
        upward aggregation of leaf groups completed during the batch to the
        end, so the leaf-insert loop runs without interleaved aggregation
        work.  The final structure is identical to per-item insertion.
        Returns the number of items inserted.
        """
        config = self.config
        enable_overflow = config.enable_overflow_blocks
        last_ts = self._last_timestamp
        monotonic = self._monotonic
        pending_groups: List[int] = []
        leaf = self._current_leaf()
        matrix_insert = leaf.matrix.insert_probed
        leaf_first_ts = self._leaf_first_ts
        # Placement memo for the *current leaf matrix*: item key → the
        # MatrixEntry holding it.  A repeated key accumulates directly into
        # its entry — bit-identical to the scan, which would find exactly
        # that entry (a matrix holds at most one entry per key).  Probe-row
        # tuples are identified by ``id``; ``memo_alive`` pins every
        # memoized tuple so its id cannot be recycled while the memo lives,
        # which makes id-keying safe even for callers that build fresh
        # tuples per item (distinct live objects always have distinct ids).
        # The memo dies with the leaf: overflow-block placements are never
        # memoized (a later identical item may close the leaf instead once
        # ``t_max`` advances).
        entry_memo: Dict[Tuple[int, int, int], object] = {}
        memo_get = entry_memo.get
        memo_alive: List[object] = []
        leaf_has_first = leaf_first_ts[leaf.index] is not None
        count = 0
        try:
            for fs, fd, src_rows, dst_cols, weight, timestamp in items:
                if last_ts is None:
                    last_ts = timestamp
                elif timestamp < last_ts:
                    monotonic = False
                elif timestamp > last_ts:
                    last_ts = timestamp
                key = (id(src_rows), id(dst_cols), timestamp)
                entry = memo_get(key)
                if entry is not None:
                    entry.weight += weight
                    count += 1
                    continue
                entry = matrix_insert(fs, fd, src_rows, dst_cols,
                                      weight, timestamp)
                if entry is not None:
                    entry_memo[key] = entry
                    memo_alive.append(src_rows)
                    memo_alive.append(dst_cols)
                    if not leaf_has_first:
                        leaf_first_ts[leaf.index] = timestamp
                        leaf_has_first = True
                    count += 1
                    continue
                if (enable_overflow
                        and leaf.t_max is not None and timestamp == leaf.t_max):
                    self._insert_into_overflow_probed(leaf, fs, fd, src_rows,
                                                      dst_cols, weight,
                                                      timestamp)
                    count += 1
                    continue
                leaf.closed = True
                pending_groups.append(leaf.index)
                leaf = self._open_leaf()
                leaf_first_ts = self._leaf_first_ts
                matrix_insert = leaf.matrix.insert_probed
                entry_memo.clear()
                memo_get = entry_memo.get
                memo_alive.clear()
                entry = matrix_insert(fs, fd, src_rows, dst_cols,
                                      weight, timestamp)
                if entry is None:
                    raise InsertionError(
                        "insertion into a freshly opened leaf matrix failed; "
                        "this indicates an invalid configuration")
                entry_memo[key] = entry
                memo_alive.append(src_rows)
                memo_alive.append(dst_cols)
                leaf_first_ts[leaf.index] = timestamp
                leaf_has_first = True
                count += 1
        finally:
            # Runs even when `items` (a caller's generator) or an insert
            # raises mid-batch: account exactly the items applied and
            # aggregate every group completed so far, so the tree stays
            # consistent and query-plan caches invalidate.
            self._last_timestamp = last_ts
            self._monotonic = monotonic
            self._items_inserted += count
            if count or pending_groups:
                # +1 covers a failed item that already mutated the structure
                # (closed a leaf) before raising; version only needs to grow
                # on mutation, not match the per-item count.
                self._version += count + 1
            # Deferred upward aggregation: closed-leaf groups are aggregated
            # in leaf order so internal nodes materialize in the same order
            # as the per-item path (``_append_internal`` enforces this).
            for index in pending_groups:
                self._aggregate_if_group_complete(index)
        return count

    # hot-path
    def insert_hashed_batch_arrays(self, fingerprints, addresses,
                                   src_idx, dst_idx,
                                   weights, timestamps) -> int:
        """Array front-end of :meth:`insert_hashed_batch`.

        ``fingerprints`` / ``addresses`` are per-*distinct-vertex* ``int64``
        arrays (the caller hashed the batch's distinct vertices in one
        vectorized pass, see :meth:`Higgs._hash_indexed`); ``src_idx`` /
        ``dst_idx`` map each batch item to its endpoints' rows.  The
        leaf-level probe sequences are computed vectorized, once per
        distinct vertex, and one probe tuple is shared by every item
        touching a vertex, which maximizes the placement memo's hit rate
        downstream.  The prepared items then flow through the sequential
        batch loop, whose placement memo, overflow handling, exception
        contract and accounting make the result bit-identical to per-item
        insertion.
        """
        config = self.config
        rows = [tuple(row) for row in vectorized.probe_rows_array(
            fingerprints, addresses, config.num_probes,
            config.leaf_matrix_size).tolist()]
        fps = fingerprints.tolist()
        return self.insert_hashed_batch(
            [(fps[s], fps[d], rows[s], rows[d], weight, ts)
             for s, d, weight, ts in zip(
                 src_idx.tolist(), dst_idx.tolist(),
                 weights.tolist(), timestamps.tolist())])

    def _insert_into_overflow(self, leaf: LeafNode, src_fingerprint: int,
                              dst_fingerprint: int, src_address: int,
                              dst_address: int, weight: float,
                              timestamp: int) -> None:
        """Place an item into the leaf's overflow-block chain, growing it if needed."""
        for block in leaf.overflow_blocks:
            if block.insert(src_fingerprint, dst_fingerprint,
                            src_address, dst_address, weight, timestamp):
                return
        # Overflow blocks share the leaf matrix dimension so their entries'
        # canonical addresses lift to parent levels exactly like leaf entries;
        # the smaller per-bucket capacity keeps each block lightweight.
        block = CompressedMatrix(
            self.config.leaf_matrix_size, self.config.overflow_block_entries,
            num_probes=self.config.num_probes, store_timestamps=True,
            entry_bytes=self.config.leaf_entry_bytes())
        leaf.overflow_blocks.append(block)
        if not block.insert(src_fingerprint, dst_fingerprint,
                            src_address, dst_address, weight, timestamp):
            raise InsertionError("insertion into a fresh overflow block failed")

    def _insert_into_overflow_probed(self, leaf: LeafNode, src_fingerprint: int,
                                     dst_fingerprint: int,
                                     src_rows: Sequence[int],
                                     dst_cols: Sequence[int], weight: float,
                                     timestamp: int) -> None:
        """Probed-path twin of :meth:`_insert_into_overflow` (overflow blocks
        share the leaf matrix dimension, so the probe rows carry over)."""
        for block in leaf.overflow_blocks:
            if block.insert_probed(src_fingerprint, dst_fingerprint,
                                   src_rows, dst_cols, weight, timestamp):
                return
        block = CompressedMatrix(
            self.config.leaf_matrix_size, self.config.overflow_block_entries,
            num_probes=self.config.num_probes, store_timestamps=True,
            entry_bytes=self.config.leaf_entry_bytes())
        leaf.overflow_blocks.append(block)
        if not block.insert_probed(src_fingerprint, dst_fingerprint,
                                   src_rows, dst_cols, weight, timestamp):
            raise InsertionError("insertion into a fresh overflow block failed")

    # ------------------------------------------------------------------ #
    # leaf closing and upward aggregation
    # ------------------------------------------------------------------ #

    def _close_leaf(self, leaf: LeafNode) -> None:
        leaf.closed = True
        self._aggregate_if_group_complete(leaf.index)

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
        """Subtract ``weight`` from the matching leaf entry and every
        materialized ancestor aggregate.  Returns True if a leaf entry matched."""
        leaf = self._find_leaf_for_delete(src_fingerprint, dst_fingerprint,
                                          src_address, dst_address, weight,
                                          timestamp)
        if leaf is None:
            return False
        self._version += 1
        self._decrement_ancestors(leaf.index, src_fingerprint, dst_fingerprint,
                                  src_address, dst_address, weight)
        return True

    def _candidate_leaf_indices(self, timestamp: int) -> List[int]:
        """Leaf indices whose time range may contain ``timestamp``."""
        n = len(self.leaves)
        if n == 0:
            return []
        if not self._monotonic:
            return [i for i, leaf in enumerate(self.leaves)
                    if leaf.overlaps(timestamp, timestamp)]
        starts = [ts if ts is not None else timestamp for ts in self._leaf_first_ts]
        hi = bisect.bisect_right(starts, timestamp)
        candidates = []
        index = hi - 1
        while index >= 0:
            leaf = self.leaves[index]
            if leaf.t_max is not None and leaf.t_max < timestamp:
                break
            candidates.append(index)
            index -= 1
        return candidates

    def _find_leaf_for_delete(self, src_fingerprint: int, dst_fingerprint: int,
                              src_address: int, dst_address: int, weight: float,
                              timestamp: int) -> Optional[LeafNode]:
        for index in self._candidate_leaf_indices(timestamp):
            leaf = self.leaves[index]
            for matrix in leaf.matrices():
                if matrix.decrement(src_fingerprint, dst_fingerprint,
                                    src_address, dst_address, weight, timestamp):
                    return leaf
        return None

    def _decrement_ancestors(self, leaf_index: int, src_fingerprint: int,
                             dst_fingerprint: int, src_address: int,
                             dst_address: int, weight: float) -> None:
        fanout = self.config.fanout
        group = leaf_index
        for slot, nodes in enumerate(self._internal):
            level = slot + 2
            group //= fanout
            if group >= len(nodes):
                break
            node = nodes[group]
            lifted_fs, lifted_hs = lift_coordinates(src_fingerprint, src_address,
                                                    1, level, self.config)
            lifted_fd, lifted_hd = lift_coordinates(dst_fingerprint, dst_address,
                                                    1, level, self.config)
            node.decrement(lifted_fs, lifted_fd, lifted_hs, lifted_hd, weight)

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
        leaf_capacity = sum(
            sum(m.capacity for m in leaf.matrices()) for leaf in self.leaves)
        overflow_blocks = sum(len(leaf.overflow_blocks) for leaf in self.leaves)
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
