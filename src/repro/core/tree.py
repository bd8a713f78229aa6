"""The HIGGS tree — an append-only, bottom-up aggregated B-tree.

This module implements the paper's central data structure.  Leaves hold the
timestamped items of the arriving stream (Algorithm 1); whenever a group of
``θ`` consecutive nodes at one layer is complete, an aggregated parent node
is materialized one layer up (Algorithm 2).  The tree operates on *packed*
vertex keys throughout (:mod:`repro.core.node`): the public
:class:`~repro.core.higgs.Higgs` class owns the vertex hasher and hands
the tree each vertex's packed key and probe rows, so the tree never hashes
or packs a vertex and its structural code is independent of vertex
identifier types.

Timestamps are expected to be non-decreasing across inserts (the natural
order of a stream replay).  Out-of-order inserts are still stored correctly —
every leaf tracks its exact time range — but the structure notes the
violation and the range decomposition then relies only on per-node ranges,
never on positional assumptions.

Insertion
---------
Every insert path of :class:`~repro.core.higgs.Higgs`, per-item and batch,
hands :meth:`HiggsTree.insert_packed` each distinct vertex's packed key
and probe rows (a batch's from the summary's vertex memo).  It runs one
loop: the open leaf takes items in one :meth:`LeafNode.fill` call per run,
until it refuses one and a new leaf opens, and the loop *defers the upward
aggregation* of leaf groups that complete mid-loop to its end.  Deferral is
sound because a completed group's leaves are closed — no later item can
change them — so aggregating at the end builds byte-identical internal
nodes.  Aggregation builds a node's exact maps only; Algorithm 2's
simulated bucket placement, which decides no answer, runs when
:meth:`HiggsTree.memory_bytes` or :meth:`HiggsTree.stats` first needs it
(:func:`~repro.core.aggregation.place_levels`), so the first such call
after a large ingest pays for it.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InsertionError
from .aggregation import aggregate_internal, aggregate_leaves, place_levels
from .config import HiggsConfig
from .node import InternalNode, LeafNode, pack_edge, vertex_bits

_T_MIN = attrgetter("t_min")
_T_MAX = attrgetter("t_max")


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

    def insert_packed(self, vertices: Sequence[Tuple[int, Sequence[int]]],
                      src_idx: List[int], dst_idx: List[int],
                      weights: List[float], timestamps: List[int]) -> int:
        """The insert loop of every insert path; returns the number of
        items inserted.

        ``vertices`` holds each distinct vertex's packed key and leaf-level
        probe addresses; ``src_idx`` / ``dst_idx`` index it per item.  The
        open leaf takes items (:meth:`LeafNode.fill`) until it refuses one;
        then it is closed and a new leaf takes the rest.  The upward
        aggregation of leaf groups completed in the loop is deferred to its
        end: a completed group's leaves are closed, so no later item can
        change them, and aggregating at the end builds byte-identical
        internal nodes.
        """
        end = len(src_idx)
        if not end:
            return 0
        config = self.config
        leaves = self.leaves
        if not leaves:
            leaves.append(LeafNode(0, config))
        leaf = leaves[-1]
        pending_groups: List[int] = []
        # The open leaf's run starts at ``start``, with ``arrivals`` items.
        start, arrivals = 0, leaf.arrivals
        try:
            while True:
                stop = leaf.fill(vertices, src_idx, dst_idx, weights,
                                 timestamps, start)
                if stop == end:
                    break
                leaf.closed = True
                pending_groups.append(leaf.index)
                # An empty leaf matrix takes any item.
                leaf, start, arrivals = LeafNode(len(leaves), config), stop, 0
                leaves.append(leaf)
        finally:
            # Runs even when an item raises mid-batch: account exactly the
            # items applied and aggregate every group completed so far, so
            # the tree stays consistent.
            count = start + leaf.arrivals - arrivals
            self._note_timestamps(timestamps[:count])
            self._items_inserted += count
            # Groups aggregate in leaf order, so internal nodes materialize
            # in order (``_append_internal`` enforces this).
            for index in pending_groups:
                self._aggregate_if_group_complete(index)
        return count

    def _note_timestamps(self, applied: List[int]) -> None:
        """Track the latest timestamp and whether every applied item came
        in timestamp order."""
        if not applied:
            return
        last = self._last_timestamp
        if self._monotonic and ((last is not None and applied[0] < last)
                                or applied != sorted(applied)):
            self._monotonic = False
        latest = max(applied)
        if last is None or latest > last:
            self._last_timestamp = latest

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

    def delete_packed(self, source: int, destination: int, weight: float,
                      timestamp: int) -> bool:
        """Subtract ``weight`` from the item of the packed vertex keys'
        edge at ``timestamp``, in the matching leaf and every materialized
        ancestor.  Returns True if a leaf item matched."""
        edge = pack_edge(source, destination, vertex_bits(self.config))
        for index in self._candidate_leaf_indices(timestamp):
            if self.leaves[index].decrement(edge, timestamp, weight):
                break
        else:
            return False
        for nodes in self._internal:
            index //= self.config.fanout
            if index >= len(nodes):
                break
            nodes[index].decrement(edge, source, destination, weight)
        return True

    def _candidate_leaf_indices(self, timestamp: int) -> Sequence[int]:
        """Leaf indices whose time range contains ``timestamp``, latest
        first on a monotonic tree and earliest first otherwise."""
        first, stop = self.leaf_span(timestamp, timestamp)
        if self._monotonic:
            return range(stop - 1, first - 1, -1)
        return [i for i in range(first, stop)
                if self.leaves[i].overlaps(timestamp, timestamp)]

    def leaf_span(self, t_start: int, t_end: int) -> Tuple[int, int]:
        """``(first, stop)``: every leaf overlapping ``[t_start, t_end]``
        has an index in ``range(first, stop)``.

        A monotonic stream fills leaves in time order, so their ``t_min``
        and ``t_max`` are both sorted, and the span is bisected: ``first``
        is the first leaf with ``t_max >= t_start`` and ``stop`` the first
        with ``t_min > t_end``, and every leaf between overlaps.  Only the
        open leaf can be empty, and it is left out.  Any other tree spans
        every leaf.
        """
        leaves = self.leaves
        count = len(leaves)
        if not self._monotonic:
            return 0, count
        if count and leaves[-1].t_min is None:
            count -= 1
        first = bisect.bisect_left(leaves, t_start, 0, count, key=_T_MAX)
        return first, bisect.bisect_right(leaves, t_end, first, count,
                                          key=_T_MIN)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Analytic footprint of all layers, keys and pointers.

        Places every internal node not placed yet first, bottom-up; a node
        keeps its placement, so later calls pay only for new nodes.
        """
        place_levels(self._internal, self.config)
        total = sum(leaf.memory_bytes(self.config) for leaf in self.leaves)
        for nodes in self._internal:
            total += sum(node.memory_bytes(self.config) for node in nodes)
        return total

    def stats(self) -> Dict[str, object]:
        """Structural statistics used by benchmarks and debugging; places
        internal nodes through :meth:`memory_bytes`."""
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
