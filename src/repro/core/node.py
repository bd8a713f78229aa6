"""Tree nodes of the HIGGS hierarchy.

The HIGGS structure is an aggregated B-tree (paper Section IV-A): all leaves
sit on the bottom layer and hold the timestamped items of the stream;
non-leaf nodes hold timestamp keys separating their children plus the exact
aggregate (no timestamps) of the whole subtree.  Both keep their answers in
maps over the packed integer keys below, and a vertex packs to the same
integer at every layer, so one key answers a query or a delete from leaf to
root.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .config import HiggsConfig

# -- packed keys --------------------------------------------------------------
#
# Each helper works on Python ints and on numpy integer arrays alike.

#: An item key stores its timestamp biased by ``2 ** 63`` in its low 64 bits.
_TIME_BIAS = 1 << 63
_TIME_MASK = (1 << 64) - 1


def vertex_bits(config: HiggsConfig) -> int:
    """Width of a packed vertex key: ``log2(d1) + F1`` at every layer."""
    return config.leaf_matrix_size.bit_length() - 1 + config.fingerprint_bits


def pack_vertex(fingerprint, address, fingerprint_bits: int):
    """A vertex's packed key, ``address << fingerprint_bits | fingerprint``,
    from its coordinates at a layer whose fingerprints have
    ``fingerprint_bits`` bits.

    A lift moves the fingerprint's top bits to the bottom of the address,
    so a vertex packs to the same value, below ``2 ** vertex_bits``, at
    every layer.
    """
    return (address << fingerprint_bits) | fingerprint


def unpack_vertex(vertex, fingerprint_bits: int):
    """``(fingerprint, address)`` of a packed vertex key."""
    return vertex & ((1 << fingerprint_bits) - 1), vertex >> fingerprint_bits


def pack_edge(source, destination, vertex_bits: int):
    """An edge's packed key from its endpoints' packed vertex keys."""
    return (source << vertex_bits) | destination


def unpack_edge(key, vertex_bits: int):
    """``(source, destination)`` packed vertex keys of a packed edge key."""
    return key >> vertex_bits, key & ((1 << vertex_bits) - 1)


def pack_item(edge: int, timestamp: int) -> int:
    """A leaf item's key: its packed edge above its biased timestamp, so
    ``key >> 64`` is the edge.

    Distinct ``(edge, timestamp)`` pairs get distinct keys only while the
    timestamp lies in the ``int64`` range.
    """
    return (edge << 64) | (timestamp + _TIME_BIAS)


class LeafNode:
    """A leaf of the HIGGS tree: the items of one stretch of the stream.

    In the paper a leaf is a ``d1 × d1`` compressed matrix filled by
    Algorithm 1, plus overflow blocks (Section IV-C) that absorb items
    overflowing the matrix while carrying the leaf's latest timestamp, so
    the parent's timestamp keys stay discriminative.  Every item, a
    distinct (edge, timestamp) pair, lands in exactly one entry with its
    summed weight, so the leaf keeps the answers in exact maps and keeps of
    each matrix only what decides when the leaf refuses an item: which
    bucket each key took.

    * ``placements`` / ``occupancy`` — one per block, block 0 being the
      leaf matrix and the overflow blocks following in creation order:
      item key → bucket (``row * d1 + column``), in placement order, and
      bucket → number of keys placed in it;
    * ``weights`` — item key → summed weight;
    * ``edges`` / ``sources`` / ``destinations`` — packed edge / source /
      destination vertex → tuple of its item keys, in arrival order.

    Keys are packed by :func:`pack_vertex`, :func:`pack_edge` and
    :func:`pack_item`.  An item key is unique only for ``int64``
    timestamps: both insert paths reject others, and a delete outside the
    range finds no candidate leaf, but a direct :meth:`decrement` at
    ``2 ** 63`` would hit the key of ``(edge + 1, -2 ** 63)``.  The maps
    hold only ints, floats and tuples of ints, so after a full collection
    the cyclic garbage collector tracks none of them.
    """

    __slots__ = ("index", "config", "closed", "t_min", "t_max", "placements",
                 "occupancy", "weights", "edges", "sources", "destinations")

    def __init__(self, index: int, config: HiggsConfig) -> None:
        self.index = index
        self.config = config
        self.closed = False
        #: Earliest / latest timestamp stored; ``None`` while empty.
        self.t_min: Optional[int] = None
        self.t_max: Optional[int] = None
        self.placements: List[Dict[int, int]] = [{}]
        self.occupancy: List[Dict[int, int]] = [{}]
        self.weights: Dict[int, float] = {}
        self.edges: Dict[int, Tuple[int, ...]] = {}
        self.sources: Dict[int, Tuple[int, ...]] = {}
        self.destinations: Dict[int, Tuple[int, ...]] = {}

    # -- Algorithm 1 ----------------------------------------------------------

    # hot-path
    def insert(self, edge: int, source: int, destination: int,
               src_rows: Sequence[int], dst_cols: Sequence[int],
               weight: float, timestamp: int) -> bool:
        """Insert (or accumulate) one item; False when the leaf refuses it.

        ``src_rows`` / ``dst_cols`` are the endpoints' ``r`` candidate
        addresses at the leaf dimension, in probe order.  A key the leaf
        matrix holds accumulates; otherwise the matrix takes it by first
        fit.  Failing that, and only when overflow blocks are enabled and
        the timestamp equals ``t_max``, the block holding the key
        accumulates it, or the first block with room takes it, or a new
        block opens.  Otherwise the leaf refuses the item (so does a key an
        overflow block holds that re-arrives after ``t_max`` moved on) and
        the tree closes the leaf.
        """
        key = pack_item(edge, timestamp)
        weights = self.weights
        if key in self.placements[0]:
            weights[key] += weight
            return True
        config = self.config
        if not self._fit(0, config.bucket_entries, key, src_rows, dst_cols):
            if not (config.enable_overflow_blocks and timestamp == self.t_max):
                return False
            if key in weights:
                weights[key] += weight
                return True
            capacity = config.overflow_block_entries
            for block in range(1, len(self.placements)):
                if self._fit(block, capacity, key, src_rows, dst_cols):
                    break
            else:
                self.placements.append({})
                self.occupancy.append({})
                self._fit(len(self.placements) - 1, capacity, key,
                          src_rows, dst_cols)
        weights[key] = weight
        self.edges[edge] = self.edges.get(edge, ()) + (key,)
        self.sources[source] = self.sources.get(source, ()) + (key,)
        self.destinations[destination] = \
            self.destinations.get(destination, ()) + (key,)
        if self.t_min is None or timestamp < self.t_min:
            self.t_min = timestamp
        if self.t_max is None or timestamp > self.t_max:
            self.t_max = timestamp
        return True

    # hot-path
    def _fit(self, block: int, capacity: int, key: int,
             src_rows: Sequence[int], dst_cols: Sequence[int]) -> bool:
        """Place ``key`` in the first of its ``r²`` candidate buckets of
        ``block``, in probe-scan order, that holds fewer than ``capacity``
        keys; False when all are full."""
        occupancy = self.occupancy[block]
        size = self.config.leaf_matrix_size
        for row in src_rows:
            base = row * size
            for col in dst_cols:
                cell = base + col
                used = occupancy.get(cell, 0)
                if used < capacity:
                    occupancy[cell] = used + 1
                    self.placements[block][key] = cell
                    return True
        return False

    def decrement(self, edge: int, timestamp: int, weight: float) -> bool:
        """Subtract ``weight`` from one item (deletion support).

        Returns False, changing nothing, when the leaf holds no such item.
        """
        key = pack_item(edge, timestamp)
        if key not in self.weights:
            return False
        self.weights[key] -= weight
        return True

    # -- queries --------------------------------------------------------------

    def query_edge(self, edge: int, t_start: int, t_end: int) -> float:
        """Weight of one edge's items with a timestamp in ``[t_start, t_end]``."""
        return self._sum(self.edges.get(edge, ()), t_start, t_end)

    def query_vertex(self, vertex: int, t_start: int, t_end: int, *,
                     direction: str = "out") -> float:
        """Weight of a vertex's outgoing (``out``) or incoming (``in``)
        items with a timestamp in ``[t_start, t_end]``."""
        index = self.sources if direction == "out" else self.destinations
        return self._sum(index.get(vertex, ()), t_start, t_end)

    def _sum(self, keys: Tuple[int, ...], t_start: int, t_end: int) -> float:
        low, high = t_start + _TIME_BIAS, t_end + _TIME_BIAS
        return sum((self.weights[key] for key in keys
                    if low <= key & _TIME_MASK <= high), 0.0)

    # -- time range -------------------------------------------------------

    def overlaps(self, t_start: int, t_end: int) -> bool:
        """True if the leaf stores any item whose timestamp may fall in range."""
        if self.t_min is None or self.t_max is None:
            return False
        return not (self.t_max < t_start or self.t_min > t_end)

    # -- accounting ---------------------------------------------------------

    @property
    def overflow_blocks(self) -> int:
        """Number of overflow blocks chained to the leaf matrix."""
        return len(self.placements) - 1

    def entry_count(self) -> int:
        """Number of occupied entries across the leaf matrix and overflow blocks."""
        return len(self.weights)

    def capacity(self) -> int:
        """Entry slots of the leaf matrix and its overflow blocks."""
        config = self.config
        return config.leaf_matrix_size ** 2 * (
            config.bucket_entries
            + self.overflow_blocks * config.overflow_block_entries)

    def memory_bytes(self, config: HiggsConfig) -> int:
        """Analytic footprint: fully allocated ``d1² · b`` matrix and
        ``d1² · b_o`` overflow blocks, plus one parent pointer."""
        return self.capacity() * config.leaf_entry_bytes() + config.pointer_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"LeafNode(index={self.index}, entries={self.entry_count()}, "
                f"overflow_blocks={self.overflow_blocks}, closed={self.closed})")


class InternalNode:
    """A non-leaf node: the exact aggregate of its ``θ`` children.

    ``level`` is 2 for parents of leaves, 3 for their parents, and so on
    (the leaf layer is level 1).  The node is materialized only once all of
    its children are closed.  In the paper it holds a compressed matrix
    built by the bit-shift aggregation of Algorithm 2, and entries whose
    candidate buckets are all full spill into an exact overflow map.  That
    aggregation adds no error: every lifted key is stored exactly once, in
    the matrix or in the spill map, with the summed weight of its child
    entries.  So the node keeps those answers directly, in three exact maps
    over packed integer keys (:mod:`repro.core.aggregation` builds them):

    * ``weights`` — edge key → summed weight, in the order the node hands
      its keys to its parent: the first ``placed`` keys are the ones
      Algorithm 2 puts in the matrix (grouped by bucket in order of the
      bucket's first use, in placement order within a bucket), the rest
      spilled (in spill order);
    * ``out_weights`` / ``in_weights`` — source / destination vertex key →
      summed weight of its edges.

    The maps hold only ints and floats, so they add no object the cyclic
    garbage collector tracks.
    """

    __slots__ = ("level", "index", "keys", "t_min", "t_max", "weights",
                 "placed", "out_weights", "in_weights")

    def __init__(self, level: int, index: int, keys: List[int], t_min: int,
                 t_max: int) -> None:
        self.level = level
        self.index = index
        #: Timestamp keys separating the children (paper: k-1 keys for k children).
        self.keys = keys
        self.t_min = t_min
        self.t_max = t_max
        self.weights: Dict[int, float] = {}
        #: How many leading keys of ``weights`` the aggregated matrix holds.
        self.placed = 0
        self.out_weights: Dict[int, float] = {}
        self.in_weights: Dict[int, float] = {}

    def covered_by(self, t_start: int, t_end: int) -> bool:
        """True if the node's entire time span lies inside ``[t_start, t_end]``."""
        return t_start <= self.t_min and self.t_max <= t_end

    def overlaps(self, t_start: int, t_end: int) -> bool:
        """True if the node's time span intersects ``[t_start, t_end]``."""
        return not (self.t_max < t_start or self.t_min > t_end)

    # -- queries on the aggregated data ------------------------------------

    def query_edge(self, edge: int) -> float:
        """Aggregated weight of one edge over this node's whole subtree."""
        return self.weights.get(edge, 0.0)

    def query_vertex(self, vertex: int, *, direction: str = "out") -> float:
        """Aggregated weight of a vertex's incident edges over the subtree."""
        weights = self.out_weights if direction == "out" else self.in_weights
        return weights.get(vertex, 0.0)

    def decrement(self, edge: int, source: int, destination: int,
                  weight: float) -> bool:
        """Subtract weight from the aggregated view (deletion support).

        ``source`` and ``destination`` are the endpoints packed in ``edge``.
        Returns False, changing nothing, when the node holds no such key.
        """
        if edge not in self.weights:
            return False
        self.weights[edge] -= weight
        self.out_weights[source] -= weight
        self.in_weights[destination] -= weight
        return True

    # -- accounting ---------------------------------------------------------

    @property
    def spilled(self) -> int:
        """Number of keys the aggregated matrix could not place."""
        return len(self.weights) - self.placed

    def memory_bytes(self, config: HiggsConfig) -> int:
        """Analytic footprint: the fully allocated ``d² · b`` aggregated
        matrix, the spilled entries, keys and child pointers."""
        size = config.matrix_size_at(self.level)
        entry_bytes = config.internal_entry_bytes(self.level)
        matrix_bytes = size * size * config.bucket_entries * entry_bytes
        overflow_bytes = self.spilled * (entry_bytes + 2)
        key_bytes = len(self.keys) * config.key_bytes
        pointer_bytes = config.fanout * config.pointer_bytes
        return matrix_bytes + overflow_bytes + key_bytes + pointer_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"InternalNode(level={self.level}, index={self.index}, "
                f"placed={self.placed}, spilled={self.spilled}, "
                f"range=[{self.t_min}, {self.t_max}])")
