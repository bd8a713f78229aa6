"""Tree nodes of the HIGGS hierarchy.

The HIGGS structure is an aggregated B-tree (paper Section IV-A): all leaves
sit on the bottom layer and hold timestamped compressed matrices built
directly from the stream; non-leaf nodes hold timestamp keys separating their
children plus the exact aggregate (no timestamps) of the whole subtree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .config import HiggsConfig
from .matrix import CompressedMatrix


class LeafNode:
    """A leaf of the HIGGS tree: one timestamped compressed matrix plus any
    overflow blocks chained to it.

    Overflow blocks (paper Section IV-C) absorb edges that overflow the leaf
    matrix while carrying the same timestamp as the leaf's latest item, so the
    parent's timestamp keys stay discriminative.
    """

    __slots__ = ("index", "matrix", "overflow_blocks", "closed")

    def __init__(self, index: int, config: HiggsConfig) -> None:
        self.index = index
        self.matrix = CompressedMatrix(
            config.leaf_matrix_size, config.bucket_entries,
            num_probes=config.num_probes, store_timestamps=True,
            entry_bytes=config.leaf_entry_bytes())
        self.overflow_blocks: List[CompressedMatrix] = []
        self.closed = False

    # -- time range -------------------------------------------------------

    @property
    def t_min(self) -> Optional[int]:
        """Earliest timestamp stored in this leaf (matrix or overflow blocks)."""
        candidates = [m.start_time for m in self._all_matrices()
                      if m.start_time is not None]
        return min(candidates) if candidates else None

    @property
    def t_max(self) -> Optional[int]:
        """Latest timestamp stored in this leaf."""
        candidates = [m.end_time for m in self._all_matrices()
                      if m.end_time is not None]
        return max(candidates) if candidates else None

    def _all_matrices(self) -> List[CompressedMatrix]:
        return [self.matrix, *self.overflow_blocks]

    def matrices(self) -> List[CompressedMatrix]:
        """The leaf matrix followed by its overflow blocks, in creation order."""
        return self._all_matrices()

    def overlaps(self, t_start: int, t_end: int) -> bool:
        """True if the leaf stores any item whose timestamp may fall in range."""
        t_min, t_max = self.t_min, self.t_max
        if t_min is None or t_max is None:
            return False
        return not (t_max < t_start or t_min > t_end)

    # -- accounting ---------------------------------------------------------

    def entry_count(self) -> int:
        """Number of occupied entries across the leaf matrix and overflow blocks."""
        return sum(m.entry_count for m in self._all_matrices())

    def memory_bytes(self, config: HiggsConfig) -> int:
        """Analytic footprint: allocated matrices plus one parent pointer."""
        return sum(m.memory_bytes() for m in self._all_matrices()) + config.pointer_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"LeafNode(index={self.index}, entries={self.entry_count()}, "
                f"overflow_blocks={len(self.overflow_blocks)}, closed={self.closed})")


# -- packed keys --------------------------------------------------------------
#
# The key format of InternalNode's maps.  Each helper works on Python ints
# and on numpy integer arrays alike.


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

    * ``weights`` — lifted edge key → summed weight, in the order the node
      hands its keys to its parent: the first ``placed`` keys are the ones
      Algorithm 2 puts in the matrix (grouped by bucket in order of the
      bucket's first use, in placement order within a bucket), the rest
      spilled (in spill order);
    * ``out_weights`` / ``in_weights`` — lifted source / destination vertex
      → summed weight of its edges.

    Keys are packed by :func:`pack_vertex` and :func:`pack_edge`, and a
    vertex packs to the same integer at every layer.  The maps hold only
    ints and floats, so they add no object the cyclic garbage collector
    tracks.
    """

    __slots__ = ("level", "index", "keys", "t_min", "t_max", "complete",
                 "fingerprint_bits", "vertex_bits", "weights", "placed",
                 "out_weights", "in_weights")

    def __init__(self, level: int, index: int, keys: List[int], t_min: int,
                 t_max: int, *, fingerprint_bits: int,
                 vertex_bits: int) -> None:
        self.level = level
        self.index = index
        #: Timestamp keys separating the children (paper: k-1 keys for k children).
        self.keys = keys
        self.t_min = t_min
        self.t_max = t_max
        self.complete = True
        #: Fingerprint length at this layer and bits per packed vertex.
        self.fingerprint_bits = fingerprint_bits
        self.vertex_bits = vertex_bits
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

    def query_edge(self, src_fingerprint: int, dst_fingerprint: int,
                   src_address: int, dst_address: int) -> float:
        """Aggregated weight of one edge over this node's whole subtree."""
        fingerprint_bits = self.fingerprint_bits
        return self.weights.get(pack_edge(
            pack_vertex(src_fingerprint, src_address, fingerprint_bits),
            pack_vertex(dst_fingerprint, dst_address, fingerprint_bits),
            self.vertex_bits), 0.0)

    def query_vertex(self, fingerprint: int, address: int, *,
                     direction: str = "out") -> float:
        """Aggregated weight of a vertex's incident edges over the subtree."""
        weights = self.out_weights if direction == "out" else self.in_weights
        return weights.get(
            pack_vertex(fingerprint, address, self.fingerprint_bits), 0.0)

    def decrement(self, src_fingerprint: int, dst_fingerprint: int,
                  src_address: int, dst_address: int, weight: float) -> bool:
        """Subtract weight from the aggregated view (deletion support).

        Returns False, changing nothing, when the node holds no such key.
        """
        source = pack_vertex(src_fingerprint, src_address,
                             self.fingerprint_bits)
        destination = pack_vertex(dst_fingerprint, dst_address,
                                  self.fingerprint_bits)
        key = pack_edge(source, destination, self.vertex_bits)
        if key not in self.weights:
            return False
        self.weights[key] -= weight
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
