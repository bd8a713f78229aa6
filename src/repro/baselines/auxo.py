"""Auxo — scalable graph stream summarization with a prefix-embedded tree (VLDB'23).

Auxo organizes GSS-style fingerprint matrices in a *prefix embedded tree*
(PET): level ``ℓ`` of the tree holds ``2^ℓ`` matrices, and an edge is routed
to the matrix selected by the leading ``ℓ`` bits of its source fingerprint
(those bits are implicit in the routing, so stored fingerprints shrink as the
tree deepens — the "prefix embedding").  When the deepest level can no longer
absorb an edge, a new, twice-as-wide level is appended; existing entries stay
where they are (Auxo's proportional incremental strategy), so the structure
scales without rehashing.

Auxo itself is non-temporal; :mod:`repro.baselines.auxotime` combines it with
Horae's dyadic layer scheme to build the AuxoTime baselines used in the
paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..core.hashing import hash64
from ..streams.edge import Vertex
from .matrix import CompressedMatrix


class Auxo:
    """Prefix-embedded tree of fingerprint matrices (non-temporal).

    Parameters
    ----------
    matrix_size:
        Dimension of each PET node's matrix.
    fingerprint_bits:
        Fingerprint length at the root level; each deeper level embeds one
        more leading bit into the routing and stores one bit less.
    bucket_entries, num_probes:
        Matrix bucket parameters (same semantics as HIGGS leaves).
    max_levels:
        Safety bound on tree depth.
    """

    name = "Auxo"

    def __init__(self, *, matrix_size: int = 32, fingerprint_bits: int = 14,
                 bucket_entries: int = 3, num_probes: int = 2,
                 max_levels: int = 12, seed: int = 0,
                 counter_bytes: int = 4) -> None:
        if matrix_size < 2:
            raise ConfigurationError("matrix_size must be >= 2")
        if not 2 <= fingerprint_bits <= 32:
            raise ConfigurationError("fingerprint_bits must be in [2, 32]")
        self.matrix_size = matrix_size
        self.fingerprint_bits = fingerprint_bits
        self.bucket_entries = bucket_entries
        self.num_probes = num_probes
        self.max_levels = max_levels
        self.seed = seed
        self.counter_bytes = counter_bytes
        #: ``_levels[ℓ]`` maps a routing prefix (ℓ bits of the source
        #: fingerprint) to that node's matrix; nodes are created lazily.
        self._levels: List[Dict[int, CompressedMatrix]] = [{}]
        #: Exact catch-all for edges that overflow even the deepest level at
        #: the maximum depth (keeps the estimate one-sided).
        self._buffer: Dict[Tuple[int, int, int, int], float] = {}
        self._entry_bytes = (2 * fingerprint_bits + 7) // 8 + counter_bytes

    # ------------------------------------------------------------------ #
    # hashing / routing
    # ------------------------------------------------------------------ #

    def _split(self, vertex: Vertex) -> Tuple[int, int]:
        raw = hash64(vertex, self.seed)
        fingerprint = raw & ((1 << self.fingerprint_bits) - 1)
        address = (raw >> self.fingerprint_bits) % self.matrix_size
        return fingerprint, address

    def _route(self, src_fingerprint: int, dst_fingerprint: int, level: int) -> int:
        """Routing prefix at ``level``: the leading ``level`` bits of the edge
        fingerprint (source XOR destination), so one high-degree vertex's edges
        spread over many PET nodes rather than saturating a single one."""
        if level == 0:
            return 0
        combined = src_fingerprint ^ dst_fingerprint
        return combined >> (self.fingerprint_bits - level)

    def _node(self, level: int, prefix: int, *, create: bool) -> Optional[CompressedMatrix]:
        nodes = self._levels[level]
        matrix = nodes.get(prefix)
        if matrix is None and create:
            matrix = CompressedMatrix(self.matrix_size, self.bucket_entries,
                                      num_probes=self.num_probes,
                                      entry_bytes=self._entry_bytes)
            nodes[prefix] = matrix
        return matrix

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float = 1.0) -> None:
        """Insert at the deepest level, growing the PET when that level is full."""
        src_fp, src_addr = self._split(source)
        dst_fp, dst_addr = self._split(destination)
        self.insert_hashed(src_fp, src_addr, dst_fp, dst_addr, weight)

    def insert_hashed(self, src_fp: int, src_addr: int, dst_fp: int,
                      dst_addr: int, weight: float) -> None:
        """Insert one pre-hashed item (the post-``_split`` half of insert)."""
        deepest = len(self._levels) - 1
        matrix = self._node(deepest, self._route(src_fp, dst_fp, deepest), create=True)
        if matrix.insert(src_fp, dst_fp, src_addr, dst_addr, weight):
            return
        if len(self._levels) <= self.max_levels:
            self._levels.append({})
            deepest = len(self._levels) - 1
            matrix = self._node(deepest, self._route(src_fp, dst_fp, deepest), create=True)
            if matrix.insert(src_fp, dst_fp, src_addr, dst_addr, weight):
                return
        key = (src_fp, dst_fp, src_addr, dst_addr)
        self._buffer[key] = self._buffer.get(key, 0.0) + weight

    def insert_batch(self, items) -> int:
        """Bulk insert of ``(source, destination, weight)`` triples with a
        per-batch vertex-hash memo; identical in effect to per-item inserts."""
        split = self._split
        memo: Dict[Vertex, Tuple[int, int]] = {}
        count = 0
        for source, destination, weight in items:
            src = memo.get(source)
            if src is None:
                src = memo[source] = split(source)
            dst = memo.get(destination)
            if dst is None:
                dst = memo[destination] = split(destination)
            self.insert_hashed(src[0], src[1], dst[0], dst[1], weight)
            count += 1
        return count

    def delete(self, source: Vertex, destination: Vertex, weight: float = 1.0) -> None:
        """Subtract weight from the first matching entry found along the PET path."""
        src_fp, src_addr = self._split(source)
        dst_fp, dst_addr = self._split(destination)
        for level in range(len(self._levels) - 1, -1, -1):
            matrix = self._node(level, self._route(src_fp, dst_fp, level), create=False)
            if matrix is not None and matrix.decrement(src_fp, dst_fp,
                                                       src_addr, dst_addr, weight):
                return
        key = (src_fp, dst_fp, src_addr, dst_addr)
        if key in self._buffer:
            self._buffer[key] -= weight

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def edge_query(self, source: Vertex, destination: Vertex) -> float:
        """Sum of matches along the edge's PET routing path."""
        src_fp, src_addr = self._split(source)
        dst_fp, dst_addr = self._split(destination)
        total = 0.0
        for level in range(len(self._levels)):
            matrix = self._node(level, self._route(src_fp, dst_fp, level), create=False)
            if matrix is not None:
                total += matrix.query_edge(src_fp, dst_fp, src_addr, dst_addr)
        total += self._buffer.get((src_fp, dst_fp, src_addr, dst_addr), 0.0)
        return total

    def vertex_query(self, vertex: Vertex, direction: str = "out") -> float:
        """Row/column scan over every PET node (routing mixes both endpoints,
        so a vertex's edges may live in any node of each level)."""
        fingerprint, address = self._split(vertex)
        total = 0.0
        for nodes in self._levels:
            for matrix in nodes.values():
                total += matrix.query_vertex(fingerprint, address, direction=direction)
        for (fs, fd, hs, hd), weight in self._buffer.items():
            if direction == "out" and fs == fingerprint and hs == address:
                total += weight
            elif direction == "in" and fd == fingerprint and hd == address:
                total += weight
        return total

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Footprint of every materialized PET node plus the exact buffer."""
        total = sum(matrix.memory_bytes()
                    for nodes in self._levels for matrix in nodes.values())
        total += len(self._buffer) * (self._entry_bytes + 8)
        return total

    @property
    def depth(self) -> int:
        """Number of PET levels currently allocated."""
        return len(self._levels)

    @property
    def node_count(self) -> int:
        """Number of materialized PET node matrices."""
        return sum(len(nodes) for nodes in self._levels)
