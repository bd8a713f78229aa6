"""Horae — top-down, domain-based multi-layer summarization (ICDE'22).

Horae keeps one GSS-style fingerprint matrix per *temporal layer*: layer ``k``
has granularity ``2^k`` time units, and an item with timestamp ``t`` is
inserted into every layer under the key ``(vertex, t >> k)`` — the vertex
identifier concatenated with the layer's time prefix.  A temporal range query
is decomposed into canonical dyadic intervals (one matrix access per
interval) and the per-interval estimates are summed.

``HoraeCompact`` ("Horae-cpt" in the paper) keeps only every second layer to
reduce space; queries then decompose into more, finer sub-ranges, trading
query time and accuracy for memory — exactly the trade-off the paper reports.

Every layer's matrix is sized for the whole stream (the global, domain-based
design the paper contrasts with HIGGS's item-based locality).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..core.hashing import hash64
from ..streams.edge import Vertex
from ..summary import TemporalGraphSummary
from .dyadic import compact_levels, dyadic_intervals, levels_for_span
from .matrix import CompressedMatrix


class _Layer:
    """One temporal layer: a fingerprint matrix plus an exact spill-over map."""

    __slots__ = ("level", "matrix", "overflow")

    def __init__(self, level: int, width: int, bucket_entries: int,
                 num_probes: int, entry_bytes: int) -> None:
        self.level = level
        self.matrix = CompressedMatrix(width, bucket_entries,
                                       num_probes=num_probes,
                                       entry_bytes=entry_bytes)
        self.overflow: Dict[Tuple[int, int, int, int], float] = {}

    def insert(self, src_fingerprint: int, dst_fingerprint: int,
               src_address: int, dst_address: int, weight: float) -> None:
        if not self.matrix.insert(src_fingerprint, dst_fingerprint,
                                  src_address, dst_address, weight):
            key = (src_fingerprint, dst_fingerprint, src_address, dst_address)
            self.overflow[key] = self.overflow.get(key, 0.0) + weight

    def query_edge(self, src_fingerprint: int, dst_fingerprint: int,
                   src_address: int, dst_address: int) -> float:
        total = self.matrix.query_edge(src_fingerprint, dst_fingerprint,
                                       src_address, dst_address)
        total += self.overflow.get(
            (src_fingerprint, dst_fingerprint, src_address, dst_address), 0.0)
        return total

    def query_vertex(self, fingerprint: int, address: int, direction: str) -> float:
        total = self.matrix.query_vertex(fingerprint, address, direction=direction)
        for (fs, fd, hs, hd), weight in self.overflow.items():
            if direction == "out" and fs == fingerprint and hs == address:
                total += weight
            elif direction == "in" and fd == fingerprint and hd == address:
                total += weight
        return total

    def memory_bytes(self, entry_bytes: int) -> int:
        return self.matrix.memory_bytes() + len(self.overflow) * (entry_bytes + 8)


class Horae(TemporalGraphSummary):
    """Chen et al.'s multi-layer temporal graph sketch.

    Parameters
    ----------
    expected_items:
        Expected stream size, used to size every layer's matrix.
    time_span:
        Expected stream duration; determines the number of layers
        (``ceil(log2(time_span)) + 1``).
    fingerprint_bits, bucket_entries, num_probes:
        Per-layer matrix parameters (GSS-style).
    load_factor:
        Target stored-items / allocated-slots ratio per layer.
    layer_stride:
        Keep only every ``layer_stride``-th layer (1 = full Horae,
        2 = the compact variant).
    """

    name = "Horae"

    def __init__(self, expected_items: int, time_span: int, *,
                 fingerprint_bits: int = 12, bucket_entries: int = 3,
                 num_probes: int = 2, load_factor: float = 0.8,
                 layer_stride: int = 1, seed: int = 0,
                 counter_bytes: int = 4) -> None:
        if expected_items < 1:
            raise ConfigurationError("expected_items must be positive")
        if time_span < 1:
            raise ConfigurationError("time_span must be positive")
        if layer_stride < 1:
            raise ConfigurationError("layer_stride must be >= 1")
        self.fingerprint_bits = fingerprint_bits
        self.bucket_entries = bucket_entries
        self.num_probes = num_probes
        self.seed = seed
        self.counter_bytes = counter_bytes
        self.max_level = levels_for_span(time_span)
        if layer_stride == 1:
            self._levels: List[int] = list(range(self.max_level + 1))
        else:
            self._levels = compact_levels(self.max_level, stride=layer_stride)

        slots_needed = max(16, int(expected_items / max(load_factor, 1e-6)))
        width = 1 << max(2, math.ceil(math.log2(math.sqrt(slots_needed / bucket_entries))))
        self._entry_bytes = (2 * fingerprint_bits + 7) // 8 + counter_bytes
        self._layers: Dict[int, _Layer] = {
            level: _Layer(level, width, bucket_entries, num_probes, self._entry_bytes)
            for level in self._levels
        }
        self.width = width

    # ------------------------------------------------------------------ #

    def _split(self, vertex: Vertex, prefix: int) -> Tuple[int, int]:
        """Fingerprint/address of a vertex combined with a layer time prefix."""
        raw = hash64((vertex, prefix), self.seed)
        fingerprint = raw & ((1 << self.fingerprint_bits) - 1)
        address = (raw >> self.fingerprint_bits) % self.width
        return fingerprint, address

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        timestamp = int(timestamp)
        for level in self._levels:
            prefix = timestamp >> level
            src_fp, src_addr = self._split(source, prefix)
            dst_fp, dst_addr = self._split(destination, prefix)
            self._layers[level].insert(src_fp, dst_fp, src_addr, dst_addr, weight)

    def insert_batch(self, edges) -> int:
        """Bulk insert with a per-batch ``(vertex, prefix)`` hash memo.

        Horae hashes every item once per temporal layer; within a batch the
        coarse layers see few distinct prefixes and graph streams repeat
        vertices heavily, so most ``(vertex, prefix)`` splits hit the memo
        instead of recomputing the 64-bit hash.  Insertion order and results
        are identical to the per-item path.
        """
        split = self._split
        layers = self._layers
        levels = self._levels
        memo: Dict[Tuple[Vertex, int], Tuple[int, int]] = {}
        count = 0
        for edge in edges:
            timestamp = int(edge.timestamp)
            source, destination, weight = edge.source, edge.destination, edge.weight
            for level in levels:
                prefix = timestamp >> level
                key = (source, prefix)
                src = memo.get(key)
                if src is None:
                    src = memo[key] = split(source, prefix)
                key = (destination, prefix)
                dst = memo.get(key)
                if dst is None:
                    dst = memo[key] = split(destination, prefix)
                layers[level].insert(src[0], dst[0], src[1], dst[1], weight)
            count += 1
        return count

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        self.check_range(t_start, t_end)
        total = 0.0
        for level, prefix in dyadic_intervals(t_start, t_end,
                                              allowed_levels=self._levels,
                                              max_level=self.max_level):
            src_fp, src_addr = self._split(source, prefix)
            dst_fp, dst_addr = self._split(destination, prefix)
            total += self._layers[level].query_edge(src_fp, dst_fp,
                                                    src_addr, dst_addr)
        return total

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        self.check_range(t_start, t_end)
        total = 0.0
        for level, prefix in dyadic_intervals(t_start, t_end,
                                              allowed_levels=self._levels,
                                              max_level=self.max_level):
            fingerprint, address = self._split(vertex, prefix)
            total += self._layers[level].query_vertex(fingerprint, address, direction)
        return total

    def memory_bytes(self) -> int:
        return sum(layer.memory_bytes(self._entry_bytes)
                   for layer in self._layers.values())

    @property
    def num_layers(self) -> int:
        """Number of temporal layers actually kept."""
        return len(self._layers)


class HoraeCompact(Horae):
    """The space-optimized Horae variant ("Horae-cpt"): every second layer only."""

    name = "Horae-cpt"

    def __init__(self, expected_items: int, time_span: int, **kwargs) -> None:
        kwargs.setdefault("layer_stride", 2)
        super().__init__(expected_items, time_span, **kwargs)
