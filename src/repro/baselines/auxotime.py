"""AuxoTime — Auxo extended with Horae's temporal range decomposition.

The paper builds this stronger baseline itself (Section VI-A): Auxo is the
state-of-the-art *non-temporal* graph stream summary, so the authors combine
it with Horae's dyadic layer scheme to obtain a scalable TRQ-capable
competitor.  Each temporal layer is an independent :class:`~repro.baselines.auxo.Auxo`
prefix-embedded tree whose keys are ``(vertex, time prefix)`` pairs; queries
decompose the range into dyadic intervals and sum the per-layer estimates.

``AuxoTimeCompact`` ("AuxoTime-cpt") keeps every second layer only, mirroring
Horae-cpt's space/time trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..streams.edge import Vertex
from ..summary import TemporalGraphSummary
from .auxo import Auxo
from .dyadic import compact_levels, dyadic_intervals, levels_for_span


class AuxoTime(TemporalGraphSummary):
    """Auxo + dyadic temporal layers (the paper's constructed baseline).

    Parameters
    ----------
    time_span:
        Expected stream duration; determines the number of temporal layers.
    matrix_size, fingerprint_bits, bucket_entries, num_probes, max_levels:
        Parameters of each per-layer Auxo PET.
    layer_stride:
        Keep only every ``layer_stride``-th temporal layer (1 = AuxoTime,
        2 = the compact variant).
    """

    name = "AuxoTime"

    def __init__(self, time_span: int, *, matrix_size: int = 32,
                 fingerprint_bits: int = 14, bucket_entries: int = 3,
                 num_probes: int = 2, max_levels: int = 12,
                 layer_stride: int = 1, seed: int = 0) -> None:
        if time_span < 1:
            raise ConfigurationError("time_span must be positive")
        if layer_stride < 1:
            raise ConfigurationError("layer_stride must be >= 1")
        self.max_level = levels_for_span(time_span)
        if layer_stride == 1:
            self._levels: List[int] = list(range(self.max_level + 1))
        else:
            self._levels = compact_levels(self.max_level, stride=layer_stride)
        self._layers: Dict[int, Auxo] = {
            level: Auxo(matrix_size=matrix_size, fingerprint_bits=fingerprint_bits,
                        bucket_entries=bucket_entries, num_probes=num_probes,
                        max_levels=max_levels, seed=seed + level)
            for level in self._levels
        }

    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        timestamp = int(timestamp)
        for level in self._levels:
            prefix = timestamp >> level
            self._layers[level].insert((source, prefix), (destination, prefix), weight)

    def insert_batch(self, edges) -> int:
        """Bulk insert with per-layer ``(vertex, prefix)`` hash memos.

        Each temporal layer is an independent Auxo PET with its own hash
        seed, so the memo is kept per layer; coarse layers see few distinct
        prefixes within a batch and graph streams repeat vertices heavily,
        which makes most splits memo hits.  Results are identical to the
        per-item path.
        """
        layers = self._layers
        levels = self._levels
        memos = {level: {} for level in levels}
        count = 0
        for edge in edges:
            timestamp = int(edge.timestamp)
            source, destination, weight = edge.source, edge.destination, edge.weight
            for level in levels:
                prefix = timestamp >> level
                layer = layers[level]
                memo = memos[level]
                skey = (source, prefix)
                src = memo.get(skey)
                if src is None:
                    src = memo[skey] = layer._split(skey)
                dkey = (destination, prefix)
                dst = memo.get(dkey)
                if dst is None:
                    dst = memo[dkey] = layer._split(dkey)
                layer.insert_hashed(src[0], src[1], dst[0], dst[1], weight)
            count += 1
        return count

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        timestamp = int(timestamp)
        for level in self._levels:
            prefix = timestamp >> level
            self._layers[level].delete((source, prefix), (destination, prefix), weight)

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        self.check_range(t_start, t_end)
        total = 0.0
        for level, prefix in dyadic_intervals(t_start, t_end,
                                              allowed_levels=self._levels,
                                              max_level=self.max_level):
            total += self._layers[level].edge_query((source, prefix),
                                                    (destination, prefix))
        return total

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        self.check_range(t_start, t_end)
        self.check_direction(direction)
        total = 0.0
        for level, prefix in dyadic_intervals(t_start, t_end,
                                              allowed_levels=self._levels,
                                              max_level=self.max_level):
            total += self._layers[level].vertex_query((vertex, prefix),
                                                      direction=direction)
        return total

    def memory_bytes(self) -> int:
        return sum(layer.memory_bytes() for layer in self._layers.values())

    @property
    def num_layers(self) -> int:
        """Number of temporal layers actually kept."""
        return len(self._layers)


class AuxoTimeCompact(AuxoTime):
    """The space-optimized AuxoTime variant ("AuxoTime-cpt")."""

    name = "AuxoTime-cpt"

    def __init__(self, time_span: int, **kwargs) -> None:
        kwargs.setdefault("layer_stride", 2)
        super().__init__(time_span, **kwargs)
