"""PGSS — persistent graph stream summarization (WWW'23).

PGSS adds temporal range queries to a count-matrix graph sketch: every
matrix bucket holds an array of counters, one per *time granularity* (the
dyadic levels of the stream's lifetime).  Inserting an edge updates, in
every hash matrix, the bucket's counter for each granularity at the prefix
``t >> level``; a range query decomposes the range into canonical dyadic
intervals, reads one counter per interval, and returns the minimum over the
hash matrices.

PGSS keeps no fingerprints, so distinct edges hashing to the same bucket are
merged — its queries are fast but comparatively inaccurate, and the
per-granularity counters make both its updates and its space cost heavy
(the behaviour reported in the paper's Figs. 10-13, 16-19).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..core.hashing import hash64
from ..streams.edge import Vertex
from ..summary import TemporalGraphSummary
from .dyadic import dyadic_intervals, levels_for_span


class PGSS(TemporalGraphSummary):
    """Persistent count-matrix sketch with per-granularity counters.

    Parameters
    ----------
    expected_items:
        Expected number of stream items; used to size the matrices (the
        original system pre-allocates from a memory budget).
    time_span:
        Expected stream duration; determines how many granularities each
        bucket maintains.
    depth:
        Number of independent hash matrices.
    load_factor:
        Target ratio of stored items to allocated buckets.
    """

    name = "PGSS"

    def __init__(self, expected_items: int, *, time_span: int = 1 << 20,
                 depth: int = 2, load_factor: float = 1.0, seed: int = 0,
                 counter_bytes: int = 4) -> None:
        if expected_items < 1:
            raise ConfigurationError("expected_items must be positive")
        if time_span < 1:
            raise ConfigurationError("time_span must be positive")
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        buckets_needed = max(16, int(expected_items / max(load_factor, 1e-6)))
        self.width = 1 << max(2, math.ceil(math.log2(math.sqrt(buckets_needed))))
        self.depth = depth
        self.counter_bytes = counter_bytes
        self.max_level = levels_for_span(time_span)
        self._levels = list(range(self.max_level + 1))
        self._seeds = [seed * 40_503 + 17 * row for row in range(depth)]
        # One counter table per matrix per granularity:
        # table[(row, col)][prefix] -> accumulated weight.
        self._tables: List[List[Dict[Tuple[int, int], Dict[int, float]]]] = [
            [{} for _ in self._levels] for _ in range(depth)]
        # Row/column indices so vertex queries touch only the relevant lane.
        self._row_index: List[Dict[int, List[Tuple[int, int]]]] = [
            {} for _ in range(depth)]
        self._col_index: List[Dict[int, List[Tuple[int, int]]]] = [
            {} for _ in range(depth)]
        self._seen_cells: List[set] = [set() for _ in range(depth)]

    def _address(self, vertex: Vertex, row: int) -> int:
        return hash64(vertex, self._seeds[row]) % self.width

    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        timestamp = int(timestamp)
        for row in range(self.depth):
            cell = (self._address(source, row), self._address(destination, row))
            if cell not in self._seen_cells[row]:
                self._seen_cells[row].add(cell)
                self._row_index[row].setdefault(cell[0], []).append(cell)
                self._col_index[row].setdefault(cell[1], []).append(cell)
            for level in self._levels:
                prefix = timestamp >> level
                counters = self._tables[row][level].setdefault(cell, {})
                counters[prefix] = counters.get(prefix, 0.0) + weight

    def insert_batch(self, edges) -> int:
        """Bulk insert with a per-batch ``(vertex, row)`` address memo.

        PGSS hashes both endpoints once per hash matrix; the memo collapses
        repeated vertices within a batch to dictionary lookups.  Counter
        updates are identical to the per-item path.
        """
        memo: Dict[Tuple[Vertex, int], int] = {}
        count = 0
        for edge in edges:
            timestamp = int(edge.timestamp)
            source, destination, weight = edge.source, edge.destination, edge.weight
            for row in range(self.depth):
                skey = (source, row)
                src_addr = memo.get(skey)
                if src_addr is None:
                    src_addr = memo[skey] = self._address(source, row)
                dkey = (destination, row)
                dst_addr = memo.get(dkey)
                if dst_addr is None:
                    dst_addr = memo[dkey] = self._address(destination, row)
                cell = (src_addr, dst_addr)
                if cell not in self._seen_cells[row]:
                    self._seen_cells[row].add(cell)
                    self._row_index[row].setdefault(cell[0], []).append(cell)
                    self._col_index[row].setdefault(cell[1], []).append(cell)
                row_tables = self._tables[row]
                for level in self._levels:
                    prefix = timestamp >> level
                    counters = row_tables[level].setdefault(cell, {})
                    counters[prefix] = counters.get(prefix, 0.0) + weight
            count += 1
        return count

    def _cell_range_sum(self, row: int, cell: Tuple[int, int],
                        t_start: int, t_end: int) -> float:
        total = 0.0
        for level, prefix in dyadic_intervals(t_start, t_end,
                                              max_level=self.max_level):
            counters = self._tables[row][level].get(cell)
            if counters:
                total += counters.get(prefix, 0.0)
        return total

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        self.check_range(t_start, t_end)
        estimates = []
        for row in range(self.depth):
            cell = (self._address(source, row), self._address(destination, row))
            estimates.append(self._cell_range_sum(row, cell, t_start, t_end))
        return min(estimates)

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        self.check_range(t_start, t_end)
        self.check_direction(direction)
        estimates = []
        for row in range(self.depth):
            address = self._address(vertex, row)
            index = self._row_index[row] if direction == "out" else self._col_index[row]
            total = sum(self._cell_range_sum(row, cell, t_start, t_end)
                        for cell in index.get(address, ()))
            estimates.append(total)
        return min(estimates)

    def memory_bytes(self) -> int:
        """Allocated bucket directory plus every stored (prefix, counter) pair."""
        directory = self.depth * self.width * self.width * 8
        pairs = sum(len(counters)
                    for matrix_levels in self._tables
                    for level_table in matrix_levels
                    for counters in level_table.values())
        return directory + pairs * (4 + self.counter_bytes)

    @property
    def num_granularities(self) -> int:
        """Number of per-bucket counter granularities maintained."""
        return len(self._levels)
