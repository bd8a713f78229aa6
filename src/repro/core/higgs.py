"""HIGGS: the hierarchy-guided graph stream summary (the paper's contribution).

:class:`Higgs` is the public entry point of this library.  It owns the vertex
hasher and the aggregated B-tree, and implements the
:class:`~repro.summary.TemporalGraphSummary` interface: stream items are
inserted one at a time (or in bulk via :meth:`Higgs.insert_batch`, which
hashes the batch's distinct vertices in one vectorized pass and defers
upward aggregation to the end of the batch), and edge / vertex / path /
subgraph queries can be answered over any temporal range — individually or
in bulk via :meth:`Higgs.query_batch`.  A query packs each endpoint once;
the packed key is the same integer at every tree layer.  Range
decompositions are memoized in a
:class:`~repro.core.boundary.QueryPlanCache` keyed by
``(t_start, t_end, tree.version)``, so repeated-range workloads skip the
boundary search after the first query.

Example
-------
>>> from repro import Higgs, HiggsConfig
>>> summary = Higgs(HiggsConfig(leaf_matrix_size=8))
>>> summary.insert("alice", "bob", 1.0, 10)
>>> summary.insert("alice", "bob", 2.0, 20)
>>> summary.edge_query("alice", "bob", 0, 15)
1.0
>>> summary.edge_query("alice", "bob", 0, 25)
3.0
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InsertionError, QueryError
from ..streams.edge import StreamEdge, Vertex
from ..summary import TemporalGraphSummary
from . import vectorized
from .boundary import QueryPlanCache
from .config import HiggsConfig
from .hashing import VertexHasher
from .node import pack_edge, pack_vertex, vertex_bits
from .tree import HiggsTree

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _timestamp_error(timestamp: int) -> InsertionError:
    return InsertionError(
        f"timestamp {timestamp} is outside the int64 range of the batch "
        "and shared-memory wire formats")


class Higgs(TemporalGraphSummary):
    """Item-based, bottom-up hierarchical graph stream summary.

    Parameters
    ----------
    config:
        Structure parameters; see :class:`~repro.core.config.HiggsConfig`.
        The defaults match the paper's experimental configuration.
    """

    name = "HIGGS"

    def __init__(self, config: Optional[HiggsConfig] = None) -> None:
        self.config = config or HiggsConfig()
        self._hasher = VertexHasher(self.config.fingerprint_bits,
                                    self.config.leaf_matrix_size,
                                    seed=self.config.hash_seed)
        self._tree = HiggsTree(self.config)
        self._plan_cache = QueryPlanCache()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Insert one stream item (paper Algorithm 1).

        Raises :class:`~repro.errors.InsertionError` for a timestamp outside
        the ``int64`` range, exactly as :meth:`insert_batch` does.
        """
        timestamp = int(timestamp)
        if not _INT64_MIN <= timestamp <= _INT64_MAX:
            raise _timestamp_error(timestamp)
        src_fingerprint, src_address = self._hasher.split(source)
        dst_fingerprint, dst_address = self._hasher.split(destination)
        self._tree.insert_hashed(src_fingerprint, dst_fingerprint,
                                 src_address, dst_address, weight, timestamp)

    def insert_batch(self, edges: Iterable[StreamEdge]) -> int:
        """Insert a batch of stream items with one-pass hashing.

        The batch's distinct vertices are indexed once and hashed in one
        vectorized pass, their leaf-level probe-address sequences computed
        as arrays, and the pre-hashed batch applied by
        :meth:`HiggsTree.insert_hashed_batch_arrays`, which defers upward
        aggregation to the end of the batch.  The resulting structure is
        identical to per-item insertion.  Batches exposing pre-packed
        arrays (``packed_arrays()``, e.g. shared-memory batches from
        :mod:`repro.core.shm`) skip the packing pass entirely.

        Failures keep the per-item contract: the items before a failing
        one are applied.  An iterable that raises mid-batch re-raises its
        own exception; a timestamp outside ``int64`` raises
        :class:`~repro.errors.InsertionError`, as :meth:`insert` does.
        """
        packed = getattr(edges, "packed_arrays", None)
        if packed is not None:
            vertices, src_idx, dst_idx, weights, timestamps = packed()
            if not len(src_idx):
                return 0
            return self._tree.insert_hashed_batch_arrays(
                *self._hash_indexed(vertices, src_idx, dst_idx,
                                    weights, timestamps))
        if isinstance(edges, (list, tuple)):
            return self._insert_items(edges)
        items: List[StreamEdge] = []
        try:
            items.extend(edges)
        except BaseException:
            self._insert_items(items)
            raise
        return self._insert_items(items)

    def _insert_items(self, items: Sequence[StreamEdge]) -> int:
        """Index a batch's distinct vertices, pack it into hashed arrays
        and insert it."""
        if not items:
            return 0
        index: Dict[Vertex, int] = {}
        setdefault = index.setdefault
        src_idx: List[int] = []
        dst_idx: List[int] = []
        weights: List[float] = []
        timestamps: List[int] = []
        for edge in items:
            src_idx.append(setdefault(edge.source, len(index)))
            dst_idx.append(setdefault(edge.destination, len(index)))
            weights.append(edge.weight)
            timestamps.append(int(edge.timestamp))
        try:
            stamps = np.asarray(timestamps, dtype=np.int64)
        except OverflowError:
            bad = next(k for k, timestamp in enumerate(timestamps)
                       if not _INT64_MIN <= timestamp <= _INT64_MAX)
            self._insert_items(items[:bad])
            raise _timestamp_error(timestamps[bad]) from None
        return self._tree.insert_hashed_batch_arrays(
            *self._hash_indexed(list(index), src_idx, dst_idx,
                                weights, stamps))

    def _hash_indexed(self, vertices: Sequence[Vertex], src_idx, dst_idx,
                      weights, timestamps) -> Tuple:
        """Hash distinct vertices once, fan out to per-edge batch arrays.

        ``src_idx`` / ``dst_idx`` index into ``vertices``, so each distinct
        vertex is hashed exactly once.  Returns the argument tuple for
        :meth:`HiggsTree.insert_hashed_batch_arrays`.
        """
        config = self.config
        hashes = vectorized.hash64_array(vertices, config.hash_seed)
        fingerprints, addresses = vectorized.split_array(
            hashes, config.fingerprint_bits, config.leaf_matrix_size)
        return (fingerprints, addresses,
                np.asarray(src_idx, dtype=np.int64),
                np.asarray(dst_idx, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
                np.asarray(timestamps, dtype=np.int64))

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Remove ``weight`` from a previously inserted item.

        The matching leaf item and every materialized ancestor aggregate are
        decremented; if no leaf item matches (the item was never inserted)
        the summary is left unchanged.
        """
        src_fingerprint, src_address = self._hasher.split(source)
        dst_fingerprint, dst_address = self._hasher.split(destination)
        self._tree.delete_hashed(src_fingerprint, dst_fingerprint,
                                 src_address, dst_address, weight, int(timestamp))

    # ------------------------------------------------------------------ #
    # temporal range queries
    # ------------------------------------------------------------------ #

    def _pack(self, vertex: Vertex) -> int:
        """A vertex's packed key, the same integer at every tree layer."""
        fingerprint, address = self._hasher.split(vertex)
        return pack_vertex(fingerprint, address, self.config.fingerprint_bits)

    def _edge_query_packed(self, source: int, destination: int,
                           t_start: int, t_end: int) -> float:
        edge = pack_edge(source, destination, vertex_bits(self.config))
        decomposition = self._plan_cache.lookup(self._tree, t_start, t_end)
        total = 0.0
        for node in decomposition.aggregated_nodes:
            total += node.query_edge(edge)
        for leaf in decomposition.boundary_leaves:
            total += leaf.query_edge(edge, t_start, t_end)
        return total

    def _vertex_query_packed(self, vertex: int, t_start: int, t_end: int,
                             direction: str) -> float:
        decomposition = self._plan_cache.lookup(self._tree, t_start, t_end)
        total = 0.0
        for node in decomposition.aggregated_nodes:
            total += node.query_vertex(vertex, direction=direction)
        for leaf in decomposition.boundary_leaves:
            total += leaf.query_vertex(vertex, t_start, t_end,
                                       direction=direction)
        return total

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        """Estimated aggregated weight of ``source → destination`` in range."""
        self.check_range(t_start, t_end)
        return self._edge_query_packed(self._pack(source),
                                       self._pack(destination), t_start, t_end)

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        """Estimated aggregated weight of a vertex's incident edges in range."""
        self.check_range(t_start, t_end)
        if direction not in ("out", "in"):
            raise QueryError("direction must be 'out' or 'in'")
        return self._vertex_query_packed(self._pack(vertex), t_start, t_end,
                                         direction)

    def query_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of query objects with shared per-batch state.

        The batch's distinct edge/vertex-query endpoints are hashed and
        packed in one vectorized pass, bit-identical to the per-item
        path's :meth:`VertexHasher.split` and :func:`pack_vertex`, and each
        query then answers from its endpoints' packed keys at every layer.
        Composite queries fall back to their per-item evaluation, which
        still benefits from the query-plan cache.
        """
        distinct: Dict[Vertex, None] = {}
        for query in queries:
            if hasattr(query, "destination"):
                distinct.setdefault(query.source)
                distinct.setdefault(query.destination)
            elif hasattr(query, "vertex"):
                distinct.setdefault(query.vertex)
        vertices = list(distinct)
        fingerprints, addresses = vectorized.split_array(
            vectorized.hash64_array(vertices, self.config.hash_seed),
            self.config.fingerprint_bits, self.config.leaf_matrix_size)
        packed = dict(zip(vertices, vectorized.pack_vertex_array(
            fingerprints, addresses, self.config).tolist(), strict=True))

        results: List[float] = []
        append = results.append
        for query in queries:
            # Structural dispatch keeps this module free of an import cycle
            # with :mod:`repro.queries.types`.
            if hasattr(query, "destination"):  # edge query
                self.check_range(query.t_start, query.t_end)
                append(self._edge_query_packed(packed[query.source],
                                               packed[query.destination],
                                               query.t_start, query.t_end))
            elif hasattr(query, "vertex"):  # vertex query
                self.check_range(query.t_start, query.t_end)
                direction = query.direction
                if direction not in ("out", "in"):
                    raise QueryError("direction must be 'out' or 'in'")
                append(self._vertex_query_packed(packed[query.vertex],
                                                 query.t_start, query.t_end,
                                                 direction))
            else:  # composite (path / subgraph) — per-item evaluation
                append(query.evaluate(self))
        return results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def plan_cache(self) -> QueryPlanCache:
        """The query-plan cache memoizing range decompositions."""
        return self._plan_cache

    def plan_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/size counters of the query-plan cache."""
        return self._plan_cache.stats()

    @property
    def tree(self) -> HiggsTree:
        """The underlying tree (read-only use by benchmarks and tests)."""
        return self._tree

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes currently in the tree."""
        return self._tree.leaf_count

    @property
    def height(self) -> int:
        """Number of tree layers (leaves included)."""
        return self._tree.height

    def memory_bytes(self) -> int:
        """Analytic memory footprint of the whole structure."""
        return self._tree.memory_bytes()

    def stats(self) -> Dict[str, object]:
        """Structural statistics (leaf count, utilization, memory, ...)."""
        return self._tree.stats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Higgs(leaves={self.leaf_count}, height={self.height}, "
                f"items={self._tree.items_inserted})")
