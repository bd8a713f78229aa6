"""HIGGS: the hierarchy-guided graph stream summary (the paper's contribution).

:class:`Higgs` is the public entry point of this library.  It owns the vertex
hasher and the aggregated B-tree, and implements the
:class:`~repro.summary.TemporalGraphSummary` interface: stream items are
inserted one at a time (or in bulk via :meth:`Higgs.insert_batch`, which
looks each distinct vertex of the batch up in a per-summary memo, hashes
the ones it has not seen, and defers upward aggregation to the end of the
batch).  The memo maps a vertex to its packed key and probe rows
(:meth:`Higgs._hash_vertices`, the one place an insert hashes a vertex),
a pure function of the vertex and the config; it grows with the number of
distinct vertices, pickles with the summary, and stays outside
:meth:`Higgs.memory_bytes`, which models the paper's structure.
Aggregation builds each internal node's exact sums only; Algorithm 2's
simulated bucket placement, which decides no answer, runs when
:meth:`Higgs.memory_bytes` or :meth:`Higgs.stats` first needs it.  Edge /
vertex / path / subgraph queries can be answered over any temporal range —
individually, or in bulk via :meth:`Higgs.query_batch` (query objects) and
:meth:`Higgs.query_rows` (the plain rows of :data:`~repro.summary.QueryRow`,
which sharded shards receive).  Both bulk forms answer in one loop:
:meth:`Higgs.query_batch` turns its objects into rows and calls
:meth:`Higgs.query_rows`.  A query packs each
endpoint once, the same integer at every tree layer: the memo's key when
batch ingest has met the endpoint, else a hash that is not stored, so
queries never write the memo.  It reads the nodes' maps in place.  Each
call decomposes each of its ranges once
(:func:`~repro.core.boundary.boundary_search`): a path or subgraph query
shares one plan over its edges, and a bulk call one per distinct range of
the batch.  No plan outlives its call.

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

from ..errors import InsertionError, QueryError
from ..streams.edge import StreamEdge, Vertex
from ..summary import (ROW_EDGE, ROW_IN, ROW_OUT, ROW_PAIRS, QueryRow,
                       TemporalGraphSummary)
from . import vectorized
from .boundary import RangeDecomposition, boundary_search
from .config import HiggsConfig
from .hashing import VertexHasher
from .node import pack_edge, pack_vertex, vertex_bits
from .tree import HiggsTree

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _timestamp_error(timestamp: object) -> InsertionError:
    return InsertionError(
        f"timestamp {timestamp!r} is not an integer within the int64 range "
        "of the batch and packed-edge formats")


def _weight_error(weight: object) -> InsertionError:
    return InsertionError(f"weight {weight!r} is not a real number")


def _int64_timestamp(timestamp: object) -> int:
    """``timestamp`` as an int, by the batch paths' rule
    (:func:`~repro.core.vectorized.int64_timestamps`); raises
    :class:`~repro.errors.InsertionError` for anything else."""
    if type(timestamp) is int and _INT64_MIN <= timestamp <= _INT64_MAX:
        return timestamp
    stamps = vectorized.int64_timestamps([timestamp])
    if not len(stamps):
        raise _timestamp_error(timestamp)
    return int(stamps[0])


def _real_weight(weight: object) -> float:
    """``weight`` as a float, by the batch paths' rule
    (:func:`~repro.core.vectorized.real_weights`); raises
    :class:`~repro.errors.InsertionError` for anything else."""
    if type(weight) is float:
        return weight
    values = vectorized.real_weights([weight])
    if not len(values):
        raise _weight_error(weight)
    return float(values[0])


class Higgs(TemporalGraphSummary):
    """Item-based, bottom-up hierarchical graph stream summary.

    Per-item :meth:`insert` hashes each vertex as it meets it; the batch
    paths keep a vertex memo (see the module docstring), which holds one
    entry per distinct vertex ingested in a batch for the life of the
    summary.  :meth:`delete` and the queries read the memo and hash only
    the vertices it lacks.

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
        #: Range decompositions computed, and queries that reused one
        #: within a :meth:`query_rows` call (:meth:`plan_cache_stats`).
        self._plans_computed = 0
        self._plans_reused = 0
        #: Vertex → (packed key, leaf-level probe rows), filled by the batch
        #: paths and read, never written, by the queries
        #: (:meth:`_packed_keys`); outside :meth:`memory_bytes`, which
        #: models the paper's structure.
        self._vertices: Dict[Vertex, Tuple[int, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Insert one stream item (paper Algorithm 1).

        Raises :class:`~repro.errors.InsertionError` for a timestamp that is
        not an integer within the ``int64`` range (numpy integers count;
        ``"12"`` and ``1.5`` do not) or a weight that is not a real number,
        exactly as :meth:`insert_batch` does; the weight is stored as a
        float and the timestamp as an int.
        """
        timestamp = _int64_timestamp(timestamp)
        weight = _real_weight(weight)
        self._tree.insert_packed(self._hash_vertices((source, destination)),
                                 [0], [1], [weight], [timestamp])

    def insert_batch(self, edges: Iterable[StreamEdge]) -> int:
        """Insert a batch of stream items with one-pass hashing.

        The batch's distinct vertices are indexed once and looked up in the
        summary's vertex memo (:meth:`_vertex_entries`), which hashes the
        ones it has not seen, and the batch is then applied by
        :meth:`HiggsTree.insert_packed`, which defers upward aggregation to
        the end of the batch.  The resulting structure is
        identical to per-item insertion.  Batches exposing pre-packed
        arrays (``packed_arrays()``, e.g. the
        :class:`~repro.core.executor.PackedEdges` batches a process shard
        worker receives) skip the indexing pass entirely.

        Failures keep the per-item contract: the items before a failing
        one are applied.  An iterable that raises mid-batch re-raises its
        own exception; a timestamp that is not an integer within ``int64``
        or a weight that is not a real number raises
        :class:`~repro.errors.InsertionError`, as :meth:`insert` does.
        """
        packed = getattr(edges, "packed_arrays", None)
        if packed is not None:
            vertices, src_idx, dst_idx, weights, timestamps = packed()
            return self._tree.insert_packed(
                self._vertex_entries(vertices), src_idx.tolist(),
                dst_idx.tolist(), weights.tolist(), timestamps.tolist())
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
        """Index a batch's distinct vertices, check its timestamps and
        weights, and insert it."""
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
            timestamps.append(edge.timestamp)
        values = vectorized.real_weights(weights)
        stamps = vectorized.int64_timestamps(timestamps)
        # The first item that fails, or len(items).
        bad = min(len(values), len(stamps))
        if bad < len(items):
            self._insert_items(items[:bad])
            if bad == len(stamps):
                raise _timestamp_error(timestamps[bad])
            raise _weight_error(weights[bad])
        return self._tree.insert_packed(
            self._vertex_entries(list(index)), src_idx, dst_idx,
            values.tolist(), stamps.tolist())

    def _vertex_entries(self, vertices: Sequence[Vertex]
                        ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Each vertex's packed key and leaf-level probe rows, from the
        vertex memo.

        The vertices the memo has not seen are hashed by
        :meth:`_hash_vertices` and stored.  An entry is a pure function of
        the vertex and the config, so the memo changes no tree or answer.
        """
        memo = self._vertices
        missing = [vertex for vertex in vertices if vertex not in memo]
        if missing:
            memo.update(zip(missing, self._hash_vertices(missing),
                            strict=True))
        return [memo[vertex] for vertex in vertices]

    # hot-path
    def _hash_vertices(self, vertices: Iterable[Vertex]
                       ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Each vertex's packed key and leaf-level probe rows in probe order,
        by the scalar kernels: hashed and split once (Formula (1)), packed,
        and probed (Section IV-C, ``probe_address`` inlined)."""
        split = self._hasher.split
        config = self.config
        fingerprint_bits = config.fingerprint_bits
        size = config.leaf_matrix_size
        probes = range(config.num_probes)
        entries: List[Tuple[int, Tuple[int, ...]]] = []
        append = entries.append
        for vertex in vertices:
            fingerprint, address = split(vertex)
            step = 2 * fingerprint + 1  # probe_address
            append((pack_vertex(fingerprint, address, fingerprint_bits),
                    tuple([(address + i * step) % size for i in probes])))
        return entries

    def delete(self, source: Vertex, destination: Vertex, weight: float,
               timestamp: int) -> None:
        """Remove ``weight`` from a previously inserted item.

        The matching leaf item and every materialized ancestor aggregate are
        decremented; if no leaf item matches (the item was never inserted)
        the summary is left unchanged.  A timestamp or weight
        :meth:`insert` refuses raises :class:`~repro.errors.InsertionError`
        here too, before the tree is touched.
        """
        timestamp = _int64_timestamp(timestamp)
        weight = _real_weight(weight)
        keys = self._packed_keys((source, destination))
        self._tree.delete_packed(keys[source], keys[destination], weight,
                                 timestamp)

    # ------------------------------------------------------------------ #
    # temporal range queries
    # ------------------------------------------------------------------ #

    def _packed_keys(self, vertices: Iterable[Vertex]) -> Dict[Vertex, int]:
        """Each of the distinct ``vertices``' packed key, the same integer
        at every tree layer.

        A vertex batch ingest has met takes the key its vertex memo entry
        holds.  The others are hashed and packed by the scalar kernels
        :meth:`insert` runs, and are not stored: queries never write the
        memo.
        """
        memo = self._vertices
        split = self._hasher.split
        fingerprint_bits = self.config.fingerprint_bits
        keys: Dict[Vertex, int] = {}
        for vertex in vertices:
            entry = memo.get(vertex)
            if entry is None:
                fingerprint, address = split(vertex)
                keys[vertex] = pack_vertex(fingerprint, address,
                                           fingerprint_bits)
            else:
                keys[vertex] = entry[0]
        return keys

    def _pack(self, vertex: Vertex) -> int:
        """One vertex's packed key (:meth:`_packed_keys`)."""
        return self._packed_keys((vertex,))[vertex]

    def _plan(self, t_start: int, t_end: int) -> RangeDecomposition:
        """Decompose a checked range (Algorithm 3), counting the plan."""
        self._plans_computed += 1
        return boundary_search(self._tree, t_start, t_end)

    @staticmethod
    def _edge_answer(plan: RangeDecomposition, edge: int, t_start: int,
                     t_end: int) -> float:
        """A packed edge's weight in range: its aggregated nodes' map
        entries, then its boundary leaves' items in range, summed in plan
        order from ``0.0``.  A leaf whose index lacks the edge is skipped:
        it would add ``0.0`` to a sum that starts at ``+0.0``, which
        changes no bit."""
        total = 0.0
        for node in plan.aggregated_nodes:
            total += node.weights.get(edge, 0.0)
        for leaf in plan.boundary_leaves:
            keys = leaf.edges.get(edge)
            if keys is not None:
                total += leaf.range_weight(keys, t_start, t_end)
        return total

    @staticmethod
    def _vertex_answer(plan: RangeDecomposition, vertex: int, t_start: int,
                       t_end: int, outgoing: bool) -> float:
        """A packed vertex's outgoing (or incoming) weight in range, summed
        as :meth:`_edge_answer` sums an edge's."""
        total = 0.0
        if outgoing:
            for node in plan.aggregated_nodes:
                total += node.out_weights.get(vertex, 0.0)
            for leaf in plan.boundary_leaves:
                keys = leaf.sources.get(vertex)
                if keys is not None:
                    total += leaf.range_weight(keys, t_start, t_end)
        else:
            for node in plan.aggregated_nodes:
                total += node.in_weights.get(vertex, 0.0)
            for leaf in plan.boundary_leaves:
                keys = leaf.destinations.get(vertex)
                if keys is not None:
                    total += leaf.range_weight(keys, t_start, t_end)
        return total

    def edge_query(self, source: Vertex, destination: Vertex,
                   t_start: int, t_end: int) -> float:
        """Estimated aggregated weight of ``source → destination`` in range."""
        self.check_range(t_start, t_end)
        edge = pack_edge(self._pack(source), self._pack(destination),
                         vertex_bits(self.config))
        return self._edge_answer(self._plan(t_start, t_end), edge, t_start,
                                 t_end)

    def vertex_query(self, vertex: Vertex, t_start: int, t_end: int,
                     direction: str = "out") -> float:
        """Estimated aggregated weight of a vertex's incident edges in range."""
        self.check_range(t_start, t_end)
        self.check_direction(direction)
        return self._vertex_answer(self._plan(t_start, t_end),
                                   self._pack(vertex), t_start, t_end,
                                   direction == "out")

    def subgraph_query(self, edges: Sequence[Tuple[Vertex, Vertex]],
                       t_start: int, t_end: int) -> float:
        """Aggregated weight of a set of edges: their edge queries' sum, in
        order from ``0.0``, over one decomposition of the range.

        Raises :class:`~repro.errors.QueryError` when ``edges`` is empty or
        the range is malformed.  :meth:`path_query` sums its hops here.
        """
        if not edges:
            raise QueryError("a subgraph query needs at least one edge")
        self.check_range(t_start, t_end)
        plan = self._plan(t_start, t_end)
        packed = self._packed_keys(
            dict.fromkeys(vertex for pair in edges for vertex in pair))
        bits = vertex_bits(self.config)
        total = 0.0
        for source, destination in edges:
            total += self._edge_answer(
                plan, pack_edge(packed[source], packed[destination], bits),
                t_start, t_end)
        return total

    def query_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of query objects with shared per-batch state.

        Each query is checked and turned into its row
        (:meth:`~repro.summary.TemporalGraphSummary.query_row`), in batch
        order, and the rows are answered together by :meth:`query_rows`,
        the one answer loop.  Any other query object falls back to its own
        ``evaluate``.
        """
        rows: List[QueryRow] = []
        others: List[Tuple[int, object]] = []
        row_of = self.query_row
        for index, query in enumerate(queries):
            row = row_of(query)
            if row is None:
                others.append((index, query))
            else:
                rows.append(row)
        results = self.query_rows(rows)
        # In index order, each insert lands at its query's position.
        for index, query in others:
            results.insert(index, query.evaluate(self))
        return results

    def query_rows(self, rows: Sequence[QueryRow]) -> List[float]:
        """Answer a batch of query rows with shared per-batch state.

        One pass over the rows checks each distinct range, in row order,
        and collects the distinct endpoints — a pair row's included.  These
        are then packed once each (:meth:`_packed_keys`: the vertex memo's
        keys, and the misses hashed), and each distinct range is
        decomposed once.  Each row answers from its range's plan and its
        endpoints' packed keys, reading the plan's node maps in place.  A
        :data:`~repro.summary.ROW_PAIRS` row sums its edges' estimates in
        order from ``0.0``, exactly as :meth:`path_query` and
        :meth:`subgraph_query` do.

        Raises
        ------
        QueryError
            On a malformed range, an empty pair sequence or an unknown
            kind code, before any row is answered.
        """
        distinct: Dict[Vertex, None] = {}
        ranges: Dict[Tuple[int, int], None] = {}
        check_range = self.check_range
        for kind, a, b, t_start, t_end in rows:
            if kind == ROW_EDGE:
                distinct[a] = None
                distinct[b] = None
            elif kind == ROW_OUT or kind == ROW_IN:
                distinct[a] = None
            elif kind == ROW_PAIRS:
                if not a:
                    raise QueryError(
                        "a subgraph query needs at least one edge")
                for source, destination in a:
                    distinct[source] = None
                    distinct[destination] = None
            else:
                raise QueryError(f"unknown query row kind {kind!r}")
            if (t_start, t_end) not in ranges:
                check_range(t_start, t_end)
                ranges[t_start, t_end] = None
        plans = {key: self._plan(*key) for key in ranges}
        self._plans_reused += len(rows) - len(plans)
        packed = self._packed_keys(distinct)
        bits = vertex_bits(self.config)

        results: List[float] = []
        append = results.append
        edge_answer, vertex_answer = self._edge_answer, self._vertex_answer
        for kind, a, b, t_start, t_end in rows:
            plan = plans[t_start, t_end]
            if kind == ROW_EDGE:
                edge = (packed[a] << bits) | packed[b]  # pack_edge
                append(edge_answer(plan, edge, t_start, t_end))
            elif kind == ROW_PAIRS:
                total = 0.0
                for source, destination in a:
                    edge = (packed[source] << bits) | packed[destination]
                    total += edge_answer(plan, edge, t_start, t_end)
                append(total)
            else:
                append(vertex_answer(plan, packed[a], t_start, t_end,
                                     kind == ROW_OUT))
        return results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def plan_cache_stats(self) -> Dict[str, int]:
        """Plan counters: ``misses`` counts the range decompositions
        computed, and ``hits`` the queries that reused one computed earlier
        in the same :meth:`query_rows` (or :meth:`query_batch`) call."""
        return {"hits": self._plans_reused, "misses": self._plans_computed}

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
        """Analytic memory footprint of the whole structure.

        The first call after internal nodes were built places them
        (Algorithm 2's simulated bucket placement), so after a large ingest
        it costs far more than later calls.
        """
        return self._tree.memory_bytes()

    def stats(self) -> Dict[str, object]:
        """Structural statistics (leaf count, utilization, memory, ...);
        places internal nodes as :meth:`memory_bytes` does."""
        return self._tree.stats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Higgs(leaves={self.leaf_count}, height={self.height}, "
                f"items={self._tree.items_inserted})")
