"""Bit-identity of the batch paths against the per-item reference.

The batch paths — batch ingest with its vertex memo, Algorithm 2
aggregation on numpy, ``query_batch`` with its shared endpoints and plans,
the packed edge batches — are *optimizations*, never a semantic change:
they must produce byte-for-byte the same summary (each leaf's per-block
bucket occupancy, overflow-block keys, item weights, edge and vertex
indexes, time range and item count; each internal node's ordered key map,
placed count and vertex maps) and the same query answers as per-item
``Higgs.insert`` and per-item queries, the scalar reference path.  These
tests build the same stream both ways and compare deep structural digests
plus every query type (edge, vertex in/out, path, subgraph) through both
the per-item and the batch query APIs, and check each shard of a sharded
engine against per-item ingest of its partition, for both partition
modes.  Internal nodes are placed lazily, so the digests compare placed
trees, and one test checks that when placement runs changes no answer and
no placed tree.

Array kernels (``probe_rows_array`` against
:func:`repro.core.hashing.probe_address`) and the packed key's lift
invariance are pinned separately, so a divergence points at the exact
kernel rather than at "the tree ended up different".  Vertex hashing has
one, scalar, implementation; ``tests/test_hashing.py`` pins it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Higgs, HiggsConfig
from repro.baselines.exact import ExactTemporalGraph
from repro.core import vectorized
from repro.core.aggregation import lift_coordinates
from repro.core.executor import pack_edges
from repro.core.hashing import probe_address, shard_of
from repro.core.node import pack_vertex, unpack_vertex, vertex_bits
from repro.queries.types import (EdgeQuery, PathQuery, SubgraphQuery,
                                 VertexQuery)
from repro.sharding import HiggsShardFactory, ShardedSummary
from repro.streams.edge import StreamEdge

# Small universes force fingerprint collisions, bucket spills, overflow
# blocks, and aggregation — the structurally interesting regimes.
_SMALL = HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                     fingerprint_bits=8, num_probes=2, fanout=4)
_MEDIUM = HiggsConfig(leaf_matrix_size=8, bucket_entries=2,
                      fingerprint_bits=12, num_probes=3)

_vertices = st.integers(min_value=0, max_value=20).map(lambda i: f"v{i}")
_edges = st.lists(
    st.tuples(_vertices, _vertices, st.integers(1, 9), st.integers(0, 120)),
    min_size=1, max_size=150).map(
        lambda items: [StreamEdge(s, d, float(w), t)
                       for s, d, w, t in
                       sorted(items, key=lambda item: item[3])])


def _leaf_digest(leaf):
    return ([list(occupancy.items()) for occupancy in leaf.occupancy],
            sorted(leaf.overflow),
            list(leaf.weights.items()), list(leaf.edges.items()),
            list(leaf.sources.items()), list(leaf.destinations.items()),
            leaf.t_min, leaf.t_max, leaf.arrivals, leaf.closed)


def _tree_digest(summary: Higgs):
    stats = summary.stats()  # places every internal node
    tree = summary._tree
    leaves = [_leaf_digest(leaf) for leaf in tree.leaves]
    internal = [
        [(list(node.weights.items()), node.placed, node.out_weights,
          node.in_weights, node.keys, node.t_min, node.t_max)
         for node in level]
        for level in tree.internal_levels()]
    return (leaves, internal, stats)


def _build(config, edges, batch: bool):
    summary = Higgs(config)
    if batch:
        summary.insert_batch(edges)
    else:
        for edge in edges:
            summary.insert(edge.source, edge.destination, edge.weight,
                           edge.timestamp)
    return summary


def _queries(edges):
    t_min = min(e.timestamp for e in edges)
    t_max = max(e.timestamp for e in edges)
    spans = [(t_min, t_max), (t_min, (t_min + t_max) // 2), (t_max, t_max)]
    built = []
    for t0, t1 in spans:
        for edge in edges[:20]:
            built.append(EdgeQuery(edge.source, edge.destination, t0, t1))
            built.append(VertexQuery(edge.source, t0, t1, "out"))
            built.append(VertexQuery(edge.destination, t0, t1, "in"))
        if len(edges) >= 2:
            built.append(PathQuery((edges[0].source, edges[0].destination,
                                    edges[1].destination), t0, t1))
            built.append(SubgraphQuery(
                tuple((e.source, e.destination) for e in edges[:5]), t0, t1))
    return built


# --------------------------------------------------------------------- #
# kernel-level equivalences
# --------------------------------------------------------------------- #

@given(items=st.lists(st.tuples(st.integers(0, 2 ** 19 - 1),
                                st.integers(0, 15)),
                      min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_probe_rows_array_matches_scalar(items):
    fingerprints = np.asarray([fp for fp, _ in items], dtype=np.int64)
    addresses = np.asarray([addr for _, addr in items], dtype=np.int64)
    bulk = vectorized.probe_rows_array(fingerprints, addresses, 4, 16)
    for row, (fp, addr) in zip(bulk.tolist(), items):
        assert row == [probe_address(addr, i, fp, 16) for i in range(4)]


@given(fps=st.lists(st.integers(0, 2 ** 12 - 1), min_size=1, max_size=50),
       level=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_packed_vertex_key_is_lift_invariant(fps, level):
    # Aggregation passes packed keys up unlifted: a vertex must pack to the
    # same integer at every layer, even once its fingerprint is exhausted.
    config = _MEDIUM
    for fp in fps:
        addr = fp % config.leaf_matrix_size
        packed = pack_vertex(fp, addr, config.fingerprint_bits)
        assert packed < 1 << vertex_bits(config)
        lifted_fp, lifted_addr = lift_coordinates(fp, addr, 1, level, config)
        assert pack_vertex(lifted_fp, lifted_addr,
                           config.fingerprint_bits_at(level)) == packed
        assert unpack_vertex(packed, config.fingerprint_bits_at(level)) == \
            (lifted_fp, lifted_addr)


# --------------------------------------------------------------------- #
# end-to-end bit identity
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("config", [_SMALL, _MEDIUM],
                         ids=["small", "medium"])
@given(edges=_edges)
@settings(max_examples=25, deadline=None)
def test_batch_insert_summary_bit_identical(config, edges):
    assert _tree_digest(_build(config, edges, batch=True)) == \
        _tree_digest(_build(config, edges, batch=False))


@given(edges=_edges,
       cuts=st.lists(st.integers(0, 150), max_size=6),
       forms=st.lists(st.sampled_from(["list", "generator", "packed"]),
                      min_size=7, max_size=7))
@settings(max_examples=20, deadline=None)
def test_batch_insert_matches_per_item_inserts(edges, cuts, forms):
    """Batch boundaries anywhere, in every input form the batch path takes
    (list, streamed iterable, packed arrays)."""
    bounds = [0, *sorted(min(cut, len(edges)) for cut in cuts), len(edges)]
    batched = Higgs(_SMALL)
    for start, end, form in zip(bounds, bounds[1:], forms, strict=False):
        chunk = edges[start:end]
        if form == "generator":
            batch = iter(chunk)
        elif form == "packed":
            batch = pack_edges(chunk)
        else:
            batch = chunk
        assert batched.insert_batch(batch) == len(chunk)
    assert _tree_digest(batched) == \
        _tree_digest(_build(_SMALL, edges, batch=False))


def _bits(answers):
    """Answers as exact bit patterns, so ``-0.0`` differs from ``0.0``."""
    return [answer.hex() for answer in answers]


@given(edges=_edges)
@settings(max_examples=20, deadline=None)
def test_query_answers_bit_identical(edges):
    """Batch and per-item queries answer alike whether their endpoints'
    keys come from the vertex memo or are hashed: on a summary with an
    empty memo, a batch-built one, and one whose memo another stream
    warmed, round-tripped through pickle.  Endpoints no stream ingested
    are queried too, and no query writes the memo."""
    t_min, t_max = edges[0].timestamp, edges[-1].timestamp
    unseen = [EdgeQuery("w0", edges[0].destination, t_min, t_max),
              EdgeQuery(edges[0].source, "w1", t_min, t_max),
              VertexQuery("w2", t_min, t_max, "out"),
              VertexQuery("w0", t_min, t_max, "in"),
              PathQuery((edges[0].source, "w3", edges[0].destination),
                        t_min, t_max),
              SubgraphQuery((("w4", "w5"), (edges[0].source,
                                            edges[0].destination)),
                            t_min, t_max)]
    queries = _queries(edges) + unseen
    batched = _build(_SMALL, edges, batch=True)
    itemized = _build(_SMALL, edges, batch=False)
    donor = Higgs(_SMALL)
    donor.insert_batch([StreamEdge(f"v{i % 23}", f"u{i % 7}", 1.0, i)
                        for i in range(60)])
    warmed = Higgs(_SMALL)
    warmed._vertices.update(donor._vertices)
    warmed.insert_batch(edges)
    warmed = pickle.loads(pickle.dumps(warmed))
    reference = _bits(query.evaluate(itemized) for query in queries)
    for summary in (itemized, batched, warmed):
        memo = len(summary._vertices)
        assert _bits(summary.query_batch(queries)) == reference
        assert _bits(query.evaluate(summary) for query in queries) == \
            reference
        assert len(summary._vertices) == memo
    assert len(itemized._vertices) == 0


@pytest.mark.parametrize("partition_by", ["source", "edge"])
@given(edges=_edges)
@settings(max_examples=10, deadline=None)
def test_sharded_answers_bit_identical(partition_by, edges):
    queries = _queries(edges)
    engine = ShardedSummary(HiggsShardFactory(_SMALL), shards=3,
                            partition_by=partition_by)
    try:
        engine.insert_batch(edges)
        parts = engine.partitioner.split(edges)
        for shard, part in zip(engine.shard_summaries(), parts, strict=True):
            assert _tree_digest(shard) == \
                _tree_digest(_build(_SMALL, part, batch=False))
        assert engine.query_batch(queries) == \
            [query.evaluate(engine) for query in queries]
    finally:
        engine.close()


def test_rounds_in_flight_bit_identical():
    """``insert_stream`` with partition rounds in flight on process workers
    builds each shard exactly as per-item ingest of its partition, and a
    1-shard engine exactly as a bare HIGGS."""
    edges = [StreamEdge(f"v{(i * 7) % 23}", f"v{(i * 11) % 19}",
                        float(1 + i % 5), i // 3) for i in range(400)]
    for shards in (3, 1):
        engine = ShardedSummary(HiggsShardFactory(_SMALL), shards=shards,
                                executor="process")
        try:
            assert engine.insert_stream(edges, batch_size=7) == len(edges)
            for shard in range(shards):
                engine.migrate_shard(shard, executor="serial")
            # With one shard the only part is the whole stream, so the
            # reference is a bare HIGGS fed every edge.
            parts = engine.partitioner.split(edges)
            for summary, part in zip(engine.shard_summaries(), parts,
                                     strict=True):
                assert _tree_digest(summary) == \
                    _tree_digest(_build(_SMALL, part, batch=False))
        finally:
            engine.close()


_float_edges = st.lists(
    st.tuples(_vertices, _vertices,
              st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
              st.integers(0, 300)),
    min_size=150, max_size=600)


@given(items=_float_edges, shuffled=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_placement_time_changes_nothing(items, shuffled, data):
    """Internal nodes are placed when the memory model first asks.  A
    summary asked at random points, and pickled and restored at others,
    answers every edge and vertex query and digests exactly as a twin
    asked only at the end, with non-integer weights and sorted or shuffled
    timestamps."""
    if not shuffled:
        items = sorted(items, key=lambda item: item[3])
    edges = [StreamEdge(s, d, w, t) for s, d, w, t in items]
    probed, twin = Higgs(_SMALL), Higgs(_SMALL)
    start = 0
    while start < len(edges):
        chunk = edges[start:start + data.draw(st.integers(1, 40))]
        start += len(chunk)
        per_item = data.draw(st.booleans())
        victims = data.draw(st.lists(st.sampled_from(edges[:start]),
                                     max_size=3))
        for summary in (probed, twin):
            if per_item:
                for edge in chunk:
                    summary.insert(edge.source, edge.destination,
                                   edge.weight, edge.timestamp)
            else:
                summary.insert_batch(chunk)
            for edge in victims:
                summary.delete(edge.source, edge.destination,
                               edge.weight / 3, edge.timestamp)
        probe = data.draw(st.sampled_from(["none", "memory", "stats",
                                           "pickle"]))
        if probe == "memory":
            probed.memory_bytes()
        elif probe == "stats":
            probed.stats()
        elif probe == "pickle":
            probed = pickle.loads(pickle.dumps(probed))
    stamps = [edge.timestamp for edge in edges]
    ranges = [(min(stamps), max(stamps))] + data.draw(st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)).map(sorted),
        min_size=1, max_size=3))
    pairs = sorted({(edge.source, edge.destination) for edge in edges})
    vertices = sorted({vertex for pair in pairs for vertex in pair})
    for t_start, t_end in ranges:
        for source, destination in pairs:
            assert probed.edge_query(source, destination, t_start, t_end) \
                == twin.edge_query(source, destination, t_start, t_end)
        for vertex in vertices:
            for direction in ("out", "in"):
                assert probed.vertex_query(vertex, t_start, t_end,
                                           direction) == \
                    twin.vertex_query(vertex, t_start, t_end, direction)
    assert probed.memory_bytes() == twin.memory_bytes()
    assert _tree_digest(probed) == _tree_digest(twin)


# Spill- and overflow-forcing configs: one- and two-slot buckets in 2 x 2
# leaf matrices, one-slot overflow blocks; 40-bit fingerprints make a packed
# edge key too wide for int64.
_PRESSURE = {
    "r1": HiggsConfig(leaf_matrix_size=2, bucket_entries=1,
                      fingerprint_bits=6, num_probes=1,
                      overflow_block_entries=1),
    "r2b2": HiggsConfig(leaf_matrix_size=2, bucket_entries=2,
                        fingerprint_bits=8, num_probes=2,
                        overflow_block_entries=1),
    "wide": HiggsConfig(leaf_matrix_size=2, bucket_entries=1,
                        fingerprint_bits=40, num_probes=2,
                        overflow_block_entries=1),
}


def _batched(config, edges, sizes, forms):
    """A summary fed ``edges`` in batches of the given sizes and forms
    (list or packed), cycling through both."""
    summary = Higgs(config)
    start = 0
    for size, form in zip(sizes, forms, strict=True):
        chunk = edges[start:start + size]
        start += len(chunk)
        summary.insert_batch(pack_edges(chunk) if form == "packed"
                             else chunk)
    summary.insert_batch(edges[start:])
    return summary


@pytest.mark.parametrize("config", list(_PRESSURE.values()),
                         ids=list(_PRESSURE))
def test_pressure_configs_spill_and_overflow(config):
    """The configs below force leaf overflow blocks and parent spills on a
    fixed stream with non-integer weights, and both ingest paths build
    the same summary there."""
    edges = [StreamEdge(f"v{(i * 7) % 13}", f"v{(i * 5) % 11}",
                        0.1 * (i % 7) + 0.3, i // 3) for i in range(600)]
    batched = _batched(config, edges, [97, 211, 5], ["packed", "list",
                                                      "packed"])
    itemized = _build(config, edges, batch=False)
    assert _tree_digest(batched) == _tree_digest(itemized)
    assert any(leaf.overflow for leaf in batched.tree.leaves)
    assert sum(node.spilled for level in batched.tree.internal_levels()
               for node in level) > 0


@pytest.mark.parametrize("config", list(_PRESSURE.values()),
                         ids=list(_PRESSURE))
@given(items=st.lists(
    st.tuples(_vertices, _vertices,
              st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
              st.integers(0, 40)),
    min_size=1, max_size=300),
    shuffled=st.booleans(),
    sizes=st.lists(st.integers(1, 80), max_size=6),
    data=st.data())
@settings(max_examples=30, deadline=None)
def test_float_weights_batch_bit_identical_under_pressure(config, items,
                                                          shuffled, sizes,
                                                          data):
    """Batch and per-item ingest build the same summary, bit for bit, on
    non-integer weights where leaves overflow and parents spill: both add
    each level-2 sum in arrival order, leaf by leaf."""
    if not shuffled:
        items = sorted(items, key=lambda item: item[3])
    edges = [StreamEdge(s, d, w, t) for s, d, w, t in items]
    forms = data.draw(st.lists(st.sampled_from(["list", "packed"]),
                               min_size=len(sizes), max_size=len(sizes)))
    batched = _batched(config, edges, sizes, forms)
    itemized = _build(config, edges, batch=False)
    assert _tree_digest(batched) == _tree_digest(itemized)
    queries = _queries(edges)
    assert batched.query_batch(queries) == itemized.query_batch(queries)


@given(other=_edges, edges=_edges)
@settings(max_examples=15, deadline=None)
def test_warm_vertex_memo_changes_nothing(other, edges):
    """The vertex memo caches a pure function of the vertex and the config:
    a summary whose memo another stream warmed, before or after a pickle
    round trip, builds the tree and the answers a fresh summary builds."""
    warm = Higgs(_SMALL)
    warm.insert_batch(other)
    restored = pickle.loads(pickle.dumps(warm))
    assert restored._vertices == warm._vertices
    fresh = _build(_SMALL, edges, batch=True)
    queries = _queries(edges)
    for donor in (warm, restored):
        summary = Higgs(_SMALL)
        summary._vertices.update(donor._vertices)
        summary.insert_batch(pack_edges(edges))
        assert _tree_digest(summary) == _tree_digest(fresh)
        assert summary.query_batch(queries) == fresh.query_batch(queries)
    for summary in (warm, restored):
        summary.insert_batch(edges)
    assert _tree_digest(warm) == _tree_digest(restored) == \
        _tree_digest(_build(_SMALL, other + edges, batch=False))


class _PoisonedBatch:
    """A packed batch whose weight at one position is ``None``, which
    cannot be added to a float weight."""

    def __init__(self, edges, position):
        self._packed = pack_edges(edges)
        self._position = position

    def packed_arrays(self):
        vertices, src_idx, dst_idx, weights, stamps = \
            self._packed.packed_arrays()
        weights = weights.astype(object)
        weights[self._position] = None
        return vertices, src_idx, dst_idx, weights, stamps


def test_item_raising_mid_run_keeps_accounting_exact():
    """An item that raises inside a leaf's run leaves the items before it
    applied and counted, aggregates the groups completed before it, and
    applies nothing after it."""
    edges = [StreamEdge(f"v{(i * 7) % 11}", f"v{(i * 5) % 13}",
                        0.5 + i % 3, i // 4) for i in range(160)]
    bad = 110
    # The poisoned item re-arrives the item before it, so it hits a key the
    # open leaf already holds and its weight is added, not stored.
    poisoned = edges[:bad] + [edges[bad - 1]] + edges[bad:]
    summary = Higgs(_SMALL)
    with pytest.raises(TypeError):
        summary.insert_batch(_PoisonedBatch(poisoned, bad))
    twin = Higgs(_SMALL)
    twin.insert_batch(pack_edges(edges[:bad]))
    assert summary.tree.items_inserted == twin.tree.items_inserted == bad
    assert summary.height >= 2
    assert _tree_digest(summary) == _tree_digest(twin)
    for built in (summary, twin):
        built.insert_batch(edges[bad:])
    assert _tree_digest(summary) == _tree_digest(twin)


def test_integer_vertex_ids_hash_by_value():
    """``7`` and ``np.int64(7)``, and ``1``, ``np.int64(1)`` and ``True``,
    compare equal, so the batch paths index each group as one vertex;
    every path, the shard assignment and the exact reference agree."""
    stream = [StreamEdge(np.int64(7), 2, 1.0, 0), StreamEdge(7, 2, 5.0, 1),
              StreamEdge(True, np.int64(7), 2.0, 1),
              StreamEdge(1, 7, 3.0, 2),
              StreamEdge(np.int64(1), True, 4.0, 3)]
    config = HiggsConfig(leaf_matrix_size=8, fingerprint_bits=12)
    per_item = _build(config, stream, batch=False)
    listed = _build(config, stream, batch=True)
    packed = Higgs(config)
    packed.insert_batch(pack_edges(stream))
    exact = ExactTemporalGraph()
    for edge in stream:
        exact.insert(edge.source, edge.destination, edge.weight,
                     edge.timestamp)
    queries = [EdgeQuery(7, 2, 0, 3), EdgeQuery(np.int64(7), 2, 0, 0),
               EdgeQuery(1, 7, 0, 3), EdgeQuery(True, np.int64(7), 0, 3),
               EdgeQuery(1, 1, 0, 3),
               VertexQuery(7, 0, 3, "out"), VertexQuery(7, 0, 3, "in"),
               VertexQuery(np.int64(1), 0, 3, "out"),
               VertexQuery(True, 0, 3, "in")]
    truth = [query.evaluate(exact) for query in queries]
    assert truth[:5] == [6.0, 1.0, 5.0, 5.0, 4.0]
    for summary in (per_item, listed, packed):
        assert [query.evaluate(summary) for query in queries] == truth
        assert summary.query_batch(queries) == truth
    assert _tree_digest(listed) == _tree_digest(per_item) == \
        _tree_digest(packed)
    for shards in (2, 3, 5):
        assert shard_of(np.int64(7), shards) == shard_of(7, shards)
        assert shard_of(True, shards) == shard_of(np.int64(1), shards) == \
            shard_of(1, shards)


def test_generator_prefix_applied_on_mid_stream_error():
    """A dying iterable keeps the per-item contract: every item it yielded
    before raising is applied."""

    class Boom(RuntimeError):
        pass

    prefix = [StreamEdge(f"v{i % 7}", f"v{(i + 1) % 7}", 1.0, i)
              for i in range(40)]

    def stream():
        yield from prefix
        raise Boom()

    summary = Higgs(_SMALL)
    with pytest.raises(Boom):
        summary.insert_batch(stream())
    assert _tree_digest(summary) == \
        _tree_digest(_build(_SMALL, prefix, batch=False))
