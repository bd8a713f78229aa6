"""Bit-identity of the vectorized (numpy) paths against the per-item reference.

The array paths — batch ingest, Algorithm 2 aggregation, ``query_batch``
endpoint hashing, the packed edge batches — are *optimizations*,
never a semantic change: they must produce byte-for-byte the same summary
(each leaf's per-block placements and occupancy, item weights, edge and
vertex indexes and time range; each internal node's ordered key map,
spilled keys and vertex maps) and the
same query answers as per-item ``Higgs.insert`` and per-item queries, the
scalar reference path.  These tests build the same stream both ways and
compare deep structural digests plus every query type (edge, vertex in/out,
path, subgraph) through both the per-item and the batch query APIs, and
check each shard of a sharded engine against per-item ingest of its
partition, for both partition modes.

Kernel-level properties (``hash64_array`` vs :func:`repro.core.hashing.hash64`
and friends) are pinned separately so a divergence points at the exact
kernel rather than at "the tree ended up different".
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Higgs, HiggsConfig
from repro.core import vectorized
from repro.core.aggregation import lift_coordinates
from repro.core.executor import pack_edges
from repro.core.hashing import VertexHasher, hash64, probe_address
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
_keys = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.text(max_size=24),
    st.binary(max_size=24))


def _leaf_digest(leaf):
    return ([list(placement.items()) for placement in leaf.placements],
            [list(occupancy.items()) for occupancy in leaf.occupancy],
            list(leaf.weights.items()), list(leaf.edges.items()),
            list(leaf.sources.items()), list(leaf.destinations.items()),
            leaf.t_min, leaf.t_max, leaf.closed)


def _tree_digest(summary: Higgs):
    tree = summary._tree
    leaves = [_leaf_digest(leaf) for leaf in tree.leaves]
    internal = [
        [(list(node.weights.items()), list(node.weights)[node.placed:],
          node.placed, node.out_weights, node.in_weights, node.keys,
          node.t_min, node.t_max)
         for node in level]
        for level in tree.internal_levels()]
    return (leaves, internal, summary.stats())


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

@given(keys=st.lists(_keys, min_size=1, max_size=60),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_hash64_array_matches_scalar(keys, seed):
    bulk = vectorized.hash64_array(keys, seed).tolist()
    assert bulk == [hash64(key, seed) for key in keys]


@given(keys=st.lists(_keys, min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_split_array_matches_vertex_hasher(keys, seed):
    config = HiggsConfig(hash_seed=seed)
    hasher = VertexHasher(config.fingerprint_bits, config.leaf_matrix_size,
                          seed=seed)
    hashes = vectorized.hash64_array(keys, seed)
    fingerprints, addresses = vectorized.split_array(
        hashes, config.fingerprint_bits, config.leaf_matrix_size)
    expected = [hasher.split(key) for key in keys]
    assert list(zip(fingerprints.tolist(), addresses.tolist())) == expected


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


@pytest.mark.parametrize("config", [
    _MEDIUM, HiggsConfig(leaf_matrix_size=8, fingerprint_bits=40)],
    ids=["int64", "wide"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pack_vertex_array_matches_scalar(config, data):
    items = data.draw(st.lists(
        st.tuples(st.integers(0, 2 ** config.fingerprint_bits - 1),
                  st.integers(0, config.leaf_matrix_size - 1)),
        min_size=1, max_size=50))
    fingerprints = np.asarray([fp for fp, _ in items], dtype=np.int64)
    addresses = np.asarray([addr for _, addr in items], dtype=np.int64)
    bulk = vectorized.pack_vertex_array(fingerprints, addresses, config)
    assert bulk.tolist() == [pack_vertex(fp, addr, config.fingerprint_bits)
                             for fp, addr in items]


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


@given(edges=_edges)
@settings(max_examples=20, deadline=None)
def test_query_answers_bit_identical(edges):
    queries = _queries(edges)
    batched = _build(_SMALL, edges, batch=True)
    itemized = _build(_SMALL, edges, batch=False)
    reference = [query.evaluate(itemized) for query in queries]
    assert batched.query_batch(queries) == reference
    assert itemized.query_batch(queries) == reference
    assert [query.evaluate(batched) for query in queries] == reference


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
