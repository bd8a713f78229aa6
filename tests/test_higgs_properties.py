"""Property-based tests for HIGGS invariants (hypothesis).

The key paper-backed invariants:

* HIGGS answers exactly over its packed vertex keys: every answer equals
  the exact answer on the graph whose vertices are their packed keys
  (``tests/oracles.py``'s :class:`PackedReference`), so all of its error
  is vertex keys colliding;
* one-sided error — HIGGS never underestimates (Section V-D);
* with a fingerprint space much larger than the number of items the estimate
  is exact;
* deleting every inserted item returns every estimate to zero.
"""

from __future__ import annotations

import random
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PackedReference

from repro import Higgs, HiggsConfig
from repro.core.executor import pack_edges
from repro.queries.types import (EdgeQuery, PathQuery, SubgraphQuery,
                                 VertexQuery)
from repro.streams.edge import StreamEdge

# Small vertex universe to force edge repetition and hash pressure.
_vertices = st.integers(min_value=0, max_value=12).map(lambda i: f"v{i}")
_items = st.lists(
    st.tuples(_vertices, _vertices, st.integers(1, 9), st.integers(0, 300)),
    min_size=1, max_size=120)
_ranges = st.tuples(st.integers(0, 300), st.integers(0, 300)).map(
    lambda pair: (min(pair), max(pair)))


def _sorted_stream(items):
    return sorted(items, key=lambda item: item[3])


@given(items=_items, time_range=_ranges)
@settings(max_examples=60, deadline=None)
def test_edge_queries_never_underestimate(items, time_range):
    summary = Higgs(HiggsConfig(leaf_matrix_size=4, bucket_entries=1,
                                fingerprint_bits=10, num_probes=2))
    truth = defaultdict(float)
    t_start, t_end = time_range
    for source, destination, weight, timestamp in _sorted_stream(items):
        summary.insert(source, destination, float(weight), timestamp)
        if t_start <= timestamp <= t_end:
            truth[(source, destination)] += weight
    for (source, destination), expected in truth.items():
        estimate = summary.edge_query(source, destination, t_start, t_end)
        assert estimate >= expected - 1e-9


@given(items=_items, time_range=_ranges)
@settings(max_examples=60, deadline=None)
def test_vertex_queries_never_underestimate(items, time_range):
    summary = Higgs(HiggsConfig(leaf_matrix_size=4, bucket_entries=2,
                                fingerprint_bits=8, num_probes=1))
    out_truth = defaultdict(float)
    in_truth = defaultdict(float)
    t_start, t_end = time_range
    for source, destination, weight, timestamp in _sorted_stream(items):
        summary.insert(source, destination, float(weight), timestamp)
        if t_start <= timestamp <= t_end:
            out_truth[source] += weight
            in_truth[destination] += weight
    for vertex, expected in out_truth.items():
        assert summary.vertex_query(vertex, t_start, t_end) >= expected - 1e-9
    for vertex, expected in in_truth.items():
        assert summary.vertex_query(vertex, t_start, t_end,
                                    direction="in") >= expected - 1e-9


@given(items=_items, time_range=_ranges)
@settings(max_examples=40, deadline=None)
def test_generous_fingerprints_give_exact_estimates(items, time_range):
    summary = Higgs(HiggsConfig(leaf_matrix_size=8, fingerprint_bits=26,
                                num_probes=4))
    truth = defaultdict(float)
    t_start, t_end = time_range
    for source, destination, weight, timestamp in _sorted_stream(items):
        summary.insert(source, destination, float(weight), timestamp)
        if t_start <= timestamp <= t_end:
            truth[(source, destination)] += weight
    for (source, destination), expected in truth.items():
        estimate = summary.edge_query(source, destination, t_start, t_end)
        assert abs(estimate - expected) < 1e-9


# A 2 x 2 leaf of one-entry buckets: the closing burst of 13 items at one
# timestamp chains overflow blocks.
_CHAINED = HiggsConfig(leaf_matrix_size=2, bucket_entries=1,
                       fingerprint_bits=26, num_probes=1,
                       overflow_block_entries=1)
_BURST = [(f"v{i}", f"v{(i * 5) % 13}", 1, 300) for i in range(13)]


@given(items=_items, config=st.sampled_from([
    HiggsConfig(leaf_matrix_size=8, fingerprint_bits=26, num_probes=4),
    _CHAINED]))
@settings(max_examples=30, deadline=None)
def test_insert_then_delete_everything_returns_to_zero(items, config):
    summary = Higgs(config)
    ordered = _sorted_stream(items) + _BURST
    for source, destination, weight, timestamp in ordered:
        summary.insert(source, destination, float(weight), timestamp)
    if config is _CHAINED:
        assert any(leaf.overflow_blocks > 1 for leaf in summary.tree.leaves)
    for source, destination, weight, timestamp in ordered:
        summary.delete(source, destination, float(weight), timestamp)
    for source, destination, _weight, _timestamp in ordered:
        assert summary.edge_query(source, destination, 0, 300) <= 1e-9
        assert summary.vertex_query(source, 0, 300, "out") <= 1e-9
        assert summary.vertex_query(destination, 0, 300, "in") <= 1e-9


@given(items=_items)
@settings(max_examples=30, deadline=None)
def test_full_range_equals_sum_of_disjoint_subranges(items):
    """With exact fingerprints, query weight is additive over a time partition."""
    summary = Higgs(HiggsConfig(leaf_matrix_size=8, fingerprint_bits=26,
                                num_probes=4))
    for source, destination, weight, timestamp in _sorted_stream(items):
        summary.insert(source, destination, float(weight), timestamp)
    source, destination = items[0][0], items[0][1]
    full = summary.edge_query(source, destination, 0, 300)
    split = (summary.edge_query(source, destination, 0, 150)
             + summary.edge_query(source, destination, 151, 300))
    assert abs(full - split) < 1e-9


# Hash pressure: 2 x 2 or 4 x 4 leaf matrices of one- or two-entry buckets
# and fingerprints of at most 6 bits, so vertex keys collide, leaves open
# overflow blocks or close early, and parents spill.
_pressure_configs = st.builds(
    HiggsConfig,
    leaf_matrix_size=st.sampled_from([2, 4]),
    bucket_entries=st.integers(1, 2),
    fingerprint_bits=st.integers(1, 6),
    num_probes=st.integers(1, 3),
    enable_overflow_blocks=st.booleans(),
    overflow_block_entries=st.integers(1, 2),
    hash_seed=st.integers(0, 3))
#: Vertex ids of both kinds, 12 strings and 12 integers.
_IDS = [f"v{i}" for i in range(12)] + list(range(12))


@given(config=_pressure_configs, seed=st.integers(0, 2 ** 32 - 1),
       shuffled=st.booleans(), batch=st.booleans())
@settings(max_examples=40, deadline=None)
def test_answers_equal_exact_answers_over_packed_keys(config, seed, shuffled,
                                                      batch):
    """Every edge, in/out vertex, path and subgraph answer equals the packed
    reference's, ``==`` and not ``>=``, on integer weights (exact float
    sums) under hash pressure, with sorted or shuffled timestamps, deletes
    of items inserted earlier, and batch or per-item builds.

    A seeded stream of 200-600 items, about eight per timestamp, so
    overflow blocks fill and trees reach three or more layers.
    """
    rng = random.Random(seed)
    count = rng.randint(200, 600)
    stamps = sorted(rng.randrange(count // 8) for _ in range(count))
    if shuffled:
        rng.shuffle(stamps)
    edges = [StreamEdge(rng.choice(_IDS), rng.choice(_IDS),
                        float(rng.randint(1, 9)), stamp) for stamp in stamps]
    summary, reference = Higgs(config), PackedReference(config)
    start = 0
    while start < len(edges):
        chunk = edges[start:start + rng.randint(1, 80)]
        start += len(chunk)
        if batch:
            summary.insert_batch(pack_edges(chunk) if rng.random() < 0.5
                                 else chunk)
        else:
            for edge in chunk:
                summary.insert(edge.source, edge.destination, edge.weight,
                               edge.timestamp)
        for edge in chunk:
            reference.insert(edge.source, edge.destination, edge.weight,
                             edge.timestamp)
        for edge in rng.sample(edges[:start], min(start, rng.randint(0, 4))):
            weight = float(rng.randint(1, int(edge.weight)))
            summary.delete(edge.source, edge.destination, weight,
                           edge.timestamp)
            reference.delete(edge.source, edge.destination, weight,
                             edge.timestamp)

    t_end = count // 8
    pairs = sorted({(e.source, e.destination) for e in edges}, key=repr)
    ranges = [(0, t_end)] + [tuple(sorted((rng.randint(0, t_end),
                                           rng.randint(0, t_end))))
                             for _ in range(3)]
    queries = []
    for t_start, t_stop in ranges:
        queries += [EdgeQuery(s, d, t_start, t_stop)
                    for s, d in pairs + [("w0", _IDS[0])]]
        queries += [VertexQuery(v, t_start, t_stop, direction)
                    for v in _IDS + ["w0"] for direction in ("out", "in")]
        queries += [PathQuery(tuple(rng.choices(_IDS, k=4)), t_start, t_stop)
                    for _ in range(3)]
        queries += [SubgraphQuery(tuple(rng.choices(pairs, k=5)), t_start,
                                  t_stop) for _ in range(3)]
    expected = [query.evaluate(reference) for query in queries]
    assert summary.query_batch(queries) == expected
    assert [query.evaluate(summary) for query in queries] == expected
