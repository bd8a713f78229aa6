"""Property-based tests for HIGGS invariants (hypothesis).

The key paper-backed invariants:

* one-sided error — HIGGS never underestimates (Section V-D);
* with a fingerprint space much larger than the number of items the estimate
  is exact;
* deleting every inserted item returns every estimate to zero.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Higgs, HiggsConfig

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
