"""Tests for the compressed matrix of the GSS-style baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import VertexHasher
from repro.baselines.matrix import CompressedMatrix, MatrixEntry
from repro.errors import ConfigurationError


def _coords(vertex: str, hasher: VertexHasher):
    return hasher.split(vertex)


@pytest.fixture()
def hasher() -> VertexHasher:
    return VertexHasher(fingerprint_bits=12, matrix_size=8)


@pytest.fixture()
def matrix() -> CompressedMatrix:
    return CompressedMatrix(size=8, bucket_entries=2, num_probes=2,
                            entry_bytes=14)


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            CompressedMatrix(size=0, bucket_entries=2)
        with pytest.raises(ConfigurationError):
            CompressedMatrix(size=4, bucket_entries=0)
        with pytest.raises(ConfigurationError):
            CompressedMatrix(size=4, bucket_entries=1, num_probes=0)

    def test_capacity_and_memory(self):
        matrix = CompressedMatrix(size=4, bucket_entries=3, entry_bytes=10)
        assert matrix.capacity == 4 * 4 * 3
        assert matrix.memory_bytes() == matrix.capacity * 10
        assert len(matrix) == 0


class TestInsertAndEdgeQuery:
    def test_insert_then_query_returns_weight(self, matrix, hasher):
        fs, hs = _coords("a", hasher)
        fd, hd = _coords("b", hasher)
        assert matrix.insert(fs, fd, hs, hd, 2.5)
        assert matrix.query_edge(fs, fd, hs, hd) == 2.5
        assert len(matrix) == 1

    def test_same_item_accumulates_in_one_entry(self, matrix, hasher):
        fs, hs = _coords("a", hasher)
        fd, hd = _coords("b", hasher)
        matrix.insert(fs, fd, hs, hd, 1.0)
        matrix.insert(fs, fd, hs, hd, 3.0)
        assert len(matrix) == 1
        assert matrix.query_edge(fs, fd, hs, hd) == 4.0

    def test_absent_edge_returns_zero(self, matrix, hasher):
        fs, hs = _coords("nope", hasher)
        fd, hd = _coords("never", hasher)
        assert matrix.query_edge(fs, fd, hs, hd) == 0.0

class TestInsertionFailure:
    def test_insert_fails_when_all_candidate_buckets_full(self):
        # A 1x1 matrix with one entry per bucket and a single probe can hold
        # exactly one distinct item.
        matrix = CompressedMatrix(size=1, bucket_entries=1, num_probes=1)
        assert matrix.insert(1, 1, 0, 0, 1.0)
        assert not matrix.insert(2, 2, 0, 0, 1.0)
        # The matching item still accumulates.
        assert matrix.insert(1, 1, 0, 0, 1.0)

    def test_multiple_probes_reduce_failures(self):
        single = CompressedMatrix(size=8, bucket_entries=1, num_probes=1)
        multi = CompressedMatrix(size=8, bucket_entries=1, num_probes=4)
        hasher = VertexHasher(fingerprint_bits=10, matrix_size=8, seed=5)
        single_failures = multi_failures = 0
        for i in range(120):
            fs, hs = hasher.split(f"s{i}")
            fd, hd = hasher.split(f"d{i}")
            if not single.insert(fs, fd, hs, hd, 1.0):
                single_failures += 1
            if not multi.insert(fs, fd, hs, hd, 1.0):
                multi_failures += 1
        assert multi_failures < single_failures


class TestDecrement:
    def test_decrement_existing_entry(self, matrix, hasher):
        fs, hs = _coords("a", hasher)
        fd, hd = _coords("b", hasher)
        matrix.insert(fs, fd, hs, hd, 5.0)
        assert matrix.decrement(fs, fd, hs, hd, 2.0)
        assert matrix.query_edge(fs, fd, hs, hd) == 3.0

    def test_decrement_missing_entry_returns_false(self, matrix, hasher):
        fs, hs = _coords("a", hasher)
        fd, hd = _coords("b", hasher)
        assert not matrix.decrement(fs, fd, hs, hd, 2.0)


class TestVertexQuery:
    def test_out_and_in_direction(self, matrix, hasher):
        fa, ha = _coords("a", hasher)
        fb, hb = _coords("b", hasher)
        fc, hc = _coords("c", hasher)
        matrix.insert(fa, fb, ha, hb, 1.0)
        matrix.insert(fa, fc, ha, hc, 2.0)
        matrix.insert(fb, fc, hb, hc, 4.0)
        assert matrix.query_vertex(fa, ha, direction="out") == 3.0
        assert matrix.query_vertex(fc, hc, direction="in") == 6.0
        assert matrix.query_vertex(fa, ha, direction="in") == 0.0

class TestMatrixEntry:
    def test_matches_semantics(self):
        entry = MatrixEntry(1, 2, 0, 0, 1.0)
        assert entry.matches(1, 2)
        assert not entry.matches(2, 2)
        assert not entry.matches(1, 3)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                          st.integers(1, 5)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_property_estimates_never_underestimate(items):
    """Whatever fits in the matrix, an edge query never returns less than the
    exact weight of the queried (source, destination) pair."""
    hasher = VertexHasher(fingerprint_bits=10, matrix_size=8, seed=3)
    matrix = CompressedMatrix(size=8, bucket_entries=4, num_probes=2)
    truth = {}
    for src, dst, weight in items:
        fs, hs = hasher.split(src)
        fd, hd = hasher.split(dst)
        if matrix.insert(fs, fd, hs, hd, float(weight)):
            truth[(src, dst)] = truth.get((src, dst), 0.0) + weight
    for (src, dst), total in truth.items():
        fs, hs = hasher.split(src)
        fd, hd = hasher.split(dst)
        assert matrix.query_edge(fs, fd, hs, hd) >= total - 1e-9
