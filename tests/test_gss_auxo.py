"""Tests for the Auxo non-temporal graph summary."""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.auxo import Auxo
from repro.errors import ConfigurationError


class TestAuxo:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Auxo(matrix_size=1)
        with pytest.raises(ConfigurationError):
            Auxo(fingerprint_bits=1)

    def test_insert_then_query_exact_for_small_load(self):
        auxo = Auxo(matrix_size=32, fingerprint_bits=16)
        auxo.insert("a", "b", 2.0)
        auxo.insert("a", "b", 1.0)
        auxo.insert("c", "d", 4.0)
        assert auxo.edge_query("a", "b") == pytest.approx(3.0)
        assert auxo.edge_query("c", "d") == pytest.approx(4.0)
        assert auxo.edge_query("x", "y") == 0.0

    def test_pet_grows_with_load_and_stays_one_sided(self):
        auxo = Auxo(matrix_size=8, fingerprint_bits=12, bucket_entries=1,
                    num_probes=1)
        truth = defaultdict(float)
        for i in range(2_000):
            source, destination = f"s{i % 300}", f"d{i % 211}"
            auxo.insert(source, destination, 1.0)
            truth[(source, destination)] += 1.0
        assert auxo.depth > 1
        assert auxo.node_count > 1
        for (source, destination), expected in list(truth.items())[:200]:
            assert auxo.edge_query(source, destination) >= expected - 1e-9

    def test_vertex_query_directions(self):
        auxo = Auxo(matrix_size=32, fingerprint_bits=14)
        auxo.insert("a", "b", 1.0)
        auxo.insert("a", "c", 2.0)
        auxo.insert("d", "a", 4.0)
        assert auxo.vertex_query("a") >= 3.0
        assert auxo.vertex_query("a", direction="in") >= 4.0

    def test_delete_subtracts(self):
        auxo = Auxo(matrix_size=32, fingerprint_bits=14)
        auxo.insert("a", "b", 5.0)
        auxo.delete("a", "b", 2.0)
        assert auxo.edge_query("a", "b") == pytest.approx(3.0)

    def test_memory_grows_with_levels(self):
        auxo = Auxo(matrix_size=8, fingerprint_bits=12, bucket_entries=1,
                    num_probes=1)
        initial = auxo.memory_bytes()
        for i in range(1_000):
            auxo.insert(f"s{i}", f"d{i}", 1.0)
        assert auxo.memory_bytes() > initial


@given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25),
                          st.integers(1, 4)), min_size=1, max_size=120))
@settings(max_examples=30, deadline=None)
def test_property_gss_and_auxo_never_underestimate(items):
    auxo = Auxo(matrix_size=8, fingerprint_bits=10, bucket_entries=2, num_probes=1)
    truth = defaultdict(float)
    for source, destination, weight in items:
        auxo.insert(source, destination, float(weight))
        truth[(source, destination)] += weight
    for (source, destination), expected in truth.items():
        assert auxo.edge_query(source, destination) >= expected - 1e-9
