"""Tests for vertex hashing, fingerprint/address splitting, and probing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (VertexHasher, hash64, lift_address,
                                probe_address, probe_step)
from repro.errors import ConfigurationError


class TestHash64:
    def test_deterministic_across_calls(self):
        assert hash64("vertex-1") == hash64("vertex-1")

    def test_different_keys_differ(self):
        assert hash64("vertex-1") != hash64("vertex-2")

    def test_seed_changes_hash(self):
        assert hash64("vertex-1", seed=1) != hash64("vertex-1", seed=2)

    def test_supports_ints_bytes_and_other_objects(self):
        assert isinstance(hash64(42), int)
        assert isinstance(hash64(b"abc"), int)
        assert isinstance(hash64(("a", 3)), int)

    def test_result_fits_64_bits(self):
        for key in ["a", "b", 17, ("x", 2)]:
            assert 0 <= hash64(key) < (1 << 64)

    def test_negative_integers_supported(self):
        assert hash64(-5) != hash64(5)

    @given(st.text(min_size=0, max_size=30))
    @settings(max_examples=50)
    def test_stable_for_arbitrary_text(self, key):
        assert hash64(key) == hash64(key)


class TestProbeSequence:
    def test_probe_zero_is_base(self):
        assert probe_address(5, 0, 13, 16) == 5

    def test_probe_step_is_odd(self):
        for fingerprint in range(20):
            assert probe_step(fingerprint) % 2 == 1


class TestLiftAddress:
    def test_paper_figure8_example(self):
        # Fingerprint 0b101, address 0, shift one bit -> address 0b01, fp 0b01.
        fingerprint, address = lift_address(0b101, 0, 3, 1)
        assert address == 0b01
        assert fingerprint == 0b01

    def test_zero_shift_is_identity(self):
        assert lift_address(0b1011, 3, 4, 0) == (0b1011, 3)

    def test_shift_larger_than_fingerprint_rejected(self):
        with pytest.raises(ConfigurationError):
            lift_address(0b1, 0, 1, 2)

    @given(st.integers(min_value=0, max_value=2**12 - 1),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_lift_preserves_information(self, fingerprint, address, shift):
        fingerprint_bits = 12
        new_fp, new_addr = lift_address(fingerprint, address, fingerprint_bits, shift)
        # The original pair is recoverable: high bits of the old fingerprint
        # are the low bits of the new address.
        recovered_fp = ((new_addr & ((1 << shift) - 1)) << (fingerprint_bits - shift)) | new_fp
        recovered_addr = new_addr >> shift
        assert recovered_fp == fingerprint
        assert recovered_addr == address


class TestVertexHasher:
    def test_split_matches_formula(self):
        hasher = VertexHasher(fingerprint_bits=10, matrix_size=16)
        raw = hasher.raw("alice")
        fingerprint, address = hasher.split("alice")
        assert fingerprint == raw & ((1 << 10) - 1)
        assert address == (raw >> 10) % 16

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            VertexHasher(fingerprint_bits=0, matrix_size=16)
        with pytest.raises(ConfigurationError):
            VertexHasher(fingerprint_bits=60, matrix_size=16)
        with pytest.raises(ConfigurationError):
            VertexHasher(fingerprint_bits=8, matrix_size=0)

    def test_different_seeds_give_independent_functions(self):
        h1 = VertexHasher(fingerprint_bits=12, matrix_size=64, seed=1)
        h2 = VertexHasher(fingerprint_bits=12, matrix_size=64, seed=2)
        differing = sum(h1.split(f"v{i}") != h2.split(f"v{i}") for i in range(50))
        assert differing > 25
