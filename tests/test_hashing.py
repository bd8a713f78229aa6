"""Tests for vertex hashing, fingerprint/address splitting, and probing.

Vertex hashing has one implementation, the scalar kernels.  Golden values
pin :func:`hash64` itself, and a property test pins
:meth:`Higgs._hash_vertices`, the one place a vertex becomes its packed
key and probe rows, against those kernels called one by one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import vertex_entry

from repro import Higgs, HiggsConfig
from repro.core.hashing import (VertexHasher, hash64, lift_address,
                                probe_address, probe_step)
from repro.errors import ConfigurationError

#: Keys of every kind ``hash64`` encodes: text, bytes, and integers of any
#: type (hashed by value), in and beyond the int64 range.
_GOLDEN_KEYS = ["v1", "", b"\x00\xff", 0, -1, 7, np.int64(7), True, 2 ** 63,
                -(2 ** 100)]
_GOLDEN = {
    0: [0xC069F3B9F06680F7, 0xC3817C016BA4FF30, 0x54578A4514ABB9DF,
        0x4193FD1B681DCD25, 0x435E54E58958DFAF, 0xD2F655E36A07A1EC,
        0xD2F655E36A07A1EC, 0x14681DF3075459CB, 0x1BFD62D6C7F9DAA4,
        0x4A6F40875A28D8E5],
    12345: [0x3B219450092F3920, 0x7426F5A2AE9B776F, 0x398A154E066A3F24,
            0x15CC017839F8DFD7, 0x78CF39CCE81E9053, 0x4D7A4C89C5E4A4B9,
            0x4D7A4C89C5E4A4B9, 0xB126B39B90362009, 0x8770D090152A3806,
            0xB999B3F8F390565C],
}

_keys = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.text(max_size=24),
    st.binary(max_size=24))


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

    @pytest.mark.parametrize("seed", sorted(_GOLDEN))
    def test_golden_values(self, seed):
        assert [hash64(key, seed) for key in _GOLDEN_KEYS] == _GOLDEN[seed]


# The wide config's 40-bit fingerprints make a packed edge key wider than
# int64.
@pytest.mark.parametrize("config", [
    HiggsConfig(), HiggsConfig(leaf_matrix_size=8, fingerprint_bits=40)],
    ids=["default", "wide"])
@given(keys=st.lists(_keys, max_size=40), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_hash_vertices_matches_scalar_kernels(config, keys, seed):
    config = dataclasses.replace(config, hash_seed=seed)
    assert Higgs(config)._hash_vertices(keys) == \
        [vertex_entry(config, key) for key in keys]


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
