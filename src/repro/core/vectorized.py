"""Array (numpy) forms of the scalar hot-path kernels.

Every function in this module reproduces a scalar kernel from
:mod:`repro.core.hashing` / :mod:`repro.core.node` **bit-identically**
over whole arrays: the same FNV-1a/splitmix64 constants, the same modular
probe arithmetic, the same packed keys.  The batch paths (batch ingest,
Algorithm 2 aggregation, ``query_batch`` endpoint hashing and packing) run
on these; the scalar kernels serve the per-item paths (``Higgs.insert``,
point queries, deletion) and are the reference the property tests compare
against.

The arithmetic is arranged so every intermediate fits in ``int64``/
``uint64`` for the full supported parameter range (fingerprints up to 56
bits, see :class:`~repro.core.hashing.VertexHasher`): products are reduced
mod the matrix size before they grow, and the 64-bit hash runs on unsigned
arrays whose multiplications wrap exactly like the scalar
``& _MASK64`` masking.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .config import HiggsConfig
from .hashing import hash64
from .node import pack_vertex, vertex_bits

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _fnv_state(seed: int, count: int) -> "np.ndarray":
    """Initial FNV-1a state per lane, seed-mixed exactly like :func:`hash64`."""
    initial = (_FNV_OFFSET ^ (seed * _GOLDEN)) & _MASK64
    return np.full(count, initial, dtype=np.uint64)


def _finalize(state: "np.ndarray") -> "np.ndarray":
    """splitmix64 finalizer over a lane array (wrapping uint64 arithmetic)."""
    mixed = state + np.uint64(_GOLDEN)
    mixed = (mixed ^ (mixed >> np.uint64(30))) * np.uint64(_MIX1)
    mixed = (mixed ^ (mixed >> np.uint64(27))) * np.uint64(_MIX2)
    return mixed ^ (mixed >> np.uint64(31))


# hot-path
def hash64_array(keys: Sequence[object], seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`repro.core.hashing.hash64` over a key sequence.

    Returns one ``uint64`` hash per key, bit-identical to ``hash64(key,
    seed)`` for every key.  Integer keys within the ``int64`` range run as a
    16-pass byte-wise FNV over a packed lane array (the scalar kernel hashes
    a 16-byte little-endian two's-complement encoding; the low 8 bytes are
    the raw ``int64`` bit pattern, the high 8 a sign extension).  String and
    ``bytes`` keys run over a zero-padded byte matrix with a per-lane length
    mask.  Anything else (wide integers, ``repr``-hashed objects) drops to
    the scalar kernel — such keys are rare and correctness beats speed.
    """
    count = len(keys)
    out = np.zeros(count, dtype=np.uint64)
    int_lanes: List[int] = []
    int_values: List[int] = []
    byte_lanes: List[int] = []
    byte_values: List[bytes] = []
    for lane, key in enumerate(keys):
        if isinstance(key, bytes):
            byte_lanes.append(lane)
            byte_values.append(key)
        elif isinstance(key, str):
            byte_lanes.append(lane)
            byte_values.append(key.encode())
        elif isinstance(key, int) and _INT64_MIN <= key <= _INT64_MAX:
            int_lanes.append(lane)
            int_values.append(key)
        else:
            out[lane] = hash64(key, seed)

    if int_values:
        signed = np.asarray(int_values, dtype=np.int64)
        pattern = signed.view(np.uint64)
        state = _fnv_state(seed, len(int_values))
        prime = np.uint64(_FNV_PRIME)
        low_byte = np.uint64(0xFF)
        for shift in range(0, 64, 8):
            state = (state ^ ((pattern >> np.uint64(shift)) & low_byte)) * prime
        extension = np.where(signed < 0, np.uint64(0xFF), np.uint64(0))
        for _ in range(8):
            state = (state ^ extension) * prime
        out[int_lanes] = _finalize(state)

    if byte_values:
        lengths = np.asarray([len(data) for data in byte_values],
                             dtype=np.int64)
        state = _fnv_state(seed, len(byte_values))
        max_length = int(lengths.max())
        if max_length:
            padded = np.zeros((len(byte_values), max_length), dtype=np.uint8)
            for row, data in enumerate(byte_values):
                if data:
                    padded[row, :len(data)] = np.frombuffer(data,
                                                            dtype=np.uint8)
            prime = np.uint64(_FNV_PRIME)
            for position in range(max_length):
                mixed = (state ^ padded[:, position]) * prime
                state = np.where(position < lengths, mixed, state)
        out[byte_lanes] = _finalize(state)

    return out


def split_array(hashes: "np.ndarray", fingerprint_bits: int,
                matrix_size: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized :meth:`~repro.core.hashing.VertexHasher.split`.

    Splits an array of 64-bit hashes into ``(fingerprints, addresses)``
    ``int64`` arrays: ``f = H & (2^F1 - 1)``, ``h = (H >> F1) % d1``.
    """
    fingerprints = (hashes
                    & np.uint64((1 << fingerprint_bits) - 1)).astype(np.int64)
    addresses = ((hashes >> np.uint64(fingerprint_bits))
                 % np.uint64(matrix_size)).astype(np.int64)
    return fingerprints, addresses


def key_dtype(config: HiggsConfig):
    """``int64`` when a packed edge key fits in it, else Python ints."""
    return np.int64 if 2 * vertex_bits(config) < 64 else object


def pack_vertex_array(fingerprints: "np.ndarray", addresses: "np.ndarray",
                      config: HiggsConfig) -> "np.ndarray":
    """Vectorized :func:`~repro.core.node.pack_vertex` of leaf-level
    ``(fingerprint, address)`` arrays, in :func:`key_dtype`."""
    dtype = key_dtype(config)
    return pack_vertex(fingerprints.astype(dtype), addresses.astype(dtype),
                       config.fingerprint_bits)


def probe_rows_array(fingerprints: "np.ndarray", addresses: "np.ndarray",
                     num_probes: int, size: int) -> "np.ndarray":
    """Vectorized :func:`~repro.core.hashing.probe_address` over probe
    indices ``0 .. num_probes - 1``.

    Returns an ``(n, num_probes)`` ``int64`` matrix of candidate addresses.
    The linear-congruential step is reduced mod ``size`` before the
    multiply so every intermediate fits in ``int64`` even for 56-bit
    fingerprints — bit-identical because
    ``(a + i*s) % m == (a + i*(s % m)) % m``.
    """
    steps = (2 * fingerprints + 1) % size
    probes = np.arange(num_probes, dtype=np.int64)
    return (addresses[:, None] + probes[None, :] * steps[:, None]) % size


def candidate_cells_array(src_rows: "np.ndarray",
                          dst_cols: "np.ndarray", size: int) -> "np.ndarray":
    """Flat candidate-bucket indices per item, in probe-scan order.

    ``cells[k, i*r + j] = src_rows[k, i] * size + dst_cols[k, j]`` — exactly
    the ``(i, j)``-ordered scan of a leaf's first fit
    (:meth:`~repro.core.node.LeafNode._fit`), precomputed for the whole
    batch so the aggregation's placement loop only counts bucket occupancy.
    """
    count = src_rows.shape[0]
    return (src_rows[:, :, None] * size
            + dst_cols[:, None, :]).reshape(count, -1)
