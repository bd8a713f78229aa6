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

:func:`real_weights` is the batch form of the weight check every HIGGS
insert path applies.
"""

from __future__ import annotations

import operator
from numbers import Integral, Real
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
    seed)`` for every key.  Integer keys (any :class:`numbers.Integral`,
    as :func:`~repro.core.hashing.hash64` takes them) within the ``int64``
    range run as a 16-pass byte-wise FNV over a packed lane array (the
    scalar kernel hashes a 16-byte little-endian two's-complement encoding;
    the low 8 bytes are the raw ``int64`` bit pattern, the high 8 a sign
    extension).  Every other key (strings, ``bytes``, wide integers,
    ``repr``-hashed objects) takes the scalar kernel: on short string ids a
    padded byte matrix cost more than the scalar loop at batch sizes up to
    a few hundred keys and won nothing at a thousand.
    """
    int_lanes: List[int] = []
    int_values: List[int] = []
    scalar: List[int] = []
    for lane, key in enumerate(keys):
        # Strings, the common ids, skip the slower abstract-class check.
        if (not isinstance(key, str) and isinstance(key, Integral)
                and _INT64_MIN <= key <= _INT64_MAX):
            int_lanes.append(lane)
            int_values.append(operator.index(key))
            scalar.append(0)
        else:
            scalar.append(hash64(key, seed))
    out = np.array(scalar, dtype=np.uint64)

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
    return out


def real_weights(weights: Sequence[object]) -> "np.ndarray":
    """The longest prefix of ``weights`` that are real numbers, as float64.

    The result is shorter than ``weights`` exactly when
    ``weights[len(result)]`` is not a real number, such as ``None``, a
    string or a complex number; ``np.asarray(weights, np.float64)`` alone
    would read ``None`` as NaN and ``"3"`` as 3.0.  A batch numpy reads as
    bools, integers or floats passes in one ``np.asarray`` call; any other
    batch is checked weight by weight against :class:`numbers.Real` (and
    numpy's bool).
    """
    try:
        values = np.asarray(weights)
    except ValueError:  # ragged: some weight is itself a sequence
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "biuf":
        end = next((k for k, weight in enumerate(weights)
                    if not isinstance(weight, (Real, np.bool_))), len(weights))
        values = np.asarray(weights[:end], dtype=np.float64)
    return values.astype(np.float64, copy=False)


def int64_timestamps(timestamps: Sequence[object]) -> "np.ndarray":
    """The longest prefix of ``timestamps`` that are integers within the
    ``int64`` range, as int64.

    The result is shorter than ``timestamps`` exactly when
    ``timestamps[len(result)]`` is not such an integer: ``None``, a string
    (``"12"`` included), a float (``1.5`` and ``1.0`` alike) or an integer
    outside ``int64``.  A batch numpy reads as bools or integers that fit
    ``int64`` passes in one ``np.asarray`` call; any other batch is checked
    timestamp by timestamp against :class:`numbers.Integral` (and numpy's
    bool) and the range.
    """
    try:
        values = np.asarray(timestamps)
    except ValueError:  # ragged: some timestamp is itself a sequence
        values = None
    if values is not None and values.ndim == 1 and (
            values.dtype.kind in "bi" or (values.dtype.kind == "u" and
                                          values.max(initial=0) <= _INT64_MAX)):
        return values.astype(np.int64, copy=False)
    end = next((k for k, stamp in enumerate(timestamps)
                if not (isinstance(stamp, (Integral, np.bool_))
                        and _INT64_MIN <= stamp <= _INT64_MAX)),
               len(timestamps))
    return np.asarray(timestamps[:end], dtype=np.int64)


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
