"""Vertex hashing, fingerprint/address splitting, and probe sequences.

HIGGS (paper Section IV-B, Formula (1)) hashes each vertex ``v`` to a wide
hash ``H(v)`` and splits it into

* a **fingerprint** ``f(v) = H(v) & (2^F1 - 1)`` — a compact identifier stored
  inside matrix entries, and
* an **address** ``h(v) = (H(v) >> F1) % d1`` — the row/column index into the
  compressed matrix.

The *multiple mapping buckets* optimization (Section IV-C) derives a short
sequence of alternative addresses per vertex with a linear-congruential step.
The step is a function of the fingerprint only, so the canonical address can
be recovered from any probed position plus the stored probe index — a
property the bit-shift aggregation (Algorithm 2) relies on to avoid
introducing extra error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError

_MASK64 = (1 << 64) - 1


def hash64(key: object, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``key``.

    Works for strings, bytes and integers; other objects are hashed through
    their ``repr``.  The function is a splitmix64-style finalizer applied to
    an FNV-1a pass over the key bytes, which gives good bit diffusion without
    any third-party dependency and is stable across processes (unlike the
    built-in ``hash``).
    """
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode()
    elif isinstance(key, int):  # noqa: SIM108 - branch chain reads better
        data = key.to_bytes(16, "little", signed=True)
    else:
        data = repr(key).encode()

    # FNV-1a over the bytes.
    h = (0xCBF29CE484222325 ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64

    # splitmix64 finalizer for avalanche.
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    z = h
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def shard_of(key: object, num_shards: int, seed: int = 0) -> int:
    """Map ``key`` to a shard index in ``[0, num_shards)``.

    This is the single shard-assignment function shared by the sharded
    summary engine (:mod:`repro.sharding`) and the shard-skew workload
    generators (:mod:`repro.streams.generators`), so a stream biased toward
    particular shards and the engine that partitions it always agree.  The
    mapping is deterministic, stable across processes (it builds on
    :func:`hash64`, not the salted built-in ``hash``), and uniform for
    ``num_shards`` far below ``2^64``.

    Parameters
    ----------
    key:
        The partition key (a vertex identifier, or any hashable stream key).
    num_shards:
        Number of shards; must be >= 1.
    seed:
        Seed selecting an independent shard assignment.

    Raises
    ------
    ConfigurationError
        If ``num_shards`` is not positive.
    """
    if num_shards < 1:
        raise ConfigurationError("num_shards must be >= 1")
    if num_shards == 1:
        return 0
    return hash64(key, seed) % num_shards


def probe_step(fingerprint: int) -> int:
    """Return the odd linear-congruential step used for probe sequences.

    The step depends only on the fingerprint, so an entry's canonical base
    address can be recovered from its stored probe index.
    """
    return 2 * fingerprint + 1


def probe_address(base: int, index: int, fingerprint: int, size: int) -> int:
    """Return the ``index``-th probe address for a vertex.

    ``index == 0`` is the canonical address ``base`` itself.
    """
    return (base + index * probe_step(fingerprint)) % size


def lift_address(fingerprint: int, address: int, fingerprint_bits: int,
                 shift_bits: int) -> Tuple[int, int]:
    """Move ``shift_bits`` high fingerprint bits into the address (Algorithm 2).

    Given an entry's fingerprint and canonical address at level *l*, return
    the ``(fingerprint, address)`` pair at level *l+1*, whose matrix is
    ``2^shift_bits`` times wider per dimension.  With ``shift_bits == 0`` the
    pair is returned unchanged.

    Example (paper Fig. 8): fingerprint ``0b101`` (3 bits), address ``0``,
    ``shift_bits=1`` → new address ``0b01``, new fingerprint ``0b01``.
    """
    if shift_bits <= 0:
        return fingerprint, address
    if shift_bits > fingerprint_bits:
        raise ConfigurationError(
            f"cannot shift {shift_bits} bits out of a {fingerprint_bits}-bit fingerprint")
    remaining = fingerprint_bits - shift_bits
    high_bits = fingerprint >> remaining
    new_fingerprint = fingerprint & ((1 << remaining) - 1)
    new_address = (address << shift_bits) | high_bits
    return new_fingerprint, new_address


@dataclass(frozen=True, slots=True)
class VertexHasher:
    """Splits a vertex hash into a fingerprint/address pair for one matrix level.

    Attributes
    ----------
    fingerprint_bits:
        ``F1`` — number of low bits of ``H(v)`` kept as the fingerprint.
    matrix_size:
        ``d1`` — number of rows (= columns) of the target compressed matrix.
    seed:
        Hash seed, allowing independent hash functions (used by baselines
        that need several).
    """

    fingerprint_bits: int
    matrix_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fingerprint_bits < 1 or self.fingerprint_bits > 56:
            raise ConfigurationError("fingerprint_bits must be in [1, 56]")
        if self.matrix_size < 1:
            raise ConfigurationError("matrix_size must be positive")

    def raw(self, vertex: object) -> int:
        """Return the raw 64-bit hash ``H(v)``."""
        return hash64(vertex, self.seed)

    def split(self, vertex: object) -> Tuple[int, int]:
        """Return ``(fingerprint, address)`` with a single hash computation."""
        h = self.raw(vertex)
        fingerprint = h & ((1 << self.fingerprint_bits) - 1)
        address = (h >> self.fingerprint_bits) % self.matrix_size
        return fingerprint, address
