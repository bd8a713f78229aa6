"""Array (numpy) kernels: the batch forms of the weight and timestamp
checks every HIGGS write path applies, and of the probe arithmetic and
first-fit cell scan Algorithm 2's placement runs over a node's keys.

Products are reduced mod the matrix size before they grow, so every
intermediate fits in ``int64`` for fingerprints up to 56 bits.  Vertices
are hashed only by the scalar kernels (``Higgs._hash_vertices``).
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .config import HiggsConfig
from .node import vertex_bits

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


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


def key_dtype(config: HiggsConfig):
    """``int64`` when a packed edge key fits in it, else Python ints."""
    return np.int64 if 2 * vertex_bits(config) < 64 else object


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
