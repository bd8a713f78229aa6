"""Bit-shift aggregation of child matrices into a parent matrix (Algorithm 2).

A parent node at layer ``l+1`` aggregates the ``θ`` matrices of its children
at layer ``l``.  The parent matrix is ``√θ`` times larger per dimension; the
extra address bits are taken from the top of each entry's fingerprint
(``R = log2(√θ)`` bits per level), so aggregation is a pure re-addressing of
the same information and introduces no additional error.  Entries whose
candidate buckets in the parent matrix are all occupied spill into the
parent's exact overflow map, preserving exactness of the aggregate.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import vectorized
from .config import HiggsConfig
from .hashing import lift_address
from .matrix import CompressedMatrix
from .node import InternalNode, LeafNode


# hot-path
def lift_coordinates(fingerprint: int, address: int, from_level: int,
                     to_level: int, config: HiggsConfig) -> Tuple[int, int]:
    """Lift a ``(fingerprint, address)`` pair from one tree layer to a higher one.

    Repeatedly applies the per-level shift defined by the configuration.  If
    the fingerprint runs out of bits before reaching ``to_level`` the shift is
    clamped (the matrix simply stops growing), which keeps the operation
    total; with the paper's defaults (``F1 = 19``, ``R = 1``) this never
    happens for realistic tree heights.
    """
    current_fp, current_addr = fingerprint, address
    for level in range(from_level, to_level):
        available = config.fingerprint_bits_at(level)
        shift = min(config.shift_bits, available)
        current_fp, current_addr = lift_address(current_fp, current_addr,
                                                available, shift)
    return current_fp, current_addr


def build_parent_matrix(level: int, config: HiggsConfig) -> CompressedMatrix:
    """Allocate the (empty) aggregated matrix for a node at tree layer ``level``."""
    return CompressedMatrix(
        config.matrix_size_at(level), config.bucket_entries,
        num_probes=config.num_probes, store_timestamps=False,
        entry_bytes=config.internal_entry_bytes(level))


#: Placement-memo marker: the key spilled into the node's exact overflow map.
_SPILLED = object()


# hot-path
def _aggregate_entries_arrays(node: InternalNode, src_fps, dst_fps,
                              src_addrs, dst_addrs, weights,
                              from_level: int, to_level: int,
                              config: HiggsConfig) -> None:
    """Lift child entries and place them into the parent, spilling over
    into the parent's exact overflow map when every candidate bucket is full.

    The caller concatenates every child's entries into one batch, so the
    lift, the parent probe rows and the flat candidate cells all run
    vectorized once; the remaining per-item loop only touches buckets.  The
    placement memo is keyed by the dense group id of each item's lifted
    ``(f(s), f(d), h(s), h(d))`` value tuple, so a repeated key accumulates
    directly instead of re-scanning its candidate buckets.  This equals the
    scan: the parent matrix holds at most one entry per key, so the scan a
    memo hit skips would find exactly the memoized entry, and a key that
    once spilled can never be placed later (slots only fill up).  Weights
    accumulate in child entry order.
    """
    count = len(src_fps)
    if count == 0:
        return
    matrix = node.matrix
    lifted_fs, lifted_hs = vectorized.lift_array(src_fps, src_addrs,
                                                 from_level, to_level, config)
    lifted_fd, lifted_hd = vectorized.lift_array(dst_fps, dst_addrs,
                                                 from_level, to_level, config)
    src_rows = matrix.probe_rows_array(lifted_fs, lifted_hs)
    dst_cols = matrix.probe_rows_array(lifted_fd, lifted_hd)
    cells = vectorized.candidate_cells_array(src_rows, dst_cols,
                                             matrix.size).tolist()
    group = vectorized.group_ids(lifted_fs, lifted_fd,
                                 lifted_hs, lifted_hd).tolist()
    fs_list = lifted_fs.tolist()
    fd_list = lifted_fd.tolist()
    hs_list = lifted_hs.tolist()
    hd_list = lifted_hd.tolist()
    rows_list = src_rows.tolist()
    cols_list = dst_cols.tolist()
    weight_list = weights.tolist()
    insert_cells = matrix.insert_cells
    add_overflow = node.add_overflow
    placed: dict = {}
    placed_get = placed.get
    for k in range(count):
        gid = group[k]
        weight = weight_list[k]
        entry = placed_get(gid)
        if entry is not None:
            if entry is _SPILLED:
                add_overflow(fs_list[k], fd_list[k], hs_list[k], hd_list[k],
                             weight)
            else:
                entry.weight += weight
            continue
        entry = insert_cells(fs_list[k], fd_list[k], cells[k],
                             rows_list[k], cols_list[k], weight)
        if entry is None:
            add_overflow(fs_list[k], fd_list[k], hs_list[k], hd_list[k],
                         weight)
            placed[gid] = _SPILLED
        else:
            placed[gid] = entry


def aggregate_leaves(parent_index: int, leaves: List[LeafNode],
                     config: HiggsConfig) -> InternalNode:
    """Build a level-2 internal node aggregating a group of closed leaves.

    Timestamps are dropped: the parent only records the group's overall time
    span and the separating keys (each child's start timestamp).
    """
    level = 2
    matrix = build_parent_matrix(level, config)
    t_mins = [leaf.t_min for leaf in leaves if leaf.t_min is not None]
    t_maxs = [leaf.t_max for leaf in leaves if leaf.t_max is not None]
    t_min = min(t_mins) if t_mins else 0
    t_max = max(t_maxs) if t_maxs else 0
    keys = [leaf.t_min for leaf in leaves[1:] if leaf.t_min is not None]
    node = InternalNode(level, parent_index, matrix, keys, t_min, t_max)

    parts = [child_matrix.canonical_entries_arrays()
             for leaf in leaves for child_matrix in leaf.matrices()]
    parts = [arrays for arrays in parts if len(arrays[0])]
    if parts:
        _aggregate_entries_arrays(
            node, *(np.concatenate([arrays[i] for arrays in parts])
                    for i in range(5)),
            1, level, config)
    return node


def aggregate_internal(parent_index: int, children: List[InternalNode],
                       config: HiggsConfig) -> InternalNode:
    """Build an internal node at layer ``children[0].level + 1`` from complete children."""
    child_level = children[0].level
    level = child_level + 1
    matrix = build_parent_matrix(level, config)
    t_min = min(child.t_min for child in children)
    t_max = max(child.t_max for child in children)
    keys = [child.t_min for child in children[1:]]
    node = InternalNode(level, parent_index, matrix, keys, t_min, t_max)

    parts = []
    for child in children:
        arrays = child.matrix.canonical_entries_arrays()
        if len(arrays[0]):
            parts.append(arrays)
        if child.overflow:
            spilled_keys = np.asarray(list(child.overflow.keys()),
                                      dtype=np.int64)
            parts.append((spilled_keys[:, 0], spilled_keys[:, 1],
                          spilled_keys[:, 2], spilled_keys[:, 3],
                          np.asarray(list(child.overflow.values()),
                                     dtype=np.float64)))
    if parts:
        _aggregate_entries_arrays(
            node, *(np.concatenate([arrays[i] for arrays in parts])
                    for i in range(5)),
            child_level, level, config)
    return node
