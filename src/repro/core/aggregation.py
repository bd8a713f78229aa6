"""Bit-shift aggregation of child nodes into a parent node (Algorithm 2).

A parent node at layer ``l+1`` aggregates the ``θ`` children at layer
``l``.  The paper's parent matrix is ``√θ`` times larger per dimension; the
extra address bits are taken from the top of each entry's fingerprint
(``R = log2(√θ)`` bits per level), so aggregation is a pure re-addressing of
the same information and introduces no additional error.  Entries whose
candidate buckets in the parent matrix are all occupied spill into the
parent's exact overflow map, preserving exactness of the aggregate.

Because each lifted key ends up stored exactly once with its summed weight,
an :class:`~repro.core.node.InternalNode` keeps exact maps instead of the
matrix.  The build still simulates Algorithm 2's bucket placement, over
distinct keys and by bucket occupancy alone, because placement decides which
keys spill (charged by the memory model) and the order keys pass upward.
Leaves hand their keys up in the same order, block by block: a packed key is
the same integer at every layer, so nothing is lifted on the way.
:func:`lift_coordinates` stays as the paper's lift, the oracle the tests
check packed keys against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import vectorized
from .config import HiggsConfig
from .hashing import lift_address
from .node import (InternalNode, LeafNode, unpack_edge, unpack_vertex,
                   vertex_bits)


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


# hot-path
def _first_fit(cells: List[int], width: int, capacity: int) -> List[int]:
    """Algorithm 2's bucket choice for each distinct key, by occupancy alone.

    ``cells`` holds each key's ``width`` candidate cells back to back, in
    probe-scan order, and the keys come in first-occurrence order.  A key
    takes the first of its cells that holds fewer than ``capacity`` keys;
    the result is that cell, or ``-1`` when all are full and the key
    spills.  This is the leaf's first fit (:meth:`LeafNode._fit
    <repro.core.node.LeafNode._fit>`) over a whole node at once: every key
    here is distinct, so none is already held.
    """
    occupancy: Dict[int, int] = {}
    occupied = occupancy.get
    chosen: List[int] = []
    choose = chosen.append
    for start in range(0, len(cells), width):
        for cell in cells[start:start + width]:
            used = occupied(cell, 0)
            if used < capacity:
                occupancy[cell] = used + 1
                choose(cell)
                break
        else:
            choose(-1)
    return chosen


# hot-path
def _aggregate(node: InternalNode, keys, weights,
               config: HiggsConfig) -> None:
    """Fill ``node`` from its children's packed edge keys and weights.

    ``keys`` and ``weights`` concatenate every child's entries in the order
    the node receives them.  Equal keys are grouped in first-occurrence
    order and summed with ``np.bincount``, which adds a group's weights in
    entry order starting from ``0.0`` — the accumulation order of the
    matrix-and-spill-map build, so every weight is bit-identical to it.
    Placement (:func:`_first_fit`) then decides which keys the aggregated
    matrix holds and which spill, and fixes the order the node hands its
    keys to its parent.
    """
    if len(keys) == 0:
        return
    distinct, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    sums = np.bincount(rank[inverse], weights=weights,
                       minlength=len(by_first))
    distinct = distinct[by_first]

    size = config.matrix_size_at(node.level)
    fingerprint_bits = config.fingerprint_bits_at(node.level)
    sources, destinations = unpack_edge(distinct, vertex_bits(config))
    src_fps, src_addrs = unpack_vertex(sources, fingerprint_bits)
    dst_fps, dst_addrs = unpack_vertex(destinations, fingerprint_bits)
    cells = vectorized.candidate_cells_array(
        vectorized.probe_rows_array(src_fps, src_addrs, config.num_probes,
                                    size),
        vectorized.probe_rows_array(dst_fps, dst_addrs, config.num_probes,
                                    size),
        size)
    chosen = np.asarray(_first_fit(cells.reshape(-1).tolist(),
                                   cells.shape[1], config.bucket_entries),
                        dtype=np.int64)

    # Spilled keys follow the placed ones, in spill order.
    placed = np.flatnonzero(chosen >= 0)
    order = np.concatenate([placed[_hand_up_order(chosen[placed])],
                            np.flatnonzero(chosen < 0)])
    node.weights = dict(zip(distinct[order].tolist(), sums[order].tolist(),
                            strict=True))
    node.placed = len(placed)
    node.out_weights = _vertex_sums(sources, sums)
    node.in_weights = _vertex_sums(destinations, sums)


def _hand_up_order(cells) -> "np.ndarray":
    """Positions of placed keys in the order a node hands them up: grouped
    by bucket in order of the bucket's first use, in placement order within
    a bucket (the order a compressed matrix iterates its buckets)."""
    _, first_use, bucket = np.unique(cells, return_index=True,
                                     return_inverse=True)
    return np.argsort(first_use[bucket], kind="stable")


def leaf_blocks(leaf: LeafNode) -> List[List[int]]:
    """A leaf's item keys block by block, each in hand-up order."""
    blocks: List[List[int]] = []
    for placement in leaf.placements:
        keys = list(placement)
        order = _hand_up_order(np.fromiter(placement.values(), np.int64,
                                           len(placement)))
        blocks.append([keys[i] for i in order.tolist()])
    return blocks


def _vertex_sums(vertices, sums) -> Dict[int, float]:
    """Packed vertex key → summed weight of its distinct edge keys."""
    distinct, inverse = np.unique(vertices, return_inverse=True)
    totals = np.bincount(inverse, weights=sums,
                         minlength=len(distinct))
    return dict(zip(distinct.tolist(), totals.tolist(), strict=True))


def aggregate_leaves(parent_index: int, leaves: List[LeafNode],
                     config: HiggsConfig) -> InternalNode:
    """Build a level-2 internal node aggregating a group of closed leaves.

    Timestamps are dropped: the parent only records the group's overall time
    span and the separating keys (each child's start timestamp).
    """
    t_mins = [leaf.t_min for leaf in leaves if leaf.t_min is not None]
    t_maxs = [leaf.t_max for leaf in leaves if leaf.t_max is not None]
    t_min = min(t_mins) if t_mins else 0
    t_max = max(t_maxs) if t_maxs else 0
    keys = [leaf.t_min for leaf in leaves[1:] if leaf.t_min is not None]
    node = InternalNode(2, parent_index, keys, t_min, t_max)
    edges: List[int] = []
    weights: List[float] = []
    for leaf in leaves:
        for block in leaf_blocks(leaf):
            edges += [key >> 64 for key in block]
            weights += [leaf.weights[key] for key in block]
    _aggregate(node, np.array(edges, dtype=vectorized.key_dtype(config)),
               np.array(weights, dtype=np.float64), config)
    return node


def aggregate_internal(parent_index: int, children: List[InternalNode],
                       config: HiggsConfig) -> InternalNode:
    """Build an internal node at layer ``children[0].level + 1`` from complete children.

    A packed key is the same at every layer, so the children's keys pass
    up unchanged.
    """
    t_min = min(child.t_min for child in children)
    t_max = max(child.t_max for child in children)
    keys = [child.t_min for child in children[1:]]
    node = InternalNode(children[0].level + 1, parent_index, keys, t_min,
                        t_max)
    dtype = vectorized.key_dtype(config)
    _aggregate(node,
               np.concatenate([np.fromiter(child.weights, dtype,
                                           len(child.weights))
                               for child in children]),
               np.concatenate([np.fromiter(child.weights.values(), np.float64,
                                           len(child.weights))
                               for child in children]),
               config)
    return node
