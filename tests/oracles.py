"""Reference implementations the tests check the library against.

:func:`walk_plan` is Algorithm 3's boundary search as a recursive top-down
walk of the implicit θ-ary tree over the leaf sequence.  The library
computes the same plan in one left-to-right pass
(:func:`repro.core.boundary.boundary_search`); the walk is kept here as the
oracle that pass must match node for node, in order.

:func:`vertex_entry` is a vertex's tree entry — its packed key and its
leaf-level probe rows — built call by call from the scalar kernels, the
reference for :meth:`repro.core.higgs.Higgs._hash_vertices`.

:class:`PackedReference` is the exact answer HIGGS gives.  Every node keeps
exact maps and boundary leaves filter by timestamp exactly, so a HIGGS
answer is the exact answer over a graph whose vertices are their packed
keys; all of its error is vertex keys colliding.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.exact import ExactTemporalGraph
from repro.core.boundary import RangeDecomposition
from repro.core.config import HiggsConfig
from repro.core.hashing import VertexHasher, probe_address
from repro.core.node import pack_vertex
from repro.core.tree import HiggsTree


def vertex_entry(config: HiggsConfig,
                 vertex: object) -> Tuple[int, Tuple[int, ...]]:
    """``vertex``'s packed key and its ``r`` leaf-level probe addresses, in
    probe order: :meth:`VertexHasher.split`, :func:`pack_vertex`, and
    :func:`probe_address` per probe."""
    size = config.leaf_matrix_size
    fingerprint, address = VertexHasher(config.fingerprint_bits, size,
                                        seed=config.hash_seed).split(vertex)
    return (pack_vertex(fingerprint, address, config.fingerprint_bits),
            tuple(probe_address(address, i, fingerprint, size)
                  for i in range(config.num_probes)))


class PackedReference(ExactTemporalGraph):
    """An :class:`ExactTemporalGraph` fed every item under its endpoints'
    packed keys (:func:`vertex_entry`), and queried under them.

    A delete enters it as a negative item at the same packed edge and
    timestamp (:meth:`ExactTemporalGraph.delete`).  Path and subgraph
    queries sum their edges' answers.  Feed it through :meth:`insert`:
    the exact store's own ``insert_batch`` does not pack.
    """

    def __init__(self, config: HiggsConfig) -> None:
        super().__init__()
        self._config = config

    def _key(self, vertex: object) -> int:
        return vertex_entry(self._config, vertex)[0]

    def insert(self, source, destination, weight, timestamp) -> None:
        super().insert(self._key(source), self._key(destination), weight,
                       timestamp)

    def edge_query(self, source, destination, t_start, t_end) -> float:
        return super().edge_query(self._key(source), self._key(destination),
                                  t_start, t_end)

    def vertex_query(self, vertex, t_start, t_end,
                     direction: str = "out") -> float:
        return super().vertex_query(self._key(vertex), t_start, t_end,
                                    direction)


def walk_plan(tree: HiggsTree, t_start: int, t_end: int) -> RangeDecomposition:
    """Decompose ``[t_start, t_end]`` by walking down from the root.

    A node the range covers is taken whole, one it misses is skipped, and
    any other position — a node that straddles a range bound, or a block
    whose node is not materialized yet — descends to its children.  A leaf
    that overlaps the range is a boundary leaf.
    """
    result = RangeDecomposition()
    leaf_count = tree.leaf_count
    if leaf_count == 0:
        return result
    fanout = tree.config.fanout
    # Smallest level whose single node would cover every leaf.
    top_level, span = 1, 1
    while span < leaf_count:
        span *= fanout
        top_level += 1

    def visit(level: int, index: int) -> None:
        first_leaf = index * fanout ** (level - 1)
        if first_leaf >= leaf_count:
            return  # past the last leaf: no node exists here
        if level == 1:
            leaf = tree.leaves[first_leaf]
            if leaf.overlaps(t_start, t_end):
                result.boundary_leaves.append(leaf)
            return
        node = tree.internal_node(level, index)
        if node is not None:
            if not node.overlaps(t_start, t_end):
                return
            if node.covered_by(t_start, t_end):
                result.aggregated_nodes.append(node)
                return
        for child in range(fanout):
            visit(level - 1, index * fanout + child)

    visit(top_level, 0)
    return result
