"""Reference implementations the tests check the library against.

:func:`walk_plan` is Algorithm 3's boundary search as a recursive top-down
walk of the implicit θ-ary tree over the leaf sequence.  The library
computes the same plan in one left-to-right pass
(:func:`repro.core.boundary.boundary_search`); the walk is kept here as the
oracle that pass must match node for node, in order.
"""

from __future__ import annotations

from repro.core.boundary import RangeDecomposition
from repro.core.tree import HiggsTree


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
