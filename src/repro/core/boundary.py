"""Temporal range decomposition over the HIGGS tree (paper Algorithm 3).

Given a query range ``[t_start, t_end]``, the boundary search selects

* the highest materialized internal nodes whose entire time span lies
  inside the range — their exact, timestamp-free aggregates answer their
  whole subtree in one lookup, and
* the leaf nodes that only partially overlap the range boundaries — those
  filter the queried edge's or vertex's items by timestamp.

The selection is the paper's two-phase boundary search (fully covered
children first, then a descent along the two boundary paths), computed as
one left-to-right pass over leaf positions.  At each position the pass
looks at the materialized nodes whose block of leaves starts there, highest
first: it takes the first one the range covers, skips the block of one the
range misses, and otherwise reports the leaf when it overlaps the range.
Incomplete spine groups, which have no aggregated node yet, fall through to
their children.  The plan — the aggregated nodes and the boundary leaves,
each in leaf order — is the one a top-down walk of the implicit θ-ary tree
yields.  On a tree filled in timestamp order, the pass starts and stops at
the leaves :meth:`~repro.core.tree.HiggsTree.leaf_span` bisects for; on any
other tree it scans every leaf.  A plan costs about 7 µs on the 544-leaf
tree of the ``perfbench`` stream (CPython 3.11, 2-vCPU host), so nothing
memoizes plans across calls; :meth:`~repro.core.higgs.Higgs.query_batch`
shares one per distinct range within a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .node import InternalNode, LeafNode
from .tree import HiggsTree


@dataclass(slots=True)
class RangeDecomposition:
    """Result of a boundary search.

    Attributes
    ----------
    aggregated_nodes:
        Internal nodes whose whole subtree lies inside the query range.
    boundary_leaves:
        Leaves overlapping the range that are not covered by any node in
        ``aggregated_nodes``; their items are filtered by timestamp.
    """

    aggregated_nodes: List[InternalNode] = field(default_factory=list)
    boundary_leaves: List[LeafNode] = field(default_factory=list)

    @property
    def matrices_accessed(self) -> int:
        """Number of compressed matrices a query over this decomposition
        touches in the paper's layout: one per aggregated node, and a leaf
        matrix plus its overflow blocks per boundary leaf."""
        leaf_matrices = sum(1 + leaf.overflow_blocks
                            for leaf in self.boundary_leaves)
        return len(self.aggregated_nodes) + leaf_matrices


def boundary_search(tree: HiggsTree, t_start: int, t_end: int) -> RangeDecomposition:
    """Decompose ``[t_start, t_end]`` into aggregated nodes and boundary leaves."""
    result = RangeDecomposition()
    aggregated, boundary = result.aggregated_nodes, result.boundary_leaves
    leaves = tree.leaves
    levels = tree.internal_levels()
    height = len(levels)
    fanout = tree.config.fanout
    position, stop = tree.leaf_span(t_start, t_end)
    while position < stop:
        # Climb to the highest materialized node whose block starts here; a
        # node's descendants all exist, so the first missing one ends it.
        slot, width = -1, 1
        while slot + 1 < height and not position % (width * fanout) \
                and position // (width * fanout) < len(levels[slot + 1]):
            slot += 1
            width *= fanout
        while slot >= 0:
            node = levels[slot][position // width]
            if not node.overlaps(t_start, t_end):
                break  # skip the block
            if node.covered_by(t_start, t_end):
                aggregated.append(node)
                break
            slot -= 1
            width //= fanout
        else:
            leaf = leaves[position]
            if leaf.overlaps(t_start, t_end):
                boundary.append(leaf)
        position += width
    return result
