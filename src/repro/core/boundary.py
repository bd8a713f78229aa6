"""Temporal range decomposition over the HIGGS tree (paper Algorithm 3).

Given a query range ``[t_start, t_end]``, the boundary search selects

* the highest materialized internal nodes whose entire time span lies
  inside the range — their exact, timestamp-free aggregates answer their
  whole subtree in one lookup, and
* the leaf nodes that only partially overlap the range boundaries — those
  filter the queried edge's or vertex's items by timestamp.

The selection is equivalent to the paper's two-phase boundary search (fully
covered children first, then a descent along the two boundary paths); the
implementation walks the implicit θ-ary tree over the leaf sequence so that
incomplete spine groups — which have no aggregated node yet — transparently
fall through to their children.

Query-plan caching
------------------
Repeated-range workloads (the paper's Figs. 10-13 sweep a fixed set of range
lengths) re-issue the same ``[t_start, t_end]`` against an unchanged tree
many times.  :class:`QueryPlanCache` memoizes the
:class:`RangeDecomposition` per ``(t_start, t_end, tree.version)`` so those
queries skip the tree walk entirely; any tree mutation bumps
``tree.version`` and transparently invalidates every cached plan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
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
    nodes_visited:
        Number of tree nodes inspected (reported by the efficiency analysis).
    """

    aggregated_nodes: List[InternalNode] = field(default_factory=list)
    boundary_leaves: List[LeafNode] = field(default_factory=list)
    nodes_visited: int = 0

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
    leaf_count = tree.leaf_count
    if leaf_count == 0:
        return result

    fanout = tree.config.fanout
    # Smallest level whose single node would cover every leaf.
    top_level = 1
    span = 1
    while span < leaf_count:
        span *= fanout
        top_level += 1

    def visit(level: int, index: int) -> None:
        width = fanout ** (level - 1)
        first_leaf = index * width
        if first_leaf >= leaf_count:
            # Phantom position: the implicit tree extends past the last leaf,
            # but no node exists here — it must not count as visited or the
            # efficiency metric is inflated.
            return
        result.nodes_visited += 1
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
        # Not materialized, or only partially covered: descend.
        for child in range(fanout):
            visit(level - 1, index * fanout + child)

    visit(top_level, 0)
    return result


class QueryPlanCache:
    """LRU memo of :func:`boundary_search` results, keyed by query range.

    Each cached plan remembers the ``tree.version`` it was computed against;
    a lookup whose stored version no longer matches recomputes and replaces
    the entry, so mutations never serve a stale decomposition.  The cache is
    bounded (default 1024 plans) with least-recently-used eviction.
    """

    __slots__ = ("maxsize", "hits", "misses", "_plans")

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ConfigurationError("QueryPlanCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._plans: "OrderedDict[Tuple[int, int], Tuple[int, RangeDecomposition]]" = \
            OrderedDict()

    def lookup(self, tree: HiggsTree, t_start: int, t_end: int
               ) -> RangeDecomposition:
        """Return the (possibly cached) decomposition of ``[t_start, t_end]``."""
        key = (t_start, t_end)
        version = tree.version
        cached = self._plans.get(key)
        if cached is not None and cached[0] == version:
            self.hits += 1
            self._plans.move_to_end(key)
            return cached[1]
        self.misses += 1
        plan = boundary_search(tree, t_start, t_end)
        self._plans[key] = (version, plan)
        self._plans.move_to_end(key)
        if len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
        return plan

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for benchmarks and tests."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._plans), "maxsize": self.maxsize}

    def __len__(self) -> int:
        return len(self._plans)
