"""HIGGS core: hashing, compressed matrices, the aggregated B-tree, and the
public :class:`Higgs` summary."""

from .config import HiggsConfig, ServingConfig, ShardingConfig, SnapshotConfig
from .executor import (InlineShardWorker, ProcessShardWorker, ShardResult,
                       ShardWorker, make_shard_worker)
from .hashing import VertexHasher, hash64, lift_address, shard_of
from .matrix import CompressedMatrix, MatrixEntry
from .node import InternalNode, LeafNode
from .tree import HiggsTree
from .boundary import RangeDecomposition, boundary_search
from .aggregation import aggregate_internal, aggregate_leaves, lift_coordinates
from .higgs import Higgs

__all__ = [
    "HiggsConfig", "ServingConfig", "ShardingConfig", "SnapshotConfig",
    "VertexHasher",
    "hash64", "lift_address", "shard_of",
    "CompressedMatrix", "MatrixEntry", "InternalNode", "LeafNode",
    "HiggsTree", "RangeDecomposition", "boundary_search",
    "aggregate_internal", "aggregate_leaves", "lift_coordinates",
    "Higgs", "ShardResult", "ShardWorker", "InlineShardWorker",
    "ProcessShardWorker", "make_shard_worker",
]
