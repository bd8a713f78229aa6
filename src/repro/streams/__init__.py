"""Graph stream substrate: edge model, synthetic generators, dataset analogues
and descriptive statistics."""

from .edge import GraphStream, StreamEdge
from .generators import (MixedWorkloadSpec, ServingOp, StreamSpec,
                         generate_mixed_workload, generate_stream,
                         reskew_to_shards)
from .datasets import (DATASETS, DATASET_ORDER, DatasetDescriptor,
                       load_dataset, table2_rows)
from . import analysis

__all__ = [
    "GraphStream", "StreamEdge",
    "StreamSpec", "generate_stream", "reskew_to_shards",
    "MixedWorkloadSpec", "ServingOp", "generate_mixed_workload",
    "DATASETS", "DATASET_ORDER", "DatasetDescriptor",
    "load_dataset", "table2_rows",
    "analysis",
]
