"""Query types, workload generation, and evaluation against ground truth."""

from .types import EdgeQuery, PathQuery, Query, SubgraphQuery, VertexQuery
from .workload import QueryWorkloadGenerator, WorkloadConfig
from .evaluation import EvaluationResult, evaluate_queries

__all__ = [
    "EdgeQuery", "PathQuery", "Query", "SubgraphQuery", "VertexQuery",
    "QueryWorkloadGenerator", "WorkloadConfig",
    "EvaluationResult", "evaluate_queries",
]
