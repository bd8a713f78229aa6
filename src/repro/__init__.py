"""repro — a full reproduction of "HIGGS: HIerarchy-Guided Graph Stream
Summarization" (ICDE 2025).

The package provides:

* :class:`repro.Higgs` — the paper's hierarchical graph stream summary,
* the baselines it is evaluated against (PGSS, Horae, Horae-cpt, AuxoTime,
  AuxoTime-cpt, and the Auxo that AuxoTime builds on) under
  :mod:`repro.baselines`,
* the sharded scale-out engine (:class:`repro.ShardedSummary`) under
  :mod:`repro.sharding`,
* the concurrent serving engine (:class:`repro.ServingEngine`) under
  :mod:`repro.serving`,
* graph stream substrates (synthetic datasets and generators) under
  :mod:`repro.streams`,
* query workloads and accuracy metrics under :mod:`repro.queries` and
  :mod:`repro.metrics`, and
* the experiment harness that regenerates every figure of the paper's
  evaluation under :mod:`repro.bench`.
"""

from .core import Higgs, HiggsConfig, ServingConfig, ShardingConfig
from .errors import SnapshotError
from .summary import TemporalGraphSummary
from .streams import GraphStream, StreamEdge
from .sharding import (HiggsShardFactory, RebalancePlan, ShardedSummary,
                       SnapshotConfig)
from .serving import ServingEngine

__version__ = "1.3.0"

__all__ = [
    "Higgs", "HiggsConfig", "ServingConfig", "ShardingConfig",
    "SnapshotConfig", "SnapshotError", "TemporalGraphSummary", "GraphStream",
    "StreamEdge", "ShardedSummary", "HiggsShardFactory", "RebalancePlan",
    "ServingEngine",
    "__version__",
]
