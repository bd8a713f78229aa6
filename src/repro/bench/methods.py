"""Method factory used by every experiment.

The paper configures every baseline following its own publication and sets
HIGGS's ``d1``/``F1`` so the hash ranges are comparable (Section VI-A).
Because this reproduction replays streams that are 100-1000× smaller than the
paper's traces (see "Paper substitutions" in docs/ARCHITECTURE.md), the
factory re-derives the structural parameters from the stream being
summarized:

* **HIGGS** keeps the paper's leaf size ``d1 = 16`` and picks ``F1`` so the
  leaf hash range is a small multiple of the stream size — the same load
  regime as the paper's ``d1 = 16, F1 = 19`` against its traces.
* **Horae / AuxoTime** size every temporal layer for the whole stream (their
  top-down, domain-based design: each item is inserted into every layer), and
  their per-layer identifiers lose a few bits to the embedded time prefix —
  the structural reason the paper gives for their accuracy and space
  disadvantages.
* **PGSS** keeps no fingerprints at all; only the bucket grid discriminates
  edges.

The resulting ordering (HIGGS most accurate / smallest / fastest, PGSS least
accurate, compact variants slower and less accurate than their full
counterparts) reproduces the paper's shape; "Paper substitutions" in
docs/ARCHITECTURE.md notes how the magnitudes compress at laptop scale.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..baselines import (AuxoTime, AuxoTimeCompact, Horae, HoraeCompact, PGSS)
from ..core import Higgs, HiggsConfig
from ..errors import BenchmarkError
from ..sharding import HiggsShardFactory, ShardedSummary
from ..streams.edge import GraphStream
from ..summary import DEFAULT_BATCH_SIZE, TemporalGraphSummary

#: Canonical method ordering used in every table (HIGGS first, as in the paper).
METHOD_ORDER: List[str] = [
    "HIGGS", "PGSS", "Horae", "Horae-cpt", "AuxoTime", "AuxoTime-cpt",
]

#: Ratio between HIGGS's per-endpoint hash range and the stream size.  The
#: paper's configuration (Z = 16·2^19 ≈ 8.4 M for a 63.5 M-edge stream) keeps
#: Z within an order of magnitude of |E|; we use Z ≈ 4·|E|.
DEFAULT_Z_MULTIPLE = 4.0

#: Identifier bits the top-down baselines spend on the embedded time prefix.
DEFAULT_PREFIX_COST_BITS = 5


def scaled_higgs_config(num_items: int, *, leaf_matrix_size: int = 16,
                        z_multiple: float = DEFAULT_Z_MULTIPLE,
                        enable_overflow_blocks: bool = True,
                        num_probes: int = 4) -> HiggsConfig:
    """HIGGS configuration whose hash range scales with the stream size.

    ``F1`` is chosen so that ``Z = d1 · 2^F1 ≈ z_multiple · num_items`` —
    the same items-to-hash-range regime as the paper's setup.
    """
    z_target = max(1024.0, z_multiple * max(1, num_items))
    fingerprint_bits = int(min(30, max(8, math.ceil(
        math.log2(z_target / leaf_matrix_size)))))
    return HiggsConfig(leaf_matrix_size=leaf_matrix_size,
                       fingerprint_bits=fingerprint_bits,
                       num_probes=num_probes,
                       enable_overflow_blocks=enable_overflow_blocks)


def make_methods(stream: GraphStream, *,
                 include: Optional[Iterable[str]] = None,
                 z_multiple: float = DEFAULT_Z_MULTIPLE,
                 prefix_cost_bits: int = DEFAULT_PREFIX_COST_BITS,
                 seed: int = 0) -> Dict[str, TemporalGraphSummary]:
    """Construct the evaluated methods, parameterized for ``stream``.

    Parameters
    ----------
    stream:
        The stream the methods will summarize; its length and time span size
        the structures (the baselines pre-allocate from the expected stream
        size, as their original implementations do).
    include:
        Restrict construction to a subset of :data:`METHOD_ORDER`.
    z_multiple:
        HIGGS hash-range multiple (see :func:`scaled_higgs_config`).
    prefix_cost_bits:
        Identifier bits the dyadic-layer baselines lose to time-prefix
        embedding.
    """
    num_items = max(1, len(stream))
    t_min, t_max = stream.time_span
    time_span = max(1, t_max - t_min + 1)

    higgs_config = scaled_higgs_config(num_items, z_multiple=z_multiple)
    baseline_fp_bits = max(4, higgs_config.fingerprint_bits - prefix_cost_bits)
    # Auxo PET nodes start small and grow by levels; keep nodes modest so the
    # tree actually exercises its scaling path.
    auxo_matrix_size = 16

    factories: Dict[str, Callable[[], TemporalGraphSummary]] = {
        "HIGGS": lambda: Higgs(higgs_config),
        "PGSS": lambda: PGSS(expected_items=num_items, time_span=time_span,
                             depth=2, seed=seed),
        "Horae": lambda: Horae(expected_items=num_items, time_span=time_span,
                               fingerprint_bits=baseline_fp_bits, seed=seed),
        "Horae-cpt": lambda: HoraeCompact(expected_items=num_items,
                                          time_span=time_span,
                                          fingerprint_bits=baseline_fp_bits,
                                          seed=seed),
        "AuxoTime": lambda: AuxoTime(time_span=time_span,
                                     matrix_size=auxo_matrix_size,
                                     fingerprint_bits=baseline_fp_bits + 1,
                                     seed=seed),
        "AuxoTime-cpt": lambda: AuxoTimeCompact(time_span=time_span,
                                                matrix_size=auxo_matrix_size,
                                                fingerprint_bits=baseline_fp_bits + 1,
                                                seed=seed),
    }

    selected = list(include) if include is not None else METHOD_ORDER
    unknown = [name for name in selected if name not in factories]
    if unknown:
        raise BenchmarkError(f"unknown methods requested: {unknown}")
    return {name: factories[name]() for name in selected}


def make_sharded_higgs(stream: GraphStream, shards: int, *,
                       executor: str = "serial",
                       partition_by: str = "source",
                       batch_size: int = DEFAULT_BATCH_SIZE,
                       z_multiple: float = DEFAULT_Z_MULTIPLE,
                       registry=None) -> ShardedSummary:
    """Construct a sharded HIGGS engine parameterized for ``stream``.

    Every shard runs the *same* HIGGS configuration the unsharded baseline
    would use for this stream (:func:`scaled_higgs_config` on the full
    stream size), so per-item work and per-shard accuracy are directly
    comparable across shard counts; only the partitioning and the tree depth
    per shard change.

    Parameters
    ----------
    stream:
        The stream the engine will summarize (sizes the per-shard config).
    shards:
        Number of shards.
    executor:
        Shard executor mode (``"serial"`` or ``"process"``).
    partition_by:
        Partition key mode (``"source"`` or ``"edge"``).
    batch_size:
        Per-shard batch size used by the engine's stream replay.
    z_multiple:
        HIGGS hash-range multiple (see :func:`scaled_higgs_config`).
    registry:
        Optional :class:`~repro.observability.MetricsRegistry` the engine
        registers its ``sharding_*`` metrics in (None keeps it private).
    """
    config = scaled_higgs_config(max(1, len(stream)), z_multiple=z_multiple)
    return ShardedSummary(HiggsShardFactory(config), shards=shards,
                          executor=executor, partition_by=partition_by,
                          batch_size=batch_size, registry=registry)


def ingest(summary: TemporalGraphSummary, stream: GraphStream, *,
           batch_size: int = DEFAULT_BATCH_SIZE) -> Tuple[int, float]:
    """Replay ``stream`` into ``summary`` through the batch insert API.

    This is the single ingestion entry point the experiment harness uses, so
    every method's throughput numbers reflect its (native or fallback) batch
    path.  Returns ``(items inserted, elapsed seconds)``.
    """
    start = time.perf_counter()
    count = summary.insert_stream(stream, batch_size=batch_size)
    elapsed = time.perf_counter() - start
    return count, elapsed
