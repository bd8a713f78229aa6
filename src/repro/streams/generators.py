"""Synthetic graph stream generators.

The paper's evaluation uses real KONECT traces (Lkml, Wikipedia-talk,
Stackoverflow) plus synthetic streams with controlled skewness (power-law
exponent) and arrival variance (Section VI-D, Figs. 14-15).  This module
implements the synthetic side and is also used to build offline analogues of
the real traces (see :mod:`repro.streams.datasets`).

Two axes of irregularity are modelled, matching the paper:

* **Skewed vertex degrees** — vertices are drawn from a Zipf/power-law
  distribution so a few "head" vertices participate in a large fraction of
  edges (paper Fig. 2).
* **Bursty arrivals** — timestamps are drawn so that some time slices carry
  many more edges than others; the spread is controlled by a variance
  parameter (paper Fig. 3 and Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.hashing import shard_of
from ..errors import DatasetError
from .edge import GraphStream, StreamEdge


@dataclass(slots=True)
class StreamSpec:
    """Parameters controlling a synthetic graph stream.

    Attributes
    ----------
    num_vertices:
        Number of distinct vertex identifiers available.
    num_edges:
        Number of stream items to generate.
    skewness:
        Power-law exponent for vertex popularity (paper sweeps 1.5 - 3.0).
        Higher values concentrate edges on fewer head vertices.
    time_span:
        Length of the stream in time units; timestamps fall in
        ``[0, time_span)``.
    arrival_variance:
        Controls burstiness of arrivals.  ``0`` gives near-uniform arrivals;
        larger values concentrate edges into hot intervals (paper sweeps the
        per-slice count variance from 600 to 1600).
    max_weight:
        Item weights are drawn uniformly from ``{1, ..., max_weight}``.
    num_bursts:
        Number of hot intervals used when ``arrival_variance > 0``.
    seed:
        Seed for the underlying PRNG; generation is fully deterministic
        given the spec.
    name:
        Human-readable stream name propagated to the :class:`GraphStream`.
    """

    num_vertices: int
    num_edges: int
    skewness: float = 2.0
    time_span: int = 100_000
    arrival_variance: float = 0.0
    max_weight: int = 4
    num_bursts: int = 12
    seed: int = 7
    name: str = "synthetic"

    def validate(self) -> None:
        """Raise :class:`DatasetError` if the spec is not generatable."""
        if self.num_vertices < 2:
            raise DatasetError("a graph stream needs at least 2 vertices")
        if self.num_edges < 1:
            raise DatasetError("a graph stream needs at least 1 edge")
        if self.skewness <= 1.0:
            raise DatasetError("power-law skewness must be > 1.0")
        if self.time_span < 1:
            raise DatasetError("time_span must be positive")
        if self.max_weight < 1:
            raise DatasetError("max_weight must be at least 1")
        if self.arrival_variance < 0:
            raise DatasetError("arrival_variance must be non-negative")


def _powerlaw_probabilities(n: int, exponent: float) -> np.ndarray:
    """Return a normalized power-law probability vector over ``n`` ranks."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _burst_timestamps(rng: np.random.Generator, n: int, time_span: int,
                      variance: float, num_bursts: int) -> np.ndarray:
    """Draw ``n`` timestamps with controllable burstiness.

    A fraction of edges (growing with ``variance``) is concentrated into
    ``num_bursts`` narrow hot windows; the rest is spread uniformly.  This
    mirrors the hot-interval structure of the paper's Fig. 3.
    """
    if variance <= 0:
        return rng.integers(0, time_span, size=n)
    # Map the variance knob into a hot fraction in (0, 0.9].
    hot_fraction = min(0.9, variance / (variance + 800.0))
    n_hot = int(n * hot_fraction)
    n_cold = n - n_hot
    centers = rng.integers(0, time_span, size=num_bursts)
    widths = np.maximum(1, (time_span // (num_bursts * 20)))
    burst_choice = rng.integers(0, num_bursts, size=n_hot)
    hot = centers[burst_choice] + rng.integers(-widths, widths + 1, size=n_hot)
    hot = np.clip(hot, 0, time_span - 1)
    cold = rng.integers(0, time_span, size=n_cold)
    stamps = np.concatenate([hot, cold])
    rng.shuffle(stamps)
    return stamps


def generate_stream(spec: StreamSpec) -> GraphStream:
    """Generate a synthetic :class:`GraphStream` from a :class:`StreamSpec`.

    Sources are drawn from a power-law popularity distribution and
    destinations from a slightly flatter one (real communication graphs have
    more skew on the sending side); self-loops are rerolled.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    src_probs = _powerlaw_probabilities(spec.num_vertices, spec.skewness)
    dst_probs = _powerlaw_probabilities(spec.num_vertices,
                                        max(1.05, spec.skewness * 0.75))

    sources = rng.choice(spec.num_vertices, size=spec.num_edges, p=src_probs)
    destinations = rng.choice(spec.num_vertices, size=spec.num_edges, p=dst_probs)
    # Reroll self loops once; any that survive get shifted by one (mod n).
    loops = sources == destinations
    if loops.any():
        destinations[loops] = rng.choice(spec.num_vertices, size=int(loops.sum()),
                                         p=dst_probs)
        still = sources == destinations
        destinations[still] = (destinations[still] + 1) % spec.num_vertices

    weights = rng.integers(1, spec.max_weight + 1, size=spec.num_edges)
    timestamps = _burst_timestamps(rng, spec.num_edges, spec.time_span,
                                   spec.arrival_variance, spec.num_bursts)
    order = np.argsort(timestamps, kind="stable")

    edges = [
        StreamEdge(f"v{sources[i]}", f"v{destinations[i]}",
                   float(weights[i]), int(timestamps[i]))
        for i in order
    ]
    return GraphStream(edges, name=spec.name)


def reskew_to_shards(stream: GraphStream, *, num_shards: int,
                     hot_shards: int = 1, hot_fraction: float = 0.8,
                     shard_seed: int = 0, seed: int = 23,
                     name: Optional[str] = None) -> GraphStream:
    """Bias a stream's partition keys toward a subset of shards.

    Rewrites a fraction of edges so their *source vertex* (the default
    partition key of :class:`~repro.sharding.ShardedSummary`) hashes into the
    first ``hot_shards`` shards of a ``num_shards``-way partition: with
    probability ``hot_fraction`` an edge's source is replaced by a source
    drawn (from the stream's own source population, so the degree skew
    shape is preserved) among vertices owned by the hot shards.  Weights,
    destinations, timestamps, and arrival order are untouched.

    The shard assignment uses :func:`repro.core.hashing.shard_of` with
    ``shard_seed`` — the same function and seed the engine's partitioner
    uses — so the generated imbalance is exactly what a
    ``ShardedSummary(shards=num_shards)`` will observe.  This is the
    ingest-side analogue of a skewed query workload: it exercises the
    engine's worst case, where hash partitioning cannot spread hot keys.

    Parameters
    ----------
    stream:
        The stream to bias; it is not modified.
    num_shards:
        Shard count of the partition the bias is defined against.
    hot_shards:
        How many shards (``[0, hot_shards)``) receive the biased edges.
        Must satisfy ``1 <= hot_shards <= num_shards``.
    hot_fraction:
        Fraction of edges rerouted to hot-shard sources, in ``[0, 1]``.
    shard_seed:
        Seed of the shard-assignment hash (must match the engine's
        ``ShardingConfig.hash_seed`` for the bias to align).
    seed:
        PRNG seed of the rewrite itself (which edges are rerouted, and to
        which hot source).
    name:
        Name of the returned stream; defaults to
        ``"<stream.name>-hot<hot_shards>/<num_shards>"``.

    Returns
    -------
    GraphStream
        A new stream with the same length and time profile.

    Raises
    ------
    DatasetError
        On invalid ``hot_shards`` / ``hot_fraction``, or when no source
        vertex of the stream hashes into the hot shards.
    """
    if not 1 <= hot_shards <= num_shards:
        raise DatasetError("hot_shards must be in [1, num_shards]")
    if not 0.0 <= hot_fraction <= 1.0:
        raise DatasetError("hot_fraction must be in [0, 1]")
    sources = [edge.source for edge in stream]
    hot_sources = [v for v in dict.fromkeys(sources)
                   if shard_of(v, num_shards, shard_seed) < hot_shards]
    if not hot_sources:
        raise DatasetError(
            f"no source vertex of {stream.name!r} hashes into the first "
            f"{hot_shards} of {num_shards} shards")
    rng = np.random.default_rng(seed)
    reroute = rng.random(len(stream)) < hot_fraction
    choices = rng.integers(0, len(hot_sources), size=len(stream))
    edges = [
        StreamEdge(hot_sources[choices[i]] if reroute[i] else edge.source,
                   edge.destination, edge.weight, edge.timestamp)
        for i, edge in enumerate(stream)
    ]
    return GraphStream(edges, name=name or
                       f"{stream.name}-hot{hot_shards}/{num_shards}")


@dataclass(slots=True)
class MixedWorkloadSpec:
    """Parameters of a mixed read/write serving workload.

    Attributes
    ----------
    num_requests:
        Total number of requests generated.
    read_ratio:
        Fraction of requests that are reads, in ``[0, 1]``.  The remaining
        requests are writes that replay the backing stream in order.
    write_batch:
        Stream items carried by each write request (client-side batching).
    arrival:
        ``"closed"`` — requests carry no arrival times; each client issues
        its next request when the previous one completes (the classic
        closed-loop benchmark).  ``"open"`` — requests carry Poisson arrival
        offsets (exponential inter-arrival gaps at :attr:`rate_rps`), the
        open-loop model where load does not slow down when the server does.
    rate_rps:
        Mean arrival rate in requests/second; required (positive) when
        ``arrival="open"``.
    edge_fraction:
        Fraction of reads that are edge queries; the rest are vertex
        queries (alternating out/in direction).
    range_fraction:
        Length of each read's temporal range relative to the stream's time
        span, in ``(0, 1]``.
    seed:
        PRNG seed; generation is fully deterministic given the spec.
    """

    num_requests: int
    read_ratio: float = 0.5
    write_batch: int = 16
    arrival: str = "closed"
    rate_rps: float = 0.0
    edge_fraction: float = 0.7
    range_fraction: float = 0.25
    seed: int = 17

    def validate(self) -> None:
        """Raise :class:`DatasetError` if the spec is not generatable."""
        if self.num_requests < 1:
            raise DatasetError("a workload needs at least 1 request")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise DatasetError("read_ratio must be in [0, 1]")
        if self.write_batch < 1:
            raise DatasetError("write_batch must be >= 1")
        if self.arrival not in ("closed", "open"):
            raise DatasetError("arrival must be 'closed' or 'open'")
        if self.arrival == "open" and self.rate_rps <= 0:
            raise DatasetError("open-loop arrival needs a positive rate_rps")
        if not 0.0 <= self.edge_fraction <= 1.0:
            raise DatasetError("edge_fraction must be in [0, 1]")
        if not 0.0 < self.range_fraction <= 1.0:
            raise DatasetError("range_fraction must be in (0, 1]")


@dataclass(slots=True)
class ServingOp:
    """One request of a mixed serving workload.

    ``kind`` is ``"write"`` (then :attr:`edges` holds the stream items) or
    ``"read"`` (then :attr:`query` holds a query object implementing the
    ``evaluate`` protocol of :mod:`repro.queries.types`).  ``arrival_s`` is
    the request's offset from workload start in seconds for open-loop
    workloads, ``None`` for closed-loop ones.
    """

    kind: str
    edges: Optional[List[StreamEdge]] = None
    query: Optional[object] = None
    arrival_s: Optional[float] = None


def generate_mixed_workload(stream: GraphStream,
                            spec: MixedWorkloadSpec) -> List[ServingOp]:
    """Generate a mixed read/write request sequence over ``stream``.

    Writes replay the stream in arrival order, :attr:`write_batch` items per
    request, so the write side preserves the stream's temporal structure.
    Reads are interleaved by a deterministic coin with bias
    :attr:`read_ratio` and always target keys already written (edges and
    vertices sampled from the replayed prefix), so serving benchmarks
    measure warm-key traffic, not misses; the first request is always a
    write so reads have a prefix to hit.  Temporal ranges are
    ``range_fraction``-of-span windows at uniform offsets.

    Query objects are built lazily via :mod:`repro.queries.types` (imported
    here to keep the streams layer import-light).

    Raises
    ------
    DatasetError
        On an invalid spec or an empty stream.
    """
    spec.validate()
    if not len(stream):
        raise DatasetError("cannot build a workload over an empty stream")
    from ..queries.types import EdgeQuery, VertexQuery  # local: avoid cycle

    rng = np.random.default_rng(spec.seed)
    t_min, t_max = stream.time_span
    span = max(1, t_max - t_min)
    range_length = max(1, int(span * spec.range_fraction))
    edges = list(stream)
    reads_are_edges = rng.random(spec.num_requests) < spec.edge_fraction
    read_coin = rng.random(spec.num_requests) < spec.read_ratio
    # High bound is exclusive: allow start = t_max - range_length + 1 so a
    # window can end exactly at t_max (the newest data stays queryable).
    starts = rng.integers(t_min, max(t_min + 1, t_max - range_length + 2),
                          size=spec.num_requests)
    if spec.arrival == "open":
        arrivals = np.cumsum(rng.exponential(1.0 / spec.rate_rps,
                                             size=spec.num_requests))
    ops: List[ServingOp] = []
    cursor = 0          # next stream item to replay
    directions = ("out", "in")
    for index in range(spec.num_requests):
        arrival = float(arrivals[index]) if spec.arrival == "open" else None
        want_read = bool(read_coin[index]) and cursor > 0
        if want_read or cursor >= len(edges):
            if cursor == 0:
                # Stream exhausted before the first write could happen is
                # impossible (len >= 1); this guards read-before-write.
                continue  # pragma: no cover - unreachable by construction
            pick = edges[int(rng.integers(0, cursor))]
            t_start = int(starts[index])
            t_end = min(t_max, t_start + range_length - 1)
            if reads_are_edges[index]:  # noqa: SIM108 - multiline branches read better
                query = EdgeQuery(pick.source, pick.destination, t_start, t_end)
            else:
                query = VertexQuery(pick.source, t_start, t_end,
                                    directions[index % 2])
            ops.append(ServingOp("read", query=query, arrival_s=arrival))
        else:
            chunk = edges[cursor:cursor + spec.write_batch]
            cursor += len(chunk)
            ops.append(ServingOp("write", edges=chunk, arrival_s=arrival))
    return ops

