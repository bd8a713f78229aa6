"""Inputs of the benchmark: the stream, the query mix, the serve traffic.

Everything the system under test receives is generated here before any
engine starts, and the reference answers come from ``ExactTemporalGraph``,
which sits outside the system under test.

The stream and the query mix are fixed (seeds :data:`STREAM_SEED` and
:data:`MIX_SEED`), like a dataset.  HIGGS's ARE on one stream hinges on a
handful of fingerprint collisions with heavy edges: in a probe, edge ARE
over the same mix moved from 0.003 to 0.40 across stream seeds, far outside
any usable bound.  On a fixed stream, ARE and bytes per edge are exact
regression checks.  The workload seed drives what a run-to-run comparison
should average over: the order the query mix is batched in, and the
arrival schedule of the ``serve`` traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from repro.baselines.exact import ExactTemporalGraph
from repro.queries.types import EdgeQuery, VertexQuery
from repro.queries.workload import QueryWorkloadGenerator, WorkloadConfig
from repro.streams.edge import GraphStream, StreamEdge
from repro.streams.generators import (MixedWorkloadSpec, ServingOp, StreamSpec,
                                      generate_mixed_workload, generate_stream)

#: The one stream every workload replays.
NUM_VERTICES = 20_000
NUM_EDGES = 200_000
SKEWNESS = 1.5
TIME_SPAN = 100_000
ARRIVAL_VARIANCE = 800.0
STREAM_SEED = 7

#: Query mix per range length (span/1000, /100, /10, /1): edge queries are
#: ~60% of the mix; a few path and subgraph queries add the fan-out paths.
MIX_SEED = 8
EDGE_QUERIES_PER_RANGE = 2_400
VERTEX_QUERIES_PER_RANGE = 800  # per direction
PATH_QUERIES_PER_RANGE = 25
PATH_HOPS = 3
SUBGRAPH_QUERIES_PER_RANGE = 25
SUBGRAPH_EDGES = 50
RANGE_DIVISORS = (1000, 100, 10, 1)

#: ``serve`` traffic: a constant offered rate (about half the rate where
#: p50 collapsed in a probe), never derived from measured capacity, so a
#: faster build gets the same workload, not a harder one.
SERVE_RATE_RPS = 1_000.0
SERVE_READ_RATIO = 0.5
SERVE_WRITE_BATCH = 16


@dataclass
class Inputs:
    """All generated inputs of one run."""

    seed: int
    stream: List[StreamEdge]
    queries: List[object]
    truths: List[float]
    #: The order the ``query`` workload batches the mix in (seeded).
    order: List[int]
    #: Exact answers for the whole stream.
    reference: ExactTemporalGraph

    @property
    def first_half(self) -> List[StreamEdge]:
        return self.stream[:len(self.stream) // 2]

    @property
    def second_half(self) -> List[StreamEdge]:
        return self.stream[len(self.stream) // 2:]

    def probe(self) -> List[int]:
        """Indices of the mix's edge and vertex queries over the whole span,
        re-checked after the runs that do not answer the whole mix.

        Whole-span ranges are answered from the top aggregated nodes, whose
        coarser fingerprints cause nearly all of HIGGS's error; shorter
        ranges came out exact in a probe.
        """
        span = self.stream[-1].timestamp - self.stream[0].timestamp + 1
        return [i for i, q in enumerate(self.queries)
                if isinstance(q, (EdgeQuery, VertexQuery))
                and q.t_end - q.t_start + 1 >= span]


def stream_spec() -> StreamSpec:
    return StreamSpec(num_vertices=NUM_VERTICES, num_edges=NUM_EDGES,
                      skewness=SKEWNESS, time_span=TIME_SPAN,
                      arrival_variance=ARRIVAL_VARIANCE, seed=STREAM_SEED,
                      name="perfbench")


def query_mix(stream: GraphStream) -> List[object]:
    """The ``query`` mix, grouped by range length and query kind."""
    generator = QueryWorkloadGenerator(stream, WorkloadConfig(seed=MIX_SEED))
    t_min, t_max = stream.time_span
    span = t_max - t_min + 1
    queries: List[object] = []
    for divisor in RANGE_DIVISORS:
        length = max(1, span // divisor)
        queries += generator.edge_queries(EDGE_QUERIES_PER_RANGE, length)
        for direction in ("out", "in"):
            queries += generator.vertex_queries(VERTEX_QUERIES_PER_RANGE,
                                                length, direction=direction)
        queries += generator.path_queries(PATH_QUERIES_PER_RANGE, PATH_HOPS,
                                          length)
        queries += generator.subgraph_queries(SUBGRAPH_QUERIES_PER_RANGE,
                                              SUBGRAPH_EDGES, length)
    return queries


def exact_of(edges) -> ExactTemporalGraph:
    reference = ExactTemporalGraph()
    reference.insert_batch(edges)
    return reference


def batch_order(queries: Sequence[object], seed: int) -> List[int]:
    """A seeded order of the mix with path and subgraph queries spread
    evenly, so no batch holds two of them.

    A plain shuffle puts two or three of these fan-out queries in some
    batches, and how many such batches a seed produces set the ``query``
    p99 (12 to 21 ms across seeds in a probe).
    """
    rng = random.Random(seed)
    simple = [i for i, q in enumerate(queries)
              if isinstance(q, (EdgeQuery, VertexQuery))]
    fanout = [i for i, q in enumerate(queries)
              if not isinstance(q, (EdgeQuery, VertexQuery))]
    rng.shuffle(simple)
    rng.shuffle(fanout)
    order: List[int] = []
    for k, index in enumerate(fanout):
        lo = k * len(simple) // len(fanout)
        hi = (k + 1) * len(simple) // len(fanout)
        order += simple[lo:hi] + [index]
    return order


def make_inputs(seed: int) -> Inputs:
    stream = generate_stream(stream_spec())
    queries = query_mix(stream)
    reference = exact_of(stream)
    truths = [query.evaluate(reference) for query in queries]
    return Inputs(seed, list(stream), queries, truths,
                  batch_order(queries, seed), reference)


def serve_ops(inputs: Inputs, seconds: float,
              round_index: int) -> List[ServingOp]:
    """Open-loop traffic for ``seconds``: reads plus 16-edge writes that
    replay the stream's second half from its start, at Poisson arrival
    times seeded by the workload seed and the round.

    The request sequence itself is fixed, so every round writes the same
    edges and ends in the same state.
    """
    count = max(2, int(SERVE_RATE_RPS * seconds))
    spec = MixedWorkloadSpec(
        num_requests=count, read_ratio=SERVE_READ_RATIO,
        write_batch=SERVE_WRITE_BATCH, seed=MIX_SEED)
    ops = generate_mixed_workload(GraphStream(inputs.second_half), spec)
    gaps = np.random.default_rng([inputs.seed, round_index]).exponential(
        1.0 / SERVE_RATE_RPS, size=len(ops))
    for op, arrival in zip(ops, np.cumsum(gaps).tolist(), strict=True):
        op.arrival_s = arrival
    return ops


def serve_writes(ops: Sequence[ServingOp]) -> List[StreamEdge]:
    return [edge for op in ops if op.kind == "write" for edge in op.edges]
