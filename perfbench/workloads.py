"""The three workloads, run untraced: ``ingest``, ``query`` and ``serve``.

Every workload drives the same engine shape: a 2-shard ``ShardedSummary``
with process workers (the only executor that uses both cores of a 2-core
host), source partitioning, and per-shard HIGGS sized for the stream by
``scaled_higgs_config``.

A run is :data:`ROUNDS` rounds.  Each round starts a fresh engine, times
its set-up, and then measures its share of the timed phase.  Throughput and
latency percentiles are taken within each round, and the run reports their
median over the rounds.  On a shared 2-vCPU host, plain CPU speed swung by
up to a quarter for seconds at a time; a median of rounds ignores one slow
round.

Each workload returns an :class:`Outcome` carrying the end-to-end metrics,
the attempted and failed operation counts, and the correctness checks that
did not hold.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.bench.methods import scaled_higgs_config
from repro.core.config import ServingConfig
from repro.errors import ReproError
from repro.queries.types import EdgeQuery, VertexQuery
from repro.serving import ServingEngine
from repro.sharding import HiggsShardFactory, ShardedSummary

import inputs as inputs_mod
from inputs import Inputs

SHARDS = 2
EXECUTOR = "process"
PARTITION_BY = "source"

#: Rounds per run, each with its own timed set-up; ``setup_s`` is their
#: median.  ``ingest`` runs more rounds when its replays are short.
ROUNDS = 3
#: ``ingest`` warms each fresh engine with this share of the stream and
#: times the replay of the rest.
INGEST_WARM_FRACTION = 0.1
#: ``ingest`` latency is timed per chunk of this many partition rounds.
#: Single rounds cost either ~22 ms or ~45 ms, and their median flipped
#: between the two from replay to replay.
INGEST_CHUNK_ROUNDS = 10
QUERY_BATCH = 16
#: Seconds a future may take to resolve before it counts as failed.
RESULT_TIMEOUT_S = 60.0
#: Slack for float accumulation when comparing an estimate with its truth.
TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Spans and self times of a traced run, written out at the end.
    trace: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def per_round(self, name: str, unit: str, values: Sequence[float]) -> None:
        """Report the median over the rounds of a per-round figure."""
        self.metrics[name] = (statistics.median(values), unit)

    def latency(self, rounds: Sequence[Sequence[float]]) -> None:
        """p50 and p99 of each round's latencies, in ms."""
        for name, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            self.per_round(name, "ms", [percentile(samples, q) * 1e3
                                        for samples in rounds])


def new_engine(stream_len: int) -> ShardedSummary:
    factory = HiggsShardFactory(scaled_higgs_config(stream_len))
    return ShardedSummary(factory, shards=SHARDS, executor=EXECUTOR,
                          partition_by=PARTITION_BY)


def set_up(stream_len: int, edges: Sequence) -> Tuple[ShardedSummary, float]:
    """Start an engine and ingest ``edges``; return it and the time taken."""
    start = time.perf_counter()
    engine = new_engine(stream_len)
    try:
        engine.insert_stream(edges)
    except BaseException:
        engine.close()
        raise
    return engine, time.perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def underestimates(estimates: Iterable[float], truths: Iterable[float]) -> int:
    return sum(1 for estimate, truth in zip(estimates, truths, strict=True)
               if estimate < truth - TOLERANCE * max(1.0, abs(truth)))


def relative_errors(queries: Sequence[object], truths: Sequence[float],
                    estimates: Sequence[float], outcome: Outcome) -> None:
    """Record the ARE of the edge and of the vertex queries (zero truths
    skipped)."""
    errors: Dict[type, List[float]] = {EdgeQuery: [], VertexQuery: []}
    for query, truth, estimate in zip(queries, truths, estimates, strict=True):
        if truth != 0 and type(query) in errors:
            errors[type(query)].append(abs(estimate - truth) / abs(truth))
    outcome.metrics["edge_are"] = (statistics.fmean(errors[EdgeQuery]), "ratio")
    outcome.metrics["vertex_are"] = (statistics.fmean(errors[VertexQuery]),
                                     "ratio")


def probe_accuracy(engine: ShardedSummary, inputs: Inputs, reference,
                   outcome: Outcome) -> None:
    """Answer the probe queries once against ``reference``; record ARE and
    count underestimates as failures."""
    queries = [inputs.queries[i] for i in inputs.probe()]
    truths = [query.evaluate(reference) for query in queries]
    estimates = [estimate for start in range(0, len(queries), QUERY_BATCH)
                 for estimate in engine.query_batch(
                     queries[start:start + QUERY_BATCH])]
    outcome.attempted += len(queries)
    outcome.failed += underestimates(estimates, truths)
    relative_errors(queries, truths, estimates, outcome)


def footprint(engine: ShardedSummary, outcome: Outcome) -> None:
    outcome.metrics["bytes_per_edge"] = (
        engine.memory_bytes() / engine.items_ingested, "B/edge")


# ---------------------------------------------------------------------- #
# ingest
# ---------------------------------------------------------------------- #

def stamped(edges: Sequence, every: int, stamps: List[float]) -> Iterator:
    """Yield ``edges``, noting the clock each time ``every`` more are pulled.

    ``insert_stream`` pulls one partition round of edges before each
    ``insert_batch``; with ``every`` a whole number of rounds, consecutive
    stamps bracket that many rounds.
    """
    clock = time.perf_counter
    for index, edge in enumerate(edges):
        if index % every == 0:
            stamps.append(clock())
        yield edge


def run_ingest(inputs: Inputs, seconds: float) -> Outcome:
    """Replay the stream into fresh engines: at least :data:`ROUNDS` times,
    and until ``seconds`` of replay."""
    outcome = Outcome()
    edges = inputs.stream
    warm = int(len(edges) * INGEST_WARM_FRACTION)
    setups: List[float] = []
    rates: List[float] = []
    chunk_s: List[List[float]] = []
    timed_s = 0.0
    memory = set()
    while len(setups) < ROUNDS or timed_s < seconds:
        engine, setup = set_up(len(edges), edges[:warm])
        try:
            setups.append(setup)
            stamps: List[float] = []
            every = (INGEST_CHUNK_ROUNDS * engine.config.batch_size
                     * engine.num_shards)
            begin = time.perf_counter()
            engine.insert_stream(stamped(edges[warm:], every, stamps))
            end = time.perf_counter()
            # The last stamp opens a partial chunk; leave it out.
            chunk_s.append([b - a for a, b in zip(stamps, stamps[1:])])
            timed_s += end - begin
            rates.append((len(edges) - warm) / (end - begin))
            outcome.attempted += len(edges) - warm
            outcome.failed += len(edges) - engine.items_ingested
            memory.add(engine.memory_bytes())
            if len(setups) == 1:
                footprint(engine, outcome)
                probe_accuracy(engine, inputs, inputs.reference, outcome)
        finally:
            engine.close()
    if len(memory) != 1:
        outcome.problems.append(f"memory_bytes differs across replays: {memory}")
    outcome.per_round("setup_s", "s", setups)
    outcome.per_round("ops_per_s", "1/s", rates)
    outcome.latency(chunk_s)
    return outcome


# ---------------------------------------------------------------------- #
# query
# ---------------------------------------------------------------------- #

class QueryMix:
    """The query mix in the seeded batch order, cycled across rounds.

    Every answer is checked against its truth.  Queries the time budget did
    not reach are answered at the end, untimed, so ARE covers the whole mix.
    """

    def __init__(self, inputs: Inputs, outcome: Outcome) -> None:
        self.inputs = inputs
        self.outcome = outcome
        self.batches = []
        for start in range(0, len(inputs.order), QUERY_BATCH):
            indices = inputs.order[start:start + QUERY_BATCH]
            self.batches.append((indices,
                                 [inputs.queries[i] for i in indices],
                                 [inputs.truths[i] for i in indices]))
        self.estimates = [math.nan] * len(inputs.queries)
        self.cursor = 0
        self.answered = 0

    def _check(self, indices, answers, expected) -> None:
        self.outcome.failed += underestimates(answers, expected)
        for index, answer in zip(indices, answers, strict=True):
            self.estimates[index] = answer

    def run(self, engine, seconds: float) -> Tuple[float, List[float]]:
        """Answer batches for ``seconds``; return the queries answered per
        second and the latency of each ``query_batch`` call."""
        latencies: List[float] = []
        answered = self.answered
        clock = time.perf_counter
        begin = clock()
        deadline = begin + seconds
        while clock() < deadline:
            indices, batch, expected = \
                self.batches[self.cursor % len(self.batches)]
            self.cursor += 1
            start = clock()
            answers = engine.query_batch(batch)
            latencies.append(clock() - start)
            self.answered += len(batch)
            self._check(indices, answers, expected)
        return (self.answered - answered) / (clock() - begin), latencies

    def finish(self, engine) -> None:
        """Answer what the budget did not reach; record ARE."""
        self.outcome.attempted += self.answered
        for indices, batch, expected in self.batches[self.cursor:]:
            self.outcome.attempted += len(batch)
            self._check(indices, engine.query_batch(batch), expected)
        relative_errors(self.inputs.queries, self.inputs.truths,
                        self.estimates, self.outcome)


def run_query(inputs: Inputs, seconds: float) -> Outcome:
    """Per round: ingest the whole stream, then cycle the query mix."""
    outcome = Outcome()
    mix = QueryMix(inputs, outcome)
    setups: List[float] = []
    rates: List[float] = []
    latencies: List[List[float]] = []
    for index in range(ROUNDS):
        engine, setup = set_up(len(inputs.stream), inputs.stream)
        try:
            setups.append(setup)
            rate, calls = mix.run(engine, seconds / ROUNDS)
            rates.append(rate)
            latencies.append(calls)
            if index == ROUNDS - 1:
                footprint(engine, outcome)
                mix.finish(engine)
        finally:
            engine.close()
    outcome.per_round("setup_s", "s", setups)
    outcome.per_round("ops_per_s", "1/s", rates)
    outcome.latency(latencies)
    return outcome


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #

@dataclass
class OpenLoopResult:
    """Per-request timings of one open-loop drive."""

    dues: List[float]
    latencies: List[float]
    lags: List[float]
    completed: int
    failed: int
    acked_edges: int
    submitted_edges: int
    #: From the first scheduled arrival to the last completion.
    active_s: float


def drive_open_loop(serving: ServingEngine, ops) -> OpenLoopResult:
    """Submit each op at its scheduled arrival; time it from that schedule.

    Latency runs from when a request was due, not from when it was
    enqueued, so a generator running late cannot hide a stall.  A request
    that is refused, fails or does not resolve counts as infinitely slow.
    """
    clock = time.perf_counter
    origin = clock() + 0.01
    sent = []
    lags: List[float] = []
    for op in ops:
        due = origin + op.arrival_s
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        lags.append(clock() - due)
        try:
            future = serving.submit_write(op.edges) if op.kind == "write" \
                else serving.submit_query(op.query)
        except ReproError:  # refused at admission: a failed request
            future = None
        sent.append((due, op, future))
    latencies: List[float] = []
    failed = completed = acked = submitted = 0
    last_done = origin
    for due, op, future in sent:
        if op.kind == "write":
            submitted += len(op.edges)
        ok = future is not None and future.wait(RESULT_TIMEOUT_S)
        if ok:
            try:
                value = future.result(0)
            except ReproError:  # the request's own failure
                ok = False
        if not ok:
            failed += 1
            latencies.append(math.inf)
            continue
        completed += 1
        if op.kind == "write":
            acked += value
        latencies.append(future.completed_at - due)
        last_done = max(last_done, future.completed_at)
    return OpenLoopResult([due for due, _, _ in sent], latencies, lags,
                          completed, failed, acked, submitted,
                          last_done - sent[0][0])


def serve_config(ops) -> ServingConfig:
    """Blocking admission behind a queue deeper than the whole run."""
    return ServingConfig(max_pending=len(ops) + 1, admission="block")


def check_serve(engine: ShardedSummary, inputs: Inputs, ops,
                result: OpenLoopResult, outcome: Outcome) -> None:
    """Every request resolved and the acknowledgements add up."""
    outcome.attempted += len(ops)
    outcome.failed += result.failed
    if result.acked_edges != result.submitted_edges:
        outcome.problems.append(
            f"writes acknowledged {result.acked_edges} of "
            f"{result.submitted_edges} edges submitted")
    expected = len(inputs.first_half) + result.submitted_edges
    if engine.items_ingested != expected:
        outcome.problems.append(
            f"engine holds {engine.items_ingested} edges, expected {expected}")


def check_final_state(engine: ShardedSummary, inputs: Inputs, ops,
                      outcome: Outcome) -> None:
    """Footprint and accuracy of the state ``serve`` leaves behind."""
    written = inputs.first_half + inputs_mod.serve_writes(ops)
    probe_accuracy(engine, inputs, inputs_mod.exact_of(written), outcome)
    footprint(engine, outcome)


def run_serve(inputs: Inputs, seconds: float) -> Outcome:
    """Per round: ingest the first half, then serve open-loop traffic."""
    outcome = Outcome()
    setups: List[float] = []
    windows: List[List[float]] = []
    rates: List[float] = []
    for index in range(ROUNDS):
        ops = inputs_mod.serve_ops(inputs, seconds / ROUNDS, index)
        engine, setup = set_up(len(inputs.stream), inputs.first_half)
        try:
            setups.append(setup)
            with ServingEngine(engine, serve_config(ops)) as serving:
                result = drive_open_loop(serving, ops)
            check_serve(engine, inputs, ops, result, outcome)
            if index == ROUNDS - 1:
                check_final_state(engine, inputs, ops, outcome)
        finally:
            engine.close()
        windows.append(result.latencies)
        rates.append(result.completed / result.active_s)
    outcome.per_round("setup_s", "s", setups)
    outcome.per_round("ops_per_s", "1/s", rates)
    outcome.latency(windows)
    return outcome


WORKLOADS = {"ingest": run_ingest, "query": run_query, "serve": run_serve}
