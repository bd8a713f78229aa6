"""Concurrent serving experiment: mixed read/write traffic, latency + throughput.

Drives the :class:`~repro.serving.ServingEngine` with the mixed-workload
generator (:func:`~repro.streams.generators.generate_mixed_workload`) over a
sharded HIGGS engine, sweeping the **read ratio** (write-heavy ingestion to
read-heavy analytics) and the **client count** (closed-loop concurrency).
Per configuration it reports:

* ``req_per_s`` — served requests per wall-clock second (the serving
  throughput figure), plus ``edges_per_s`` for the write side;
* ``p50_ms`` / ``p95_ms`` / ``p99_ms`` — admission-to-completion latency
  percentiles over all requests, from the engine's sliding-window tracker
  (``read_p50_ms`` splits out the read side);
* ``epochs`` — how many write epochs the scheduler committed, i.e. how much
  coalescing the admission queue achieved (requests per epoch is the
  batching win that keeps the engine ahead of per-request dispatch).

All rows run the same closed-loop harness: each client thread submits its
next request when the previous one resolves, so concurrency — not an
arrival-rate guess — sets the offered load.  A final row group
(``figure = "serving-open"``) replays the 50 % ratio as an **open-loop**
workload with Poisson arrivals at a rate above the closed-loop capacity and
the ``"drop"`` admission policy, demonstrating backpressure: the engine
sheds the excess (``dropped`` column) instead of queueing without bound.

Every measurement shares one
:class:`~repro.observability.MetricsRegistry` between the serving engine and
its sharded summary; the scalar columns of each row come from the engine's
``stats()`` and the full metric snapshot rides along in the row's
``metrics`` key (JSON output only — the ASCII table skips container
columns).

The scheduler and the clients all share one CPU in this harness, so the
absolute throughput is a floor; the serving layer's scatter path inherits
the sharded engine's scale-out projection (see the ``sharded`` experiment).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from ...core.config import ServingConfig
from ...errors import BenchmarkError, ServingError
from ...observability import MetricsRegistry
from ...serving import ServingEngine
from ...streams.generators import (MixedWorkloadSpec, ServingOp, StreamSpec,
                                   generate_mixed_workload, generate_stream)
from ..methods import make_sharded_higgs

#: How long the harness waits for a client thread after its futures should
#: all have resolved (their own timeout is 120 s).  A thread alive past this
#: is wedged — the run aborts with attribution instead of hanging the bench.
_CLIENT_JOIN_TIMEOUT_S = 150.0


def _drive_closed_loop(engine: ServingEngine, ops: Sequence[ServingOp],
                       clients: int) -> Dict[str, float]:
    """Replay ``ops`` through ``clients`` closed-loop threads; return timing.

    Ops are dealt round-robin and each client advances independently, so at
    ``clients > 1`` the global submission order is only per-client — a read
    can occasionally be served before the write that creates its target key
    (a cold read), exactly as with real concurrent clients.  The
    single-client rows preserve the generator's strict warm-key ordering.

    Client failures abort the run: every client error is collected and
    re-raised as one :class:`~repro.errors.BenchmarkError` naming the count
    and chaining the first cause, so a broken configuration can never be
    mistaken for a fast one.  Joins are bounded by
    :data:`_CLIENT_JOIN_TIMEOUT_S`; a client alive past that is reported as
    stuck instead of hanging the whole benchmark.
    """
    slices = [list(ops[i::clients]) for i in range(clients)]
    errors: List[BaseException] = []

    def run_client(my_ops: List[ServingOp]) -> None:
        try:
            for op in my_ops:
                future = engine.submit_write(op.edges) if op.kind == "write" \
                    else engine.submit_query(op.query)
                future.result(timeout=120.0)
        except BaseException as exc:  # noqa: BLE001 - re-raised by caller
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(chunk,), daemon=True)
               for chunk in slices if chunk]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    stuck: List[str] = []
    for thread in threads:
        thread.join(timeout=_CLIENT_JOIN_TIMEOUT_S)
        if thread.is_alive():
            stuck.append(thread.name)
    wall = time.perf_counter() - start
    if stuck:
        raise BenchmarkError(
            f"{len(stuck)} serving client thread(s) still running after "
            f"{_CLIENT_JOIN_TIMEOUT_S:.0f}s: {', '.join(stuck)}")
    if errors:
        raise BenchmarkError(
            f"{len(errors)} of {len(threads)} serving clients failed; "
            f"first error: {errors[0]!r}") from errors[0]
    return {"wall_s": wall}


def _drive_open_loop(engine: ServingEngine, ops: Sequence[ServingOp]
                     ) -> Dict[str, float]:
    """Replay an open-loop workload: submit at generated arrival offsets.

    Drop-policy rejections at admission are the point of the experiment and
    are counted (``rejected``); an *accepted* request that then fails is a
    real error, so every failed future is collected and re-raised as one
    :class:`~repro.errors.BenchmarkError` (chaining the first cause) instead
    of being silently absorbed into the throughput numbers.
    """
    futures = []
    rejected = 0
    start = time.perf_counter()
    for op in ops:
        if op.arrival_s is not None:
            lag = op.arrival_s - (time.perf_counter() - start)
            if lag > 0:
                time.sleep(lag)
        try:
            if op.kind == "write":
                futures.append(engine.submit_write(op.edges))
            else:
                futures.append(engine.submit_query(op.query))
        except ServingError:
            rejected += 1
    failures: List[BaseException] = []
    for future in futures:
        try:
            future.result(timeout=120.0)
        except Exception as exc:  # noqa: BLE001 - aggregated below
            failures.append(exc)
    wall = time.perf_counter() - start
    if failures:
        raise BenchmarkError(
            f"{len(failures)} of {len(futures)} accepted open-loop requests "
            f"failed; first error: {failures[0]!r}") from failures[0]
    return {"wall_s": wall, "rejected": rejected, "accepted": len(futures)}


def _percentile_ms(report: Dict[str, float], key: str) -> float:
    """One latency percentile in milliseconds (0 when the kind is cold)."""
    return report.get(key, 0.0) * 1e3


def _measure(stream, ops: Sequence[ServingOp], *, shards: int, clients: int,
             config: ServingConfig, open_loop: bool = False) -> Dict[str, object]:
    """Run one serving configuration; return its metric dict.

    The serving engine and the sharded summary share one metrics registry;
    after the drive the per-shard load gauges are refreshed
    (:meth:`~repro.sharding.ShardedSummary.shard_stats`) and the full
    snapshot is attached under the row's ``metrics`` key.
    """
    registry = MetricsRegistry()
    engine = make_sharded_higgs(stream, shards, executor="serial",
                                registry=registry)
    try:
        with ServingEngine(engine, config, registry=registry) as serving:
            timing = _drive_open_loop(serving, ops) if open_loop \
                else _drive_closed_loop(serving, ops, clients)
            serving.flush()
            engine.shard_stats()
            stats = serving.stats()
            snapshot = registry.snapshot()
    finally:
        engine.close()
    latency = stats["latency"]
    reads = stats["reads_served"]
    writes = stats["writes_served"]
    served = reads + writes
    wall = timing["wall_s"]
    read_report = latency.get("read", {})
    write_report = latency.get("write", {})
    return {
        "requests": served,
        "reads": reads,
        "writes": writes,
        "wall_s": wall,
        "req_per_s": served / wall if wall else 0.0,
        "edges_per_s": stats["edges_inserted"] / wall if wall else 0.0,
        "epochs": stats["epochs"],
        # The engine's own counter covers the open-loop rejections too — the
        # driver's local count tallies the same ServingError events.
        "dropped": stats["dropped"],
        # The headline percentiles take the slower of the two request kinds,
        # so a read-heavy and a write-heavy row stay comparable.
        "p50_ms": max(_percentile_ms(read_report, "p50"),
                      _percentile_ms(write_report, "p50")),
        "p95_ms": max(_percentile_ms(read_report, "p95"),
                      _percentile_ms(write_report, "p95")),
        "p99_ms": max(_percentile_ms(read_report, "p99"),
                      _percentile_ms(write_report, "p99")),
        "read_p50_ms": _percentile_ms(read_report, "p50"),
        "read_p99_ms": _percentile_ms(read_report, "p99"),
        "epoch_limit": stats["epoch_limit"],
        "queue_peak": snapshot["serving_queue_depth_peak"]["values"][""],
        "metrics": snapshot,
    }


def run_serving(*, num_edges: int = 60_000, num_vertices: int = 2_000,
                time_span: int = 6_000, seed: int = 7,
                read_ratios: Sequence[float] = (0.1, 0.5, 0.9),
                client_counts: Sequence[int] = (1, 4, 8),
                shards: int = 4, write_batch: int = 32,
                scale: Optional[float] = None) -> List[Dict[str, object]]:
    """Mixed-workload serving benchmark: read-ratio × client-count sweep.

    Builds one synthetic stream (the sharded experiment's family), derives a
    mixed workload per read ratio, and drives it closed-loop at each client
    count through a fresh ``ServingEngine`` over a ``shards``-way HIGGS
    engine.  A final open-loop row demonstrates drop-policy backpressure.

    ``scale`` (the CLI's dataset knob) scales ``num_edges`` and
    ``time_span`` together when given, like the other system experiments.

    Returns the table as a list of row dictionaries.
    """
    if scale is not None:
        num_edges = max(1_000, int(num_edges * scale))
        time_span = max(100, int(time_span * scale))
    spec = StreamSpec(num_vertices=num_vertices, num_edges=num_edges,
                      time_span=time_span, skewness=1.8,
                      arrival_variance=800.0, seed=seed,
                      name=f"serve-synth-{num_edges}")
    stream = generate_stream(spec)
    config = ServingConfig()

    rows: List[Dict[str, object]] = []
    for read_ratio in read_ratios:
        # Size the request count so every ratio replays the whole stream on
        # the write side: writes = stream/write_batch, reads scale on top.
        write_requests = max(1, num_edges // write_batch)
        num_requests = max(2, int(write_requests / max(0.05, 1 - read_ratio)))
        workload = MixedWorkloadSpec(num_requests=num_requests,
                                     read_ratio=read_ratio,
                                     write_batch=write_batch, seed=seed + 1)
        ops = generate_mixed_workload(stream, workload)
        for clients in client_counts:
            metrics = _measure(stream, ops, shards=shards, clients=clients,
                               config=config)
            rows.append({"figure": "serving", "dataset": stream.name,
                         "read_ratio": read_ratio, "clients": clients,
                         "arrival": "closed",
                         "policy": f"fixed-{config.max_batch_writes}",
                         **metrics})

    # Open-loop overload: offer ~3× the slowest measured closed-loop rate
    # with a small admission queue and the drop policy — backpressure in
    # action.  (min over rows: any served rate works as an overload anchor,
    # and the sweep's parameters are caller-configurable.)
    closed_rate = min((row["req_per_s"] for row in rows), default=100.0)
    # The row floor (500 requests even at tiny --scale) keeps the shed
    # fraction statistically meaningful: with only a couple hundred offered
    # requests the empty-queue transient dominates and the fraction is
    # mostly noise, which matters because the perf gate runs this row at a
    # small scale.
    overload = MixedWorkloadSpec(
        num_requests=max(500, min(2_000, num_edges // write_batch)),
        read_ratio=0.5, write_batch=write_batch, arrival="open",
        rate_rps=max(10.0, closed_rate * 3.0), seed=seed + 2)
    ops = generate_mixed_workload(stream, overload)
    drop_config = ServingConfig(max_pending=64, admission="drop")
    metrics = _measure(stream, ops, shards=shards, clients=1,
                       config=drop_config, open_loop=True)
    rows.append({"figure": "serving-open", "dataset": stream.name,
                 "read_ratio": 0.5, "clients": 1, "arrival": "open",
                 "policy": f"fixed-{drop_config.max_batch_writes}",
                 **metrics})
    return rows
