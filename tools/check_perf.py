#!/usr/bin/env python
"""Performance-regression gate: re-measure the smoke benchmarks, compare.

The repository's performance wins are ratios — the batch ingest path is
≥2× the per-item path (PR 1), the 4-shard engine projects well over 1×
the single-shard ingest throughput (PR 2), and live rebalancing recovers
~3× of a hot shard's projected throughput (PR 7).  Since the observability
layer landed, **latency behavior is gated too**: the serving engine's read
p99/p50 inflation at the 8-client 0.9-read-ratio row and the shed fraction
under the fixed open-loop overload row, both sourced from the engine's
metric snapshots.  This tool re-runs the smoke benchmarks at a small fixed
scale, extracts those ratio metrics, and fails when any of them regressed
more than its tolerance past its committed baseline
(``benchmarks/baselines.json``).

Only **ratio** metrics are gated.  Absolute throughputs (also measured and
written to the report for the CI artifact) vary several-fold across runner
hardware, so gating them would make the job flaky on fast runners and
useless on slow ones; the ratios cancel the hardware out while still
catching the regressions that matter (a broken batch fast path collapses
the speedup to ~1× no matter the machine; a read path that grew a tail
inflates p99 over p50 on any hardware).  Throughput-style metrics are
"higher is better"; the serving latency/shedding ratios declare
``"direction": "lower"`` in the baselines file (and a wider per-metric
``"tolerance"``, since queue dynamics are noisier than batch speedups).

Usage::

    PYTHONPATH=src python tools/check_perf.py                 # gate
    PYTHONPATH=src python tools/check_perf.py --update        # refresh baselines
    PYTHONPATH=src python tools/check_perf.py --summary       # + markdown table
                                     # (to $GITHUB_STEP_SUMMARY when set)
    PYTHONPATH=src python tools/check_perf.py --inject-slowdown 0.01
                                                              # prove the gate trips
    PYTHONPATH=src python tools/check_perf.py --inject-read-tail 0.05
                                                              # prove p99/p50 trips
    PYTHONPATH=src python tools/check_perf.py --inject-admission-squeeze
                                                              # prove shedding trips

The injection flags plant a *real* regression before measuring, verifying
end-to-end that the gate fails when the guarded behavior degrades:
``--inject-slowdown S`` sleeps in every ``Higgs.insert_batch`` (collapses
the batch speedup), ``--inject-read-tail S`` sleeps in every 20th
``Higgs.query_batch`` (a tail-only read regression — p50 holds, p99
inflates, exactly the failure uniform slowdowns cannot expose because the
overload row re-calibrates its offered rate from the same run's measured
capacity), and ``--inject-admission-squeeze`` shrinks the drop-policy
admission queue 32× (excess shedding under the same offered load).

Exit status: 0 when every gated metric is within tolerance, 1 on regression,
2 on a malformed baselines file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINES = REPO_ROOT / "benchmarks" / "baselines.json"
DEFAULT_REPORT = REPO_ROOT / "results" / "perf_check.json"

#: The gated metrics and the baseline attributes ``--update`` writes for
#: each.  The throughput ratios are "higher is better" under the file-wide
#: tolerance; the serving latency/shedding ratios declare
#: ``direction: lower`` plus a wider per-metric tolerance, because queue
#: dynamics on a busy runner are noisier than deterministic batch math but
#: a real regression (tail growth, shrunken admission) overshoots far past
#: even the wide band (see the ``--inject-*`` flags).
GATED_METRICS: Dict[str, dict] = {
    "batch_higgs_speedup_x": {},
    "sharded_parallel_x4": {},
    "sharded_wall_x4": {"min_cores": 4},
    "rebalance_recovery_x": {},
    "serving_read_p99_p50_x": {"direction": "lower", "tolerance": 1.0},
    "serving_shed_fraction": {"direction": "lower", "tolerance": 0.35},
}

sys.path.insert(0, str(REPO_ROOT / "src"))


def inject_slowdown(seconds_per_batch: float) -> None:
    """Slow every ``Higgs.insert_batch`` call by ``seconds_per_batch``.

    A deliberate, real regression of the guarded fast path (not a doctored
    comparison), so ``--inject-slowdown`` demonstrates end-to-end that the
    gate fails when the code gets slower.
    """
    from repro.core.higgs import Higgs
    original = Higgs.insert_batch

    def slowed(self, edges):
        time.sleep(seconds_per_batch)
        return original(self, edges)

    Higgs.insert_batch = slowed


#: Every Nth ``Higgs.query_batch`` call is slowed by ``--inject-read-tail``
#: — rare enough to leave p50 alone, frequent enough to own p99.
READ_TAIL_EVERY = 20


def inject_read_tail(seconds_per_batch: float) -> None:
    """Slow every :data:`READ_TAIL_EVERY`-th ``Higgs.query_batch`` call.

    A tail-only read regression: most read rounds stay fast (p50 holds)
    while the slowed ones inflate p99, so the gated ``serving_read_p99_p50_x``
    ratio moves.  A *uniform* read slowdown would shift p50 and p99
    together and leave the ratio flat — which is why the latency gate needs
    this tail-shaped injection to prove it trips.
    """
    from repro.core.higgs import Higgs
    original = Higgs.query_batch
    calls = [0]

    def tailed(self, queries):
        calls[0] += 1
        if calls[0] % READ_TAIL_EVERY == 0:
            time.sleep(seconds_per_batch)
        return original(self, queries)

    Higgs.query_batch = tailed


def inject_admission_squeeze(divisor: int = 32) -> None:
    """Shrink every drop-policy serving engine's admission queue ``divisor``×.

    The overload row offers ~3× the same run's measured closed-loop rate,
    so uniform slowdowns self-normalize out of the shed fraction; what the
    ``serving_shed_fraction`` gate actually guards is the admission
    capacity/policy itself.  Squeezing ``max_pending`` is that regression:
    the same offered load now sheds far more.  Blocking-policy engines
    (the closed-loop rows) are left untouched.
    """
    import dataclasses

    from repro.serving.engine import ServingEngine
    original = ServingEngine.__init__

    def squeezed(self, summary, config=None, **kwargs):
        if config is not None and config.admission == "drop":
            config = dataclasses.replace(
                config, max_pending=max(1, config.max_pending // divisor))
        original(self, summary, config, **kwargs)

    ServingEngine.__init__ = squeezed


def run_measurements(scale: float) -> Dict[str, float]:
    """Run the smoke benchmarks; return every metric (gated and informational).

    Gated ratio metrics:

    * ``batch_higgs_speedup_x`` — HIGGS ``insert_batch`` vs per-item
      ``insert`` throughput ratio (the PR 1 win).
    * ``sharded_parallel_x4`` — projected-parallel ingest speedup of the
      4-shard engine over 1 shard (the PR 2 win).
    * ``sharded_wall_x4`` — **measured** wall-clock ingest speedup of the
      4-shard ``"process"`` engine over 1 shard, with packed edge batches
      pickled through the worker pipes.  Declares ``min_cores: 4``: it is always
      measured and recorded, but only enforced on hosts with at least four
      cores — a single-core runner cannot realize parallel speedup, so the
      gate reports it as ``skipped: N cores`` there instead of failing.
    * ``rebalance_recovery_x`` — slowest-shard load ratio of the skewed
      phase over the rebalanced phase of the elastic-rebalancing
      experiment, i.e. the projected throughput recovered by live key
      reassignment (the PR 7 win).  Computed from deterministic item
      counters, so it cannot flake on timing noise; a broken
      ``rebalance()`` path collapses it to ~1×.

    * ``serving_read_p99_p50_x`` — read p99/p50 latency inflation of the
      8-client 0.9-read-ratio closed-loop serving row, from the engine's
      latency histogram (the PR 8 latency contract).  Direction **lower**:
      a read path that grew a tail fails it on any hardware.
    * ``serving_shed_fraction`` — requests shed at admission under the
      open-loop overload row (offered ≈ 3× the same run's measured
      capacity, small drop-policy queue).  Direction **lower**: guards the
      admission capacity and drop policy.

    Informational absolute metrics (reported, not gated):
    ``batch_higgs_eps``, ``batch_higgs_per_item_eps``,
    ``sharded_wall_eps_1``, ``rebalance_measured_x``,
    ``rebalance_recover_s``, ``serving_req_per_s``, ``serving_read_p99_ms``.

    ``sharded_parallel_x4`` is the 1-shard engine's projected time over
    the 4-shard engine's serial partition and dispatch overhead plus its
    slowest shard, so cheaper shard work alone lowers it while the
    4-shard engine gets faster.  Its parts are reported beside it, never
    gated: ``sharded_parallel_s_1`` (the 1-shard projected time),
    ``sharded_overhead_s_4`` (``parallel_s - max_shard_s``),
    ``sharded_max_shard_s_4`` and ``sharded_parallel_eps_4`` (the
    projected 4-shard edges/s).
    """
    from repro.bench.experiments import (run_batch_speedup, run_rebalance,
                                         run_serving, run_sharded_scaling)

    batch_rows = run_batch_speedup(methods=("HIGGS",), scale=scale)
    higgs = next(row for row in batch_rows if row["method"] == "HIGGS")

    sharded_rows = run_sharded_scaling(scale=scale, shard_counts=(1, 4),
                                       hot_fractions=())
    by_shards = {row["shards"]: row for row in sharded_rows
                 if row["figure"] == "sharded"}
    process_by_shards = {row["shards"]: row for row in sharded_rows
                         if row["figure"] == "sharded-process"}

    rebalance_rows = run_rebalance(scale=scale)
    rebalanced = next(row for row in rebalance_rows
                      if row["phase"] == "rebalanced")
    recovery = next(row for row in rebalance_rows
                    if row["figure"] == "rebalance-recovery")

    serving_rows = run_serving(scale=scale, read_ratios=(0.9,),
                               client_counts=(8,))
    closed = next(row for row in serving_rows if row["figure"] == "serving")
    overload = next(row for row in serving_rows
                    if row["figure"] == "serving-open")
    offered = float(overload["requests"]) + float(overload["dropped"])
    return {
        "batch_higgs_speedup_x": float(higgs["speedup"]),
        "batch_higgs_eps": float(higgs["batch_eps"]),
        "batch_higgs_per_item_eps": float(higgs["per_item_eps"]),
        "sharded_parallel_x4": float(by_shards[4]["parallel_x"]),
        "sharded_parallel_s_1": float(by_shards[1]["parallel_s"]),
        "sharded_overhead_s_4": (float(by_shards[4]["parallel_s"])
                                 - float(by_shards[4]["max_shard_s"])),
        "sharded_max_shard_s_4": float(by_shards[4]["max_shard_s"]),
        "sharded_parallel_eps_4": float(by_shards[4]["parallel_eps"]),
        "sharded_wall_x4": float(process_by_shards[4]["wall_x"]),
        "sharded_wall_eps_1": float(by_shards[1]["wall_eps"]),
        "host_cores": float(process_by_shards[4]["host_cores"]),
        "rebalance_recovery_x": float(rebalanced["recovery_x"]),
        "rebalance_measured_x": float(rebalanced["measured_x"]),
        "rebalance_recover_s": float(recovery["recover_s"]),
        "serving_read_p99_p50_x": (float(closed["read_p99_ms"]) /
                                   max(1e-9, float(closed["read_p50_ms"]))),
        "serving_shed_fraction": float(overload["dropped"]) / max(1.0, offered),
        "serving_req_per_s": float(closed["req_per_s"]),
        "serving_read_p99_ms": float(closed["read_p99_ms"]),
    }


def compare(measured: Dict[str, float], baselines: Dict[str, dict],
            tolerance: float) -> List[Dict[str, object]]:
    """Compare measured metrics against baselines; return one row per metric.

    A baselined metric defaults to "higher is better" with the file-wide
    ``tolerance``: it regresses when ``measured < baseline * (1 - tol)``.
    An entry may declare ``"direction": "lower"`` (regresses when
    ``measured > baseline * (1 + tol)`` — latency inflation, shed fraction)
    and/or a per-metric ``"tolerance"`` overriding the file-wide one.  Each
    row's ``limit`` is the pass/fail boundary in the metric's own direction.
    Metrics present in the measurement but absent from the baselines (the
    informational ones) are reported with ``gated = False`` and never fail.

    An entry may declare ``"min_cores": N``: on a host with fewer than N
    cores the metric is still measured and reported, but the verdict is
    recorded as skipped (``skipped = "skipped: C cores"``) rather than
    enforced — a hardware precondition, not a regression.
    """
    host_cores = os.cpu_count() or 1
    rows: List[Dict[str, object]] = []
    for name, value in sorted(measured.items()):
        entry = baselines.get(name)
        if entry is None:
            rows.append({"metric": name, "measured": value, "baseline": None,
                         "limit": None, "direction": None, "gated": False,
                         "ok": True, "skipped": None})
            continue
        baseline = float(entry["value"])
        direction = str(entry.get("direction", "higher"))
        if direction not in ("higher", "lower"):
            raise ValueError(f"metric {name!r}: unknown direction "
                             f"{direction!r} (want 'higher' or 'lower')")
        tol = float(entry.get("tolerance", tolerance))
        if direction == "lower":
            limit = baseline * (1.0 + tol)
            ok = value <= limit
        else:
            limit = baseline * (1.0 - tol)
            ok = value >= limit
        skipped = None
        min_cores = int(entry.get("min_cores", 0))
        if min_cores and host_cores < min_cores:
            skipped = f"skipped: {host_cores} cores"
            ok = True
        rows.append({"metric": name, "measured": value, "baseline": baseline,
                     "limit": limit, "direction": direction, "gated": True,
                     "ok": ok, "skipped": skipped})
    missing = sorted(set(baselines) - set(measured))
    for name in missing:
        rows.append({"metric": name, "measured": None,
                     "baseline": float(baselines[name]["value"]),
                     "limit": None,
                     "direction": str(baselines[name].get("direction",
                                                          "higher")),
                     "gated": True, "ok": False, "skipped": None})
    return rows


def render_markdown(rows: List[Dict[str, object]], scale: float,
                    tolerance: float) -> str:
    """Render the comparison as a GitHub-flavored markdown table.

    One row per metric: measured value, baseline, signed % delta from the
    baseline, and the verdict (``pass`` / ``FAIL`` / ``skipped: N cores``
    for under-provisioned ``min_cores`` metrics / ``info`` for ungated
    ones).  Written to ``$GITHUB_STEP_SUMMARY`` by the CI jobs so the
    numbers are readable from the run page without downloading artifacts.
    """
    lines = [
        f"### Perf gate (scale {scale:g}, tolerance {tolerance:.0%})",
        "",
        "| metric | measured | baseline | delta | verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        name = str(row["metric"])
        measured = ("—" if row["measured"] is None
                    else f"{float(row['measured']):.3f}")
        if row["baseline"] is None:
            baseline = delta = "—"
        else:
            baseline = f"{float(row['baseline']):.3f}"
            if row["measured"] is None:
                delta = "—"
            else:
                change = (float(row["measured"]) / float(row["baseline"])
                          - 1.0) if float(row["baseline"]) else 0.0
                delta = f"{change:+.1%}"
        if not row["gated"]:
            verdict = "info"
        elif row.get("skipped"):
            verdict = f"⏭️ {row['skipped']}"
        elif row["ok"]:
            verdict = "✅ pass"
        else:
            verdict = "❌ FAIL"
        lines.append(f"| `{name}` | {measured} | {baseline} | {delta} "
                     f"| {verdict} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    """Run the gate; see the module docstring for semantics and exit codes."""
    parser = argparse.ArgumentParser(
        description="Fail when the smoke benchmarks regressed past tolerance.")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES,
                        help="committed baselines file")
    parser.add_argument("--output", type=Path, default=DEFAULT_REPORT,
                        help="where to write the fresh numbers (CI artifact)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the baselines file's benchmark scale")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baselines file's relative tolerance")
    parser.add_argument("--update", action="store_true",
                        help="write measured values back as the new baselines")
    parser.add_argument("--summary", type=Path, nargs="?", const=None,
                        default=argparse.SUPPRESS, metavar="PATH",
                        help="append a markdown comparison table to PATH "
                             "(default: $GITHUB_STEP_SUMMARY, or stdout "
                             "when that is unset)")
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        metavar="SECONDS",
                        help="slow every Higgs.insert_batch by SECONDS first "
                             "(verifies the gate trips)")
    parser.add_argument("--inject-read-tail", type=float, default=0.0,
                        metavar="SECONDS",
                        help=f"slow every {READ_TAIL_EVERY}th "
                             f"Higgs.query_batch by SECONDS first (verifies "
                             f"the p99/p50 latency gate trips)")
    parser.add_argument("--inject-admission-squeeze", action="store_true",
                        help="shrink the drop-policy admission queue 32x "
                             "first (verifies the shed-fraction gate trips)")
    args = parser.parse_args(argv)

    try:
        spec = json.loads(args.baselines.read_text(encoding="utf-8"))
        gated: Dict[str, dict] = spec["metrics"]
        scale = float(args.scale if args.scale is not None else spec["scale"])
        tolerance = float(args.tolerance if args.tolerance is not None
                          else spec["tolerance"])
        for name, entry in gated.items():
            float(entry["value"])
            if str(entry.get("direction", "higher")) not in ("higher",
                                                             "lower"):
                raise ValueError(f"metric {name!r}: unknown direction "
                                 f"{entry['direction']!r}")
    except FileNotFoundError:
        if not args.update:
            print(f"error: baselines file {args.baselines} not found "
                  f"(run with --update to create it)", file=sys.stderr)
            return 2
        gated = {}
        scale = 0.1 if args.scale is None else args.scale
        tolerance = 0.30 if args.tolerance is None else args.tolerance
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed baselines file {args.baselines}: {exc!r}",
              file=sys.stderr)
        return 2

    if args.inject_slowdown > 0:
        inject_slowdown(args.inject_slowdown)
        print(f"injected {args.inject_slowdown * 1e3:.1f} ms slowdown per "
              f"Higgs.insert_batch call")
    if args.inject_read_tail > 0:
        inject_read_tail(args.inject_read_tail)
        print(f"injected {args.inject_read_tail * 1e3:.1f} ms tail per "
              f"{READ_TAIL_EVERY}th Higgs.query_batch call")
    if args.inject_admission_squeeze:
        inject_admission_squeeze()
        print("injected 32x admission-queue squeeze on drop-policy engines")

    print(f"measuring smoke benchmarks at scale {scale} "
          f"(tolerance {tolerance:.0%}) ...")
    measured = run_measurements(scale)

    if args.update:
        host_cores = os.cpu_count() or 1
        metrics_spec: Dict[str, dict] = {}
        for name, extras in GATED_METRICS.items():
            value = round(measured[name], 4)
            min_cores = int(extras.get("min_cores", 0))
            if min_cores and host_cores < min_cores and name in gated:
                # This host cannot measure the metric meaningfully (it is
                # skipped by the gate here too); keep the committed value
                # from a sufficiently provisioned runner.
                value = float(gated[name]["value"])
                print(f"baseline for {name} kept at {value} "
                      f"(needs >= {min_cores} cores, host has {host_cores})")
            metrics_spec[name] = {"value": value, **extras}
        spec = {
            "scale": scale,
            "tolerance": tolerance,
            "metrics": metrics_spec,
        }
        args.baselines.parent.mkdir(parents=True, exist_ok=True)
        args.baselines.write_text(json.dumps(spec, indent=2) + "\n",
                                  encoding="utf-8")
        print(f"baselines updated: {args.baselines}")
        # Gate against what was just written — an accepted baseline refresh
        # must exit 0, not fail against the superseded values.
        gated = spec["metrics"]

    rows = compare(measured, gated, tolerance)
    width = max(len(str(row["metric"])) for row in rows)
    for row in rows:
        flag = "  " if row["ok"] else "✗ "
        kind = "gated" if row["gated"] else "info "
        bound = "<=" if row["direction"] == "lower" else ">="
        baseline = (f"baseline {row['baseline']:.3f} "
                    f"want {bound} {row['limit']:.3f}"
                    if row["limit"] is not None else "")
        if row.get("skipped"):
            baseline += f"  [{row['skipped']}]"
        value = ("missing" if row["measured"] is None
                 else f"{row['measured']:.3f}")
        print(f"{flag}[{kind}] {str(row['metric']).ljust(width)} "
              f"measured {value}  {baseline}")

    if hasattr(args, "summary"):
        markdown = render_markdown(rows, scale, tolerance)
        target = args.summary
        if target is None:
            step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
            target = Path(step_summary) if step_summary else None
        if target is None:
            print(markdown)
        else:
            with open(target, "a", encoding="utf-8") as handle:
                handle.write(markdown + "\n")
            print(f"markdown summary appended: {target}")

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps({
        "scale": scale, "tolerance": tolerance, "rows": rows,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"report written: {args.output}")

    failures = [row for row in rows if row["gated"] and not row["ok"]]
    if failures:
        print(f"FAILED: {len(failures)} metric(s) regressed past "
              f"{tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
