"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest|query|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the layer
ladder and prints the per-layer metrics.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry provenance and, for traced runs, what each layer metric should move.
The exit code is 0 only when every correctness check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "query", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy

    import inputs
    import workloads
    return {
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "stream": {"num_vertices": inputs.NUM_VERTICES,
                   "num_edges": inputs.NUM_EDGES,
                   "skewness": inputs.SKEWNESS,
                   "time_span": inputs.TIME_SPAN,
                   "arrival_variance": inputs.ARRIVAL_VARIANCE,
                   "seed": inputs.STREAM_SEED},
        "query_mix_seed": inputs.MIX_SEED,
        "engine": {"shards": workloads.SHARDS,
                   "executor": workloads.EXECUTOR,
                   "partition_by": workloads.PARTITION_BY,
                   "higgs": "scaled_higgs_config(len(stream))"},
    }


def stop_helpers() -> None:
    """Stop every process the run started and wait until each has ended.

    The engines join their shard workers on close; what outlives them is
    multiprocessing's resource tracker, spawned by the first shared-memory
    segment.  Left alone it exits only after this process does, so it is
    stopped and reaped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return measure(args)
    finally:
        stop_helpers()


def measure(args) -> int:
    import inputs
    import workloads

    origin = provenance(args)
    print("# provenance " + json.dumps(origin, sort_keys=True), flush=True)
    data = inputs.make_inputs(args.seed)
    if args.trace:
        import ladder
        outcome = ladder.run_traced(args.workload, data, args.seconds)
        for name, (value, unit) in outcome.metrics.items():
            print(f"# {name} = {value:.6g} {unit}  "
                  f"(moves {ladder.LAYER_METRICS[name][1]})")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"provenance": origin, **outcome.trace}))
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        outcome = workloads.WORKLOADS[args.workload](data, args.seconds)
    for problem in outcome.problems:
        print(f"# check failed: {problem}", flush=True)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A failed request is infinitely slow; JSON has no infinity.
        "metrics": {name: {"value": value if math.isfinite(value)
                           else sys.float_info.max, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }, allow_nan=False), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
