"""Figure 20 — effect of the proposed optimizations.

Panel (a): insertion throughput of HIGGS with batched ingest versus plain
per-item insertion.  Panel (b): space cost without multiple mapping
buckets (MMB) and accuracy without overflow blocks (OB).
"""

from __future__ import annotations

from collections import defaultdict

from conftest import BENCH_SCALE, emit

from repro.bench import experiments


def test_fig20a_parallelization(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: experiments.run_fig20a_parallelization(scale=BENCH_SCALE),
        rounds=1, iterations=1)
    emit(rows,
         columns=["dataset", "variant", "items", "insert_seconds",
                  "throughput_eps"],
         title="Figure 20(a): HIGGS Insertion Throughput by Ingest Path",
         filename="fig20a_parallelization.txt", results_path=results_dir)
    variants = {row["variant"] for row in rows}
    assert variants == {"HIGGS-serial", "HIGGS-batched"}


def test_fig20b_mmb_and_overflow_blocks(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: experiments.run_fig20b_mmb_and_ob(scale=BENCH_SCALE,
                                                  edge_queries=120),
        rounds=1, iterations=1)
    emit(rows,
         columns=["dataset", "variant", "memory_mb", "leaf_count", "aae", "are"],
         title="Figure 20(b): Effect of MMB (space) and Overflow Blocks (accuracy)",
         filename="fig20b_mmb_ob.txt", results_path=results_dir)

    by_dataset = defaultdict(dict)
    for row in rows:
        by_dataset[row["dataset"]][row["variant"]] = row
    for dataset, variants in by_dataset.items():
        # MMB improves space efficiency: disabling it needs more leaves/space.
        assert variants["HIGGS-noMMB"]["memory_mb"] > \
            variants["HIGGS"]["memory_mb"] * 0.95, dataset
        assert variants["HIGGS-noMMB"]["leaf_count"] >= \
            variants["HIGGS"]["leaf_count"], dataset
        # Overflow blocks never hurt accuracy.
        assert variants["HIGGS"]["aae"] <= \
            variants["HIGGS-noOB"]["aae"] + 1e-9, dataset
