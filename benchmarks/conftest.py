"""Shared configuration for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation at
a reduced scale (see "Paper substitutions" in docs/ARCHITECTURE.md), prints
the series the figure plots, and saves the rows under ``results/``.
``pytest benchmarks/ --benchmark-only`` runs the full harness.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Scale applied to the synthetic dataset analogues for the benchmark runs.
BENCH_SCALE = 0.1

#: Directory where every benchmark saves its rows (text + JSON).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def emit(rows, columns, title, filename, results_path: Path) -> None:
    """Print a figure's series and persist it under ``results/``."""
    from repro.bench import format_table, save_rows

    table = format_table(rows, columns=columns, title=title)
    print("\n" + table)
    save_rows(rows, results_path / filename, columns=columns, title=title)
