"""Descriptive statistics over graph streams.

These helpers back the paper's motivation figures: vertex-degree skewness
(Fig. 2) and the irregularity of stream item arrivals (Fig. 3), plus a few
summary statistics the experiment harness reports alongside each dataset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .edge import GraphStream


@dataclass(frozen=True, slots=True)
class DegreeStats:
    """Summary of a stream's out-degree distribution."""

    max_degree: int
    mean_degree: float
    median_degree: float
    gini: float
    top1_percent_share: float


def out_degree_distribution(stream: GraphStream) -> Counter:
    """Return a counter mapping each source vertex to its (multi-)out-degree."""
    degrees: Counter = Counter()
    for edge in stream:
        degrees[edge.source] += 1
    return degrees


def in_degree_distribution(stream: GraphStream) -> Counter:
    """Return a counter mapping each destination vertex to its in-degree."""
    degrees: Counter = Counter()
    for edge in stream:
        degrees[edge.destination] += 1
    return degrees


def degree_ccdf(stream: GraphStream, *, direction: str = "out"
                ) -> List[Tuple[int, float]]:
    """Return the complementary CDF of vertex degrees as ``(degree, P(D >= degree))``.

    This is the curve the paper plots in Fig. 2 (log-log) to show skewness.
    """
    dist = (out_degree_distribution(stream) if direction == "out"
            else in_degree_distribution(stream))
    degrees = np.array(sorted(dist.values()))
    if degrees.size == 0:
        return []
    unique = np.unique(degrees)
    n = degrees.size
    ccdf = [(int(d), float((degrees >= d).sum()) / n) for d in unique]
    return ccdf


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative value vector (0 = uniform, 1 = one holder)."""
    if values.size == 0:
        return 0.0
    sorted_vals = np.sort(values.astype(np.float64))
    n = sorted_vals.size
    cum = np.cumsum(sorted_vals)
    if cum[-1] == 0:
        return 0.0
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def degree_stats(stream: GraphStream, *, direction: str = "out") -> DegreeStats:
    """Compute headline skewness statistics for a stream's degree distribution."""
    dist = (out_degree_distribution(stream) if direction == "out"
            else in_degree_distribution(stream))
    values = np.array(list(dist.values()), dtype=np.int64)
    if values.size == 0:
        return DegreeStats(0, 0.0, 0.0, 0.0, 0.0)
    sorted_desc = np.sort(values)[::-1]
    top_k = max(1, int(math.ceil(values.size * 0.01)))
    top_share = float(sorted_desc[:top_k].sum()) / float(values.sum())
    return DegreeStats(
        max_degree=int(values.max()),
        mean_degree=float(values.mean()),
        median_degree=float(np.median(values)),
        gini=_gini(values),
        top1_percent_share=top_share,
    )


def arrival_histogram(stream: GraphStream, *, num_bins: int = 50
                      ) -> List[Tuple[int, int]]:
    """Bucket item arrivals into ``num_bins`` equal time slices.

    Returns ``(bin_start_timestamp, edge_count)`` pairs — the data behind the
    paper's Fig. 3 hot-interval plots.
    """
    if len(stream) == 0:
        return []
    t_min, t_max = stream.time_span
    span = max(1, t_max - t_min + 1)
    width = max(1, span // num_bins)
    counts: Counter = Counter()
    for edge in stream:
        bin_index = (edge.timestamp - t_min) // width
        counts[bin_index] += 1
    return [(t_min + i * width, counts.get(i, 0))
            for i in range(0, (span + width - 1) // width)]


def arrival_variance(stream: GraphStream, *, num_bins: int = 50) -> float:
    """Variance of per-slice edge counts (the irregularity knob of Fig. 15)."""
    hist = arrival_histogram(stream, num_bins=num_bins)
    if not hist:
        return 0.0
    counts = np.array([c for _, c in hist], dtype=np.float64)
    return float(counts.var())

