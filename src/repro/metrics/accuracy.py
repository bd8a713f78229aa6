"""Accuracy metrics: average absolute error (AAE) and average relative error (ARE).

The paper (Section VI-A, Equation 17) defines, over ``p`` queries with true
values ``f_i`` and estimates ``f̂_i``:

* ``AAE = (1/p) Σ |f_i − f̂_i|``
* ``ARE = (1/p) Σ |f_i − f̂_i| / f_i``

ARE terms with ``f_i = 0`` are skipped (the ratio is undefined); if every
true value is zero the ARE is reported as 0 when all estimates are also exact
and as ``inf`` otherwise, which keeps the metric one-sided-error friendly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..errors import BenchmarkError


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Aggregate accuracy of a batch of queries."""

    aae: float
    are: float
    max_absolute_error: float
    exact_fraction: float
    count: int
    underestimates: int


def average_relative_error(truths: Sequence[float],
                           estimates: Sequence[float]) -> float:
    """ARE over paired true values and estimates (zero-truth terms skipped)."""
    _check_lengths(truths, estimates)
    terms: List[float] = []
    zero_truth_error = False
    for truth, estimate in zip(truths, estimates, strict=True):
        if truth != 0:
            terms.append(abs(truth - estimate) / abs(truth))
        elif estimate != 0:
            zero_truth_error = True
    if terms:
        return sum(terms) / len(terms)
    return math.inf if zero_truth_error else 0.0


def accuracy_report(truths: Sequence[float], estimates: Sequence[float],
                    *, tolerance: float = 1e-9) -> AccuracyReport:
    """Compute the full accuracy summary of one query batch."""
    _check_lengths(truths, estimates)
    count = len(truths)
    if count == 0:
        return AccuracyReport(0.0, 0.0, 0.0, 1.0, 0, 0)
    absolute_errors = [abs(t - e)
                       for t, e in zip(truths, estimates, strict=True)]
    exact = sum(1 for error in absolute_errors if error <= tolerance)
    under = sum(1 for t, e in zip(truths, estimates, strict=True)
                if e < t - tolerance)
    return AccuracyReport(
        aae=sum(absolute_errors) / count,
        are=average_relative_error(truths, estimates),
        max_absolute_error=max(absolute_errors),
        exact_fraction=exact / count,
        count=count,
        underestimates=under,
    )


def _check_lengths(truths: Sequence[float], estimates: Sequence[float]) -> None:
    if len(truths) != len(estimates):
        raise BenchmarkError(
            f"truths ({len(truths)}) and estimates ({len(estimates)}) differ in length")
