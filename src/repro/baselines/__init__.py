"""Baseline summaries the paper evaluates HIGGS against.

Temporal-range-query (TRQ) baselines implement the same
:class:`~repro.summary.TemporalGraphSummary` interface as HIGGS:
:class:`PGSS`, :class:`Horae`, :class:`HoraeCompact`, :class:`AuxoTime`,
:class:`AuxoTimeCompact`, plus the loss-less :class:`ExactTemporalGraph`
ground truth.  :class:`Auxo`, the non-temporal summary AuxoTime builds on,
is exported as well.
"""

from .exact import ExactTemporalGraph
from .auxo import Auxo
from .pgss import PGSS
from .horae import Horae, HoraeCompact
from .auxotime import AuxoTime, AuxoTimeCompact
from .dyadic import (compact_levels, dyadic_intervals, interval_bounds,
                     levels_for_span)

__all__ = [
    "ExactTemporalGraph", "Auxo",
    "PGSS", "Horae", "HoraeCompact", "AuxoTime", "AuxoTimeCompact",
    "compact_levels", "dyadic_intervals", "interval_bounds", "levels_for_span",
]
