"""Dyadic temporal range decomposition (the Horae / PGSS layer scheme).

The top-down baselines cover the time domain with layers of geometrically
growing granularity: layer ``k`` partitions time into intervals of length
``2^k`` starting at multiples of ``2^k`` (identified by the prefix
``t >> k``).  A temporal range query is decomposed into O(log L) such
canonical intervals; the "-cpt" (compact) variants drop some layers to save
space, at the cost of decomposing into more (O(log² L)) intervals.

The decomposition is a pure function of ``(t_start, t_end, allowed levels,
max_level)``, so it is memoized process-wide: repeated-range workloads (the
paper's Figs. 10-13 re-issue the same ranges hundreds of times) compute each
plan once.  HIGGS's plans depend on its tree, which every insert changes,
so :func:`~repro.core.boundary.boundary_search` is not memoized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Set, Tuple


from ..errors import QueryError


@lru_cache(maxsize=16384)
def _cached_intervals(t_start: int, t_end: int,
                      allowed_key: Optional[Tuple[int, ...]],
                      max_level: Optional[int]) -> Tuple[Tuple[int, int], ...]:
    """Memoized core of :func:`dyadic_intervals` (arguments pre-validated)."""
    allowed: Optional[Set[int]] = None
    if allowed_key is not None:
        allowed = set(allowed_key)
        allowed.add(0)

    intervals: List[Tuple[int, int]] = []
    position = t_start
    end_exclusive = t_end + 1
    while position < end_exclusive:
        level = 0
        while True:
            size = 1 << (level + 1)
            if position % size != 0 or position + size > end_exclusive:
                break
            if max_level is not None and level + 1 > max_level:
                break
            level += 1
        if allowed is not None:
            while level > 0 and level not in allowed:
                level -= 1
        intervals.append((level, position >> level))
        position += 1 << level
    return tuple(intervals)


def dyadic_intervals(t_start: int, t_end: int, *,
                     allowed_levels: Optional[Iterable[int]] = None,
                     max_level: Optional[int] = None) -> List[Tuple[int, int]]:
    """Decompose the inclusive range ``[t_start, t_end]`` into dyadic intervals.

    Returns a list of ``(level, prefix)`` pairs where each pair denotes the
    interval ``[prefix * 2^level, (prefix + 1) * 2^level)``.  The intervals
    are disjoint and exactly cover the query range.  Decompositions are
    memoized process-wide (see module docstring).

    Parameters
    ----------
    allowed_levels:
        If given, only these levels may be used (level 0 is always usable,
        otherwise arbitrary boundaries could not be matched).  This models the
        compact variants that keep a subset of layers.
    max_level:
        Upper bound on the interval size (``2^max_level``).
    """
    if t_end < t_start:
        raise QueryError(f"inverted temporal range [{t_start}, {t_end}]")
    if t_start < 0:
        raise QueryError("dyadic decomposition requires non-negative timestamps")

    allowed_key = (tuple(sorted(set(allowed_levels)))
                   if allowed_levels is not None else None)
    return list(_cached_intervals(t_start, t_end, allowed_key, max_level))


def interval_bounds(level: int, prefix: int) -> Tuple[int, int]:
    """Inclusive ``(start, end)`` timestamps of the dyadic interval ``(level, prefix)``."""
    start = prefix << level
    return start, start + (1 << level) - 1


def levels_for_span(time_span: int) -> int:
    """Smallest level count whose top layer interval covers ``time_span`` units."""
    span = max(1, int(time_span))
    return max(1, (span - 1).bit_length())


def compact_levels(max_level: int, stride: int = 2) -> List[int]:
    """Levels kept by a compact ('-cpt') variant: every ``stride``-th level."""
    if stride < 1:
        raise QueryError("stride must be >= 1")
    return [level for level in range(0, max_level + 1) if level % stride == 0]
