"""Tests for the dyadic temporal range decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dyadic import (compact_levels, dyadic_intervals,
                                    interval_bounds, levels_for_span)
from repro.errors import QueryError


def _covered(intervals):
    points = set()
    for level, prefix in intervals:
        start, end = interval_bounds(level, prefix)
        points.update(range(start, end + 1))
    return points


class TestDyadicIntervals:
    def test_single_point(self):
        assert dyadic_intervals(5, 5) == [(0, 5)]

    def test_aligned_power_of_two_range(self):
        assert dyadic_intervals(8, 15) == [(3, 1)]

    def test_generic_range_is_exactly_covered(self):
        intervals = dyadic_intervals(3, 21)
        assert _covered(intervals) == set(range(3, 22))

    def test_intervals_are_disjoint(self):
        intervals = dyadic_intervals(7, 200)
        total = sum((1 << level) for level, _prefix in intervals)
        assert total == 200 - 7 + 1

    def test_interval_count_is_logarithmic(self):
        intervals = dyadic_intervals(1, 10**6)
        assert len(intervals) <= 2 * (10**6).bit_length()

    def test_allowed_levels_restriction(self):
        full = dyadic_intervals(0, 255)
        restricted = dyadic_intervals(0, 255, allowed_levels=[0, 2, 4, 6])
        assert _covered(full) == _covered(restricted)
        assert all(level in (0, 2, 4, 6) for level, _ in restricted)
        assert len(restricted) >= len(full)

    def test_max_level_cap(self):
        intervals = dyadic_intervals(0, 1023, max_level=4)
        assert all(level <= 4 for level, _ in intervals)
        assert _covered(intervals) == set(range(0, 1024))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(QueryError):
            dyadic_intervals(10, 5)
        with pytest.raises(QueryError):
            dyadic_intervals(-1, 5)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=150, deadline=None)
    def test_property_exact_cover(self, a, b):
        t_start, t_end = min(a, b), max(a, b)
        intervals = dyadic_intervals(t_start, t_end)
        assert sum(1 << level for level, _ in intervals) == t_end - t_start + 1
        starts = [prefix << level for level, prefix in intervals]
        assert starts == sorted(starts)
        assert starts[0] == t_start

    @given(st.integers(0, 2000), st.integers(0, 2000), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_property_compact_levels_cover(self, a, b, stride):
        t_start, t_end = min(a, b), max(a, b)
        allowed = compact_levels(16, stride=stride)
        intervals = dyadic_intervals(t_start, t_end, allowed_levels=allowed)
        assert sum(1 << level for level, _ in intervals) == t_end - t_start + 1


class TestHelpers:
    def test_interval_bounds(self):
        assert interval_bounds(0, 7) == (7, 7)
        assert interval_bounds(3, 2) == (16, 23)

    def test_levels_for_span(self):
        assert levels_for_span(1) == 1
        assert levels_for_span(2) == 1
        assert levels_for_span(1024) == 10
        assert levels_for_span(1025) == 11

    def test_compact_levels(self):
        assert compact_levels(6, stride=2) == [0, 2, 4, 6]
        assert compact_levels(5, stride=3) == [0, 3]
        with pytest.raises(QueryError):
            compact_levels(5, stride=0)


class TestDyadicCache:
    def test_memoized_decomposition_is_stable(self):
        first = dyadic_intervals(13, 799, max_level=12)
        second = dyadic_intervals(13, 799, max_level=12)
        assert first == second
        covered = []
        for level, prefix in first:
            start = prefix << level
            covered.extend(range(start, start + (1 << level)))
        assert covered == list(range(13, 800))

    def test_allowed_levels_iterables_normalize(self):
        as_list = dyadic_intervals(0, 255, allowed_levels=[0, 2, 4],
                                   max_level=8)
        as_tuple = dyadic_intervals(0, 255, allowed_levels=(4, 2, 0),
                                    max_level=8)
        assert as_list == as_tuple
