"""Tests for the accuracy metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BenchmarkError
from repro.metrics import accuracy_report, average_relative_error


class TestAccuracyMetrics:
    def test_aae_matches_paper_formula(self):
        truths = [10.0, 20.0, 0.0]
        estimates = [12.0, 20.0, 3.0]
        assert accuracy_report(truths, estimates).aae == pytest.approx(5.0 / 3)

    def test_are_skips_zero_truth_terms(self):
        truths = [10.0, 0.0, 5.0]
        estimates = [11.0, 7.0, 5.0]
        assert average_relative_error(truths, estimates) == pytest.approx(0.05)

    def test_are_all_zero_truth(self):
        assert average_relative_error([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert math.isinf(average_relative_error([0.0], [1.0]))

    def test_empty_batches(self):
        assert average_relative_error([], []) == 0.0
        report = accuracy_report([], [])
        assert report.aae == 0.0
        assert report.count == 0
        assert report.exact_fraction == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(BenchmarkError):
            average_relative_error([1.0], [1.0, 2.0])
        with pytest.raises(BenchmarkError):
            accuracy_report([1.0, 2.0], [1.0])

    def test_accuracy_report_fields(self):
        truths = [5.0, 10.0, 2.0, 8.0]
        estimates = [5.0, 12.0, 2.0, 7.0]
        report = accuracy_report(truths, estimates)
        assert report.count == 4
        assert report.aae == pytest.approx(0.75)
        assert report.max_absolute_error == pytest.approx(2.0)
        assert report.exact_fraction == pytest.approx(0.5)
        assert report.underestimates == 1

    def test_one_sided_report(self):
        report = accuracy_report([1.0, 2.0], [1.0, 2.5])
        assert report.underestimates == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_property_identical_vectors_have_zero_error(self, values):
        report = accuracy_report(values, values)
        assert report.aae == 0.0
        assert report.exact_fraction == 1.0

