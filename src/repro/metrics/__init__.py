"""Evaluation metrics: accuracy (AAE / ARE) of a query batch."""

from .accuracy import AccuracyReport, accuracy_report, average_relative_error

__all__ = ["AccuracyReport", "accuracy_report", "average_relative_error"]
