"""Every summary must reject malformed queries identically.

``TemporalGraphSummary.check_range`` and ``check_direction`` are the single
validation points: an inverted range, a negative timestamp or an unknown
vertex-query direction raises :class:`repro.errors.QueryError` from HIGGS
and every baseline alike — no method may silently return 0 or answer an
unknown direction as a known one.
"""

from __future__ import annotations

import pytest

from repro.baselines import AuxoTime, Horae, PGSS
from repro.baselines.exact import ExactTemporalGraph
from repro.core import Higgs, HiggsConfig
from repro.errors import QueryError
from repro.queries.types import VertexQuery
from repro.summary import TemporalGraphSummary


def _all_summaries():
    return [
        Higgs(HiggsConfig(leaf_matrix_size=8, fingerprint_bits=14)),
        Horae(expected_items=100, time_span=64),
        AuxoTime(time_span=64, matrix_size=8, fingerprint_bits=10),
        PGSS(expected_items=100, time_span=64),
        ExactTemporalGraph(),
    ]


@pytest.fixture(params=_all_summaries(), ids=lambda s: s.name)
def summary(request) -> TemporalGraphSummary:
    instance = request.param
    instance.insert("a", "b", 1.0, 5)
    return instance


class TestRangeValidation:
    def test_inverted_range_raises_edge_query(self, summary):
        with pytest.raises(QueryError):
            summary.edge_query("a", "b", 10, 4)

    def test_inverted_range_raises_vertex_query(self, summary):
        with pytest.raises(QueryError):
            summary.vertex_query("a", 10, 4)

    def test_negative_start_raises(self, summary):
        with pytest.raises(QueryError):
            summary.edge_query("a", "b", -1, 4)
        with pytest.raises(QueryError):
            summary.vertex_query("a", -3, -1)

    def test_composites_inherit_validation(self, summary):
        with pytest.raises(QueryError):
            summary.path_query(["a", "b"], 9, 2)
        with pytest.raises(QueryError):
            summary.subgraph_query([("a", "b")], -5, 5)

    def test_bad_direction_raises(self, summary):
        assert summary.vertex_query("b", 0, 10, direction="in") >= 1.0
        with pytest.raises(QueryError):
            summary.vertex_query("b", 0, 10, direction="sideways")
        with pytest.raises(QueryError):
            summary.query_batch([VertexQuery("b", 0, 10, "sideways")])

    def test_valid_ranges_still_answer(self, summary):
        assert summary.edge_query("a", "b", 0, 10) >= 0.0

    def test_check_range_boundary_values(self):
        TemporalGraphSummary.check_range(0, 0)
        TemporalGraphSummary.check_range(3, 3)
        with pytest.raises(QueryError):
            TemporalGraphSummary.check_range(4, 3)
        with pytest.raises(QueryError):
            TemporalGraphSummary.check_range(-1, 3)
