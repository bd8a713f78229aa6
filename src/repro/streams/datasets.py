"""Offline analogues of the paper's evaluation datasets (Table II).

The paper evaluates on three KONECT communication networks:

========================  ===========  ============  ==========
Dataset                   Nodes        Edges         Time span
========================  ===========  ============  ==========
Lkml                      63,399       1,096,440     2006-2013
Wikipedia talk (WT)       2,987,535    24,981,163    2001-2015
Stackoverflow (SO)        2,601,977    63,497,050    2009-2016
========================  ===========  ============  ==========

Those traces are not redistributable and are far too large for a pure-Python
stream replay, so this module generates *synthetic analogues* that preserve
the qualitative properties the paper's analysis depends on — power-law degree
skew and bursty arrivals — at a laptop-friendly scale, while keeping the
relative size ordering (SO > WT > Lkml).  The substitution is documented in
"Paper substitutions" in docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import DatasetError
from .edge import GraphStream
from .generators import StreamSpec, generate_stream


@dataclass(frozen=True, slots=True)
class DatasetDescriptor:
    """Static description of a benchmark dataset.

    ``paper_nodes`` / ``paper_edges`` record the original trace sizes from
    Table II; ``nodes`` / ``edges`` are the sizes of the synthetic analogue
    generated here.
    """

    key: str
    title: str
    paper_nodes: int
    paper_edges: int
    paper_time_span: str
    nodes: int
    edges: int
    time_span: int
    skewness: float
    arrival_variance: float
    seed: int


#: The three datasets from Table II, scaled for offline pure-Python replay.
DATASETS: Dict[str, DatasetDescriptor] = {
    "lkml": DatasetDescriptor(
        key="lkml", title="Lkml (synthetic analogue)",
        paper_nodes=63_399, paper_edges=1_096_440, paper_time_span="2006-2013",
        nodes=3_000, edges=30_000, time_span=30_000,
        skewness=2.2, arrival_variance=900.0, seed=101),
    "wiki_talk": DatasetDescriptor(
        key="wiki_talk", title="Wikipedia talk (synthetic analogue)",
        paper_nodes=2_987_535, paper_edges=24_981_163, paper_time_span="2001-2015",
        nodes=8_000, edges=60_000, time_span=60_000,
        skewness=2.5, arrival_variance=1100.0, seed=102),
    "stackoverflow": DatasetDescriptor(
        key="stackoverflow", title="Stackoverflow (synthetic analogue)",
        paper_nodes=2_601_977, paper_edges=63_497_050, paper_time_span="2009-2016",
        nodes=12_000, edges=90_000, time_span=90_000,
        skewness=2.3, arrival_variance=1300.0, seed=103),
}

#: Canonical ordering used throughout the benchmark harness.
DATASET_ORDER: List[str] = ["lkml", "wiki_talk", "stackoverflow"]


def load_dataset(key: str, *, scale: float = 1.0) -> GraphStream:
    """Generate the synthetic analogue of a paper dataset.

    Parameters
    ----------
    key:
        One of ``"lkml"``, ``"wiki_talk"``, ``"stackoverflow"``.
    scale:
        Multiplier on the analogue's edge and node counts; benchmarks use
        ``scale < 1`` for quick smoke runs.

    Returns
    -------
    GraphStream
        A deterministic synthetic stream.  Repeated calls with the same
        arguments return identical streams.
    """
    if key not in DATASETS:
        raise DatasetError(
            f"unknown dataset {key!r}; expected one of {DATASET_ORDER}")
    desc = DATASETS[key]
    num_edges = max(100, int(desc.edges * scale))
    num_vertices = max(50, int(desc.nodes * scale))
    time_span = max(100, int(desc.time_span * scale))
    spec = StreamSpec(num_vertices=num_vertices, num_edges=num_edges,
                      skewness=desc.skewness, time_span=time_span,
                      arrival_variance=desc.arrival_variance,
                      seed=desc.seed, name=desc.key)
    return generate_stream(spec)


def table2_rows(*, scale: float = 1.0) -> List[Dict[str, object]]:
    """Return the rows of Table II for both the paper traces and the analogues."""
    rows = []
    for key in DATASET_ORDER:
        desc = DATASETS[key]
        stream = load_dataset(key, scale=scale)
        t_min, t_max = stream.time_span
        rows.append({
            "dataset": desc.title,
            "paper_nodes": desc.paper_nodes,
            "paper_edges": desc.paper_edges,
            "paper_time_span": desc.paper_time_span,
            "nodes": len(stream.vertices()),
            "edges": len(stream),
            "time_span": t_max - t_min + 1,
            "time_slice": "1 unit",
        })
    return rows
