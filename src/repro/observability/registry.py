"""Metric families and the registry that names, renders, and snapshots them.

Three metric kinds cover everything the engines report:

* :class:`Counter` — a monotonically increasing total (requests served,
  epochs committed, drops).
* :class:`Gauge` — a value that goes both ways (queue depth, current epoch
  limit, per-shard item counts); optionally backed by a callback evaluated
  at collection time.
* :class:`WindowedHistogram` — a bounded window of recent observations with
  nearest-rank percentile reporting (latencies, epoch sizes).  Rendered as
  a Prometheus ``summary`` (quantile series plus lifetime ``_count`` and
  ``_sum``).

Families are created through a :class:`MetricsRegistry` and may declare
label names; every ``(label values)`` combination becomes an independent
child series.  All operations are thread-safe, and both render paths are
**stable**: the same metric state renders to byte-identical text regardless
of registration or observation order, so diffs of scraped output are
meaningful.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import (Callable, Deque, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..errors import ConfigurationError

#: The percentile triple reported by every histogram/latency report.
REPORTED_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def nearest_rank(sorted_samples: Iterable[float], percentile: float) -> float:
    """Nearest-rank percentile of pre-sorted samples.

    Uses the classic ceil(p/100 * N) rank definition, so the result is
    always an observed sample (never an interpolation) and p100 is the
    maximum.  Raises ``ValueError`` on an empty sample set or a percentile
    outside ``(0, 100]``.
    """
    samples = list(sorted_samples)
    if not samples:
        # Stdlib-style math helper: ValueError mirrors statistics.quantiles
        # and keeps this function importable without repro.errors.
        # repro-lint: ok ERR001 — see above
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")  # repro-lint: ok ERR001 — same contract as above
    rank = max(1, -(-len(samples) * percentile // 100))  # ceil without math
    return samples[int(rank) - 1]


def _escape_help(text: str) -> str:
    """Escape a HELP line per the Prometheus text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labelnames: Sequence[str], values: Sequence[str],
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    """Render one ``{a="x",b="y"}`` label block (empty string when bare)."""
    pairs = [(name, value) for name, value in zip(labelnames, values,
                                                  strict=True)]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


def _format_number(value: float) -> str:
    """Render a sample value: integers bare, floats via ``repr``."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _MetricFamily:
    """Common machinery of one named metric family with optional labels.

    Children are keyed by their tuple of label values; a family declared
    with no label names has exactly one (anonymous) child.  Subclasses
    define what a child's state is and how it renders.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                 labelnames: Sequence[str] = ()) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ConfigurationError(
                f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ConfigurationError(
                    f"invalid label name {label!r} on metric {name!r}")
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise ConfigurationError(
                f"duplicate label names on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        """Map a ``**labels`` dict onto the family's label-value tuple."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    @staticmethod
    def _series_key(key: Tuple[str, ...], labelnames: Tuple[str, ...]) -> str:
        """Flat ``a=x,b=y`` identifier for JSON snapshots (``""`` when bare)."""
        return ",".join(f"{name}={value}"
                        for name, value in zip(labelnames, key, strict=True))

    def render(self) -> List[str]:
        """Render the family's exposition lines (HELP, TYPE, samples)."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(self._sample_lines())
        return lines

    def _sample_lines(self) -> List[str]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: ``{"kind": ..., "values": {series: value}}``."""
        raise NotImplementedError


class Counter(_MetricFamily):
    """A monotonically increasing total (per label-value combination)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the child named by ``labels``."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current total of the child named by ``labels`` (0 when unseen)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _sample_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}"
                f"{_render_labels(self.labelnames, key)} "
                f"{_format_number(value)}"
                for key, value in items]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: ``{"kind": "counter", "values": {...}}``."""
        with self._lock:
            items = sorted(self._values.items())
        return {"kind": self.kind,
                "values": {self._series_key(key, self.labelnames): value
                           for key, value in items}}


class Gauge(_MetricFamily):
    """A value that can go up and down, or be computed by a callback.

    A child is either *stored* (driven by :meth:`set` / :meth:`inc` /
    :meth:`dec`) or *computed* (:meth:`set_function` installs a callback
    evaluated at collection time); installing a callback replaces the
    stored value and vice versa.  Callbacks run **outside** the family
    lock, so they may take their own locks but must not block indefinitely.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}  # guarded-by: _lock
        self._functions: Dict[Tuple[str, ...],
                              Callable[[], float]] = {}  # guarded-by: _lock

    def set(self, value: float, **labels: str) -> None:
        """Store ``value`` for the child named by ``labels``."""
        key = self._key(labels)
        with self._lock:
            self._functions.pop(key, None)
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (either sign) to the child named by ``labels``."""
        key = self._key(labels)
        with self._lock:
            self._functions.pop(key, None)
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_max(self, value: float, **labels: str) -> None:
        """Raise the child to ``value`` if it is currently lower.

        A watermark update: used for peak queue depth, where the interesting
        number is the highest level ever observed, not the latest.
        """
        key = self._key(labels)
        with self._lock:
            self._functions.pop(key, None)
            current = self._values.get(key)
            if current is None or value > current:
                self._values[key] = float(value)

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        """Back the child named by ``labels`` with a collection-time callback."""
        key = self._key(labels)
        with self._lock:
            self._values.pop(key, None)
            self._functions[key] = fn

    def value(self, **labels: str) -> float:
        """Current value of the child named by ``labels`` (0 when unseen)."""
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        return float(fn())

    def _collect(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Stored and computed children, sorted; callbacks run unlocked."""
        with self._lock:
            stored = list(self._values.items())
            computed = list(self._functions.items())
        samples = stored + [(key, float(fn())) for key, fn in computed]
        return sorted(samples)

    def _sample_lines(self) -> List[str]:
        return [f"{self.name}"
                f"{_render_labels(self.labelnames, key)} "
                f"{_format_number(value)}"
                for key, value in self._collect()]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: ``{"kind": "gauge", "values": {...}}``."""
        return {"kind": self.kind,
                "values": {self._series_key(key, self.labelnames): value
                           for key, value in self._collect()}}


class _HistogramChild:
    """Window, lifetime count, and lifetime sum of one histogram series."""

    __slots__ = ("window", "count", "total")

    def __init__(self, maxlen: int) -> None:
        self.window: Deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0


class WindowedHistogram(_MetricFamily):
    """Bounded sliding-window observations with percentile reporting.

    Keeps the most recent ``window`` observations per child (older samples
    fall off, so a long-running engine reports current — not lifetime —
    behavior) plus lifetime count and sum.  Rendered as a Prometheus
    ``summary``: one ``{quantile="..."}`` series per reported percentile
    over the *window*, and lifetime ``_count`` / ``_sum`` series.
    """

    kind = "summary"

    def __init__(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                 labelnames: Sequence[str] = (), window: int = 65536) -> None:
        super().__init__(name, help, labelnames)
        if window < 1:
            raise ConfigurationError("histogram window must be >= 1")
        self.window = window
        self._children: Dict[Tuple[str, ...],
                             _HistogramChild] = {}  # guarded-by: _lock

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation for the child named by ``labels``."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(self.window)
            child.window.append(float(value))
            child.count += 1
            child.total += value

    def count(self, **labels: str) -> int:
        """Lifetime number of observations of the child named by ``labels``."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return 0 if child is None else child.count

    def report(self, **labels: str) -> Dict[str, float]:
        """p50/p95/p99 and mean over the child's current window.

        Returns an empty dict when the child has no observations, so
        callers can merge reports without special-casing cold series.
        """
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            samples = sorted(child.window) if child is not None else []
        if not samples:
            return {}
        report = {f"p{percentile:g}": nearest_rank(samples, percentile)
                  for percentile in REPORTED_PERCENTILES}
        report["mean"] = sum(samples) / len(samples)
        return report

    def _collect(self) -> List[Tuple[Tuple[str, ...], List[float], int, float]]:
        with self._lock:
            return sorted((key, sorted(child.window), child.count, child.total)
                          for key, child in self._children.items())

    def _sample_lines(self) -> List[str]:
        lines = []
        for key, samples, count, total in self._collect():
            for percentile in REPORTED_PERCENTILES:
                quantile = _format_number(percentile / 100.0) \
                    if percentile != 50.0 else "0.5"
                value = nearest_rank(samples, percentile) if samples else 0.0
                lines.append(
                    f"{self.name}"
                    f"{_render_labels(self.labelnames, key, (('quantile', quantile),))} "
                    f"{_format_number(value)}")
            lines.append(f"{self.name}_count"
                         f"{_render_labels(self.labelnames, key)} {count}")
            lines.append(f"{self.name}_sum"
                         f"{_render_labels(self.labelnames, key)} "
                         f"{_format_number(total)}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: per-series count/sum plus window percentiles."""
        values: Dict[str, object] = {}
        for key, samples, count, total in self._collect():
            entry: Dict[str, float] = {"count": float(count), "sum": total}
            if samples:
                for percentile in REPORTED_PERCENTILES:
                    entry[f"p{percentile:g}"] = nearest_rank(samples, percentile)
                entry["mean"] = sum(samples) / len(samples)
            values[self._series_key(key, self.labelnames)] = entry
        return {"kind": self.kind, "values": values}


class MetricsRegistry:
    """A named collection of metric families with two render paths.

    Families are created through :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` (re-registering a name raises
    :class:`~repro.errors.ConfigurationError` — components that share a
    registry must namespace their metrics with distinct prefixes, as the
    serving and sharding engines do).  :meth:`render_prometheus` produces
    the text exposition format; :meth:`snapshot` produces a JSON-able dict
    for structured logging.  Both orders output by metric name and label
    values, so identical state renders identically across runs.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def _register(self, family: _MetricFamily) -> _MetricFamily:
        with self._lock:
            if family.name in self._families:
                raise ConfigurationError(
                    f"metric {family.name!r} is already registered")
            self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                labelnames: Sequence[str] = ()) -> Counter:
        """Create and register a :class:`Counter` family."""
        return self._register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str = "",  # noqa: A002 - prometheus term
              labelnames: Sequence[str] = ()) -> Gauge:
        """Create and register a :class:`Gauge` family."""
        return self._register(Gauge(name, help, labelnames))

    def histogram(self, name: str, help: str = "",  # noqa: A002 - prometheus term
                  labelnames: Sequence[str] = (),
                  window: int = 65536) -> WindowedHistogram:
        """Create and register a :class:`WindowedHistogram` family."""
        return self._register(WindowedHistogram(name, help, labelnames,
                                                window=window))

    def get(self, name: str) -> Optional[_MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def names(self) -> List[str]:
        """Sorted names of every registered family."""
        with self._lock:
            return sorted(self._families)

    def _sorted_families(self) -> List[_MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Families appear sorted by name, each with its ``# HELP`` (when a
        help string was given) and ``# TYPE`` lines followed by its sample
        lines sorted by label values; histograms render as summaries.  The
        output is stable: identical metric state produces byte-identical
        text regardless of registration or observation order.
        """
        lines: List[str] = []
        for family in self._sorted_families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able dump of every family, keyed by metric name.

        The shape is ``{name: {"kind": ..., "values": {series: value}}}``
        where ``series`` is a flat ``label=value`` comma string (empty for
        unlabelled metrics) — ready for ``json.dumps`` without custom
        encoders.
        """
        return {family.name: family.snapshot()
                for family in self._sorted_families()}
