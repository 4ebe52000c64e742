"""Hierarchical metrics registry: counters, gauges, deterministic histograms.

One namespaced API replaces the stringly-typed counter dicts that used to
live in ``dataplane/base.py``, ``mem/sanitizer.py``, ``faults/injector.py``
and ``kernel/netdev.py``: every node owns a :class:`MetricsRegistry`,
exposed as ``node.counters``, and call sites count through its
``incr``/``get``/``as_dict`` shorthand.

Metric names are ``/``-separated paths (``faults/injected/drop``,
``ops/sspright/copy``, ``autoscale/fn-1/concurrency``); the OpenMetrics
exporter flattens them to ``_``-separated sample names. Histograms use fixed
log-spaced bucket bounds so their shape never depends on the data seen —
exports stay deterministic for a given seed.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, float]

_OPENMETRICS_SAFE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = "spright") -> str:
    """``faults/injected/drop`` -> ``spright_faults_injected_drop``."""
    flat = _OPENMETRICS_SAFE.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def log_bucket_bounds(
    start: float = 1e-6, factor: float = 2.0, count: int = 26
) -> tuple[float, ...]:
    """Fixed log-spaced bounds (default: 1 us .. ~33 s in doublings)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**index for index in range(count))


class CounterMetric:
    """A monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def incr(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; amount must be >= 0")
        self.value += amount


class GaugeMetric:
    """A value that goes up and down (autoscaling signals, queue depths)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, delta: Number) -> None:
        self.value += delta


class HistogramMetric:
    """Fixed-bound histogram; bounds are set at creation, never adapted."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else log_bucket_bounds()
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with (+inf, count)."""
        out = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Metric = Union[CounterMetric, GaugeMetric, HistogramMetric]


class MetricsRegistry:
    """Get-or-create store for namespaced metrics (one per node)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric)

    def gauge(self, name: str) -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> HistogramMetric:
        if bounds is not None:
            return self._get_or_create(name, HistogramMetric, bounds)
        return self._get_or_create(name, HistogramMetric)

    def find(self, name: str) -> Optional[Metric]:
        """Non-creating lookup."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def counters(self) -> Iterable[CounterMetric]:
        """All counters, in registration (first-increment) order."""
        return (m for m in self._metrics.values() if isinstance(m, CounterMetric))

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created on first use)."""
        self.counter(name).incr(amount)

    def get(self, name: str) -> int:
        """A counter's value; 0, without creating it, when absent."""
        metric = self._metrics.get(name)
        if isinstance(metric, CounterMetric):
            return int(metric.value)
        return 0

    def as_dict(self) -> dict[str, int]:
        """Every counter's value, in first-increment order."""
        return {m.name: int(m.value) for m in self.counters()}

    # -- OpenMetrics text exposition ----------------------------------------
    def render_openmetrics(
        self, prefix: str = "spright", labels: Optional[dict] = None
    ) -> str:
        """The registry as OpenMetrics text (sorted, ``# EOF``-terminated).

        Delegates to :func:`repro.obs.export.render_openmetrics`, the one
        conformant renderer (spec label escaping, histogram ``_sum`` and
        ``_count``, ``# EOF``); ``labels`` stamps constant labels on every
        sample. Imported lazily to keep this module dependency-free.
        """
        from .export import render_openmetrics

        return render_openmetrics(self, prefix=prefix, labels=labels)

