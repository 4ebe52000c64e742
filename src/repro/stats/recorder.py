"""Latency/throughput recording and summary statistics.

Produces the quantities the paper reports: RPS over time (Figs 9, 11, 12),
response-time CDFs per chain (Fig 10), percentile tables (Table 5), and
mean/95/99 latencies with confidence intervals (Fig 5's error bars).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class LatencySummary:
    """Summary statistics over one set of samples."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    minimum: float
    maximum: float
    stddev: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
        }


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank-with-interpolation percentile on pre-sorted data."""
    if not sorted_samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = fraction * (len(sorted_samples) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_samples[low]
    weight = rank - low
    return sorted_samples[low] * (1 - weight) + sorted_samples[high] * weight


def summarize(samples: list[float]) -> LatencySummary:
    if not samples:
        raise ValueError("no samples to summarize")
    ordered = sorted(samples)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((value - mean) ** 2 for value in ordered) / count
    return LatencySummary(
        count=count,
        mean=mean,
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        p999=percentile(ordered, 0.999),
        minimum=ordered[0],
        maximum=ordered[-1],
        stddev=math.sqrt(variance),
    )


class LatencyRecorder:
    """Collects (completion_time, latency) samples, optionally keyed by group."""

    def __init__(self) -> None:
        self._samples: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def record(self, completion_time: float, latency: float, group: str = "") -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._samples[group].append((completion_time, latency))

    def groups(self) -> list[str]:
        return sorted(self._samples)

    def count(self, group: str = "") -> int:
        return len(self._samples[group])

    def latencies(self, group: str = "") -> list[float]:
        return [latency for _, latency in self._samples[group]]

    def samples_since(
        self, index: int, group: str = ""
    ) -> list[tuple[float, float]]:
        """(completion_time, latency) samples recorded at position >= index.

        The streaming accessor: a live consumer remembers ``count(group)``
        after each drain and pays only for what arrived since — not a full
        copy of the history like :meth:`latencies`.
        """
        return self._samples[group][index:]

    def all_latencies(self) -> list[float]:
        return [
            latency
            for samples in self._samples.values()
            for _, latency in samples
        ]

    def summary(self, group: str = "") -> LatencySummary:
        return summarize(self.latencies(group))

    def window_latencies(
        self, start: float, end: float = math.inf, group: str = ""
    ) -> list[float]:
        """Latencies of requests that *completed* within ``[start, end)``."""
        return [
            latency
            for completion_time, latency in self._samples[group]
            if start <= completion_time < end
        ]

    def throughput_series(
        self, bucket: float = 1.0, group: str = "", until: Optional[float] = None
    ) -> list[tuple[float, float]]:
        """Completed requests/second per time bucket — Figs 9/11/12."""
        samples = self._samples[group]
        if not samples:
            return []
        horizon = until if until is not None else max(t for t, _ in samples)
        buckets = int(math.ceil(horizon / bucket)) + 1
        counts = [0] * buckets
        for completion_time, _ in samples:
            index = int(completion_time / bucket)
            if index < buckets:
                counts[index] += 1
        return [(index * bucket, counts[index] / bucket) for index in range(buckets)]

    def latency_series(
        self, bucket: float = 1.0, group: str = ""
    ) -> list[tuple[float, float]]:
        """Mean latency per time bucket — Fig 10 middle column, Fig 11/12 (a)."""
        samples = self._samples[group]
        if not samples:
            return []
        sums: dict[int, float] = defaultdict(float)
        counts: dict[int, int] = defaultdict(int)
        for completion_time, latency in samples:
            index = int(completion_time / bucket)
            sums[index] += latency
            counts[index] += 1
        return [
            (index * bucket, sums[index] / counts[index]) for index in sorted(sums)
        ]


def percentile_cells_ms(
    recorder: "LatencyRecorder",
    group: str = "",
    which: tuple[str, ...] = ("p50", "p99", "p999"),
) -> tuple[float, ...]:
    """Selected percentiles in milliseconds, NaN-filled when empty.

    The one table-cell helper shared by the experiment report builders
    (previously each kept its own copy): routes through :func:`summarize`
    so every report quotes identical percentile math.
    """
    if recorder.count(group) == 0:
        return (float("nan"),) * len(which)
    summary = recorder.summary(group)
    values = summary.as_dict()
    return tuple(values[name] * 1e3 for name in which)


def window_percentile_cells_ms(
    recorder: "LatencyRecorder",
    start: float,
    end: float = math.inf,
    group: str = "",
    which: tuple[str, ...] = ("p99", "p999"),
) -> tuple[float, ...]:
    """Percentiles (ms) over a completion-time window, NaN-filled when empty.

    The recovery report's "p99 during vs after recovery" cells: same
    percentile math as :func:`percentile_cells_ms`, restricted to requests
    that completed inside ``[start, end)``.
    """
    samples = recorder.window_latencies(start, end, group)
    if not samples:
        return (float("nan"),) * len(which)
    values = summarize(samples).as_dict()
    return tuple(values[name] * 1e3 for name in which)


class SlidingWindowRate:
    """Request rate over a sliding window (autoscaler + load balancer input)."""

    def __init__(self, window: float = 10.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._events: list[float] = []

    def observe(self, now: float) -> None:
        insort(self._events, now)

    def rate(self, now: float) -> float:
        """Events per second over the *closed-left* window [now-window, now].

        An event observed at exactly ``now - window`` still counts (eviction
        uses ``bisect_left``, matching ``observe``'s inclusive semantics);
        only strictly older events are dropped. Pruning therefore removes
        nothing a later call at the same ``now`` would count, so back-to-back
        calls at the same ``now`` are idempotent.
        """
        cutoff = now - self.window
        start = bisect_left(self._events, cutoff)
        if start:
            del self._events[:start]
        return len(self._events) / self.window
