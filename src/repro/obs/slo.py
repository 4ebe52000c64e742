"""Streaming SLO monitors: multi-window burn-rate alerts + p99 targets.

The monitors follow the SRE-workbook shape: an :class:`SloTarget` states an
objective (fraction of requests that must be *good*) and an optional
latency threshold that defines goodness; a :class:`BurnRateMonitor` keeps a
rolling record of (time, good, total) counts and evaluates **paired
windows** — an alert fires only when both the short and the long window
burn error budget faster than the pair's factor, which keeps alerts both
fast (short window reacts quickly) and robust (long window filters blips).

Burn rate is ``error_rate / error_budget``: a burn rate of 1.0 spends
exactly the SLO's allowance; 14.4 spends a 30-day budget in 2 hours.

Everything here is passive and allocation-light: monitors only read counts
they are handed (typically by :class:`repro.obs.live.LiveSink` ticks or an
experiment loop) and never touch the simulation. Time is **simulated
seconds** — windows are sim-time windows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

#: The classic SRE paired windows, scaled for simulation horizons: (short
#: window s, long window s, burn-rate factor). Defaults are much shorter
#: than the workbook's 5m/1h+30m/6h because simulated runs last seconds to
#: hours, not months; pass explicit windows for long-horizon experiments.
DEFAULT_WINDOWS: tuple[tuple[float, float, float], ...] = (
    (5.0, 60.0, 14.4),
    (30.0, 360.0, 6.0),
)


def histogram_quantile(hist, quantile: float) -> float:
    """Estimate a quantile from a fixed-bound histogram metric.

    Standard Prometheus-style linear interpolation inside the bucket that
    crosses the target rank; the +Inf bucket reports the highest finite
    bound (there is nothing better to say about it). Returns ``nan`` for an
    empty histogram.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if hist.count == 0:
        return float("nan")
    rank = quantile * hist.count
    running = 0
    previous_bound = 0.0
    for bound, bucket in zip(hist.bounds, hist.counts):
        if bucket:
            if running + bucket >= rank:
                inside = max(0.0, rank - running)
                return previous_bound + (bound - previous_bound) * (
                    inside / bucket
                )
            running += bucket
        previous_bound = bound
    return hist.bounds[-1] if hist.bounds else float("nan")


@dataclass(frozen=True)
class SloTarget:
    """One objective: ``objective`` of requests good, good = under threshold."""

    name: str
    objective: float = 0.99           # fraction of requests that must be good
    latency_threshold_s: float = 0.25  # a request is good iff latency <= this
    windows: tuple[tuple[float, float, float], ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        for short, long, factor in self.windows:
            if not 0 < short < long or factor <= 0:
                raise ValueError(f"bad window triple {(short, long, factor)!r}")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass
class BurnRateAlert:
    """One paired-window alert evaluation."""

    target: str
    short_window_s: float
    long_window_s: float
    factor: float
    short_burn: float
    long_burn: float
    firing: bool


class BurnRateMonitor:
    """Rolling (time, good, total) record evaluated against paired windows."""

    def __init__(self, target: SloTarget) -> None:
        self.target = target
        # Cumulative samples: (now, good_total, total). Monotonic in all
        # three components; pruned to the longest configured window.
        self._samples: deque[tuple[float, int, int]] = deque()
        self._horizon = max(long for _, long, _ in target.windows)
        self.total = 0
        self.good = 0

    # -- feeding -------------------------------------------------------------
    def record(self, now: float, good: int, bad: int) -> None:
        """Add ``good``/``bad`` request completions observed at ``now``."""
        if good < 0 or bad < 0:
            raise ValueError("good/bad deltas must be non-negative")
        if good == 0 and bad == 0:
            return
        self.good += good
        self.total += good + bad
        self._samples.append((now, self.good, self.total))
        cutoff = now - self._horizon
        while len(self._samples) > 1 and self._samples[0][0] < cutoff:
            self._samples.popleft()

    # -- evaluation ----------------------------------------------------------
    def _window_counts(self, now: float, window_s: float) -> tuple[int, int]:
        """(good, total) accumulated inside (now - window_s, now]."""
        if not self._samples:
            return (0, 0)
        cutoff = now - window_s
        times = [sample[0] for sample in self._samples]
        index = bisect_left(times, cutoff)
        if index == 0:
            base_good, base_total = 0, 0
            first = self._samples[0]
            if first[0] <= cutoff:
                base_good, base_total = first[1], first[2]
        else:
            _, base_good, base_total = self._samples[index - 1]
        return (self.good - base_good, self.total - base_total)

    def burn_rate(self, now: float, window_s: float) -> float:
        """``error_rate / error_budget`` over the trailing window (0 if idle)."""
        good, total = self._window_counts(now, window_s)
        if total == 0:
            return 0.0
        error_rate = (total - good) / total
        return error_rate / self.target.error_budget

    def alerts(self, now: float) -> list[BurnRateAlert]:
        out = []
        for short, long, factor in self.target.windows:
            short_burn = self.burn_rate(now, short)
            long_burn = self.burn_rate(now, long)
            out.append(
                BurnRateAlert(
                    target=self.target.name,
                    short_window_s=short,
                    long_window_s=long,
                    factor=factor,
                    short_burn=short_burn,
                    long_burn=long_burn,
                    firing=short_burn >= factor and long_burn >= factor,
                )
            )
        return out

    def firing(self, now: float) -> bool:
        return any(alert.firing for alert in self.alerts(now))

    def attainment(self) -> float:
        if self.total == 0:
            return float("nan")
        return self.good / self.total


@dataclass
class SloStatus:
    """One target's dashboard row."""

    name: str
    objective: float
    threshold_s: float
    total: int
    attainment: float
    p99_s: Optional[float]
    firing: bool
    alerts: list[BurnRateAlert] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "threshold_s": self.threshold_s,
            "total": self.total,
            "attainment": None if self.attainment != self.attainment
            else self.attainment,
            "p99_s": self.p99_s,
            "firing": self.firing,
            "alerts": [
                {
                    "short_window_s": alert.short_window_s,
                    "long_window_s": alert.long_window_s,
                    "factor": alert.factor,
                    "short_burn": alert.short_burn,
                    "long_burn": alert.long_burn,
                    "firing": alert.firing,
                }
                for alert in self.alerts
            ],
        }


class SloBoard:
    """A set of monitors fed from latency recorders, ticked by the sink.

    ``watch_recorder`` points a target at a :class:`repro.stats
    .LatencyRecorder`; each :meth:`tick` consumes only the samples that
    arrived since the previous tick (an index into the recorder's sample
    list — O(new samples), zero when idle). Monitors are also open for
    direct :meth:`record` feeding from experiment loops.
    """

    def __init__(self) -> None:
        self.monitors: dict[str, BurnRateMonitor] = {}
        self._recorders: list[tuple[str, object, str, int]] = []

    def add_target(self, target: SloTarget) -> BurnRateMonitor:
        monitor = self.monitors.get(target.name)
        if monitor is None:
            monitor = BurnRateMonitor(target)
            self.monitors[target.name] = monitor
        return monitor

    def watch_recorder(
        self, target: SloTarget, recorder, name: str = ""
    ) -> BurnRateMonitor:
        monitor = self.add_target(target)
        self._recorders.append([target.name, recorder, name, 0])
        return monitor

    def record(self, name: str, now: float, good: int, bad: int) -> None:
        self.monitors[name].record(now, good, bad)

    def tick(self, now: float) -> None:
        """Drain newly arrived recorder samples into the monitors."""
        for entry in self._recorders:
            target_name, recorder, name, seen = entry
            fresh = recorder.samples_since(seen, name)
            monitor = self.monitors[target_name]
            threshold = monitor.target.latency_threshold_s
            good = bad = 0
            for _completed_at, latency in fresh:
                if latency <= threshold:
                    good += 1
                else:
                    bad += 1
            if good or bad:
                monitor.record(now, good, bad)
            entry[3] = seen + len(fresh)

    # -- views ---------------------------------------------------------------
    def status(
        self, now: float, histograms: Optional[dict] = None
    ) -> list[SloStatus]:
        """Per-target rows (sorted by name) for reports and the dashboard.

        ``histograms`` optionally maps target name -> a
        :class:`repro.obs.metrics.HistogramMetric` whose p99 should be
        displayed next to the target's threshold.
        """
        rows = []
        for name in sorted(self.monitors):
            monitor = self.monitors[name]
            hist = (histograms or {}).get(name)
            p99 = histogram_quantile(hist, 0.99) if hist is not None else None
            if p99 is not None and p99 != p99:
                p99 = None
            rows.append(
                SloStatus(
                    name=name,
                    objective=monitor.target.objective,
                    threshold_s=monitor.target.latency_threshold_s,
                    total=monitor.total,
                    attainment=monitor.attainment(),
                    p99_s=p99,
                    firing=monitor.firing(now),
                    alerts=monitor.alerts(now),
                )
            )
        return rows

    def firing(self, now: float) -> list[str]:
        return [
            name
            for name in sorted(self.monitors)
            if self.monitors[name].firing(now)
        ]

