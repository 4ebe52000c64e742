"""Keep-alive / pre-warm policies: when does a warm pod stay warm?

"The High Cost of Keeping Warm" shows the keep-alive policy dominates
serverless overhead at fleet scale: keep pods warm too briefly and every
burst pays a cold start; too long and the fleet burns idle CPU. This module
gives the reproduction a policy *lab*: four policies behind one interface,
evaluated by the lightweight fleet simulator (:mod:`repro.traffic.fleet`).
The DES autoscaler keeps its own fixed grace period (Figs 11/12).

Every policy decision is appended to ``self.decisions`` and hashed by
:meth:`KeepAlivePolicy.decision_digest`, so "same seed => byte-identical
keep-alive decisions" is a testable property, and the parallel fleet runner
can prove it made exactly the decisions the serial run made.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class WarmPlan:
    """What happens to a function's pod after a request finishes at ``t``.

    * the pod stays warm until ``warm_until`` (idle-but-ready);
    * if ``prewarm_at`` is set, the pod is re-created ahead of the predicted
      next arrival and held warm during ``[prewarm_at, prewarm_until]``.

    An arrival inside either window is a warm start; outside both it pays a
    cold start.
    """

    warm_until: float
    prewarm_at: Optional[float] = None
    prewarm_until: Optional[float] = None

    def is_warm_at(self, t: float) -> bool:
        if t <= self.warm_until:
            return True
        if self.prewarm_at is not None and self.prewarm_until is not None:
            return self.prewarm_at <= t <= self.prewarm_until
        return False

    def warm_idle_seconds(self, start: float, next_arrival: float) -> float:
        """Idle warm pod-seconds accrued between ``start`` and the next hit."""
        idle = max(0.0, min(next_arrival, self.warm_until) - start)
        if self.prewarm_at is not None and self.prewarm_until is not None:
            lo = max(self.prewarm_at, self.warm_until, start)
            hi = min(next_arrival, self.prewarm_until)
            if hi > lo:
                idle += hi - lo
        return idle


class KeepAlivePolicy:
    """Base policy: subclasses decide the warm window after each request."""

    name = "base"

    def __init__(self) -> None:
        self.decisions: list[tuple] = []

    # -- fleet interface -----------------------------------------------------
    def min_warm(self, fn: str) -> int:
        """Pods this policy refuses to scale below (pinned warm capacity)."""
        return 0

    def observe_gap(self, fn: str, gap: float) -> None:
        """Feed one observed idle gap (arrival-to-arrival) for ``fn``."""

    def plan_after(self, fn: str, t: float) -> WarmPlan:
        """Commit the warm plan for ``fn`` after activity ending at ``t``."""
        plan = self._plan(fn, t)
        self.decisions.append(
            (fn, round(t, 9), plan.warm_until, plan.prewarm_at, plan.prewarm_until)
        )
        return plan

    def _plan(self, fn: str, t: float) -> WarmPlan:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- determinism oracle --------------------------------------------------
    def decision_digest(self) -> str:
        digest = hashlib.sha256()
        for decision in self.decisions:
            digest.update(repr(decision).encode())
            digest.update(b"\n")
        return digest.hexdigest()


class FixedWindowKeepAlive(KeepAlivePolicy):
    """Industry default: keep the pod warm for a fixed window after use."""

    name = "fixed"

    def __init__(self, window: float = 600.0) -> None:
        super().__init__()
        if window < 0:
            raise ValueError("window must be non-negative")
        self.window = window

    def _plan(self, fn: str, t: float) -> WarmPlan:
        return WarmPlan(warm_until=t + self.window)


class KpaKeepAlive(KeepAlivePolicy):
    """Knative KPA baseline: scale-to-zero after the grace period.

    The autoscaler only reaps on its tick grid, so the effective warm
    window is the grace period rounded *up* to the next tick — exactly the
    behaviour the DES autoscaler exhibits with ``scale_to_zero=True``.
    """

    name = "kpa"

    def __init__(self, grace_period: float = 30.0, tick_interval: float = 2.0) -> None:
        super().__init__()
        if grace_period < 0 or tick_interval <= 0:
            raise ValueError("need grace_period >= 0 and tick_interval > 0")
        self.grace_period = grace_period
        self.tick_interval = tick_interval

    def _plan(self, fn: str, t: float) -> WarmPlan:
        horizon = t + self.grace_period
        ticks = math.ceil(horizon / self.tick_interval)
        return WarmPlan(warm_until=ticks * self.tick_interval)


class HistogramKeepAlive(KeepAlivePolicy):
    """Hybrid histogram policy ("Serverless in the Wild"-style).

    Tracks a per-function histogram of idle gaps on fixed log-spaced
    bounds. Once a function has ``min_samples`` observations, the pod is
    released after a short linger and *pre-warmed* over the predicted
    next-arrival window ``[p_low*(1-margin), p_high*(1+margin)]``; before
    that, it falls back to a fixed keep-alive window. Fixed bounds keep the
    histogram shape — and so every decision — independent of sample order
    beyond the counts themselves.
    """

    name = "histogram"

    _BOUNDS = tuple(0.5 * (2.0**index) for index in range(24))  # 0.5 s .. ~48 d

    def __init__(
        self,
        low_quantile: float = 0.05,
        high_quantile: float = 0.99,
        margin: float = 0.10,
        linger: float = 10.0,
        min_samples: int = 8,
        fallback_window: float = 600.0,
    ) -> None:
        super().__init__()
        if not 0.0 < low_quantile < high_quantile <= 1.0:
            raise ValueError("need 0 < low_quantile < high_quantile <= 1")
        if margin < 0 or linger < 0 or fallback_window < 0:
            raise ValueError("margin/linger/fallback_window must be non-negative")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.low_quantile = low_quantile
        self.high_quantile = high_quantile
        self.margin = margin
        self.linger = linger
        self.min_samples = min_samples
        self.fallback_window = fallback_window
        self._counts: dict[str, list[int]] = {}
        self._samples: dict[str, int] = {}

    def observe_gap(self, fn: str, gap: float) -> None:
        counts = self._counts.get(fn)
        if counts is None:
            counts = [0] * (len(self._BOUNDS) + 1)
            self._counts[fn] = counts
        counts[bisect_left(self._BOUNDS, gap)] += 1
        self._samples[fn] = self._samples.get(fn, 0) + 1

    def _quantile(self, fn: str, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile gap."""
        counts = self._counts[fn]
        total = self._samples[fn]
        target = q * total
        running = 0
        for index, bucket in enumerate(counts):
            running += bucket
            if running >= target:
                if index < len(self._BOUNDS):
                    return self._BOUNDS[index]
                return 2.0 * self._BOUNDS[-1]
        return 2.0 * self._BOUNDS[-1]

    def _plan(self, fn: str, t: float) -> WarmPlan:
        if self._samples.get(fn, 0) < self.min_samples:
            return WarmPlan(warm_until=t + self.fallback_window)
        low = self._quantile(fn, self.low_quantile) * (1.0 - self.margin)
        high = self._quantile(fn, self.high_quantile) * (1.0 + self.margin)
        if low <= self.linger:
            # Predicted gap shorter than the linger: just keep warm through
            # the predicted window — pre-warming would overlap the linger.
            return WarmPlan(warm_until=t + max(high, self.linger))
        return WarmPlan(
            warm_until=t + self.linger,
            prewarm_at=t + low,
            prewarm_until=t + high,
        )


class PinnedKeepAlive(KeepAlivePolicy):
    """SPRIGHT's stance: never scale below ``min_scale`` — always warm.

    Affordable on S-SPRIGHT because an idle event-driven pod burns no CPU
    (§4.2.2); ruinous on sidecar planes, which is the fleet-scale story the
    traffic table quantifies.
    """

    name = "pinned"

    def __init__(self, min_scale: int = 1) -> None:
        super().__init__()
        if min_scale < 1:
            raise ValueError("min_scale must be >= 1")
        self.min_scale = min_scale

    def min_warm(self, fn: str) -> int:
        return self.min_scale

    def _plan(self, fn: str, t: float) -> WarmPlan:
        return WarmPlan(warm_until=math.inf)


POLICIES = {
    "fixed": FixedWindowKeepAlive,
    "kpa": KpaKeepAlive,
    "histogram": HistogramKeepAlive,
    "pinned": PinnedKeepAlive,
}


def make_policy(name: str, **kwargs) -> KeepAlivePolicy:
    """Instantiate a registered policy by name (fresh state per call)."""
    cls = POLICIES.get(name)
    if cls is None:
        raise KeyError(f"unknown keep-alive policy {name!r}; choose from {sorted(POLICIES)}")
    return cls(**kwargs)
