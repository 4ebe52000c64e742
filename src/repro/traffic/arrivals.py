"""Arrival processes: lazy, restartable, deterministic event sources.

The paper's zero-scaling experiment (Fig 11) replays one hand-built motion
trace. Reproducing that result at fleet scale needs production-shaped
traffic: an Azure-Functions-style synthetic fleet with Zipf per-function
popularity, heavy-tailed inter-arrival times and a diurnal or
Markov-modulated bursty envelope (cf. "Serverless in the Wild" and "The
High Cost of Keeping Warm").

Design rules:

* **Streaming** — a source is an :class:`ArrivalSource`: calling
  :meth:`~ArrivalSource.events` yields :class:`Arrival`\\ s lazily in
  non-decreasing time order. Million-event days are never materialized.
* **Restartable** — every ``events()`` call re-derives its own
  ``random.Random`` from ``(seed, name)`` via
  :func:`repro.simcore.derive_stream_seed`, so two iterations (or two
  worker processes in the fleet runner) produce byte-identical traces.
* **Named streams** — each source owns exactly one derived stream; adding a
  source never perturbs another source's draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol, runtime_checkable

from ..simcore import derive_stream_seed


@dataclass(frozen=True)
class Arrival:
    """One arrival: when it lands and which function it invokes."""

    time: float
    fn: str


@runtime_checkable
class ArrivalSource(Protocol):
    """A restartable stream of time-ordered arrivals."""

    name: str

    def events(self) -> Iterator[Arrival]:
        """Fresh iterator over the arrivals, in non-decreasing time order."""
        ...


class _SeededSource:
    """Base: derives a fresh private RNG per ``events()`` call."""

    def __init__(self, name: str, fn: str, seed: int, duration: float) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.name = name
        self.fn = fn
        self.seed = seed
        self.duration = duration

    def _rng(self) -> random.Random:
        return random.Random(derive_stream_seed(self.seed, self.name))

    def __iter__(self) -> Iterator[Arrival]:
        return self.events()

    def events(self) -> Iterator[Arrival]:  # pragma: no cover - abstract
        raise NotImplementedError


class MmppSource(_SeededSource):
    """2-state Markov-modulated Poisson process (bursty traffic).

    The source alternates between a *calm* state (``low_rate``) and a
    *burst* state (``high_rate``); dwell times in each state are
    exponential. This is the classic bursty-arrival model: long quiet
    stretches punctuated by intense activity — exactly the shape that
    makes keep-alive policy choice matter.
    """

    def __init__(
        self,
        low_rate: float,
        high_rate: float,
        duration: float,
        calm_dwell: float = 240.0,
        burst_dwell: float = 30.0,
        fn: str = "fn",
        seed: int = 2022,
        name: Optional[str] = None,
    ) -> None:
        if low_rate < 0 or high_rate <= 0:
            raise ValueError("rates must be non-negative (high_rate positive)")
        if calm_dwell <= 0 or burst_dwell <= 0:
            raise ValueError("dwell times must be positive")
        super().__init__(name or f"mmpp/{fn}", fn, seed, duration)
        self.low_rate = low_rate
        self.high_rate = high_rate
        self.calm_dwell = calm_dwell
        self.burst_dwell = burst_dwell

    def events(self) -> Iterator[Arrival]:
        rng = self._rng()
        now = 0.0
        bursting = False
        state_end = rng.expovariate(1.0 / self.calm_dwell)
        while now < self.duration:
            rate = self.high_rate if bursting else self.low_rate
            if rate <= 0:
                now = state_end
            else:
                gap = rng.expovariate(rate)
                if now + gap < state_end:
                    now += gap
                    if now >= self.duration:
                        return
                    yield Arrival(now, self.fn)
                    continue
                now = state_end
            bursting = not bursting
            dwell = self.burst_dwell if bursting else self.calm_dwell
            state_end = now + rng.expovariate(1.0 / dwell)


class HeavyTailSource(_SeededSource):
    """Renewal process with Pareto (heavy-tailed) inter-arrival times.

    Azure's production traces show per-function inter-arrival times far
    heavier-tailed than exponential: most gaps are short, but the tail
    stretches to hours. ``alpha`` controls the tail (smaller = heavier;
    must be > 1 so the mean exists); gaps are scaled so their mean equals
    ``mean_gap``.
    """

    def __init__(
        self,
        mean_gap: float,
        duration: float,
        alpha: float = 1.6,
        fn: str = "fn",
        seed: int = 2022,
        name: Optional[str] = None,
    ) -> None:
        if mean_gap <= 0:
            raise ValueError("mean_gap must be positive")
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (finite mean)")
        super().__init__(name or f"heavytail/{fn}", fn, seed, duration)
        self.mean_gap = mean_gap
        self.alpha = alpha
        # paretovariate(alpha) has mean alpha/(alpha-1); rescale to mean_gap.
        self._scale = mean_gap * (alpha - 1.0) / alpha

    def events(self) -> Iterator[Arrival]:
        rng = self._rng()
        now = 0.0
        while True:
            now += self._scale * rng.paretovariate(self.alpha)
            if now >= self.duration:
                return
            yield Arrival(now, self.fn)


class ModulatedSource(_SeededSource):
    """Thin an inner source by a time-varying acceptance profile.

    Used to give heavy-tailed fleet functions a diurnal envelope: each
    candidate arrival of ``inner`` survives with probability
    ``profile(t)`` in [0, 1], drawn from this source's own stream, so the
    inner source's draws stay untouched.
    """

    def __init__(
        self,
        inner: ArrivalSource,
        profile: Callable[[float], float],
        seed: int = 2022,
        name: Optional[str] = None,
    ) -> None:
        self.inner = inner
        self.profile = profile
        self.name = name or f"modulated/{inner.name}"
        self.fn = getattr(inner, "fn", "fn")
        self.seed = seed
        self.duration = getattr(inner, "duration", math.inf)

    def _rng(self) -> random.Random:
        return random.Random(derive_stream_seed(self.seed, self.name))

    def __iter__(self) -> Iterator[Arrival]:
        return self.events()

    def events(self) -> Iterator[Arrival]:
        rng = self._rng()
        for arrival in self.inner.events():
            keep = self.profile(arrival.time)
            if keep >= 1.0 or rng.random() < keep:
                yield arrival


def zipf_weights(count: int, s: float = 1.1) -> list[float]:
    """Zipf popularity weights for ranks 1..count, normalized to sum 1."""
    if count <= 0:
        raise ValueError("count must be positive")
    if s < 0:
        raise ValueError("s must be non-negative")
    raw = [1.0 / (rank**s) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass
class FleetParams:
    """Shape of the synthetic Azure-style fleet."""

    functions: int = 24
    duration: float = 86400.0           # one simulated day
    total_rate: float = 1.0             # fleet-wide mean arrivals/second
    zipf_s: float = 1.1                 # per-function popularity skew
    heavy_tail_alpha: float = 1.6       # inter-arrival tail (smaller = heavier)
    pattern: str = "diurnal"            # "diurnal" | "bursty" | "flat"
    diurnal_amplitude: float = 0.8
    diurnal_period: float = 86400.0
    burst_high_factor: float = 12.0     # bursty: burst rate vs calm rate
    burst_calm_dwell: float = 1800.0
    burst_burst_dwell: float = 120.0
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.functions <= 0:
            raise ValueError("functions must be positive")
        if self.total_rate <= 0:
            raise ValueError("total_rate must be positive")
        if self.pattern not in ("diurnal", "bursty", "flat"):
            raise ValueError(f"unknown pattern {self.pattern!r}")

    def function_names(self) -> list[str]:
        width = len(str(self.functions - 1))
        return [f"fn-{index:0{width}d}" for index in range(self.functions)]


class SyntheticFleet:
    """Azure-Functions-style synthetic fleet sampler.

    Per-function popularity is Zipf (a few hot functions, a long cold
    tail); per-function inter-arrival times are heavy-tailed Pareto
    renewals; the whole fleet is modulated by a diurnal sinusoid or an
    MMPP-style burst profile depending on ``params.pattern``. Every
    function owns derived, restartable streams, so any subset of the fleet
    can be regenerated identically in any process.
    """

    def __init__(self, params: FleetParams) -> None:
        self.params = params
        self.weights = zipf_weights(params.functions, params.zipf_s)

    def function_names(self) -> list[str]:
        return self.params.function_names()

    def mean_rate(self, fn_index: int) -> float:
        return self.params.total_rate * self.weights[fn_index]

    def source(self, fn_index: int) -> ArrivalSource:
        """The arrival source for one function of the fleet."""
        params = self.params
        fn = params.function_names()[fn_index]
        rate = self.mean_rate(fn_index)
        if params.pattern == "flat":
            return HeavyTailSource(
                mean_gap=1.0 / rate,
                duration=params.duration,
                alpha=params.heavy_tail_alpha,
                fn=fn,
                seed=params.seed,
                name=f"fleet/{fn}/arrivals",
            )
        if params.pattern == "diurnal":
            # Heavy-tailed renewals at the peak-hour gap, thinned by the
            # diurnal profile: the survivor process keeps the heavy tail
            # while its rate follows the day curve.
            amplitude = params.diurnal_amplitude
            peak = rate * (1.0 + amplitude)
            inner = HeavyTailSource(
                mean_gap=1.0 / peak,
                duration=params.duration,
                alpha=params.heavy_tail_alpha,
                fn=fn,
                seed=params.seed,
                name=f"fleet/{fn}/arrivals",
            )

            def profile(t: float, _peak=peak, _rate=rate, _amp=amplitude) -> float:
                wanted = _rate * (
                    1.0 + _amp * math.sin(2.0 * math.pi * t / params.diurnal_period)
                )
                return wanted / _peak

            return ModulatedSource(
                inner, profile, seed=params.seed, name=f"fleet/{fn}/diurnal"
            )
        # bursty: MMPP around the target mean rate. Mean of the MMPP is
        # (calm*calm_dwell + burst*burst_dwell) / (calm_dwell + burst_dwell);
        # solve for the calm rate given the burst factor.
        dwell_total = params.burst_calm_dwell + params.burst_burst_dwell
        calm = (
            rate
            * dwell_total
            / (params.burst_calm_dwell + params.burst_high_factor * params.burst_burst_dwell)
        )
        return MmppSource(
            low_rate=calm,
            high_rate=params.burst_high_factor * calm,
            duration=params.duration,
            calm_dwell=params.burst_calm_dwell,
            burst_dwell=params.burst_burst_dwell,
            fn=fn,
            seed=params.seed,
            name=f"fleet/{fn}/arrivals",
        )
