"""Load generators: closed-loop (ab/wrk/Locust style) and open-loop traces.

The paper's three drivers map onto two shapes:

* **Closed loop** — N concurrent virtual users, each issuing the next
  request only after the previous response (ab's ``-c``, Locust users with
  think time, wrk connections). ``spawn_rate`` ramps users up gradually,
  exactly like Locust's spawn rate in §4.2.1.
* **Open loop** — timestamped event traces (the motion detector events,
  parking-lot snapshot bursts) submitted regardless of completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..audit import Auditor
from ..dataplane.base import Dataplane, Request, RequestClass
from ..stats import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import WorkerNode


def make_payload(size: int, fill: bytes = b"x") -> bytes:
    """Deterministic payload bytes of a given size."""
    if size <= 0:
        return b""
    return (fill * (size // len(fill) + 1))[:size]


@dataclass
class WeightedMix:
    """Pick request classes by weight from a named RNG stream."""

    classes: Sequence[RequestClass]
    stream: str = "workload/mix"

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one request class")
        self._weights = [cls.weight for cls in self.classes]
        # Validate here, with names, instead of deferring to the opaque
        # error random.choices raises mid-run on a bad weight vector.
        for cls, weight in zip(self.classes, self._weights):
            if weight < 0:
                raise ValueError(
                    f"request class {cls.name!r} has negative weight {weight!r}"
                )
        if sum(self._weights) <= 0:
            raise ValueError("request class weights must sum to a positive total")

    def pick(self, node: "WorkerNode") -> RequestClass:
        return node.rng.choice(self.stream, list(self.classes), weights=self._weights)


class ClosedLoopGenerator:
    """N virtual users in a request->response->think loop."""

    def __init__(
        self,
        node: "WorkerNode",
        plane: Dataplane,
        mix: WeightedMix,
        recorder: LatencyRecorder,
        concurrency: int,
        duration: float,
        spawn_rate: Optional[float] = None,
        think_time: Optional[Callable[["WorkerNode"], float]] = None,
        client_overhead: float = 0.0,
        auditor: Optional[Auditor] = None,
        warmup: float = 0.0,
        start_jitter: float = 0.01,
    ) -> None:
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.node = node
        self.plane = plane
        self.mix = mix
        self.recorder = recorder
        self.concurrency = concurrency
        self.duration = duration
        self.spawn_rate = spawn_rate
        self.think_time = think_time
        self.client_overhead = client_overhead
        self.auditor = auditor
        self.warmup = warmup
        # Real clients never fire in perfect lockstep; a small random start
        # offset per connection prevents artificial phase-locking.
        self.start_jitter = start_jitter
        self.requests_sent = 0
        self.requests_failed = 0

    def start(self) -> None:
        self.node.env.process(self._spawner(), name="loadgen-spawner", detached=True)

    def _spawner(self):
        env = self.node.env
        interval = 0.0 if not self.spawn_rate else 1.0 / self.spawn_rate
        for user_index in range(self.concurrency):
            env.process(
                self._user(user_index), name=f"user-{user_index}", detached=True
            )
            if interval:
                yield env.timeout(interval)

    def _user(self, user_index: int):
        env = self.node.env
        end_time = self.duration
        if self.start_jitter > 0:
            yield env.timeout(
                self.node.rng.uniform(f"loadgen/jitter", 0.0, self.start_jitter)
            )
        while env.now < end_time:
            request_class = self.mix.pick(self.node)
            trace = self.auditor.new_trace() if self.auditor else None
            request = Request(
                request_class=request_class,
                payload=make_payload(request_class.payload_size),
                created_at=env.now,
                trace=trace,
            )
            self.requests_sent += 1
            yield env.process(self.plane.submit(request))
            if request.failed:
                self.requests_failed += 1
            elif request.completed_at is not None and env.now >= self.warmup:
                self.recorder.record(env.now, request.latency, group=request_class.name)
                self.recorder.record(env.now, request.latency, group="")
            if self.client_overhead > 0:
                # +/-30% request-to-request variation, like a real client.
                yield env.timeout(
                    self.node.rng.uniform(
                        "loadgen/client",
                        0.7 * self.client_overhead,
                        1.3 * self.client_overhead,
                    )
                )
            if self.think_time is not None:
                yield env.timeout(self.think_time(self.node))


@dataclass
class TraceEvent:
    """One open-loop arrival."""

    time: float
    request_class: RequestClass
    payload: bytes = b""


class OpenLoopGenerator:
    """Submit a timestamped trace, irrespective of in-flight requests.

    The trace is sorted by time on construction.
    """

    def __init__(
        self,
        node: "WorkerNode",
        plane: Dataplane,
        trace: Sequence[TraceEvent],
        recorder: LatencyRecorder,
    ) -> None:
        self.node = node
        self.plane = plane
        self.trace = sorted(trace, key=lambda event: event.time)
        self.recorder = recorder
        self.submitted = 0
        self.failed = 0

    def start(self) -> None:
        self.node.env.process(self._run(), name="openloop", detached=True)

    def _run(self):
        env = self.node.env
        for event in self.trace:
            delay = event.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            env.process(self._one(event), detached=True)
            self.submitted += 1
        if not self.submitted:
            yield env.timeout(0)

    def _one(self, event: TraceEvent):
        env = self.node.env
        payload = event.payload or make_payload(event.request_class.payload_size)
        request = Request(
            request_class=event.request_class,
            payload=payload,
            created_at=env.now,
            trace=None,
        )
        yield env.process(self.plane.submit(request))
        if request.failed:
            # Lost to a fault the resilience policy could not absorb; it
            # counts against goodput, not toward the latency distribution.
            self.failed += 1
            return
        self.recorder.record(env.now, request.latency, group=event.request_class.name)
        self.recorder.record(env.now, request.latency, group="")
