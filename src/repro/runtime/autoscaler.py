"""KPA-style autoscaler with scale-to-zero, grace period, and pre-warm.

Implements the Knative behaviours Figs 11/12 evaluate:

* concurrency-based sizing (ceil of in-flight over the per-pod target);
* scale-to-zero after a no-traffic grace period (default 30 s, as the
  paper configures);
* pre-warming: scheduled scale-ups ahead of known bursts (the parking
  workload's 20 s lead), trading resource savings for responsiveness.

SPRIGHT runs the same autoscaler but keeps ``min_scale >= 1`` — affordable
because its warm pods cost no CPU when idle (§4.2.2).

Every tick the autoscaler integrates idle warm pod-seconds per function
and publishes them as ``autoscale/<fn>/idle_pod_seconds`` gauges (cold
starts are counted by :meth:`Deployment.note_cold_start` as
``autoscale/<fn>/cold_starts``). The keep-alive policy lab
(:mod:`repro.traffic`) evaluates other policies in its analytic fleet
simulator, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .kubelet import Deployment, desired_scale_for_concurrency
from .metrics_server import MetricsServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import WorkerNode


@dataclass
class AutoscalerPolicy:
    """Per-deployment scaling policy."""

    target_concurrency: int = 32
    scale_to_zero: bool = False
    grace_period: float = 30.0
    tick_interval: float = 2.0
    panic_threshold: float = 2.0  # x target triggers immediate doubling


class Autoscaler:
    """Periodically resizes registered deployments from scraped metrics."""

    def __init__(self, node: "WorkerNode", metrics: MetricsServer) -> None:
        self.node = node
        self.metrics = metrics
        self._entries: list[tuple[Deployment, AutoscalerPolicy]] = []
        self._last_traffic: dict[str, float] = {}
        # Idle-capacity ledger: accumulated warm-but-idle pod-seconds per
        # function, integrated on the tick grid and published as gauges.
        self._idle_pod_seconds: dict[str, float] = {}
        self._last_tick: float = 0.0
        self.decisions = 0
        self._started = False

    def register(self, deployment: Deployment, policy: AutoscalerPolicy) -> None:
        self._entries.append((deployment, policy))
        deployment.ensure_scale(deployment.spec.min_scale)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._last_tick = self.node.env.now
        self.node.env.process(self._loop(), name="autoscaler", detached=True)

    def prewarm(self, deployment: Deployment, at_time: float, scale: int = 1) -> None:
        """Schedule a scale-up at ``at_time`` (pre-warm before a burst)."""
        self.node.env.process(
            self._prewarm(deployment, at_time, scale),
            name=f"prewarm-{deployment.cpu_tag}",
            detached=True,
        )

    def _prewarm(self, deployment: Deployment, at_time: float, scale: int):
        delay = max(0.0, at_time - self.node.env.now)
        if delay:
            yield self.node.env.timeout(delay)
        deployment.ensure_scale(scale)
        # A prewarm also resets the idle clock so the grace period does not
        # immediately reap the fresh pod.
        self._last_traffic[deployment.cpu_tag] = self.node.env.now

    def _loop(self):
        while True:
            yield self.node.env.timeout(self._min_tick())
            now = self.node.env.now
            self._accrue_idle(now)
            for deployment, policy in self._entries:
                self._decide(deployment, policy, now)

    def _min_tick(self) -> float:
        if not self._entries:
            return 2.0
        return min(policy.tick_interval for _, policy in self._entries)

    # -- idle-capacity accounting ------------------------------------------
    def _accrue_idle(self, now: float) -> None:
        """Integrate warm-but-idle pod-seconds since the previous tick."""
        dt = now - self._last_tick
        self._last_tick = now
        if dt <= 0:
            return
        registry = self.node.obs.registry
        for deployment, _ in self._entries:
            name = deployment.spec.name
            idle_pods = sum(
                1 for pod in deployment.servable_pods() if pod.in_flight == 0
            )
            if idle_pods:
                total = self._idle_pod_seconds.get(name, 0.0) + idle_pods * dt
                self._idle_pod_seconds[name] = total
                registry.gauge(f"autoscale/{name}/idle_pod_seconds").set(total)

    # -- sizing -------------------------------------------------------------
    def _decide(self, deployment: Deployment, policy: AutoscalerPolicy, now: float) -> None:
        self.decisions += 1
        name = deployment.spec.name
        in_flight = deployment.total_in_flight()
        reported = self.metrics.concurrency(name, now)
        load = max(in_flight, reported)
        if load > 0:
            self._last_traffic[deployment.cpu_tag] = now

        minimum = deployment.spec.min_scale
        if policy.scale_to_zero:
            minimum = 0
        desired = desired_scale_for_concurrency(
            load, policy.target_concurrency, minimum, deployment.spec.max_scale
        )
        # Panic mode: badly over target -> scale up immediately and steeply.
        if deployment.scale and load > policy.panic_threshold * (
            policy.target_concurrency * deployment.scale
        ):
            desired = max(desired, min(deployment.scale * 2, deployment.spec.max_scale))

        if desired == 0:
            idle_since = self._last_traffic.get(deployment.cpu_tag)
            if idle_since is None:
                idle_since = 0.0
            if now - idle_since < policy.grace_period:
                # Still inside the grace period: hold at least one pod.
                desired = max(1, deployment.scale) if deployment.scale else 0
            if deployment.scale == 0:
                desired = 0

        if desired != deployment.scale:
            deployment.scale_to(desired)
