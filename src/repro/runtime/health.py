"""Health checks and vertical pod scaling (§3.3, §3.7).

SPRIGHT dispenses with the queue proxy's health checking: the kubelet probes
function pods directly over TCP or HTTP (a minimal extra socket in the
function). :class:`HealthProber` runs that loop; pods that miss
``failure_threshold`` consecutive probes are marked unservable (and so drop
out of DFR's load balancing), recovering after ``success_threshold`` passes.

:class:`VerticalPodScaler` implements §3.7's independent per-function
vertical scaling: when a pod's slots stay saturated, its concurrency (stand-
in for added CPU cores) grows, and shrinks again when demand fades.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .kubelet import Deployment
from .pod import Pod, PodPhase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import WorkerNode


class ProbeKind(enum.Enum):
    TCP = "tcp"
    HTTP = "http"


@dataclass
class ProbePolicy:
    kind: ProbeKind = ProbeKind.TCP
    interval: float = 5.0
    timeout: float = 1.0
    failure_threshold: int = 3
    success_threshold: int = 1
    probe_cpu: float = 2e-6  # the "minimal change" the paper mentions


class HealthProber:
    """Kubelet-driven TCP/HTTP pod probing."""

    def __init__(self, node: "WorkerNode", policy: Optional[ProbePolicy] = None) -> None:
        self.node = node
        self.policy = policy or ProbePolicy()
        self._deployments: list[Deployment] = []
        self._failures: dict[int, int] = {}
        self._successes: dict[int, int] = {}
        self._down: set[int] = set()
        self.probes_sent = 0
        self.pods_marked_down = 0
        self.pods_recovered = 0
        self._started = False

    def watch(self, deployment: Deployment) -> None:
        self._deployments.append(deployment)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.node.env.process(self._loop(), name="health-prober", detached=True)

    def is_down(self, pod: Pod) -> bool:
        """Has this pod tripped the failure threshold and not recovered?

        The supervisor and hedge/LB pickers consult this instead of poking
        the prober's internals.
        """
        return pod.instance_id in self._down

    def probe(self, pod: Pod) -> bool:
        """One probe: does the pod's socket answer?

        The probe reaches the pod's extra listener; a RUNNING pod answers
        unless fault injection (`pod.fail()`) silenced it.
        """
        self.probes_sent += 1
        return pod.phase is PodPhase.RUNNING and pod.responsive

    def _loop(self):
        policy = self.policy
        while True:
            yield self.node.env.timeout(policy.interval)
            for deployment in self._deployments:
                for pod in deployment.pods:
                    if pod.phase is not PodPhase.RUNNING:
                        continue
                    self.node.cpu.execute(
                        policy.probe_cpu, "kubelet/probes", detached=True
                    )
                    answered = self.probe(pod)
                    key = pod.instance_id
                    if answered:
                        self._failures[key] = 0
                        if not pod.healthy:
                            # Responsive again: count passes toward readmission.
                            self._successes[key] = self._successes.get(key, 0) + 1
                            if self._successes[key] >= policy.success_threshold:
                                pod.healthy = True
                                self._down.discard(key)
                                self.pods_recovered += 1
                        elif key in self._down:
                            self._down.discard(key)
                            self.pods_recovered += 1
                    else:
                        self._successes[key] = 0
                        self._failures[key] = self._failures.get(key, 0) + 1
                        if (
                            self._failures[key] >= policy.failure_threshold
                            and key not in self._down
                        ):
                            self._down.add(key)
                            self.pods_marked_down += 1
                            pod.healthy = False


@dataclass
class VerticalScalePolicy:
    """When and how far to grow/shrink a pod's capacity."""

    tick_interval: float = 5.0
    saturation_fraction: float = 0.9   # in_flight / concurrency to grow
    idle_fraction: float = 0.3         # below this, shrink
    step: int = 8                      # slots added/removed per decision
    min_concurrency: int = 8
    max_concurrency: int = 256


class VerticalPodScaler:
    """Per-pod concurrency (CPU share) scaling, independent per function."""

    def __init__(
        self, node: "WorkerNode", policy: Optional[VerticalScalePolicy] = None
    ) -> None:
        self.node = node
        self.policy = policy or VerticalScalePolicy()
        self._deployments: list[Deployment] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._capacity: dict[int, int] = {}
        self._started = False

    def watch(self, deployment: Deployment) -> None:
        self._deployments.append(deployment)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.node.env.process(self._loop(), name="vertical-scaler", detached=True)

    def capacity_of(self, pod: Pod) -> int:
        return self._capacity.get(pod.instance_id, pod.spec.concurrency)

    def _loop(self):
        policy = self.policy
        while True:
            yield self.node.env.timeout(policy.tick_interval)
            for deployment in self._deployments:
                for pod in deployment.servable_pods():
                    capacity = self.capacity_of(pod)
                    load = pod.in_flight / capacity if capacity else 0.0
                    if load >= policy.saturation_fraction:
                        new_capacity = min(
                            policy.max_concurrency, capacity + policy.step
                        )
                        if new_capacity != capacity:
                            pod.resize(new_capacity)
                            self._capacity[pod.instance_id] = new_capacity
                            self.scale_ups += 1
                    elif load <= policy.idle_fraction:
                        new_capacity = max(
                            policy.min_concurrency, capacity - policy.step
                        )
                        if new_capacity != capacity and new_capacity >= pod.in_flight:
                            pod.resize(new_capacity)
                            self._capacity[pod.instance_id] = new_capacity
                            self.scale_downs += 1
