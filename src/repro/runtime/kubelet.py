"""Kubelet and per-function deployments (pod sets).

The kubelet is the node-local pod manager: it creates pods (sampling their
cold-start delay), tears them down (with the observed Knative termination
lag when configured), and exposes the pod sets ('deployments') that the
autoscaler resizes and dataplanes route across.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..simcore import Event
from .pod import Pod, PodPhase
from .spec import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import WorkerNode


class Deployment:
    """All pods of one function on one node."""

    def __init__(self, kubelet: "Kubelet", spec: FunctionSpec, cpu_tag: str) -> None:
        self.kubelet = kubelet
        self.spec = spec
        self.cpu_tag = cpu_tag
        self.pods: list[Pod] = []
        self._round_robin = 0
        self._ready_waiters: list[Event] = []
        self.scale_up_events = 0
        self.scale_down_events = 0
        # Requests that arrived with no live pod and had to wait for a
        # scale-from-zero (the Fig 11 path). Mirrored as the
        # ``autoscale/<fn>/cold_starts`` counter so the traffic subsystem's
        # economics accounting reconciles exactly with the control plane.
        self.cold_starts = 0
        # Dataplanes subscribe to wire transports onto new pods (sockets,
        # rings, sockmap entries) and to tear them down on termination.
        self.pod_ready_callbacks: list = []
        self.pod_terminated_callbacks: list = []
        # Requests blocked waiting for a servable pod (cold start queue);
        # the autoscaler must see these or it will reap starting pods.
        self.waiting = 0

    # -- views -------------------------------------------------------------
    @property
    def node(self) -> "WorkerNode":
        return self.kubelet.node

    def servable_pods(self) -> list[Pod]:
        return [pod for pod in self.pods if pod.is_servable]

    def live_pods(self) -> list[Pod]:
        return [
            pod
            for pod in self.pods
            if pod.phase in (PodPhase.PENDING, PodPhase.STARTING, PodPhase.RUNNING)
        ]

    @property
    def scale(self) -> int:
        return len(self.live_pods())

    def total_in_flight(self) -> int:
        return sum(pod.in_flight for pod in self.pods) + self.waiting

    # -- pod selection ---------------------------------------------------------
    def _routable_pods(self) -> list[Pod]:
        """Servable pods, preferring ones that still answer health probes.

        A hung pod (``responsive=False``) stays nominally healthy until a
        prober's failure threshold trips, so it used to remain a routing —
        and hedge — target; hedging against the very pod that is stalling
        the primary defeats the hedge. When any responsive pod exists, only
        responsive pods are candidates; with none, fall back to all servable
        pods rather than refusing outright. Fault-free, every pod is
        responsive and the filter is an exact no-op (byte-identity).
        """
        servable = self.servable_pods()
        responsive = [pod for pod in servable if pod.responsive]
        return responsive if responsive else servable

    @staticmethod
    def _unclaimed(pods: list[Pod], exclude) -> list[Pod]:
        """Drop pods a clone group already claimed (see Request.claimed_pods).

        Falls back to the full candidate list when every pod is claimed —
        an over-wide clone factor degrades to sharing pods, never deadlock.
        With ``exclude`` None or empty this is an exact no-op.
        """
        if not exclude:
            return pods
        unclaimed = [pod for pod in pods if pod.instance_id not in exclude]
        return unclaimed if unclaimed else pods

    def pick_round_robin(self, exclude=None) -> Optional[Pod]:
        servable = self._unclaimed(self._routable_pods(), exclude)
        if not servable:
            return None
        self._round_robin = (self._round_robin + 1) % len(servable)
        return servable[self._round_robin]

    def any_servable_event(self) -> Event:
        """Event that fires when at least one pod is servable (cold start)."""
        event = Event(self.node.env)
        if self.servable_pods():
            event.succeed()
        else:
            self._ready_waiters.append(event)
        return event

    def wait_for_pod(self, pick, counters, counter: str):
        """Generator: scale from zero and wait out the cold start until
        ``pick()`` returns a pod, which it returns (the Fig 11 path).

        Callers enter it only after their first pick came back empty. Each
        activation counts once under ``counter`` in ``counters``.
        """
        self.waiting += 1
        try:
            pod = None
            while pod is None:
                if not self.live_pods():
                    self.scale_to(1)
                    self.note_cold_start()
                    counters.incr(counter)
                yield self.any_servable_event()
                pod = pick()
        finally:
            self.waiting -= 1
        return pod

    def _notify_ready(self, pod_event: Event) -> None:
        pod = pod_event.value
        for callback in self.pod_ready_callbacks:
            callback(pod)
        waiters, self._ready_waiters = self._ready_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def _notify_terminated(self, pod_event: Event) -> None:
        pod = pod_event.value
        for callback in self.pod_terminated_callbacks:
            callback(pod)

    def note_cold_start(self) -> None:
        """Count one scale-from-zero activation against this function."""
        self.cold_starts += 1
        self.node.obs.registry.counter(
            f"autoscale/{self.spec.name}/cold_starts"
        ).incr()

    # -- scaling ---------------------------------------------------------------------
    def scale_to(self, desired: int) -> None:
        desired = max(0, min(desired, self.spec.max_scale))
        live = self.live_pods()
        if desired > len(live):
            for _ in range(desired - len(live)):
                self._add_pod()
            self.scale_up_events += 1
        elif desired < len(live):
            # Kill the least-busy pods first, the oldest first on ties (a
            # stable sort over creation order), so a pod mid-request is
            # killed only when every idle one is gone.
            victims = sorted(live, key=lambda pod: pod.in_flight)[: len(live) - desired]
            for pod in victims:
                pod.terminate()
            self.scale_down_events += 1

    def ensure_scale(self, minimum: int) -> None:
        if self.scale < minimum:
            self.scale_to(minimum)

    def _add_pod(self, startup_delay: Optional[float] = None) -> Pod:
        pod = self.kubelet.create_pod(
            self.spec, self.cpu_tag, startup_delay=startup_delay
        )
        self.pods.append(pod)
        pod.ready.callbacks.append(self._notify_ready)
        pod.terminated.callbacks.append(self._notify_terminated)
        return pod

    def restart_pod(self, startup_delay: Optional[float] = None) -> Pod:
        """Supervisor path: replace a dead pod with a fresh instance.

        The replacement gets a new instance id and re-runs the full ready
        wiring (sockets/rings, sockmap entry, DFR route) through the same
        callbacks as any other pod; ``startup_delay`` lets the caller charge
        an explicit restart cost instead of the kubelet's cold-start sample.
        Restarts are not scale events — the deployment's desired size is
        unchanged.
        """
        return self._add_pod(startup_delay=startup_delay)


class Kubelet:
    """Node-local pod lifecycle manager."""

    def __init__(
        self,
        node: "WorkerNode",
        cold_start_enabled: bool = True,
        termination_lag: Optional[float] = None,
    ) -> None:
        self.node = node
        self.cold_start_enabled = cold_start_enabled
        self.termination_lag = (
            termination_lag
            if termination_lag is not None
            else node.config.termination_lag
        )
        self.deployments: dict[str, Deployment] = {}
        self.pods_created = 0

    def deployment(self, spec: FunctionSpec, cpu_tag: str) -> Deployment:
        """Get or create the deployment for a function."""
        existing = self.deployments.get(cpu_tag)
        if existing is not None:
            return existing
        deployment = Deployment(self, spec, cpu_tag)
        self.deployments[cpu_tag] = deployment
        return deployment

    def create_pod(
        self,
        spec: FunctionSpec,
        cpu_tag: str,
        startup_delay: Optional[float] = None,
    ) -> Pod:
        """Create and start one pod; startup delay sampled when enabled.

        An explicit ``startup_delay`` (the supervisor's modeled restart
        cost) bypasses the sampling entirely, so restart timing comes from
        the caller's own RNG stream and fault-free draw sequences are
        untouched.
        """
        if startup_delay is None:
            startup_delay = 0.0
            if self.cold_start_enabled:
                startup_delay = self.node.rng.lognormal_service(
                    f"startup/{spec.name}",
                    self.node.config.pod_startup_mean,
                    self.node.config.pod_startup_cv,
                )
        pod = Pod(
            self.node,
            spec,
            cpu_tag=cpu_tag,
            startup_delay=startup_delay,
            termination_lag=self.termination_lag,
        )
        pod.start()
        self.pods_created += 1
        return pod


def desired_scale_for_concurrency(
    total_in_flight: int, target_per_pod: int, minimum: int, maximum: int
) -> int:
    """The KPA sizing rule: ceil(concurrency / target), clamped."""
    if target_per_pod <= 0:
        raise ValueError("target_per_pod must be positive")
    desired = math.ceil(total_in_flight / target_per_pod) if total_in_flight else 0
    return max(minimum, min(desired, maximum))
