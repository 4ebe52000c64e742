"""Pods: running function instances with lifecycle and concurrency limits.

Captures the pieces of pod behaviour the paper's experiments hinge on:

* **cold start** — a started pod is not servable for a startup delay
  (seconds), during which it burns CPU on image/container init (Fig 12's
  pre-warm spikes);
* **concurrency limit** — at most N requests in parallel per pod (the
  testbed configures 32); excess requests queue;
* **sluggish termination** — Knative pods linger in 'terminating' for tens
  of seconds while still holding CPU (Fig 12's 80 s drain).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ..simcore import DeliveryError, Event, Interrupt, PsServer, Resource
from ..stats import SlidingWindowRate
from .spec import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import WorkerNode


class PodPhase(enum.Enum):
    PENDING = "pending"
    STARTING = "starting"
    RUNNING = "running"
    TERMINATING = "terminating"
    TERMINATED = "terminated"


class Pod:
    """One instance of a function, schedulable and servable."""

    def __init__(
        self,
        node: "WorkerNode",
        spec: FunctionSpec,
        cpu_tag: str,
        startup_delay: float = 0.0,
        startup_cpu_fraction: float = 0.8,
        termination_lag: float = 0.0,
        termination_cpu_fraction: float = 0.15,
    ) -> None:
        self.node = node
        self.spec = spec
        self.cpu_tag = cpu_tag
        self.charge = node.cpu.charge(cpu_tag)
        # Node-scoped so ids are reproducible regardless of what other
        # simulations ran earlier in the interpreter (satellite of ISSUE 2).
        self.instance_id = node.next_instance_id()
        self.phase = PodPhase.PENDING
        self.startup_delay = startup_delay
        self.startup_cpu_fraction = startup_cpu_fraction
        self.termination_lag = termination_lag
        self.termination_cpu_fraction = termination_cpu_fraction

        self.ready: Event = Event(node.env)
        self.terminated: Event = Event(node.env)
        self._terminate_requested = False
        self.healthy = True      # serving flag (probes / fault injection)
        self.responsive = True   # does the pod answer probes at all
        self.slowdown = 1.0      # service-time multiplier (fault injection)
        self._slots = Resource(node.env, capacity=spec.concurrency)
        # Processor-sharing pods own a virtual-time PS queue instead of
        # submitting to the calendar-queue CpuSet; busy time still lands in
        # the node ledger so CPU% tables include them. FCFS pods (the
        # default) never construct one — byte-identical to before.
        self._ps: Optional[PsServer] = None
        if spec.service_discipline == "ps":
            self._ps = PsServer(
                node.env, node.cpu.accounting, capacity=spec.ps_capacity
            )
        self.in_flight = 0
        self.served = 0
        self.rate_window = SlidingWindowRate(window=5.0)
        self.context: dict = {}  # behavior-visible per-pod state

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> Event:
        """Begin startup; returns the readiness event."""
        if self.phase is not PodPhase.PENDING:
            raise RuntimeError(f"pod {self.instance_id} already started")
        self.phase = PodPhase.STARTING
        self.node.env.process(
            self._startup(), name=f"startup-{self.cpu_tag}", detached=True
        )
        return self.ready

    def _startup(self):
        if self.startup_delay > 0:
            # Container creation burns CPU while the pod is useless.
            self.charge.book(
                self.startup_delay * self.startup_cpu_fraction, "startup", detached=True
            )
            yield self.node.env.timeout(self.startup_delay)
        self.phase = PodPhase.RUNNING
        self.ready.succeed(self)

    def terminate(self) -> Event:
        """Begin (possibly slow) termination; returns the terminated event.

        A pod killed mid-startup finishes starting first (as Kubernetes pods
        in ContainerCreating do) and is then torn down; double terminates
        are idempotent.
        """
        if self._terminate_requested:
            return self.terminated
        self._terminate_requested = True
        self.node.env.process(
            self._teardown(), name=f"teardown-{self.cpu_tag}", detached=True
        )
        return self.terminated

    def _teardown(self):
        if self.phase in (PodPhase.PENDING, PodPhase.STARTING):
            yield self.ready
        self.phase = PodPhase.TERMINATING
        if self.termination_lag > 0:
            # The 'terminating-but-not-released' waste Fig 12 calls out.
            self.charge.book(
                self.termination_lag * self.termination_cpu_fraction,
                "teardown",
                detached=True,
            )
            yield self.node.env.timeout(self.termination_lag)
        self.phase = PodPhase.TERMINATED
        self.terminated.succeed(self)

    @property
    def is_servable(self) -> bool:
        return self.phase is PodPhase.RUNNING and self.healthy

    def fail(self) -> None:
        """Fault injection: the pod crashes — refuses traffic and probes."""
        self.healthy = False
        self.responsive = False

    def recover(self) -> None:
        """The fault clears; the pod serves and answers probes again."""
        self.healthy = True
        self.responsive = True

    def resize(self, concurrency: int) -> None:
        """Vertical scaling (§3.7): change the pod's parallel-request slots."""
        self._slots.set_capacity(concurrency)

    # -- serving ------------------------------------------------------------------
    def serve(self, payload: bytes, stream_name: Optional[str] = None):
        """Process one request (generator). Returns a FunctionResult.

        Waits for a concurrency slot, charges the sampled service time to the
        pod's CPU tag, and runs the user behavior on the payload.
        """
        if self.phase is PodPhase.TERMINATED:
            # A dead instance behaves like a connection reset, not a
            # programming error: the supervisor may have torn the pod down
            # while this request's descriptor was still in flight.
            raise DeliveryError(
                "crash",
                f"pod {self.cpu_tag}#{self.instance_id} is terminated",
            )
        if self.phase not in (PodPhase.RUNNING, PodPhase.TERMINATING):
            raise RuntimeError(
                f"pod {self.cpu_tag}#{self.instance_id} is {self.phase.value}, not servable"
            )
        request = self._slots.grant_now()
        if request is None:
            request = self._slots.request()
            try:
                yield request
            except Interrupt:
                # Cancelled (timed out / raced out) while queued for a slot:
                # withdraw the claim so pod concurrency capacity is not leaked.
                self._slots.release(request)
                raise
        if not self.healthy and not self.responsive:
            # Fail fast: the pod crashed while this request sat in the
            # concurrency queue. Without this check the dead pod kept its
            # slot *and* burned the full service time below before raising,
            # so a crash left the pod consuming its CPU reservation and
            # restart accounting double-counted the lost work.
            self._slots.release(request)
            raise DeliveryError(
                "crash",
                f"pod {self.cpu_tag}#{self.instance_id} crashed before serving",
            )
        self.in_flight += 1
        self.rate_window.observe(self.node.env.now)
        try:
            result = self.spec.behavior(payload, self.context)
            service_time = (
                result.service_time
                if result.service_time is not None
                else self._sample_service_time(stream_name)
            )
            service_time += self.spec.runtime_overhead_path + result.extra_service_time
            if self.slowdown != 1.0:
                service_time *= self.slowdown
            if service_time > 0:
                if self._ps is not None:
                    job = self._ps.submit(service_time, self.cpu_tag)
                    try:
                        yield job.done
                    except Interrupt:
                        # Cancelled mid-service (raced out by a clone or
                        # timed out): leave the PS queue immediately so the
                        # freed share goes back to the surviving jobs.
                        self._ps.cancel(job)
                        raise
                else:
                    yield self.charge.book(service_time, "service")
            if not self.healthy and not self.responsive:
                # The pod crashed while this request was in flight; the
                # work is lost and the caller sees a connection reset.
                raise DeliveryError(
                    "crash", f"pod {self.cpu_tag}#{self.instance_id} crashed mid-request"
                )
            if self.spec.runtime_overhead_bg > 0:
                self.charge.book(
                    self.spec.runtime_overhead_bg, "service_bg", detached=True
                )
            self.served += 1
            return result
        finally:
            self.in_flight -= 1
            self._slots.release(request)

    def _sample_service_time(self, stream_name: Optional[str]) -> float:
        if self.spec.service_time <= 0:
            return 0.0
        stream = stream_name or f"service/{self.spec.name}"
        dist = self.spec.service_dist
        if dist == "exp":
            return self.node.rng.exponential(stream, self.spec.service_time)
        if dist == "deterministic":
            return self.spec.service_time
        return self.node.rng.lognormal_service(
            stream, self.spec.service_time, self.spec.service_time_cv
        )

    # -- load-balancing inputs (§3.2.3 footnote 4) -----------------------------------
    def max_capacity(self) -> float:
        """MC_i: max request rate the pod can serve."""
        if self.spec.service_time <= 0:
            return float("inf")
        return self.spec.concurrency / self.spec.service_time

    def residual_capacity(self, now: float) -> float:
        """RC_i,t = MC_i - r_i,t."""
        capacity = self.max_capacity()
        if capacity == float("inf"):
            # Tie-break by instantaneous load for zero-cost functions.
            return float("inf") if self.in_flight == 0 else 1e12 / (1 + self.in_flight)
        return capacity - self.rate_window.rate(now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Pod {self.cpu_tag}#{self.instance_id} {self.phase.value}>"
