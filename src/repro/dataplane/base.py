"""Shared dataplane machinery: proxies, request classes, the plane interface.

A *request class* carries the call sequence through the chain (Table 3's
"call sequence", e.g. Ch-1's ``1,2,1,3,1,...``); a dataplane executes that
sequence with its own transport (broker hops, direct gRPC, descriptor
redirects) and its own overheads — the differences the paper measures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..audit import RequestTrace
from ..kernel import KernelOps
from ..runtime import Deployment, FunctionSpec, Kubelet, Pod
from ..simcore import CpuSet, DeliveryError, Interrupt, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import ResilienceController, ResiliencePolicy
    from ..runtime import WorkerNode


@dataclass
class RequestClass:
    """One request type: its invocation sequence and payload sizes."""

    name: str
    sequence: list[str]          # function names, in invocation order
    payload_size: int = 256
    response_size: int = 1024
    weight: float = 1.0
    topic: str = ""
    # Workload-class priority for graceful degradation: under overload the
    # admission controller sheds lower priorities first (0 = shed first).
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError(f"request class {self.name!r} has an empty sequence")


class OverloadError(DeliveryError):
    """A component's queue limit was exceeded; the request is shed (503).

    A :class:`DeliveryError` of kind ``"overload"`` — retryable, since the
    backlog that triggered the shed drains over time.
    """

    def __init__(self, message: str = "") -> None:
        super().__init__("overload", message)


class ShedError(DeliveryError):
    """The admission controller refused the request at the front door.

    A :class:`DeliveryError` of kind ``"shed"`` — deliberately *not*
    retryable: unlike a transient overload deeper in the chain, an admission
    shed is the node saying it will not take this work now, and retrying
    immediately is exactly the amplification that collapses goodput. PR 2's
    retry loop therefore stops on it while breakers still count it.
    """

    def __init__(self, message: str = "") -> None:
        super().__init__("shed", message, retryable=False)


@dataclass
class Request:
    """A single in-flight request."""

    request_class: RequestClass
    payload: bytes
    created_at: float
    trace: Optional[RequestTrace] = None
    response: Optional[bytes] = None
    completed_at: Optional[float] = None
    failed: bool = False
    error: Optional[DeliveryError] = None  # why it failed, when it failed
    # Causal span tracing (repro.obs): the root span and the tracer that
    # owns it, attached by Dataplane.submit when tracing is enabled.
    span: Optional[object] = None
    tracer: Optional[object] = None
    # Synchronized cloning (repro.faults): pod instance ids already chosen
    # by this request's clone group. The resilience controller creates the
    # set and shares it with every clone, so pod pickers place the clones
    # on pairwise-distinct pods. None (the default) disables the exclusion
    # entirely — picks are byte-identical to pre-cloning builds.
    claimed_pods: Optional[set] = None

    def mark(self, milestone: str, now: float) -> None:
        """Stamp a milestone: closes the tracer's open phase (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.on_mark(self, milestone, now)

    def span_begin(self, name: str, category: str = "op", **attrs):
        """Open an explicit child span (None and free when untraced)."""
        if self.tracer is not None:
            return self.tracer.begin(self, name, category, **attrs)
        return None

    def span_end(self, span, **attrs) -> None:
        """Close a span from :meth:`span_begin` (no-op on None)."""
        if span is not None and self.tracer is not None:
            self.tracer.finish(self, span, **attrs)

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ValueError("request not completed")
        return self.completed_at - self.created_at


class ProxyComponent:
    """A proxy (ingress gateway, broker, SPRIGHT gateway) with CPU placement.

    ``pinned_cores``: run on a private core set (the paper pins both the
    SPRIGHT gateway and the NGINX front-end to two cores); ``None`` floats
    the work on the node's shared cores (Istio in the boutique experiments).
    ``overhead_cpu`` is per-traversal background CPU (metrics, buffering,
    proxy bookkeeping) — charged, but off the critical path.
    """

    def __init__(
        self,
        node: "WorkerNode",
        tag: str,
        pinned_cores: Optional[int] = None,
        concurrency: int = 4096,
        overhead_cpu: float = 0.0,
        path_cpu: float = 0.0,
        queue_limit: Optional[int] = None,
    ) -> None:
        self.node = node
        self.tag = tag
        self.overhead_cpu = overhead_cpu
        self.path_cpu = path_cpu
        self.queue_limit = queue_limit
        self.shed = 0
        if pinned_cores is not None:
            self.cpu = CpuSet(
                node.env,
                cores=pinned_cores,
                freq_hz=node.config.costs.cpu_freq_hz,
                bucket_width=node.config.cpu_bucket_width,
                accounting=node.cpu.accounting,
            )
        else:
            self.cpu = node.cpu
        self.ops = KernelOps(
            node.env,
            self.cpu,
            node.config.costs,
            tag,
            node.faults,
            obs=getattr(node, "obs", None),
        )
        self._limiter = Resource(node.env, capacity=concurrency)
        self.traversals = 0

    def traverse(self, admission: bool = False):
        """One pass through the proxy: path CPU + background CPU (generator).

        With a ``queue_limit``, *admission* traversals beyond the backlog
        bound are shed (an :class:`OverloadError` the dataplane turns into a
        failed request) — a proxy returning 503 at the front door rather
        than queueing forever. Mid-chain traversals of already-admitted
        requests are never shed.
        """
        if admission and self.queue_limit is not None:
            backlog = self._limiter.count + self._limiter.queue_length
            if backlog >= self.queue_limit:
                self.shed += 1
                raise OverloadError(
                    f"{self.tag} queue limit {self.queue_limit} hit"
                )
        self.traversals += 1
        slot = self._limiter.request()
        try:
            yield slot
        except Interrupt:
            # Cancelled (timed out / raced out) while queued: withdraw the
            # claim so proxy concurrency capacity is not leaked.
            self._limiter.release(slot)
            raise
        try:
            if self.path_cpu > 0:
                yield self.cpu.execute(self.path_cpu, self.tag, op="proxy_path")
        finally:
            self._limiter.release(slot)
        if self.overhead_cpu > 0:
            # Not awaited: off the critical path.
            self.cpu.execute(self.overhead_cpu, self.tag, op="proxy_overhead")


class Dataplane(abc.ABC):
    """A deployable request-execution engine over a set of functions."""

    #: short identifier used as the CPU-tag prefix ("kn", "grpc", ...)
    plane: str = "base"

    def __init__(
        self,
        node: "WorkerNode",
        functions: list[FunctionSpec],
        kubelet: Optional[Kubelet] = None,
        cold_start: bool = False,
    ) -> None:
        self.node = node
        self.functions = {spec.name: spec for spec in functions}
        if len(self.functions) != len(functions):
            raise ValueError("duplicate function names")
        self.kubelet = kubelet or Kubelet(
            node, cold_start_enabled=cold_start, termination_lag=0.0
        )
        self.deployments: dict[str, Deployment] = {}
        self.requests_completed = 0
        self.resilience: Optional["ResilienceController"] = None
        self.admission = None  # Optional[repro.recovery.AdmissionController]
        self._deployed = False

    # -- lifecycle -------------------------------------------------------------
    def deploy(self) -> None:
        """Create deployments (and plane-specific transport); idempotent."""
        if self._deployed:
            return
        for name, spec in self.functions.items():
            deployment = self.kubelet.deployment(spec, self.fn_tag(name))
            deployment.ensure_scale(spec.min_scale)
            self.deployments[name] = deployment
            self.node.faults.register_deployment(name, deployment)
        self._setup_transport()
        self._deployed = True

    def use_resilience(self, policy: "ResiliencePolicy") -> None:
        """Attach a gateway-side resilience policy (timeouts/retries/hedging).

        A disabled policy attaches nothing, keeping the fault-free fast
        path — and its RNG draw sequence — byte-identical to a plane that
        never heard of resilience.
        """
        from ..faults import ResilienceController

        if policy.enabled():
            self.resilience = ResilienceController(self, policy)

    def use_admission(self, policy) -> None:
        """Attach gateway admission control (queue bounds + shedding).

        Mirrors :meth:`use_resilience`: an inert policy attaches nothing,
        so runs without admission control stay byte-identical.
        """
        from ..recovery import AdmissionController

        if policy.enabled():
            self.admission = AdmissionController(
                self.node.env,
                policy,
                counter=self.node.counters,
                scope=self.plane,
            )

    def _setup_transport(self) -> None:
        """Plane-specific wiring (sockets, rings, hooks); default none."""

    def fn_tag(self, name: str) -> str:
        return f"{self.plane}/fn/{name}"

    # -- pod selection with cold-start handling -----------------------------------
    def acquire_pod(self, function: str, claimed: Optional[set] = None):
        """Generator: yields until a servable pod exists, returns the pod.

        A request that lands on a zero-scaled function triggers activation
        (scale from zero) and waits out the cold start — the Fig 11 path.
        ``claimed`` is a clone group's claimed-pod set: the picker avoids
        pods already in it and records the chosen pod, so synchronized
        clones land on distinct pods. None (the default) changes nothing.
        """
        deployment = self.deployments[function]
        pod = self.select_pod(deployment, claimed)
        if pod is None:
            deployment.waiting += 1
            try:
                while pod is None:
                    if not deployment.live_pods():
                        deployment.scale_to(1)
                        deployment.note_cold_start()
                        self.node.counters.incr(f"{self.plane}/cold_starts")
                    yield deployment.any_servable_event()
                    pod = self.select_pod(deployment, claimed)
            finally:
                deployment.waiting -= 1
        if claimed is not None:
            claimed.add(pod.instance_id)
        return pod

    def select_pod(
        self, deployment: Deployment, exclude: Optional[set] = None
    ) -> Optional[Pod]:
        """Default policy: round robin (Knative); SPRIGHT overrides."""
        return deployment.pick_round_robin(exclude)

    # -- request execution ---------------------------------------------------------
    @abc.abstractmethod
    def handle_request(self, request: Request):
        """Generator executing the request; sets ``request.response``."""

    def deliver_once(self, request: Request):
        """Generator: one delivery attempt, surfacing failures as exceptions.

        The resilience layer's unit of work: raises a typed
        :class:`DeliveryError` (timeout/crash/drop/overload/...) instead of
        returning a half-marked request, so the caller can decide whether
        retrying can help.
        """
        yield from self.handle_request(request)
        if request.failed:
            raise request.error or DeliveryError(
                "crash", "request failed without a recorded error"
            )

    def submit(self, request: Request):
        """Generator wrapper: run the request and stamp completion.

        Delivery failures (queue-limit sheds, injected drops, crashed pods)
        mark the request failed with a typed ``request.error`` rather than
        crashing the run; with a resilience policy attached
        (:meth:`use_resilience`), the controller retries/hedges before
        giving up. With admission control attached (:meth:`use_admission`),
        overloaded arrivals are shed at the front door with a typed
        :class:`ShedError` before any work is done on their behalf.
        """
        if self.admission is not None:
            shed = self.admission.try_admit(request)
            if shed is not None:
                request.failed = True
                request.error = shed
                request.completed_at = self.node.env.now
                self.node.counters.incr(f"{self.plane}/shed")
                return request
        try:
            obs = getattr(self.node, "obs", None)
            tracer = obs.tracer if obs is not None else None
            if tracer is not None and request.span is None:
                tracer.start_request(
                    request,
                    f"{self.plane}:{request.request_class.name}",
                    plane=self.plane,
                    request_class=request.request_class.name,
                    bytes=len(request.payload),
                )
            if self.resilience is not None:
                yield from self.resilience.execute(request)
            else:
                try:
                    yield from self.handle_request(request)
                except DeliveryError as error:
                    request.failed = True
                    request.error = error
                    if error.kind == "overload":
                        self.node.counters.incr(f"{self.plane}/overload_drops")
                    else:
                        self.node.counters.incr(f"faults/failed/{error.kind}")
            request.completed_at = self.node.env.now
            if tracer is not None and request.span is not None:
                tracer.finish_request(request, **self._root_span_attrs(request))
            if request.failed:
                return request
            self.requests_completed += 1
            if request.trace is not None:
                request.trace.completed = True
            return request
        finally:
            if self.admission is not None:
                self.admission.on_done(request)

    def _root_span_attrs(self, request: Request) -> dict:
        """Closing attributes for the root span: outcome + audit totals."""
        attrs: dict = {"failed": request.failed}
        if request.error is not None:
            attrs["error"] = request.error.kind
        if request.trace is not None:
            from ..audit import OverheadKind

            attrs["copies"] = request.trace.total(OverheadKind.COPY)
            attrs["ctx_switches"] = request.trace.total(OverheadKind.CONTEXT_SWITCH)
            attrs["interrupts"] = request.trace.total(OverheadKind.INTERRUPT)
        return attrs
