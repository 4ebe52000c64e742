"""The SPRIGHT chain runtime: gateway, chain members, and transports.

This is the paper's §3 assembled: a per-chain SPRIGHT gateway consolidating
protocol processing (§3.1), zero-copy payloads in the chain's private
hugepage pool (§3.2.1), descriptor passing by either the event-driven SPROXY
(S-SPRIGHT) or DPDK-style polled rings (D-SPRIGHT) (§3.2.2), DFR with
residual-capacity load balancing (§3.2.3), EPROXY/SPROXY metrics feeding the
metrics server (§3.3), and per-chain security domains (§3.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from ...audit import RequestTrace, Stage
from ...kernel.ebpf import ArrayMap, HookPoint, ProgramType, Scratch, SockMap, programs
from ...kernel.ops import SPROXY_RECEIVE
from ...mem import (
    BufferHandle,
    PacketDescriptor,
    PoolSanitizer,
    RteRing,
    SharedMemoryManager,
    ShmScavenger,
    default_sanitize,
)
from ...runtime import Deployment, MetricsServer, PodMetrics, RESPONSE
from ...runtime.pod import Pod
from ...simcore import DeliveryError, Event
from ..base import ProxyComponent, Request
from ..legs import chain_step_stage
from .routing import DfrRoutingTable, GATEWAY_INSTANCE_ID
from .security import SecurityDomain
from .sockets import SproxySocket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime import WorkerNode


@dataclass
class SprightParams:
    """Shared SPRIGHT configuration."""

    gateway_cores: int = 2
    security_enabled: bool = True
    use_xdp_acceleration: bool = False   # §3.5: accelerate the external path
    ingress_path_cpu: float = 10e-6
    ingress_overhead_cpu: float = 20e-6
    pool_capacity: int = 8192
    pool_buffer_size: int = 16384
    # Memory-safety checked mode: None defers to the process-wide default
    # (the CLI's --sanitize flag); True/False forces it for this chain.
    sanitize: Optional[bool] = None


@dataclass
class SprightMessage:
    """Side-band state travelling with a descriptor through the chain.

    The payload itself stays in shared memory; only the 24-byte descriptor
    crosses sockets/rings. ``remaining`` drives sequence-style workloads
    (Table 3); when it is None the worker consults the DFR routing table by
    topic instead (§3.2.3's publish/subscribe model).
    """

    handle: BufferHandle
    trace: Optional[RequestTrace]
    request: Optional[Request]
    done: Event
    remaining: Optional[list[str]] = None
    topic: str = ""
    hop_index: int = 0
    sender_instance: int = GATEWAY_INSTANCE_ID
    response: bytes = b""
    pending_stage: Optional[Stage] = None  # stage of the hop in flight
    descriptor: Optional[PacketDescriptor] = None  # wire form of the hop in flight
    # Failure/cancellation lifecycle (fault injection, resilience layer):
    cancelled: bool = False  # requester gave up; the chain frees the buffer
    freed: bool = False      # single-free guard (requester XOR chain frees)
    in_chain: bool = False   # a descriptor for it reached some member's endpoint
    failed_error: Optional[DeliveryError] = None  # set when delivery failed
    # The runtime whose pool holds ``handle``; it changes when the message
    # crosses to another node. None means the runtime handling it.
    owner: Optional["SprightChainRuntime"] = None


class SpinCharger:
    """Tops a tag's CPU up to N always-busy cores (DPDK poll mode).

    D-SPRIGHT components spin whether or not traffic flows; rather than
    simulating billions of empty poll iterations, this process back-fills
    each accounting bucket so the tag shows >= ``cores`` busy cores.
    """

    def __init__(self, node: "WorkerNode", tag: str, cores: float = 1.0) -> None:
        self.node = node
        self.tag = tag
        self.cores = cores
        self._stopped = False
        self.process = node.env.process(self._run(), name=f"spin-{tag}")

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        accounting = self.node.cpu.accounting
        width = accounting.bucket_width
        bucket = 0
        while not self._stopped:
            yield self.node.env.timeout(width)
            busy = accounting.usage_percent(self.tag, bucket) / 100.0
            spin = self.cores * width - busy * width
            # Record in <= one-bucket chunks so N spinning cores charge N
            # core-seconds *within this bucket* (record() would otherwise
            # spread a multi-core charge across later buckets).
            while spin > 1e-12:
                chunk = min(width, spin)
                accounting.record(self.tag, bucket * width, chunk, op="poll_spin")
                spin -= chunk
            bucket += 1


class Wake(Event):
    """An event-driven member's wake, at the instant a descriptor landed."""

    __slots__ = ()

    def __init__(self, env, callback) -> None:
        super().__init__(env)
        self._value = None
        self.callbacks = [callback]
        env.schedule(self)


class Member:
    """Where one chain member's descriptors land (② Fig 4): each starts
    ``make_handler()``'s handler in place, with no dispatcher in between.

    It keeps the schedule of the dispatch loop it replaced (DESIGN.md, "How
    a descriptor arrives"). A process started with the member arms it. A
    put to an idle member wakes it at the put instant: a :class:`Wake`
    when ``poll_interval`` is None (SPROXY), else a not-empty event and,
    ``poll_interval`` later, a drain (an RTE ring). Each turn takes what
    is queued while ``alive()`` holds, one per wake or the whole ring,
    arranges the next wake, and only then starts the handlers inline. A
    member whose ``alive()`` failed never wakes again.
    """

    __slots__ = ("env", "endpoint", "handler", "alive", "poll_interval", "_idle")

    def __init__(
        self, env, endpoint, make_handler, alive, name: str,
        poll_interval: Optional[float] = None,
    ) -> None:
        self.env = env
        self.endpoint = endpoint
        self.handler = make_handler
        self.alive = alive
        self.poll_interval = poll_interval
        self._idle = False
        endpoint.on_enqueue = self._landed
        env.process(self._arm(), name=name, detached=True)

    def _arm(self):
        """The loop's first step: set up, check ``alive()``, then wait."""
        # Built here, as the loop built it: a pod's KernelOps reads whether
        # the node is traced, which may be switched on after deployment.
        self.handler = self.handler()
        self._follow([])
        return
        yield  # pragma: no cover - makes the arming a process's first step

    def _landed(self) -> None:
        """The endpoint accepted a descriptor: an idle member wakes."""
        if self._idle:
            self._idle = False
            if self.poll_interval is None:
                Wake(self.env, self._wake)
            else:
                event = Event(self.env)
                event.callbacks.append(self._poll)
                event.succeed()

    def _poll(self, _event) -> None:
        self.env.timeout(self.poll_interval).callbacks.append(self._wake)

    def _wake(self, _event) -> None:
        _, item = self.endpoint.dequeue()
        self._follow([item])

    def _follow(self, taken: list) -> None:
        """The loop's next turns, then the handlers of what was taken."""
        endpoint = self.endpoint
        while self.alive():
            if not endpoint.count:
                self._idle = True
                break
            if self.poll_interval is None:
                Wake(self.env, self._wake)
                break
            taken.append(endpoint.dequeue()[1])
        start = self.env.start_inline
        for item in taken:
            start(self.handler(item))


class ChainTransport(abc.ABC):
    """Descriptor channel between chain members (SPROXY or RTE rings).

    Each transport owns what is particular to its kind, so the runtime
    never asks which one it has: ``kind`` labels hop spans,
    ``metrics_map`` is the L7 map its programs fill (None: the gateway's
    EPROXY L3 map is the only source), :meth:`reregister` repairs an
    evicted registration, and :meth:`start_polling`/:meth:`teardown` run
    and stop poll-mode cores; a :class:`Member` polls every ``poll_interval``
    (None: event-driven).
    """

    kind: str
    metrics_map: Optional[ArrayMap] = None
    poll_interval: Optional[float] = None

    @abc.abstractmethod
    def make_endpoint(self, owner_tag: str, instance_id: int) -> object:
        """Create the per-member receive endpoint: a queue with ``count``,
        ``dequeue()`` and an ``on_enqueue`` hook (see :class:`Member`)."""

    @abc.abstractmethod
    def send(self, sender_endpoint, descriptor, message, ops, trace, stage):
        """Generator: move a descriptor to its destination. Returns bool."""

    @abc.abstractmethod
    def receive_costs(self, endpoint, ops, trace, stage):
        """Generator: receiver-side costs for one descriptor."""

    def on_pod_registered(self, instance_id: int, endpoint) -> None:
        """Transport bookkeeping when a pod joins."""

    def on_pod_deregistered(self, instance_id: int) -> None:
        """Transport bookkeeping when a pod leaves."""

    def reregister(self, instance_id: int, endpoint) -> bool:
        """Re-insert a live member whose registration was evicted; True
        when something was repaired."""
        return False

    def start_polling(self, instance_id: int, tag: str, cores: float) -> None:
        """A member's worker starts: poll-mode transports spin its cores."""

    def teardown(self) -> None:
        """The chain is torn down: stop whatever the transport runs."""


class SproxyTransport(ChainTransport):
    """S-SPRIGHT: eBPF SK_MSG sockets + sockmap, fully event-driven."""

    kind = "sproxy"

    def __init__(
        self,
        node: "WorkerNode",
        manager: SharedMemoryManager,
        security: Optional[SecurityDomain],
    ) -> None:
        chain_name = manager.chain_name
        self.node = node
        self.security = security
        self.sockmap = SockMap(max_entries=1024, name=f"sockmap-{chain_name}")
        node.map_registry.create(self.sockmap)
        self.metrics_map = ArrayMap(max_entries=2, name=f"l7metrics-{chain_name}")
        node.map_registry.create(self.metrics_map)

    def make_endpoint(self, owner_tag: str, instance_id: int) -> SproxySocket:
        socket = SproxySocket(
            self.node, owner_tag, instance_id, self.sockmap, self.metrics_map
        )
        filter_fd = self.security.filter_fd if self.security else None
        socket.attach_sproxy(filter_fd=filter_fd)
        return socket

    def on_pod_registered(self, instance_id: int, endpoint) -> None:
        self.sockmap.update(instance_id, endpoint)

    def on_pod_deregistered(self, instance_id: int) -> None:
        if instance_id in self.sockmap:
            self.sockmap.delete(instance_id)

    def reregister(self, instance_id: int, endpoint) -> bool:
        """Map churn evicted the member's sockmap entry: the SPRIGHT
        controller re-inserts it."""
        if instance_id in self.sockmap:
            return False
        self.sockmap.update(instance_id, endpoint)
        self.node.counters.incr("spright/sockmap_repairs")
        return True

    def send(self, sender_endpoint, descriptor, message, ops, trace, stage):
        delivered = yield from sender_endpoint.send(
            descriptor, message, ops, trace, stage
        )
        if delivered:
            message.in_chain = True
        elif self.security is not None:
            self.security.record_denial()
        return delivered

    def receive_costs(self, endpoint, ops, trace, stage):
        # The receiver-side wakeup of a redirected descriptor.
        yield ops.commit(SPROXY_RECEIVE, 0, trace, stage)


class RingTransport(ChainTransport):
    """D-SPRIGHT: polled DPDK rings; near-zero hop latency, spinning CPUs."""

    kind = "ring"

    def __init__(
        self,
        node: "WorkerNode",
        manager: SharedMemoryManager,
        security: Optional[SecurityDomain] = None,  # rings run no filter program
        poll_interval: float = 0.5e-6,
    ) -> None:
        self.node = node
        self.manager = manager
        self.poll_interval = poll_interval
        self._endpoints: dict[int, RteRing] = {}
        self._spinners: dict[int, SpinCharger] = {}

    def make_endpoint(self, owner_tag: str, instance_id: int) -> RteRing:
        """The member's RTE ring is its endpoint."""
        ring = self.manager.create_ring(f"{owner_tag}#{instance_id}", size=4096)
        # Fault injection: forced overflows make this enqueue behave as if
        # the ring were full (inert-injector fast path inside the hook).
        ring.fault_hook = self.node.faults.ring_overflow
        return ring

    def on_pod_registered(self, instance_id: int, endpoint) -> None:
        self._endpoints[instance_id] = endpoint

    def on_pod_deregistered(self, instance_id: int) -> None:
        self._endpoints.pop(instance_id, None)
        # The dead pod's poll core stops spinning once the pod is actually
        # torn down; without this, a supervisor-terminated pod kept
        # charging a full core to its CPU tag forever.
        spinner = self._spinners.pop(instance_id, None)
        if spinner is not None:
            spinner.stop()

    def start_polling(self, instance_id: int, tag: str, cores: float) -> None:
        self._spinners[instance_id] = SpinCharger(self.node, tag, cores=cores)

    def teardown(self) -> None:
        for spinner in self._spinners.values():
            spinner.stop()

    def send(self, sender_endpoint, descriptor, message, ops, trace, stage):
        costs = self.node.config.costs
        target = self._endpoints.get(descriptor.next_fn)
        if target is None:
            self.node.counters.incr("spright/descriptors_dropped")
            return False
        yield ops.compute(costs.ring_enqueue)
        accepted = target.enqueue(message)
        if accepted:
            message.in_chain = True
        else:
            self.node.counters.incr("spright/ring_overflows")
        return accepted

    def receive_costs(self, endpoint, ops, trace, stage):
        faults = self.node.faults
        if faults.active:
            # Descriptor stall: the consumer's dequeue is delayed (a slow
            # or preempted poll core) without losing the descriptor.
            stall = faults.ring_stall(endpoint.name)
            if stall > 0:
                yield self.node.env.timeout(stall)
        yield ops.compute(self.node.config.costs.ring_dequeue)


class SprightChainRuntime:
    """One deployed chain on one node: gateway + pool + transport + workers.

    Every destination has one hop in ``hops``, set when it is wired: the
    local descriptor send for a function whose pods this node serves
    (:meth:`attach_deployment`), a fabric crossing into the hosting node's
    gateway (:meth:`connect`), a λ-NIC engine run (:meth:`offload`), and
    for ``RESPONSE`` the way back to the requester. ``upstream`` is the
    ingress node's runtime when this is not it, and the gateway forwards
    responses there.
    """

    def __init__(
        self,
        node: "WorkerNode",
        chain_name: str,
        plane: str,
        transport_cls: type[ChainTransport],
        params: SprightParams,
        metrics_server: Optional[MetricsServer] = None,
    ) -> None:
        self.node = node
        self.chain_name = chain_name
        self.plane = plane
        self.metrics_server = metrics_server

        # §3.4 startup flow ①②: a dedicated shared memory manager creates
        # the chain's private pool under its unguessable file prefix.
        self.manager = SharedMemoryManager(node.pools, chain_name)
        self.manager.initialize(
            buffer_size=params.pool_buffer_size, capacity=params.pool_capacity
        )
        self.pool = self.manager.attach(self.manager.file_prefix)
        # Checked mode: the sanitizer watches the chain's pool, counting
        # violations into the node counters (``sanitizer/*``) and reporting
        # buffers leaked at teardown with their allocation sites.
        sanitize = params.sanitize
        if sanitize is None:
            sanitize = default_sanitize()
        self.sanitizer: Optional[PoolSanitizer] = None
        if sanitize:
            self.sanitizer = PoolSanitizer(counter=node.counters)
            self.pool.attach_sanitizer(self.sanitizer)
        # Recovery: per-pod buffer ownership so a crashed pod's in-flight
        # buffers can be reclaimed (generation bump -> stale descriptors
        # fault cleanly) instead of leaking from the chain's pool.
        self.scavenger = ShmScavenger(self.pool, counter=node.counters)

        self.security = (
            SecurityDomain(node.map_registry, chain_name)
            if params.security_enabled
            else None
        )
        self.transport = transport_cls(node, self.manager, self.security)

        # §3.4 startup flow ③: the dedicated SPRIGHT gateway (2 pinned cores,
        # matching the paper's fair-comparison configuration).
        self.gateway = ProxyComponent(
            node,
            tag=f"{plane}/gw/{chain_name}",
            pinned_cores=params.gateway_cores,
            path_cpu=4e-6,
        )
        self.gateway_endpoint = self.transport.make_endpoint(
            f"{plane}/gw/{chain_name}", GATEWAY_INSTANCE_ID
        )
        self.transport.on_pod_registered(GATEWAY_INSTANCE_ID, self.gateway_endpoint)

        # EPROXY: TC-attached L3 metric program on the gateway's veth.
        self.l3_metrics = ArrayMap(max_entries=2, name=f"l3metrics-{chain_name}")
        node.map_registry.create(self.l3_metrics)
        self.eproxy_hook = HookPoint(
            f"tc@gw-{chain_name}", ProgramType.TC, node.vm
        )
        self.eproxy_hook.attach(programs.eproxy_l3_metrics(self.l3_metrics.fd))
        # The metric program's helpers write nothing to it: one serves every fire.
        self._eproxy_scratch = Scratch(node.map_registry)

        self.routing = DfrRoutingTable(node, chain_name)
        self.hops: dict[str, object] = {RESPONSE: self._respond}
        self.upstream: Optional["SprightChainRuntime"] = None
        self.fabric = None
        self._endpoints: dict[int, object] = {}
        self.transport.start_polling(
            GATEWAY_INSTANCE_ID, self.gateway.tag, params.gateway_cores
        )
        # Responses coming back from the chain (⑧).
        Member(
            node.env, self.gateway_endpoint,
            lambda: partial(self._finish_response, self.gateway.ops),
            lambda: True, f"gw-{chain_name}", self.transport.poll_interval,
        )
        if metrics_server is not None:
            node.env.process(
                self._metrics_agent(), name=f"metrics-{chain_name}", detached=True
            )

    # -- pod wiring (called via Deployment callbacks) ---------------------------
    def attach_deployment(self, function_name: str, deployment: Deployment) -> None:
        """Serve ``function_name`` from this node's pods of ``deployment``."""
        self.hops[function_name] = self._send_to_function
        deployment.pod_ready_callbacks.append(
            lambda pod, name=function_name: self._on_pod_ready(name, pod)
        )
        deployment.pod_terminated_callbacks.append(
            lambda pod, name=function_name: self._on_pod_gone(name, pod)
        )
        for pod in deployment.servable_pods():
            self._on_pod_ready(function_name, pod)

    def _on_pod_ready(self, function_name: str, pod: Pod) -> None:
        endpoint = self.transport.make_endpoint(pod.cpu_tag, pod.instance_id)
        self._endpoints[pod.instance_id] = endpoint
        self.transport.on_pod_registered(pod.instance_id, endpoint)
        self.routing.register_instance(function_name, pod)
        if self.security is not None:
            # kubelet-configured rules (§3.4): chain members may talk to each
            # other and to the gateway; nothing outside the chain can.
            self.security.allow(GATEWAY_INSTANCE_ID, pod.instance_id)
            self.security.allow(pod.instance_id, GATEWAY_INSTANCE_ID)
            for other_id in self._endpoints:
                if other_id != pod.instance_id:
                    self.security.allow(other_id, pod.instance_id)
                    self.security.allow(pod.instance_id, other_id)
        self.transport.start_polling(pod.instance_id, pod.cpu_tag, 1.0)
        # ② Fig 4: each descriptor is handled by its own process, so the
        # pod's concurrency limit bounds parallelism.
        Member(
            self.node.env, endpoint,
            lambda: partial(
                self._handle_message, function_name, pod, endpoint,
                self.node.ops(pod.cpu_tag),
            ),
            lambda: pod.is_servable or pod.phase.value in ("starting", "pending"),
            f"worker-{pod.cpu_tag}#{pod.instance_id}", self.transport.poll_interval,
        )

    def _on_pod_gone(self, function_name: str, pod: Pod) -> None:
        self.routing.deregister_instance(function_name, pod)
        self.transport.on_pod_deregistered(pod.instance_id)
        self._endpoints.pop(pod.instance_id, None)

    # -- gateway ingress path (called by the dataplane) ---------------------------
    def dispatch(self, message: SprightMessage, head_function: str, deployment):
        """Generator: gateway invokes the head function of the chain (① Fig 4).

        ``deployment`` is the head function's, so a request that lands on a
        zero-scaled function activates it; mid-chain hops pass None.
        """
        # EPROXY L3 metrics fire on the gateway's veth RX.
        run = self.eproxy_hook.fire(
            programs.encode_packet_ctx(message.handle.size, 1), self._eproxy_scratch
        )
        span = None
        if message.request is not None:
            span = message.request.span_begin(
                "ebpf:eproxy", "ebpf", insns=run.insns_executed
            )
        yield self.gateway.charge.book(
            self.node.config.costs.ebpf_run(run.insns_executed), "ebpf_run"
        )
        if message.request is not None:
            message.request.span_end(span)
        yield from self.hops[head_function](
            self.gateway_endpoint, self.gateway.ops, message, head_function, deployment
        )

    # -- hops: (endpoint, ops, message, function name, deployment) ----------------
    def connect(self, function_name: str, peer: "SprightChainRuntime") -> None:
        """Reach ``function_name`` on ``peer``'s node across the fabric."""
        self.hops[function_name] = partial(self._cross, peer)

    def offload(self, function_name: str, engine, spec) -> None:
        """Run ``function_name`` on this node's λ-NIC engine when it has a core."""
        self.hops[function_name] = partial(self._nic_hop, engine, spec)

    def _respond(self, endpoint, ops, message, function_name, deployment):
        """Generator: the response hop — from a pod, a descriptor to the
        gateway; at the gateway, on to the ingress node or the requester."""
        if endpoint is self.gateway_endpoint:
            if self.upstream is not None:
                yield from self._cross(self.upstream, endpoint, ops, message, None, None)
            else:
                self._complete(message, self.pool.read(message.handle))
        elif not message.freed:
            # Ownership moves to the gateway (never a reclaim target); the
            # requester frees the buffer after reading the response.
            yield from self._send_descriptor(
                endpoint, ops, message, None, None,
                "hop:response", "response descriptor undeliverable",
            )

    def _cross(self, peer, endpoint, ops, message, function_name, deployment):
        """Node boundary: the payload leaves this pool, crosses the fabric
        into ``peer``'s gateway, and lands in ``peer``'s pool (None: the
        response, handed to the waiting requester)."""
        payload = self.pool.read(message.handle)
        self.release_message(message)
        payload = yield from self.fabric.transfer(
            self.node,
            peer.node,
            payload,
            ops_tx=ops,
            ops_rx=peer.gateway.ops,
            request=message.request,
        )
        if message.cancelled:
            return  # the requester gave up in flight; no buffer is held
        if function_name is None:
            peer._complete(message, payload)
            return
        message.handle = peer.pool.alloc(site=f"{peer.plane}/gw/{peer.chain_name}")
        peer.pool.write(message.handle, payload)
        message.owner = peer
        message.freed = False
        # A mid-chain hop like _handle_message's: no deployment to activate.
        yield from peer.dispatch(message, function_name, None)

    def _nic_hop(self, engine, spec, endpoint, ops, message, function_name, deployment):
        """λ-NIC: DMA the payload to the NIC, run the function on an engine
        core, DMA the result back in place, then route on. Without a free
        core the function's host pods serve it."""
        if not engine.try_reserve():
            self.node.counters.incr(f"{self.plane}/host_fallbacks")
            yield from self._send_to_function(
                endpoint, ops, message, function_name, deployment
            )
            return
        dma = self.node.config.costs.nic_dma
        try:
            payload = self.pool.read(message.handle)
            yield self.node.env.timeout(dma)
            result = yield from engine.execute(spec, payload)
        finally:
            engine.release()
        yield self.node.env.timeout(dma)
        if message.cancelled or message.freed:
            self.release_message(message)
            return
        self.pool.write(message.handle, result.payload)
        message.topic = result.topic or message.topic
        if message.request is not None:
            message.request.mark(f"served:{function_name}", self.node.env.now)
        next_function = self._next_function(function_name, message)
        yield from self.hops[next_function](endpoint, ops, message, next_function, None)

    def _next_function(self, function_name: str, message: SprightMessage) -> str:
        """DFR step 1: where next? Sequence-driven or routing-table-driven."""
        if message.remaining is not None:
            return message.remaining.pop(0) if message.remaining else RESPONSE
        return self.routing.next_function(function_name, message.topic)

    def _complete(self, message: SprightMessage, response: bytes) -> None:
        """The response reached the ingress gateway: wake the requester."""
        message.response = response
        if not message.done.triggered:
            message.done.succeed(response)

    # -- descriptor sends -----------------------------------------------------------
    def _send_to_function(self, endpoint, ops, message, function_name, deployment):
        """Generator: the local hop — a descriptor to one of this node's pods
        of ``function_name``, picked by residual capacity."""
        if message.freed:
            # The buffer was reclaimed (crashed owner) while this hop was
            # being prepared; the descriptor must not re-enter the chain.
            return False
        claimed = message.request.claimed_pods if message.request is not None else None
        pod = self.routing.pick_instance(function_name, claimed)
        if pod is None and deployment is not None:
            pod = yield from deployment.wait_for_pod(
                partial(self.routing.pick_instance, function_name, claimed),
                self.node.counters,
                f"{self.plane}/cold_starts",
            )
        while pod is None:
            yield self.node.env.timeout(0.01)
            pod = self.routing.pick_instance(function_name, claimed)
        if claimed is not None:
            claimed.add(pod.instance_id)
        sent = yield from self._send_descriptor(
            endpoint, ops, message, pod, chain_step_stage(message.hop_index),
            f"hop:{function_name}", f"descriptor to {function_name} undeliverable",
        )
        return sent

    def _send_descriptor(self, endpoint, ops, message, pod, stage, span_name, undeliverable):
        """Generator: the descriptor to ``pod`` (None: the gateway) through
        the transport. A drop to a live pod gets one repair-and-resend; a
        delivered buffer is owned by its target until forwarded or freed."""
        target = GATEWAY_INSTANCE_ID if pod is None else pod.instance_id
        descriptor = PacketDescriptor(
            next_fn=target,
            shm_offset=message.handle.offset,
            length=message.handle.size,
            generation=message.handle.generation,
        )
        message.hop_index += 1
        message.pending_stage = stage
        message.descriptor = descriptor
        span = None
        if message.request is not None:
            span = message.request.span_begin(
                span_name, "shm", bytes=descriptor.length, transport=self.transport.kind
            )
        sent = yield from self.transport.send(
            endpoint, descriptor, message, ops, message.trace, stage
        )
        if not sent and pod is not None:
            sent = yield from self._repair_and_resend(endpoint, ops, message, pod)
        if message.request is not None:
            message.request.span_end(span, delivered=sent)
        if not sent:
            self._fail_message(message, DeliveryError("descriptor_drop", undeliverable))
        else:
            self.scavenger.assign(target, message.handle, message)
        return sent

    def _repair_and_resend(self, endpoint, ops, message, pod):
        """Self-healing after an eBPF map eviction (fault injection).

        If the target pod is alive but the transport lost its registration
        (SPROXY: the sockmap entry vanished), the runtime re-registers it —
        the SPRIGHT controller's reaction to map churn — and resends the
        descriptor once.
        """
        if not pod.is_servable:
            return False
        target = self._endpoints.get(pod.instance_id)
        if target is None or not self.transport.reregister(pod.instance_id, target):
            return False
        sent = yield from self.transport.send(
            endpoint,
            message.descriptor,
            message,
            ops,
            message.trace,
            message.pending_stage,
        )
        return sent

    # -- crash recovery (called by the pod supervisor) ----------------------------
    def reclaim_orphans(self, pod: Pod) -> int:
        """Reclaim every shared-memory buffer a crashed pod still owned.

        Each orphan's slot generation is bumped (stale descriptors now fault
        cleanly instead of aliasing a recycled buffer) and its waiting
        requester is woken with a typed crash error — otherwise the closed
        loop would hang forever on ``done`` events nobody will succeed.
        Returns the number of buffers reclaimed.
        """
        reclaimed = self.scavenger.reclaim(
            pod.instance_id, site=f"{self.chain_name}/crash#{pod.instance_id}"
        )
        for _handle, token in reclaimed:
            if not isinstance(token, SprightMessage):
                continue
            token.freed = True
            if token.failed_error is None:
                token.failed_error = DeliveryError(
                    "crash",
                    f"buffer reclaimed from crashed pod "
                    f"{pod.cpu_tag}#{pod.instance_id}",
                )
            if not token.done.triggered:
                token.done.succeed(None)
        return len(reclaimed)

    def verify_registration(self, pod: Pod) -> bool:
        """Post-restart check: is the replacement pod wired into the plane?

        The ready callbacks normally do all of this; the supervisor calls it
        after each restart as a belt-and-braces repair — if the transport
        lost the registration (e.g. a map eviction raced the restart) it is
        re-inserted through the same path as :meth:`_repair_and_resend`.
        """
        endpoint = self._endpoints.get(pod.instance_id)
        if endpoint is None:
            return False
        self.transport.reregister(pod.instance_id, endpoint)
        return self.routing.instance(pod.instance_id) is pod

    # -- failure/cancellation lifecycle ------------------------------------------
    def release_message(self, message: SprightMessage) -> None:
        """Free the message's pool buffer exactly once (requester or chain),
        in the runtime that owns it."""
        if not message.freed:
            message.freed = True
            owner = message.owner or self
            owner.scavenger.release(message.handle)
            owner.pool.free(message.handle)

    def _fail_message(self, message: SprightMessage, error: DeliveryError) -> None:
        """Delivery failed mid-chain: release the buffer and wake the
        requester with the typed error (surfaced via ``failed_error`` —
        failing the ``done`` event would crash abandoned hedges)."""
        message.failed_error = error
        self.release_message(message)
        self.node.counters.incr("faults/chain_failures")
        if not message.done.triggered:
            message.done.succeed(None)

    # -- handlers ------------------------------------------------------------------
    def _receive(self, endpoint, ops, message, span_name, **attrs):
        """Generator: the receive checkpoint of every descriptor. Charges the
        receiver-side costs (they count toward the in-flight hop); False
        when nobody wants the message any more and its buffer was dropped."""
        span = None
        if message.request is not None:
            span = message.request.span_begin(span_name, "shm", **attrs)
        yield from self.transport.receive_costs(
            endpoint, ops, message.trace, message.pending_stage
        )
        if message.request is not None:
            message.request.span_end(span)
        if message.cancelled or message.freed:
            # The requester gave up while the descriptor was in flight
            # (timeout or hedge loss: the chain now owns, and drops, the
            # buffer) — or the scavenger reclaimed it from a crashed owner.
            self.release_message(message)
            return False
        return True

    def _handle_message(self, function_name: str, pod: Pod, endpoint, ops, message):
        """Serve one descriptor: wake, read in place, run, route, forward."""
        live = yield from self._receive(
            endpoint, ops, message, "shm:wakeup", fn=function_name
        )
        if not live:
            return
        # Zero-copy: the function reads the payload in place, resolving the
        # wire descriptor's (offset, generation) identity through the pool.
        payload = self._read_payload(message)
        if message.request is not None:
            message.request.mark(f"deliver:{function_name}", self.node.env.now)
        try:
            result = yield from pod.serve(payload)
        except DeliveryError as error:
            # The pod crashed mid-request (fault injection): surface the
            # typed failure to the requester instead of crashing the worker.
            if message.request is not None:
                message.request.mark(f"crash:{function_name}", self.node.env.now)
            self._fail_message(message, error)
            return
        if message.request is not None:
            message.request.mark(f"served:{function_name}", self.node.env.now)
        if message.cancelled or message.freed:
            # freed: the scavenger reclaimed the buffer while this pod was
            # serving (its owner crashed); writing back would be a
            # use-after-free against a bumped generation.
            self.release_message(message)
            return
        # In-place update of the buffer with the function's output.
        self.pool.write(message.handle, result.payload)
        message.topic = result.topic or message.topic
        message.sender_instance = pod.instance_id

        next_function = self._next_function(function_name, message)
        yield from self.hops[next_function](endpoint, ops, message, next_function, None)

    def _read_payload(self, message: SprightMessage) -> bytes:
        """Receive-side read: verify the descriptor before touching memory.

        Both transports deliver the 24-byte descriptor alongside the
        side-band message; resolution rejects stale ``(offset, generation)``
        pairs and boundary-straddling ranges (ABA/use-after-free defence).
        """
        if message.descriptor is not None:
            return self.pool.resolve_descriptor(message.descriptor)
        return self.pool.read(message.handle)

    def _finish_response(self, ops, message: SprightMessage):
        live = yield from self._receive(
            self.gateway_endpoint, ops, message, "shm:response"
        )
        if not live:
            return
        if self.upstream is not None:
            yield from self._cross(self.upstream, None, ops, message, None, None)
        else:
            self._complete(message, self._read_payload(message))

    def _metrics_agent(self, interval: float = 2.0):
        """The gateway's built-in agent: eBPF metric maps -> metrics server."""
        metrics_map = self.transport.metrics_map
        if metrics_map is None:
            metrics_map = self.l3_metrics
        last_count = 0
        while True:
            yield self.node.env.timeout(interval)
            count = metrics_map.lookup(programs.METRIC_SLOT_COUNT) or 0
            rate = (count - last_count) / interval
            last_count = count
            in_flight = sum(
                pod.in_flight
                for instance_id, pod in self.routing._by_instance_id.items()
            )
            self.metrics_server.report(
                PodMetrics(
                    function=self.chain_name,
                    timestamp=self.node.env.now,
                    request_rate=rate,
                    concurrency=in_flight,
                )
            )
            # The scrape itself is cheap but not free.
            self.gateway.charge.book(5e-6, "metrics_scrape", detached=True)

    def teardown(self) -> None:
        self.transport.teardown()
        self.manager.teardown()
