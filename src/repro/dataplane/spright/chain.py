"""The SPRIGHT chain runtime: gateway, function workers, and transports.

This is the paper's §3 assembled: a per-chain SPRIGHT gateway consolidating
protocol processing (§3.1), zero-copy payloads in the chain's private
hugepage pool (§3.2.1), descriptor passing by either the event-driven SPROXY
(S-SPRIGHT) or DPDK-style polled rings (D-SPRIGHT) (§3.2.2), DFR with
residual-capacity load balancing (§3.2.3), EPROXY/SPROXY metrics feeding the
metrics server (§3.3), and per-chain security domains (§3.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ...audit import RequestTrace, Stage
from ...kernel.ebpf import ArrayMap, HookPoint, ProgramType, Scratch, SockMap, programs
from ...mem import (
    BufferHandle,
    PacketDescriptor,
    PollingConsumer,
    PoolSanitizer,
    RteRing,
    SharedMemoryManager,
    ShmScavenger,
    default_sanitize,
)
from ...runtime import Deployment, MetricsServer, PodMetrics, RESPONSE
from ...runtime.pod import Pod
from ...simcore import DeliveryError, Event, Interrupt, Store
from ..base import ProxyComponent, Request
from .routing import DfrRoutingTable, GATEWAY_INSTANCE_ID
from .security import SecurityDomain
from .sockets import SproxySocket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime import WorkerNode


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
    in_chain: bool = False   # a descriptor for it reached some inbox/ring
    failed_error: Optional[DeliveryError] = None  # set when delivery failed

    def next_stage(self, to_gateway: bool) -> Optional[Stage]:
        """Audit stage for the next hop (response hops are not staged)."""
        if to_gateway:
            return None
        mapping = {0: Stage.STEP_3, 1: Stage.STEP_4, 2: Stage.STEP_5}
        return mapping.get(self.hop_index)


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


class ChainTransport(abc.ABC):
    """Descriptor channel between chain members (SPROXY or RTE rings)."""

    @abc.abstractmethod
    def make_endpoint(self, owner_tag: str, instance_id: int) -> object:
        """Create the per-member receive endpoint."""

    @abc.abstractmethod
    def send(self, sender_endpoint, descriptor, message, ops, trace, stage):
        """Generator: move a descriptor to its destination. Returns bool."""

    @abc.abstractmethod
    def receive_costs(self, endpoint, ops, trace, stage):
        """Generator: receiver-side costs for one descriptor."""

    @abc.abstractmethod
    def wait_for_item(self, endpoint):
        """Generator: block until an item is available; returns it."""

    def on_pod_registered(self, instance_id: int, endpoint) -> None:
        """Transport bookkeeping when a pod joins."""

    def on_pod_deregistered(self, instance_id: int) -> None:
        """Transport bookkeeping when a pod leaves."""


class SproxyTransport(ChainTransport):
    """S-SPRIGHT: eBPF SK_MSG sockets + sockmap, fully event-driven."""

    def __init__(
        self, node: "WorkerNode", chain_name: str, security: Optional[SecurityDomain]
    ) -> None:
        self.node = node
        self.chain_name = chain_name
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
        yield from endpoint.receive(ops, trace, stage)

    def wait_for_item(self, endpoint):
        item = yield endpoint.inbox.get()
        return item


class RingEndpoint:
    """A D-SPRIGHT member's RTE ring, with a wakeup event for the sim."""

    def __init__(self, node: "WorkerNode", ring: RteRing) -> None:
        self.node = node
        self.ring = ring

    def deliver_descriptor(self, item: object) -> bool:
        return self.ring.enqueue(item)


class RingTransport(ChainTransport):
    """D-SPRIGHT: polled DPDK rings; near-zero hop latency, spinning CPUs."""

    def __init__(
        self,
        node: "WorkerNode",
        manager: SharedMemoryManager,
        poll_interval: float = 0.5e-6,
    ) -> None:
        self.node = node
        self.manager = manager
        self.poll_interval = poll_interval
        self._endpoints: dict[int, RingEndpoint] = {}

    def make_endpoint(self, owner_tag: str, instance_id: int) -> RingEndpoint:
        ring = self.manager.create_ring(f"{owner_tag}#{instance_id}", size=4096)
        # Fault injection: forced overflows make this enqueue behave as if
        # the ring were full (inert-injector fast path inside the hook).
        ring.fault_hook = self.node.faults.ring_overflow
        return RingEndpoint(self.node, ring)

    def on_pod_registered(self, instance_id: int, endpoint) -> None:
        self._endpoints[instance_id] = endpoint

    def on_pod_deregistered(self, instance_id: int) -> None:
        self._endpoints.pop(instance_id, None)

    def send(self, sender_endpoint, descriptor, message, ops, trace, stage):
        costs = self.node.config.costs
        target = self._endpoints.get(descriptor.next_fn)
        if target is None:
            self.node.counters.incr("spright/descriptors_dropped")
            return False
        yield ops.compute(costs.ring_enqueue)
        accepted = target.deliver_descriptor(message)
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
            stall = faults.ring_stall(endpoint.ring.name)
            if stall > 0:
                yield self.node.env.timeout(stall)
        yield ops.compute(self.node.config.costs.ring_dequeue)

    def wait_for_item(self, endpoint):
        while True:
            ok, item = endpoint.ring.dequeue()
            if ok:
                return item
            yield endpoint.ring.not_empty_event(self.node.env)
            yield self.node.env.timeout(self.poll_interval)


class SprightChainRuntime:
    """One deployed chain: gateway + pool + transport + function workers."""

    def __init__(
        self,
        node: "WorkerNode",
        chain_name: str,
        plane: str,
        transport_kind: str,
        metrics_server: Optional[MetricsServer] = None,
        gateway_cores: int = 2,
        security_enabled: bool = True,
        pool_capacity: int = 8192,
        pool_buffer_size: int = 16384,
        sanitize: Optional[bool] = None,
    ) -> None:
        if transport_kind not in ("sproxy", "ring"):
            raise ValueError(f"unknown transport {transport_kind!r}")
        self.node = node
        self.chain_name = chain_name
        self.plane = plane
        self.transport_kind = transport_kind
        self.metrics_server = metrics_server

        # §3.4 startup flow ①②: a dedicated shared memory manager creates
        # the chain's private pool under its unguessable file prefix.
        self.manager = SharedMemoryManager(node.pools, chain_name)
        self.manager.initialize(
            buffer_size=pool_buffer_size, capacity=pool_capacity
        )
        self.pool = self.manager.attach(self.manager.file_prefix)
        # Checked mode: the sanitizer watches the chain's pool, counting
        # violations into the node counters (``sanitizer/*``) and reporting
        # buffers leaked at teardown with their allocation sites.
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
            SecurityDomain(node.map_registry, chain_name) if security_enabled else None
        )
        if transport_kind == "sproxy":
            self.transport: ChainTransport = SproxyTransport(
                node, chain_name, self.security
            )
        else:
            self.transport = RingTransport(node, self.manager)

        # §3.4 startup flow ③: the dedicated SPRIGHT gateway (2 pinned cores,
        # matching the paper's fair-comparison configuration).
        self.gateway = ProxyComponent(
            node,
            tag=f"{plane}/gw/{chain_name}",
            pinned_cores=gateway_cores,
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

        self.routing = DfrRoutingTable(node, chain_name)
        self._endpoints: dict[int, object] = {}
        self._function_of_instance: dict[int, str] = {}
        self._spinners: dict[int, SpinCharger] = {}
        self._gateway_spinner: Optional[SpinCharger] = None
        if transport_kind == "ring":
            self._gateway_spinner = SpinCharger(
                node, self.gateway.tag, cores=gateway_cores
            )
        node.env.process(self._gateway_worker(), name=f"gw-{chain_name}")
        if metrics_server is not None:
            node.env.process(self._metrics_agent(), name=f"metrics-{chain_name}")

    # -- pod wiring (called via Deployment callbacks) ---------------------------
    def attach_deployment(self, function_name: str, deployment: Deployment) -> None:
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
        self._function_of_instance[pod.instance_id] = function_name
        self.transport.on_pod_registered(pod.instance_id, endpoint)
        self.routing.register_instance(function_name, pod)
        if self.security is not None:
            # kubelet-configured rules (§3.4): chain members may talk to each
            # other and to the gateway; nothing outside the chain can.
            self.security.allow(GATEWAY_INSTANCE_ID, pod.instance_id)
            self.security.allow(pod.instance_id, GATEWAY_INSTANCE_ID)
            for other_id in self._function_of_instance:
                if other_id != pod.instance_id:
                    self.security.allow(other_id, pod.instance_id)
                    self.security.allow(pod.instance_id, other_id)
        if self.transport_kind == "ring":
            self._spinners[pod.instance_id] = SpinCharger(
                self.node, pod.cpu_tag, cores=1.0
            )
        self.node.env.process(
            self._function_worker(function_name, pod, endpoint),
            name=f"worker-{pod.cpu_tag}#{pod.instance_id}",
        )

    def _on_pod_gone(self, function_name: str, pod: Pod) -> None:
        self.routing.deregister_instance(function_name, pod)
        self.transport.on_pod_deregistered(pod.instance_id)
        self._endpoints.pop(pod.instance_id, None)
        self._function_of_instance.pop(pod.instance_id, None)
        # D-SPRIGHT: the dead pod's poll core stops spinning once the pod is
        # actually torn down; without this, a supervisor-terminated pod kept
        # charging a full core to its CPU tag forever.
        spinner = self._spinners.pop(pod.instance_id, None)
        if spinner is not None:
            spinner.stop()

    # -- gateway ingress path (called by the dataplane) ---------------------------
    def dispatch(self, message: SprightMessage, head_function: str, deployment):
        """Generator: gateway invokes the head function of the chain (① Fig 4)."""
        # EPROXY L3 metrics fire on the gateway's veth RX.
        run = self.eproxy_hook.fire(
            data=programs.encode_packet_ctx(message.handle.size, 1),
            scratch=Scratch(map_registry=self.node.map_registry),
        )
        span = None
        if message.request is not None:
            span = message.request.span_begin(
                "ebpf:eproxy", "ebpf", insns=run.insns_executed
            )
        yield self.gateway.cpu.execute(
            self.node.config.costs.ebpf_run(run.insns_executed),
            self.gateway.tag,
            op="ebpf_run",
        )
        if message.request is not None:
            message.request.span_end(span)
        sent = yield from self._send_to_function(
            self.gateway_endpoint,
            self.gateway.ops,
            message,
            head_function,
            deployment,
        )
        return sent

    def _send_to_function(self, endpoint, ops, message, function_name, deployment):
        if message.freed:
            # The buffer was reclaimed (crashed owner) while this hop was
            # being prepared; the descriptor must not re-enter the chain.
            return False
        claimed = message.request.claimed_pods if message.request is not None else None
        pod = self.routing.pick_instance(function_name, claimed)
        if pod is None and deployment is not None:
            deployment.waiting += 1
            try:
                while pod is None:
                    if not deployment.live_pods():
                        deployment.scale_to(1)
                        deployment.note_cold_start()
                        self.node.counters.incr(f"{self.plane}/cold_starts")
                    yield deployment.any_servable_event()
                    pod = self.routing.pick_instance(function_name, claimed)
            finally:
                deployment.waiting -= 1
        while pod is None:
            yield self.node.env.timeout(0.01)
            pod = self.routing.pick_instance(function_name, claimed)
        if claimed is not None:
            claimed.add(pod.instance_id)
        descriptor = PacketDescriptor(
            next_fn=pod.instance_id,
            shm_offset=message.handle.offset,
            length=message.handle.size,
            generation=message.handle.generation,
        )
        stage = message.next_stage(to_gateway=False)
        message.hop_index += 1
        message.pending_stage = stage
        message.descriptor = descriptor
        span = None
        if message.request is not None:
            span = message.request.span_begin(
                f"hop:{function_name}",
                "shm",
                bytes=descriptor.length,
                transport=self.transport_kind,
            )
        sent = yield from self.transport.send(
            endpoint, descriptor, message, ops, message.trace, stage
        )
        if not sent:
            sent = yield from self._repair_and_resend(endpoint, ops, message, pod)
        if message.request is not None:
            message.request.span_end(span, delivered=sent)
        if not sent:
            self._fail_message(
                message,
                DeliveryError(
                    "descriptor_drop",
                    f"descriptor to {function_name} undeliverable",
                ),
            )
        else:
            # The buffer is now parked in the target pod's inbox/ring: that
            # pod owns it until it forwards or the buffer is freed.
            self.scavenger.assign(pod.instance_id, message.handle, message)
        return sent

    def _repair_and_resend(self, endpoint, ops, message, pod):
        """Self-healing after an eBPF map eviction (fault injection).

        If the target pod is alive but its sockmap entry vanished, the
        runtime re-registers the socket — the SPRIGHT controller's reaction
        to map churn — and resends the descriptor once.
        """
        if not isinstance(self.transport, SproxyTransport):
            return False
        if pod.instance_id in self.transport.sockmap or not pod.is_servable:
            return False
        target = self._endpoints.get(pod.instance_id)
        if target is None:
            return False
        self.transport.on_pod_registered(pod.instance_id, target)
        self.node.counters.incr("spright/sockmap_repairs")
        sent = yield from self.transport.send(
            endpoint,
            message.descriptor,
            message,
            ops,
            message.trace,
            message.pending_stage,
        )
        return sent

    def _send_to_gateway(self, endpoint, ops, message):
        if message.freed:
            return False
        descriptor = PacketDescriptor(
            next_fn=GATEWAY_INSTANCE_ID,
            shm_offset=message.handle.offset,
            length=message.handle.size,
            generation=message.handle.generation,
        )
        message.hop_index += 1
        message.pending_stage = None
        message.descriptor = descriptor
        span = None
        if message.request is not None:
            span = message.request.span_begin(
                "hop:response",
                "shm",
                bytes=descriptor.length,
                transport=self.transport_kind,
            )
        sent = yield from self.transport.send(
            endpoint, descriptor, message, ops, message.trace, None
        )
        if message.request is not None:
            message.request.span_end(span, delivered=sent)
        if not sent:
            self._fail_message(
                message,
                DeliveryError("descriptor_drop", "response descriptor undeliverable"),
            )
        else:
            # Ownership moves to the gateway (never a reclaim target); the
            # requester frees the buffer after reading the response.
            self.scavenger.assign(GATEWAY_INSTANCE_ID, message.handle, message)
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
        after each restart as a belt-and-braces repair — if the sockmap entry
        is missing (e.g. a map eviction raced the restart) it is re-inserted
        through the same path as :meth:`_repair_and_resend`.
        """
        endpoint = self._endpoints.get(pod.instance_id)
        if endpoint is None:
            return False
        if isinstance(self.transport, SproxyTransport):
            if pod.instance_id not in self.transport.sockmap:
                self.transport.on_pod_registered(pod.instance_id, endpoint)
                self.node.counters.incr("spright/sockmap_repairs")
        return self.routing.instance(pod.instance_id) is pod

    # -- failure/cancellation lifecycle ------------------------------------------
    def release_message(self, message: SprightMessage) -> None:
        """Free the message's pool buffer exactly once (requester or chain)."""
        if not message.freed:
            message.freed = True
            self.scavenger.release(message.handle)
            self.pool.free(message.handle)

    def _fail_message(self, message: SprightMessage, error: DeliveryError) -> None:
        """Delivery failed mid-chain: release the buffer and wake the
        requester with the typed error (surfaced via ``failed_error`` —
        failing the ``done`` event would crash abandoned hedges)."""
        message.failed_error = error
        self.release_message(message)
        self.node.counters.incr("faults/chain_failures")
        if not message.done.triggered:
            message.done.succeed(None)

    # -- workers -------------------------------------------------------------------
    def _function_worker(self, function_name: str, pod: Pod, endpoint):
        """Dispatch loop for one pod's descriptors (② Fig 4).

        Each descriptor is handled in its own process so the pod's
        concurrency limit — not the dispatch loop — bounds parallelism,
        mirroring the event-driven invocation model.
        """
        ops = self.node.ops(pod.cpu_tag)
        while pod.is_servable or pod.phase.value in ("starting", "pending"):
            try:
                message = yield from self.transport.wait_for_item(endpoint)
            except Interrupt:
                return
            assert isinstance(message, SprightMessage)
            self.node.env.process(
                self._handle_message(function_name, pod, endpoint, ops, message)
            )

    def _handle_message(self, function_name: str, pod: Pod, endpoint, ops, message):
        """Serve one descriptor: wake, read in place, run, route, forward."""
        # Receiver-side wakeup costs count toward the in-flight hop.
        span = None
        if message.request is not None:
            span = message.request.span_begin("shm:wakeup", "shm", fn=function_name)
        yield from self.transport.receive_costs(
            endpoint, ops, message.trace, message.pending_stage
        )
        if message.request is not None:
            message.request.span_end(span)
        if message.cancelled or message.freed:
            # The requester gave up while the descriptor was in flight (the
            # chain now owns, and drops, the buffer) — or the scavenger
            # already reclaimed it from a crashed owner.
            self.release_message(message)
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

        # DFR step 1: where next? Sequence-driven or routing-table-driven.
        if message.remaining is not None:
            next_function = (
                message.remaining.pop(0) if message.remaining else RESPONSE
            )
        else:
            next_function = self.routing.next_function(function_name, message.topic)
        if next_function == RESPONSE or self.routing.is_response(next_function):
            yield from self._send_to_gateway(endpoint, ops, message)
        else:
            yield from self._send_to_function(
                endpoint, ops, message, next_function, None
            )

    def _gateway_worker(self):
        """Gateway-side consumer: responses coming back from the chain (⑧)."""
        ops = self.gateway.ops
        while True:
            message = yield from self.transport.wait_for_item(self.gateway_endpoint)
            assert isinstance(message, SprightMessage)
            self.node.env.process(self._finish_response(ops, message))

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
        span = None
        if message.request is not None:
            span = message.request.span_begin("shm:response", "shm")
        yield from self.transport.receive_costs(
            self.gateway_endpoint, ops, message.trace, None
        )
        if message.request is not None:
            message.request.span_end(span)
        if message.cancelled or message.freed:
            # Nobody is waiting for this response anymore (timeout/hedge
            # loss, or a crash-reclaimed buffer): the chain drops the buffer
            # instead of the requester.
            self.release_message(message)
            return
        message.response = self._read_payload(message)
        if not message.done.triggered:
            message.done.succeed(message.response)

    def _metrics_agent(self, interval: float = 2.0):
        """The gateway's built-in agent: eBPF metric maps -> metrics server."""
        last_count = 0
        while True:
            yield self.node.env.timeout(interval)
            metrics_map = self._l7_metrics_map()
            if metrics_map is None:
                continue
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
            self.gateway.cpu.execute(5e-6, self.gateway.tag, op="metrics_scrape")

    def _l7_metrics_map(self) -> Optional[ArrayMap]:
        if isinstance(self.transport, SproxyTransport):
            return self.transport.metrics_map
        return self.l3_metrics

    def teardown(self) -> None:
        for spinner in self._spinners.values():
            spinner.stop()
        if self._gateway_spinner is not None:
            self._gateway_spinner.stop()
        self.manager.teardown()
