"""S-SPRIGHT and D-SPRIGHT as deployable dataplanes.

Both share the external path (ingress gateway -> SPRIGHT gateway over the
kernel, Table 2's ①/②) and the zero-copy pool; they differ only in the
descriptor transport: event-driven SPROXY redirection versus polled DPDK
rings — precisely the §3.2.2 comparison.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ...audit import Stage
from ...kernel.ops import GATEWAY_RESPONSE
from ...runtime import MetricsServer
from ...simcore import Event, Interrupt
from ..base import Dataplane, ProxyComponent, Request, RequestClass
from ..legs import external_arrival, leg_kernel
from .adapter import AdapterHookPoint, CoapAdapter, HttpAdapter, MqttAdapter
from .chain import (
    ChainTransport,
    RingTransport,
    SprightChainRuntime,
    SprightMessage,
    SprightParams,
    SproxyTransport,
)
from .xdp_accel import XdpAccelerator


class _SprightBase(Dataplane):
    """Common deployment/request logic for both variants."""

    transport_cls: type[ChainTransport]

    def __init__(
        self,
        node,
        functions,
        chain_name: str = "chain",
        params: Optional[SprightParams] = None,
        metrics_server: Optional[MetricsServer] = None,
        routes: Optional[dict] = None,
        **kwargs,
    ):
        super().__init__(node, functions, **kwargs)
        self.params = params or SprightParams()
        self.chain_name = chain_name
        self.metrics_server = metrics_server
        self.routes = routes or {}
        self.ingress = ProxyComponent(
            node,
            tag=f"{self.plane}/gw/ingress",
            path_cpu=self.params.ingress_path_cpu,
            overhead_cpu=self.params.ingress_overhead_cpu,
        )
        self.runtime: Optional[SprightChainRuntime] = None
        self.runtimes: dict[str, SprightChainRuntime] = {}
        self.xdp: Optional[XdpAccelerator] = None
        # §3.6: protocol adaptation hook on the gateway datapath, with the
        # three stock adapters pre-loaded (more can be loaded at runtime).
        self.adapter_hook = AdapterHookPoint()
        self.adapter_hook.load(HttpAdapter())
        self.adapter_hook.load(MqttAdapter())
        self.adapter_hook.load(CoapAdapter())

    def _setup_transport(self) -> None:
        # One chain runtime (pool, transport, gateway, scavenger) per node;
        # ``runtime`` is the ingress node's.
        for host in self.hosts:
            runtime = SprightChainRuntime(
                host,
                self.chain_name,
                self.plane,
                self.transport_cls,
                self.params,
                self.metrics_server,
            )
            if self.routes:
                runtime.routing.load_routes(self.routes)
            runtime.fabric = self.fabric
            self.runtimes[host.name] = runtime
        self.runtime = self.runtimes[self.node.name]
        for name, deployment in self.deployments.items():
            home = self.runtimes[self.node_of[name].name]
            home.attach_deployment(name, deployment)
            for runtime in self.runtimes.values():
                if runtime is not home:
                    runtime.connect(name, home)
        for runtime in self.runtimes.values():
            if runtime is not self.runtime:
                runtime.upstream = self.runtime
        if self.params.use_xdp_acceleration:
            self.xdp = XdpAccelerator(self.node)
            self.xdp.install_route(
                "10.0.1.2", self.node.nic.ifindex + 1
            )  # gateway's veth-host

    # -- request path ---------------------------------------------------------------
    def handle_request(self, request: Request):
        runtime = self.runtime
        assert runtime is not None, "deploy() must run before handle_request()"
        trace = request.trace
        nbytes = len(request.payload)
        gateway = runtime.gateway

        request.mark("ingress", self.node.env.now)
        # ①: client -> cluster ingress gateway.
        span = request.span_begin("leg:external", "leg", bytes=nbytes)
        yield from external_arrival(self.ingress.ops, nbytes, trace, Stage.STEP_1)
        yield from self.ingress.traverse()
        request.span_end(span)

        # ②: ingress -> SPRIGHT gateway. With XDP/TC acceleration the frame
        # is redirected between veths below the protocol stack (§3.5);
        # otherwise it crosses the full kernel path.
        span = request.span_begin(
            "leg:xdp" if self.xdp is not None else "leg:kernel",
            "leg",
            bytes=nbytes,
            to="gateway",
        )
        if self.xdp is not None:
            yield from self.xdp.forward(
                self.ingress.ops, nbytes, "10.0.1.2", trace, Stage.STEP_2
            )
            # The gateway itself still terminates TCP/HTTP for the client.
            yield gateway.ops.protocol_processing(nbytes, trace, Stage.STEP_2)
            yield gateway.ops.copy(nbytes, trace, Stage.STEP_2)
            yield gateway.ops.context_switch(trace, Stage.STEP_2)
        else:
            yield from leg_kernel(
                gateway.ops, nbytes, trace, Stage.STEP_2, ops_tx=self.ingress.ops
            )
        yield from gateway.traverse()
        request.span_end(span)

        # The gateway consolidates protocol processing: payload lands in the
        # chain's private pool exactly once (the copy already audited in ②).
        handle = runtime.pool.alloc(site=f"{self.plane}/gw/{self.chain_name}")
        runtime.pool.write(handle, request.payload)
        span = request.span_begin("shm:alloc", "shm", bytes=nbytes)
        request.span_end(span)
        message = SprightMessage(
            handle=handle,
            trace=trace,
            request=request,
            done=Event(self.node.env),
            remaining=list(request.request_class.sequence[1:]),
            topic=request.request_class.topic,
            owner=runtime,
        )
        request.mark("gateway", self.node.env.now)
        head = request.request_class.sequence[0]
        try:
            yield from runtime.dispatch(message, head, self.deployments.get(head))

            # DFR: all further hops bypass the gateway; we simply wait for
            # the response descriptor to come back (⑧).
            response = yield message.done
            if message.failed_error is not None:
                # The chain could not deliver (descriptor drop, pod crash,
                # ...); the buffer was already released by the runtime.
                raise message.failed_error

            # ⑨: construct the HTTP response to the external client (costed,
            # outside the audited pipeline like the other planes).
            span = request.span_begin("leg:response", "leg", bytes=len(response))
            yield gateway.ops.commit(GATEWAY_RESPONSE, len(response))
            request.span_end(span)
        except Interrupt:
            # Cancelled by the resilience layer (timeout / hedge raced out).
            # If the chain still holds the message, buffer ownership moves
            # to it — the next worker checkpoint frees it; otherwise (never
            # delivered, or the response already came back) free here.
            message.cancelled = True
            if message.done.triggered or not message.in_chain:
                runtime.release_message(message)
            raise
        runtime.release_message(message)
        request.mark("response", self.node.env.now)
        request.response = response
        return request

    def handle_raw(
        self,
        raw: bytes,
        protocol: str,
        request_class: RequestClass,
    ):
        """Generator: adapt raw protocol bytes at the gateway, then serve.

        The adapter runs *inside* the gateway (no separate adapter pod): the
        payload it extracts goes straight to shared memory, independent of
        the L7 protocol it arrived on. Returns (request, ack_bytes).
        """
        assert self.runtime is not None, "deploy() must run before handle_raw()"
        gateway_ops = self.runtime.gateway.ops
        event, topic, ack = yield from self.adapter_hook.adapt(
            raw, protocol, ops=gateway_ops
        )
        request = Request(
            request_class=request_class,
            payload=event.data,
            created_at=self.node.env.now,
        )
        if topic:
            request.request_class = replace(request_class, topic=topic)
        yield from self.submit(request)
        return request, ack

    def select_pod(self, deployment, exclude=None):
        """SPRIGHT load-balances by residual capacity (§3.2.3): the DFR
        picker of the function's home runtime."""
        name = deployment.spec.name
        home = self.runtimes[self.node_of[name].name]
        return home.routing.pick_instance(name, exclude)

    def teardown(self) -> None:
        for runtime in self.runtimes.values():
            runtime.teardown()


class SSprightDataplane(_SprightBase):
    """S-SPRIGHT: event-driven SPROXY descriptor delivery."""

    plane = "sspright"
    transport_cls = SproxyTransport


class DSprightDataplane(_SprightBase):
    """D-SPRIGHT: DPDK RTE-ring descriptor delivery (poll mode)."""

    plane = "dspright"
    transport_cls = RingTransport
