"""The Knative baseline dataplane (Fig. 1's pipeline, audited in Table 1).

Topology: cluster ingress gateway -> broker/front-end -> function pods, each
pod fronted by a queue-proxy sidecar. Every within-chain transfer goes back
through the broker/front-end over the kernel, which is exactly the linear
overhead growth the paper criticizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..audit import Stage
from ..runtime import FunctionSpec
from .base import Dataplane, ProxyComponent, Request
from .legs import chain_step_stage, external_arrival, leg_kernel, leg_localhost


@dataclass
class KnativeParams:
    """Calibration knobs for the Knative components.

    Defaults model the paper's measurements: queue proxies are the dominant
    CPU consumer (70% of Knative's CPU in §3.2.2), the Istio/Envoy-grade
    mediator is heavyweight, and the broker/front-end may be pinned to two
    cores for the Fig 5 fair comparison.
    """

    ingress_pinned_cores: Optional[int] = None
    ingress_path_cpu: float = 20e-6
    ingress_overhead_cpu: float = 150e-6
    broker_pinned_cores: Optional[int] = 2   # NGINX front-end, 2 cores (Fig 5)
    broker_path_cpu: float = 20e-6
    broker_overhead_cpu: float = 60e-6
    qp_path_cpu: float = 25e-6               # queue proxy on the data path
    qp_overhead_cpu: float = 500e-6          # queue proxy bookkeeping/metrics
    mediate_every_hop: bool = True           # traffic always re-crosses broker
    broker_queue_limit: Optional[int] = None  # shed (503) beyond this backlog


class KnativeDataplane(Dataplane):
    """Ingress + broker/front-end + queue-proxy sidecars over the kernel."""

    plane = "kn"

    def __init__(self, node, functions, params: Optional[KnativeParams] = None, **kwargs):
        super().__init__(node, functions, **kwargs)
        self.params = params or KnativeParams()
        self.ingress = ProxyComponent(
            node,
            tag=f"{self.plane}/gw/ingress",
            pinned_cores=self.params.ingress_pinned_cores,
            path_cpu=self.params.ingress_path_cpu,
            overhead_cpu=self.params.ingress_overhead_cpu,
        )
        self.broker = ProxyComponent(
            node,
            tag=f"{self.plane}/gw/broker",
            pinned_cores=self.params.broker_pinned_cores,
            path_cpu=self.params.broker_path_cpu,
            overhead_cpu=self.params.broker_overhead_cpu,
            queue_limit=self.params.broker_queue_limit,
        )
        # One queue proxy per function (its pods share the sidecar model).
        self.queue_proxies: dict[str, ProxyComponent] = {}

    def _setup_transport(self) -> None:
        # Queue proxies sit with their function; the broker stays on the
        # ingress node, so a function placed elsewhere is reached (and
        # answers) across the fabric.
        for name in self.functions:
            self.queue_proxies[name] = ProxyComponent(
                self.node_of[name],
                tag=f"{self.plane}/qp/{name}",
                path_cpu=self.params.qp_path_cpu,
                overhead_cpu=self.params.qp_overhead_cpu,
            )

    # -- request path ------------------------------------------------------------
    def handle_request(self, request: Request):
        trace = request.trace
        nbytes = len(request.payload)

        request.mark("ingress", self.node.env.now)
        # ①: client -> ingress gateway (through the NIC and kernel stack).
        span = request.span_begin("leg:external", "leg", bytes=nbytes)
        yield from external_arrival(self.ingress.ops, nbytes, trace, Stage.STEP_1)
        yield from self.ingress.traverse()
        request.span_end(span)

        # ②: ingress -> broker/front-end; the request is queued as an event.
        span = request.span_begin("leg:kernel", "leg", bytes=nbytes, to="broker")
        yield from leg_kernel(
            self.broker.ops, nbytes, trace, Stage.STEP_2, ops_tx=self.ingress.ops
        )
        yield from self.broker.traverse(admission=True)
        request.span_end(span)
        request.mark("broker", self.node.env.now)

        # Within the chain: each invocation is delivered broker -> pod
        # (through the pod's queue proxy), processed, and its response
        # travels pod -> broker where it is registered as the next event.
        payload = request.payload
        event_index = 0
        for function_name in request.request_class.sequence:
            queue_proxy = self.queue_proxies[function_name]
            remote = queue_proxy.node is not self.node

            # Delivery: broker -> queue proxy -> user container.
            stage = chain_step_stage(event_index)
            event_index += 1
            span = request.span_begin(
                "leg:deliver", "leg", bytes=len(payload), fn=function_name
            )
            if remote:
                payload = yield from self.fabric.transfer(
                    self.node, queue_proxy.node, payload,
                    ops_tx=self.broker.ops, ops_rx=queue_proxy.ops, request=request,
                )
            else:
                yield from leg_kernel(
                    queue_proxy.ops, len(payload), trace, stage, ops_tx=self.broker.ops
                )
            yield from queue_proxy.traverse()
            yield from leg_localhost(queue_proxy.ops, len(payload), trace, stage)
            request.span_end(span)

            pod = yield from self.acquire_pod(function_name, request.claimed_pods)
            request.mark(f"deliver:{function_name}", self.node.env.now)
            result = yield from pod.serve(payload)
            request.mark(f"served:{function_name}", self.node.env.now)
            payload = result.payload

            # Response: user container -> queue proxy -> broker.
            stage = chain_step_stage(event_index)
            event_index += 1
            span = request.span_begin(
                "leg:return", "leg", bytes=len(payload), fn=function_name
            )
            yield from leg_localhost(queue_proxy.ops, len(payload), trace, stage)
            yield from queue_proxy.traverse()
            if remote:
                payload = yield from self.fabric.transfer(
                    queue_proxy.node, self.node, payload,
                    ops_tx=queue_proxy.ops, ops_rx=self.broker.ops, request=request,
                )
            else:
                yield from leg_kernel(
                    self.broker.ops, len(payload), trace, stage, ops_tx=queue_proxy.ops
                )
            if self.params.mediate_every_hop:
                yield from self.broker.traverse()
            request.span_end(span)

        # Response to the client (outside the audited pipeline, still costed).
        response = payload[: request.request_class.response_size] or payload
        span = request.span_begin("leg:response", "leg", bytes=len(response))
        yield from leg_kernel(self.ingress.ops, len(response), trace, None)
        yield from self.ingress.traverse()
        request.span_end(span)
        request.mark("response", self.node.env.now)
        request.response = response
        return request


def nginx_function(name: str = "nginx", service_time: float = 40e-6) -> FunctionSpec:
    """The NGINX HTTP server function used in the §2 and §3.2.2 benchmarks."""
    return FunctionSpec(
        name=name,
        service_time=service_time,
        service_time_cv=0.2,
        concurrency=32,
        runtime_overhead_bg=60e-6,
    )
