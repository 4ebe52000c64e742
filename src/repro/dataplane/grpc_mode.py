"""The 'server-full' gRPC direct-call baseline (§4.2.1).

Functions run as plain pods without sidecars and call each other directly
with gRPC over the kernel stack: no broker, no ingress mediation within the
chain — but every hop still pays serialization and two protocol-stack
traversals, which is why gRPC beats Knative yet burns 91% of the node's CPU
under the boutique workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..audit import Stage
from ..protocols import encode_bytes_field, encode_frame
from ..protocols.http2 import HpackCodec, encode_grpc_request
from .base import Dataplane, Request
from .legs import chain_step_stage, external_arrival, leg_kernel


@dataclass
class GrpcParams:
    """gRPC-mode knobs: no proxies; only the per-hop codec work matters."""

    use_http2_framing: bool = True  # real HEADERS+DATA frames per call


class GrpcDataplane(Dataplane):
    """Direct function-to-function gRPC calls."""

    plane = "grpc"

    def __init__(self, node, functions, params: Optional[GrpcParams] = None, **kwargs):
        super().__init__(node, functions, **kwargs)
        self.params = params or GrpcParams()
        self.ops = node.ops(f"{self.plane}/stack")
        # Stack work is charged to the receiving function's kernel-side tag
        # on the node it runs on.
        self._stack_ops = {
            name: host.ops(f"{self.plane}/stack/{name}")
            for name, host in self.node_of.items()
        }
        # Long-lived HTTP/2 connections: one HPACK context per destination,
        # so repeated calls compress their headers like real gRPC channels.
        self._channels: dict[str, tuple[str, HpackCodec]] = {}
        self._streams: dict[str, int] = {}

    def encode_call(self, function_name: str, payload: bytes) -> bytes:
        """The real wire bytes: protobuf in a gRPC frame in HTTP/2 frames."""
        grpc_frame = encode_frame(encode_bytes_field(1, payload))
        if not self.params.use_http2_framing:
            return grpc_frame
        channel = self._channels.get(function_name)
        if channel is None:
            service = f"hipstershop.{function_name.title().replace('-', '')}Service"
            channel = self._channels[function_name] = (f"/{service}/Invoke", HpackCodec())
        path, codec = channel
        stream_id = self._streams.get(function_name, 1)
        self._streams[function_name] = stream_id + 2  # client streams are odd
        return encode_grpc_request(codec, path, grpc_frame, stream_id=stream_id)

    def handle_request(self, request: Request):
        trace = request.trace
        payload = request.payload

        # External arrival lands directly on the head function's pod
        # (the 'direct call' mode: no broker, but the kernel path remains).
        head = request.request_class.sequence[0]
        wire = self.encode_call(head, payload)
        span = request.span_begin("leg:external", "leg", bytes=len(wire))
        yield from external_arrival(
            self._stack_ops[head], len(wire), trace, Stage.STEP_1
        )
        request.span_end(span)

        event_index = 0
        previous: Optional[str] = None
        for function_name in request.request_class.sequence:
            if previous is not None:
                # Direct pod-to-pod gRPC call over the kernel, or across the
                # fabric when the callee runs on another node.
                wire = self.encode_call(function_name, payload)
                stage = chain_step_stage(event_index)
                event_index += 1
                span = request.span_begin(
                    "leg:call", "leg", bytes=len(wire), fn=function_name
                )
                if self.node_of[previous] is self.node_of[function_name]:
                    yield from leg_kernel(
                        self._stack_ops[function_name], len(wire), trace, stage
                    )
                else:
                    payload = yield from self._cross(previous, function_name, payload, request)
                request.span_end(span)
            pod = yield from self.acquire_pod(function_name, request.claimed_pods)
            request.mark(f"deliver:{function_name}", self.node.env.now)
            result = yield from pod.serve(payload)
            request.mark(f"served:{function_name}", self.node.env.now)
            payload = result.payload
            previous = function_name

        # Response to the client from the head function's pod.
        if self.node_of[previous] is not self.node_of[head]:
            payload = yield from self._cross(previous, head, payload, request)
        response = payload[: request.request_class.response_size] or payload
        span = request.span_begin("leg:response", "leg", bytes=len(response))
        yield from leg_kernel(self.ops, len(response), trace, None)
        request.span_end(span)
        request.mark("response", self.node.env.now)
        request.response = response
        return request

    def _cross(self, sender: str, receiver: str, payload: bytes, request: Request):
        """Generator: one call between functions on different nodes."""
        payload = yield from self.fabric.transfer(
            self.node_of[sender],
            self.node_of[receiver],
            payload,
            ops_tx=self._stack_ops[sender],
            ops_rx=self._stack_ops[receiver],
            request=request,
        )
        return payload
