"""λ-NIC: the fifth dataplane — serverless functions on the SmartNIC itself.

PAPERS.md's "λ-NIC: Interactive Serverless Compute on Programmable
SmartNICs" observes that most serverless functions are short and small
enough to run entirely on a programmable NIC's cores. This plane extends
S-SPRIGHT with one :class:`~.xdp_accel.NicComputeEngine` per node, and
offload is decided per function (match-action expressible + under the
NIC's service-time ceiling):

* When *every* function in a request's call sequence is eligible and every
  engine the request touches can reserve a core up front, the request never
  crosses the PCIe boundary — rx DMA, XDP parse, the handlers back-to-back
  on NIC cores (NIC-to-NIC across the fabric between nodes), tx DMA. Zero
  copies, zero context switches, zero interrupts, and — the headline —
  **zero host-core cost**.
* Otherwise the request takes the ordinary S-SPRIGHT host chain, where an
  eligible function still runs on its node's engine, one more hop kind
  with a PCIe DMA in and out; without a free NIC core its host pods serve
  it. The NIC is an accelerator, not a cliff.
"""

from __future__ import annotations

from typing import Optional

from ..base import Request
from .plane import SSprightDataplane
from .xdp_accel import NicComputeEngine, NicComputeModel


class LambdaNicDataplane(SSprightDataplane):
    """S-SPRIGHT + SmartNIC offload of whole short functions."""

    plane = "lambdanic"

    def __init__(self, *args, nic_model: Optional[NicComputeModel] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._nic_model = nic_model
        #: node name -> that node's NIC engine
        self.engines: dict[str, NicComputeEngine] = {}
        #: function name -> its node's engine, or None when not eligible
        self._engine_of: dict[str, Optional[NicComputeEngine]] = {}

    def _setup_transport(self) -> None:
        super()._setup_transport()
        for host in self.hosts:
            engine = getattr(host.nic, "offload_engine", None)
            self.engines[host.name] = engine or NicComputeEngine(host, self._nic_model)
        for name, spec in self.functions.items():
            host = self.node_of[name]
            engine = self.engines[host.name]
            eligible = engine.eligible(spec)
            self._engine_of[name] = engine if eligible else None
            if eligible:
                self.runtimes[host.name].offload(name, engine, spec)

    # -- request path -------------------------------------------------------
    def handle_request(self, request: Request):
        engines = self._reserve_engines(request.request_class.sequence)
        if engines is None:
            result = yield from super().handle_request(request)
            return result
        try:
            yield from self._serve_at_nic(request)
        finally:
            for engine in engines:
                engine.release()
        return request

    def _reserve_engines(self, sequence) -> Optional[list]:
        """One core on every engine the sequence touches, or None (host chain)."""
        engines: list[NicComputeEngine] = []
        for name in sequence:
            engine = self._engine_of[name]
            if engine is None:
                break
            if engine in engines:
                continue
            if not engine.try_reserve():
                engine.node.counters.incr(f"{self.plane}/host_fallbacks")
                break
            engines.append(engine)
        else:
            return engines
        for engine in engines:
            engine.release()
        return None

    def _serve_at_nic(self, request: Request):
        """Generator: the whole call sequence on NIC cores (no host CPU)."""
        env = self.node.env
        costs = self.node.config.costs
        sequence = request.request_class.sequence
        request.mark("nic_ingress", env.now)
        span = request.span_begin(
            "nic:offload", "nic", fns=len(sequence), bytes=len(request.payload)
        )
        # Frame lands in NIC SRAM: rx DMA + XDP parse/steer.
        yield env.timeout(costs.nic_dma + costs.xdp_fixed)
        payload = request.payload
        at = self.node
        for name in sequence:
            if self.node_of[name] is not at:
                payload = yield from self._nic_to_nic(at, self.node_of[name], payload, request)
                at = self.node_of[name]
            result = yield from self._engine_of[name].execute(self.functions[name], payload)
            payload = result.payload
        if at is not self.node:
            payload = yield from self._nic_to_nic(at, self.node, payload, request)
        # Response leaves straight from the NIC: tx DMA only.
        yield env.timeout(costs.nic_dma)
        request.span_end(span, offloaded=True)
        self.node.counters.incr(f"{self.plane}/offloaded")
        request.response = payload
        request.mark("nic_response", env.now)

    def _nic_to_nic(self, src, dst, payload: bytes, request: Request):
        """Generator: SmartNIC to SmartNIC across the fabric, no host work."""
        payload = yield from self.fabric.transfer(
            src, dst, payload, ops_tx=None, ops_rx=None, request=request,
            nic_sourced=True, nic_terminated=True,
        )
        return payload
