"""eBPF XDP/TC dataplane acceleration for traffic outside the chain (§3.5),
plus the λ-NIC SmartNIC compute engine that extends it past the host boundary.

An XDP program on the physical NIC redirects raw frames between interfaces
after a FIB lookup, skipping the kernel protocol stack and its iptables
walk. The program is real bytecode
(:func:`repro.kernel.ebpf.programs.xdp_fib_forward`) executed per packet;
the saving the paper reports (1.3x throughput, ~20% latency) comes from
replacing protocol-stack traversals with program executions plus a
redirect.

:class:`NicComputeEngine` goes one step further (PAPERS.md's "λ-NIC:
Interactive Serverless Compute on Programmable SmartNICs"): whole short
functions whose handlers are expressible as match-action stages execute on
the NIC's own wimpy cores at the XDP layer. An offloaded invocation costs
*zero host cores* — only NIC compute time, which is bounded, so heavier
functions (or offloadable ones arriving while every NIC core is busy) fall
back to the host dataplane deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ...audit import RequestTrace, Stage
from ...kernel import FiveTuple
from ...kernel.ebpf import Scratch, XDP_REDIRECT, programs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...kernel import KernelOps
    from ...runtime import FunctionSpec, WorkerNode


@dataclass(frozen=True)
class NicComputeModel:
    """The SmartNIC's compute envelope.

    ``cores`` bounds concurrent offloaded invocations (one match-action
    pipeline instance per core); ``slowdown`` converts host-CPU service
    seconds into NIC-core seconds (wimpy RISC cores vs. the host's 2.2 GHz
    Xeon); ``offload_ceiling`` is the heaviest mean service time the NIC
    will accept — anything above it belongs on the host.
    """

    cores: float = 4.0
    slowdown: float = 2.75
    offload_ceiling: float = 60e-6

    @classmethod
    def from_costs(cls, costs) -> "NicComputeModel":
        return cls(
            cores=costs.nic_compute_cores,
            slowdown=costs.nic_compute_slowdown,
            offload_ceiling=costs.nic_offload_ceiling,
        )


class NicComputeEngine:
    """Executes offload-eligible function handlers on the NIC's cores.

    The offload decision is a pure function of the spec and current NIC
    occupancy — no RNG draw — so for a given seed the set of offloaded
    requests is always the same. Handler behaviors run against a per-function
    NIC-local context (the match-action table state, e.g. the kvstore's
    entries living in NIC SRAM), separate from any host pod's context.
    """

    def __init__(
        self, node: "WorkerNode", model: Optional[NicComputeModel] = None
    ) -> None:
        self.node = node
        self.model = model or NicComputeModel.from_costs(node.config.costs)
        self.in_flight = 0
        self.offloaded = 0
        self.budget_fallbacks = 0
        self.busy_seconds = 0.0
        self._contexts: dict[str, dict] = {}
        node.nic.offload_engine = self

    # -- offload decision ---------------------------------------------------
    def eligible(self, spec: "FunctionSpec") -> bool:
        """Match-action expressible AND light enough for the NIC cores."""
        return spec.nic_offloadable and spec.service_time <= self.model.offload_ceiling

    def try_reserve(self) -> bool:
        """Claim one NIC core slot; False = budget exhausted, use the host.

        Callers must pair a successful reserve with :meth:`release`.
        """
        if self.in_flight + 1 > self.model.cores:
            self.budget_fallbacks += 1
            self.node.counters.incr("nic/budget_fallbacks")
            return False
        self.in_flight += 1
        return True

    def release(self) -> None:
        self.in_flight -= 1

    # -- execution ----------------------------------------------------------
    def execute(self, spec: "FunctionSpec", payload: bytes):
        """Generator: run one handler on a NIC core; returns FunctionResult.

        Costs only NIC time (program execution + the handler scaled by the
        NIC-core slowdown) — nothing is charged to any host CPU tag, which
        is the entire point of the offload.
        """
        costs = self.node.config.costs
        context = self._contexts.setdefault(spec.name, {})
        result = spec.behavior(payload, context)
        service = (
            result.service_time
            if result.service_time is not None
            else self._sample_service_time(spec)
        )
        service += result.extra_service_time
        nic_time = costs.ebpf_run(spec.nic_insns) + service * self.model.slowdown
        self.busy_seconds += nic_time
        self.offloaded += 1
        self.node.counters.incr("nic/offloaded")
        yield self.node.env.timeout(nic_time)
        return result

    def _sample_service_time(self, spec: "FunctionSpec") -> float:
        if spec.service_time <= 0:
            return 0.0
        # A NIC-private RNG stream: offloading must not perturb the host
        # pods' service-time draw sequences (byte-identity of fallbacks).
        return self.node.rng.lognormal_service(
            f"nic/{spec.name}", spec.service_time, spec.service_time_cv
        )

    def nic_cpu_cores(self, duration: float) -> float:
        """Mean NIC cores busy over ``duration`` (the non-host cost)."""
        if duration <= 0:
            return 0.0
        return self.busy_seconds / duration


class XdpAccelerator:
    """Installs and runs the XDP forwarding program on the NIC hook."""

    def __init__(self, node: "WorkerNode") -> None:
        self.node = node
        self.xdp_program = programs.xdp_fib_forward()
        node.nic.xdp_hook.attach(self.xdp_program)
        self.redirects = 0
        self.passes = 0

    def install_route(self, dst_ip: str, ifindex: int) -> None:
        self.node.fib.add_route(dst_ip, ifindex)

    def forward(
        self,
        ops: "KernelOps",
        nbytes: int,
        dst_ip: str,
        trace: Optional[RequestTrace],
        stage: Optional[Stage],
    ):
        """Generator: one accelerated hop (replaces a stack traversal).

        Runs the XDP program against the flow; on a FIB hit the frame is
        redirected interface-to-interface — one interrupt, no protocol
        processing, no iptables, no extra copies.
        """
        costs = self.node.config.costs
        flow = FiveTuple(src_ip="10.0.0.1", dst_ip=dst_ip, src_port=40000, dst_port=80)
        scratch = Scratch(
            map_registry=self.node.map_registry,
            fib=self.node.fib,
            packet_flow=flow,
            now_ns=self.node.clock.now_ns,
        )
        run = self.node.nic.xdp_hook.fire(
            data=programs.encode_packet_ctx(nbytes, self.node.nic.ifindex),
            scratch=scratch,
        )
        yield ops.compute(costs.xdp_fixed + costs.ebpf_run(run.insns_executed))
        if run.verdict == XDP_REDIRECT:
            self.redirects += 1
            # Raw-frame move between interfaces: one softirq, no stack.
            yield ops.interrupt(trace, stage)
            yield ops.compute(costs.fib_lookup)
        else:
            # FIB miss: fall back to the ordinary kernel path.
            self.passes += 1
            yield ops.protocol_processing(nbytes, trace, stage)
            yield ops.interrupt(trace, stage, count=2)
