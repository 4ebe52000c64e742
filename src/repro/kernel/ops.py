"""Kernel operation vocabulary: one call = one audited, costed operation.

Components never hand-count overheads and never hand-charge CPU; they invoke
these operations, which atomically (a) increment the request's audit trace,
(b) charge the busy time to the component's CPU tag, and (c) impose the
latency on the caller (the returned event fires when the operation is done).
Keeping counting and costing in one place guarantees Tables 1/2 and the
performance results can never drift apart.

Observability (repro.obs) taps both halves of that atomicity: every charge
carries an operation name for the CPU profiler, and every audited count is
mirrored — under exactly the same trace-and-stage condition — into the
node's ``ops/<plane>/<kind>`` registry counters, which is what lets the
OpenMetrics export reconcile with the audit tables exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..audit import OverheadKind, RequestTrace, Stage
from .costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import CpuSet, Environment, Event


class KernelOps:
    """Audited kernel operations executed on behalf of one component."""

    def __init__(
        self,
        env: "Environment",
        cpu: "CpuSet",
        costs: CostModel,
        tag: str,
        faults=None,
        obs=None,
    ) -> None:
        self.env = env
        self.cpu = cpu
        self.costs = costs
        self.tag = tag
        # Duck-typed FaultInjector (or None): kernel transfer legs consult
        # it so Knative/gRPC paths — which move bytes as costed bundles,
        # not frames — see the same loss process as frame-level devices.
        self.faults = faults
        # Observability bundle (or None). The reference is only consulted
        # when detail is on, captured once here so the disabled path costs
        # a single attribute read per count.
        self.obs = obs if (obs is not None and obs.detailed) else None

    # -- internals ---------------------------------------------------------
    def _charge(self, seconds: float, tag: Optional[str] = None, op=None) -> "Event":
        return self.cpu.execute(seconds, tag or self.tag, op=op)

    def _count(
        self,
        trace: Optional[RequestTrace],
        stage: Optional[Stage],
        kind: OverheadKind,
        amount: int = 1,
    ) -> None:
        if trace is not None and stage is not None:
            trace.count(stage, kind, amount)
            if self.obs is not None:
                self.obs.count_kernel_op(self.tag, kind, amount)

    # -- audited operations ---------------------------------------------------
    def copy(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        """One data copy of ``nbytes`` (user<->kernel or kernel<->kernel)."""
        self._count(trace, stage, OverheadKind.COPY)
        return self._charge(self.costs.copy(nbytes), tag, op="copy")

    def context_switch(
        self,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.CONTEXT_SWITCH)
        return self._charge(self.costs.context_switch, tag, op="context_switch")

    def interrupt(
        self,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        count: int = 1,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.INTERRUPT, count)
        return self._charge(self.costs.interrupt * count, tag, op="interrupt")

    def protocol_processing(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        """One full protocol-stack traversal (TCP/IP + checksum + iptables)."""
        self._count(trace, stage, OverheadKind.PROTOCOL_PROCESSING)
        return self._charge(self.costs.protocol_processing(nbytes), tag, op="protocol")

    def serialize(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.SERIALIZATION)
        return self._charge(self.costs.serialize(nbytes), tag, op="serialize")

    def deserialize(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.DESERIALIZATION)
        return self._charge(self.costs.deserialize(nbytes), tag, op="deserialize")

    # -- uncounted mechanics (cost only) ---------------------------------------
    def syscall(self, tag: Optional[str] = None) -> "Event":
        return self._charge(self.costs.syscall, tag, op="syscall")

    def veth_hop(self, tag: Optional[str] = None) -> "Event":
        return self._charge(self.costs.veth_traversal, tag, op="veth")

    def nic_dma(self, tag: Optional[str] = None) -> "Event":
        return self._charge(self.costs.nic_dma, tag, op="nic_dma")

    def compute(self, seconds: float, tag: Optional[str] = None) -> "Event":
        """Application-level computation (function service time)."""
        return self._charge(seconds, tag, op="compute")

    def background(self, seconds: float, tag: Optional[str] = None) -> None:
        """CPU charged off the critical path (metrics, GC, bookkeeping)."""
        self.cpu.execute(seconds, tag or self.tag, op="background", detached=True)

    def bundle(self) -> "OpBundle":
        """Accumulate several audited ops into one CPU charge.

        Counting still happens per operation (audit fidelity); only the CPU
        charge is coalesced, which keeps the event count per message hop
        small enough to simulate hundreds of thousands of requests.
        """
        return OpBundle(self)

    # -- composite operations used by multiple dataplanes ---------------------
    def socket_send(
        self,
        nbytes: int,
        trace: Optional[RequestTrace],
        stage: Optional[Stage],
        tag: Optional[str] = None,
    ):
        """``send()`` path: syscall + copy into the kernel + stack traversal.

        Generator: ``yield from ops.socket_send(...)`` from a process.
        """
        yield self.syscall(tag)
        yield self.copy(nbytes, trace, stage, tag)
        yield self.protocol_processing(nbytes, trace, stage, tag)

    def socket_recv(
        self,
        nbytes: int,
        trace: Optional[RequestTrace],
        stage: Optional[Stage],
        tag: Optional[str] = None,
    ):
        """``recv()`` path: interrupt + stack + copy to user + wakeup."""
        yield self.interrupt(trace, stage, tag=tag)
        yield self.protocol_processing(nbytes, trace, stage, tag)
        yield self.copy(nbytes, trace, stage, tag)
        yield self.context_switch(trace, stage, tag)


class OpBundle:
    """Accumulates audited operations, committing one combined CPU charge.

    When the CPU profiler is on, the bundle also keeps its per-operation
    breakdown so the coalesced charge still profiles as its constituents;
    with the profiler off, no breakdown is kept (zero overhead).
    """

    def __init__(self, ops: KernelOps) -> None:
        self.ops = ops
        self.seconds = 0.0
        profiling = ops.cpu.accounting.profiler is not None
        self._components: Optional[list[tuple[str, float]]] = [] if profiling else None

    def _add(self, op: str, seconds: float) -> None:
        self.seconds += seconds
        if self._components is not None:
            self._components.append((op, seconds))

    # Each method mirrors a KernelOps operation: count now, accumulate cost.
    def copy(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.COPY)
        self._add("copy", self.ops.costs.copy(nbytes))
        return self

    def context_switch(self, trace=None, stage=None, count: int = 1) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.CONTEXT_SWITCH, count)
        self._add("context_switch", self.ops.costs.context_switch * count)
        return self

    def interrupt(self, trace=None, stage=None, count: int = 1) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.INTERRUPT, count)
        self._add("interrupt", self.ops.costs.interrupt * count)
        return self

    def protocol_processing(self, nbytes: int, trace=None, stage=None, count: int = 1) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.PROTOCOL_PROCESSING, count)
        self._add("protocol", self.ops.costs.protocol_processing(nbytes) * count)
        return self

    def serialize(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.SERIALIZATION)
        self._add("serialize", self.ops.costs.serialize(nbytes))
        return self

    def deserialize(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.DESERIALIZATION)
        self._add("deserialize", self.ops.costs.deserialize(nbytes))
        return self

    def syscall(self) -> "OpBundle":
        self._add("syscall", self.ops.costs.syscall)
        return self

    def compute(self, seconds: float) -> "OpBundle":
        self._add("compute", seconds)
        return self

    def commit(self, tag=None):
        """One CPU-charge event covering everything accumulated."""
        op = self._components if self._components is not None else "bundle"
        return self.ops._charge(self.seconds, tag, op=op)
