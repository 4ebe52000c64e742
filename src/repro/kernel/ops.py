"""Kernel operation vocabulary: one call = one audited, costed operation.

Components never hand-count overheads and never hand-charge CPU; they invoke
these operations, which atomically (a) increment the request's audit trace,
(b) charge the busy time to the component's CPU tag, and (c) impose the
latency on the caller (the returned event fires when the operation is done).
Keeping counting and costing in one place guarantees Tables 1/2 and the
performance results can never drift apart. A message hop's kernel work is a
recipe (a fixed sequence of audited steps) that :meth:`KernelOps.commit`
counts step by step and charges as one CPU event, priced once per size.

Observability (repro.obs) taps both halves of that atomicity: every charge
carries an operation name for the CPU profiler, and every audited count is
mirrored — under exactly the same trace-and-stage condition — into the
node's ``ops/<plane>/<kind>`` registry counters, which is what lets the
OpenMetrics export reconcile with the audit tables exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..audit import OverheadKind, RequestTrace, Stage
from .costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import CpuSet, Environment, Event

# -- recipes -------------------------------------------------------------------
# A recipe is the fixed shape of one coalesced kernel charge: a tuple of
# steps ``(profiler op name, audited OverheadKind or None, count, cost)``,
# where ``cost(costs, nbytes, arg)`` is the seconds of one unit of the step
# for a message of ``nbytes`` (``arg`` is a run-time argument such as an
# eBPF instruction count). :meth:`KernelOps.commit` charges one.


def _copy(costs: CostModel, nbytes: int, arg) -> float:
    return costs.copy(nbytes)


def _context_switch(costs: CostModel, nbytes: int, arg) -> float:
    return costs.context_switch


def _interrupt(costs: CostModel, nbytes: int, arg) -> float:
    return costs.interrupt


def _protocol(costs: CostModel, nbytes: int, arg) -> float:
    return costs.protocol_processing(nbytes)


def _serialize(costs: CostModel, nbytes: int, arg) -> float:
    return costs.serialize(nbytes)


def _deserialize(costs: CostModel, nbytes: int, arg) -> float:
    return costs.deserialize(nbytes)


def _syscall(costs: CostModel, nbytes: int, arg) -> float:
    return costs.syscall


def _ebpf_run(costs: CostModel, nbytes: int, arg) -> float:
    return costs.ebpf_run(arg)


def _sockmap_redirect(costs: CostModel, nbytes: int, arg) -> float:
    return costs.sockmap_redirect


_COPY = ("copy", OverheadKind.COPY, 1, _copy)
_SERIALIZE = ("serialize", OverheadKind.SERIALIZATION, 1, _serialize)
_DESERIALIZE = ("deserialize", OverheadKind.DESERIALIZATION, 1, _deserialize)
_PROTOCOL = ("protocol", OverheadKind.PROTOCOL_PROCESSING, 1, _protocol)


def _interrupts(count: int) -> tuple:
    return ("interrupt", OverheadKind.INTERRUPT, count, _interrupt)


def _context_switches(count: int) -> tuple:
    return ("context_switch", OverheadKind.CONTEXT_SWITCH, count, _context_switch)


#: Step ①: NIC hardirq + softirq + wakeup, rx stack, kernel->user copy,
#: the switch into the gateway, and the gateway re-emitting the request.
EXTERNAL_ARRIVAL = (_interrupts(3), _PROTOCOL, _COPY, _context_switches(1), _SERIALIZE)
#: Sender half of a veth/stack crossing: marshal, copy in, tx stack.
KERNEL_TX = (_SERIALIZE, _COPY, _PROTOCOL, _interrupts(2))
#: Receiver half: rx stack, copy out, wakeups, unmarshal.
KERNEL_RX = (_PROTOCOL, _interrupts(2), _COPY, _context_switches(2), _DESERIALIZE)
#: Sidecar <-> user container over loopback within one pod.
LOOPBACK = (
    _SERIALIZE,
    _COPY,
    _PROTOCOL,
    _interrupts(2),
    _COPY,
    _context_switches(2),
    _DESERIALIZE,
)
#: S-SPRIGHT gateway building the HTTP response to the external client.
GATEWAY_RESPONSE = (_SERIALIZE, _COPY, _PROTOCOL)
#: SPROXY receive: data-ready notification, then waking the function thread.
SPROXY_RECEIVE = (_interrupts(1), _context_switches(1))
#: SK_MSG send whose program dropped the descriptor: the ``send()``
#: syscall, the switch into the kernel, the program's run (``arg`` is its
#: executed instruction count) and the sender-side completion softirq.
SK_MSG_SEND_DROPPED = (
    ("syscall", None, 1, _syscall),
    _context_switches(1),
    ("compute", None, 1, _ebpf_run),
    _interrupts(1),
)
#: SK_MSG send that redirected the descriptor through the sockmap.
SK_MSG_SEND = SK_MSG_SEND_DROPPED + (("compute", None, 1, _sockmap_redirect),)


def price(recipe: Sequence[tuple], costs: CostModel, nbytes: int, arg) -> tuple:
    """``(seconds, ((op, seconds), ...))`` of one charge of ``recipe``.

    The total is summed from ``0.0`` as ``cost * count`` per step in recipe
    order, the same float operations an op-by-op accumulation makes, so the
    result is bit-identical to it.
    """
    seconds = 0.0
    components = []
    for op, _kind, count, cost in recipe:
        part = cost(costs, nbytes, arg) * count
        seconds += part
        components.append((op, part))
    return seconds, tuple(components)


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
        #: The component's CPU booking handle, resolved once.
        self.charge = cpu.charge(tag)
        # Duck-typed FaultInjector (or None): kernel transfer legs consult
        # it so Knative/gRPC paths — which move bytes as costed bundles,
        # not frames — see the same loss process as frame-level devices.
        self.faults = faults
        # Observability bundle (or None). The reference is only consulted
        # when detail is on, captured once here so the disabled path costs
        # a single attribute read per count.
        self.obs = obs if (obs is not None and obs.detailed) else None
        # commit()'s prices: (id(recipe), nbytes, arg) -> (recipe, seconds,
        # components, audited steps). Holding the recipe keeps its id from
        # being reused while the entry lives.
        self._priced: dict = {}

    # -- internals ---------------------------------------------------------
    def _book(self, seconds: float, tag: Optional[str] = None, op=None) -> "Event":
        charge = self.cpu.charge(tag) if tag else self.charge
        return charge.book(seconds, op)

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
        return self._book(self.costs.copy(nbytes), tag, op="copy")

    def context_switch(
        self,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.CONTEXT_SWITCH)
        return self._book(self.costs.context_switch, tag, op="context_switch")

    def interrupt(
        self,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        count: int = 1,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.INTERRUPT, count)
        return self._book(self.costs.interrupt * count, tag, op="interrupt")

    def protocol_processing(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        """One full protocol-stack traversal (TCP/IP + checksum + iptables)."""
        self._count(trace, stage, OverheadKind.PROTOCOL_PROCESSING)
        return self._book(self.costs.protocol_processing(nbytes), tag, op="protocol")

    def serialize(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.SERIALIZATION)
        return self._book(self.costs.serialize(nbytes), tag, op="serialize")

    def deserialize(
        self,
        nbytes: int,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
    ) -> "Event":
        self._count(trace, stage, OverheadKind.DESERIALIZATION)
        return self._book(self.costs.deserialize(nbytes), tag, op="deserialize")

    # -- uncounted mechanics (cost only) ---------------------------------------
    def syscall(self, tag: Optional[str] = None) -> "Event":
        return self._book(self.costs.syscall, tag, op="syscall")

    def nic_dma(self, tag: Optional[str] = None) -> "Event":
        return self._book(self.costs.nic_dma, tag, op="nic_dma")

    def compute(self, seconds: float, tag: Optional[str] = None) -> "Event":
        """Application-level computation (function service time)."""
        return self._book(seconds, tag, op="compute")

    def background(self, seconds: float, tag: Optional[str] = None) -> None:
        """CPU charged off the critical path (metrics, GC, bookkeeping)."""
        charge = self.cpu.charge(tag) if tag else self.charge
        charge.book(seconds, "background", detached=True)

    def bundle(self) -> "OpBundle":
        """Accumulate several audited ops into one CPU charge.

        Counting still happens per operation (audit fidelity); only the CPU
        charge is coalesced, which keeps the event count per message hop
        small enough to simulate hundreds of thousands of requests.
        """
        return OpBundle(self)

    def commit(
        self,
        recipe: tuple,
        nbytes: int = 0,
        trace: Optional[RequestTrace] = None,
        stage: Optional[Stage] = None,
        tag: Optional[str] = None,
        arg=None,
    ) -> "Event":
        """Charge one ``recipe`` for a message of ``nbytes``: one CPU event.

        Each audited step is counted, in recipe order, when both ``trace``
        and ``stage`` are given. The seconds and the profiler's per-op
        components are priced once per ``(recipe, nbytes, arg)`` and reused.
        """
        key = (id(recipe), nbytes, arg)
        priced = self._priced.get(key)
        if priced is None:
            seconds, components = price(recipe, self.costs, nbytes, arg)
            audited = tuple((kind, count) for _, kind, count, _ in recipe if kind is not None)
            priced = self._priced[key] = (recipe, seconds, components, audited)
        if trace is not None and stage is not None:
            for kind, count in priced[3]:
                self._count(trace, stage, kind, count)
        charge = self.cpu.charge(tag) if tag else self.charge
        op = priced[2] if charge.accounting.profiler is not None else "bundle"
        return charge.book(priced[1], op)


class OpBundle:
    """Accumulates audited operations, committing one combined CPU charge.

    Each operation is counted as it is added; its cost is deferred to
    :meth:`commit`, which prices the steps in the order they were added with
    the same :func:`price` a recipe goes through. For charges of a fixed
    shape, :meth:`KernelOps.commit` with a recipe does the same work in one
    call.
    """

    def __init__(self, ops: KernelOps) -> None:
        self.ops = ops
        self._steps: list = []

    # Each method mirrors a KernelOps operation: count now, cost at commit.
    # A sized step binds its own byte count into its cost.
    def copy(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.COPY)
        self._steps.append(("copy", None, 1, lambda c, _n, a: _copy(c, nbytes, a)))
        return self

    def context_switch(self, trace=None, stage=None, count: int = 1) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.CONTEXT_SWITCH, count)
        self._steps.append(("context_switch", None, count, _context_switch))
        return self

    def interrupt(self, trace=None, stage=None, count: int = 1) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.INTERRUPT, count)
        self._steps.append(("interrupt", None, count, _interrupt))
        return self

    def protocol_processing(
        self, nbytes: int, trace=None, stage=None, count: int = 1
    ) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.PROTOCOL_PROCESSING, count)
        self._steps.append(("protocol", None, count, lambda c, _n, a: _protocol(c, nbytes, a)))
        return self

    def serialize(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.SERIALIZATION)
        self._steps.append(("serialize", None, 1, lambda c, _n, a: _serialize(c, nbytes, a)))
        return self

    def deserialize(self, nbytes: int, trace=None, stage=None) -> "OpBundle":
        self.ops._count(trace, stage, OverheadKind.DESERIALIZATION)
        self._steps.append(("deserialize", None, 1, lambda c, _n, a: _deserialize(c, nbytes, a)))
        return self

    def syscall(self) -> "OpBundle":
        self._steps.append(("syscall", None, 1, _syscall))
        return self

    def compute(self, seconds: float) -> "OpBundle":
        self._steps.append(("compute", None, 1, lambda c, _n, a: seconds))
        return self

    def commit(self, tag=None):
        """One CPU-charge event covering everything accumulated."""
        ops = self.ops
        seconds, components = price(self._steps, ops.costs, 0, None)
        op = components if ops.cpu.accounting.profiler is not None else "bundle"
        return ops._book(seconds, tag, op=op)
