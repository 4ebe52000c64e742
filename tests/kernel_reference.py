"""Reference kernel charging: the differential-test oracle for recipes.

This is how a kernel charge was simulated before recipes, kept as it was
apart from one fix in the slicing loop (see :func:`reference_record`): an
op-by-op :class:`ReferenceBundle` (the old ``OpBundle``) that counts each
operation and accumulates its cost, the bucket-slicing loop of
``CpuAccounting.record`` and ``CpuSet.execute`` booking a core through a
separate call and ``env.schedule``. :data:`REFERENCE_SHAPES` replays each
recipe as the sequence of bundle calls its call site used to make, so
``KernelOps.commit`` and these functions can be compared charge for charge.
:class:`ReferenceProfiler` is the CPU profiler before its sample keys were
memoized.
"""

from __future__ import annotations

from typing import Optional

from repro.audit import OverheadKind
from repro.obs.profiler import UNTYPED, CpuProfiler
from repro.simcore import Event


def reference_record(accounting, tag: str, start: float, duration: float, op=None) -> None:
    """``CpuAccounting.record`` as a plain slicing loop.

    One change from the loop it was: where ``cursor / width`` rounds down
    although ``cursor`` sits on a bucket boundary, the old loop sliced zero
    seconds forever; this one (like ``record``) moves to the next bucket.
    Every input the old loop finished on gives the same ledger.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0:
        return
    if accounting.profiler is not None:
        accounting.profiler.record(tag, op, duration)
    accounting.total_busy[tag] += duration
    width = accounting.bucket_width
    remaining = duration
    cursor = start
    while remaining > 1e-15:
        index = int(cursor / width)
        bucket_end = (index + 1) * width
        if bucket_end <= cursor:
            index += 1
            bucket_end = (index + 1) * width
        slice_len = min(remaining, bucket_end - cursor)
        accounting._buckets[tag][index] += slice_len
        cursor += slice_len
        remaining -= slice_len


class ReferenceProfiler(CpuProfiler):
    """``CpuProfiler.record`` building each sample key from the split tag,
    one key per component, on every charge."""

    def record(self, tag: str, op, seconds: float) -> None:
        if seconds <= 0:
            return
        self.total += seconds
        frames = tuple(tag.split("/"))
        if op is None or isinstance(op, str):
            self._add(frames, op or UNTYPED, seconds)
        else:
            for name, part in op:
                self._add(frames, name, part)

    def _add(self, frames: tuple, op: str, seconds: float) -> None:
        key = frames + (op,)
        self.samples[key] = self.samples.get(key, 0.0) + seconds


def _book(core, accounting, now: float, duration: float, tag: str, op=None) -> float:
    """The old ``_Core.book``: queue work, record it, return its end."""
    start = now if core.next_free < now else core.next_free
    end = start + duration
    core.next_free = end
    reference_record(accounting, tag, start, duration, op=op)
    return end


def reference_execute(
    cpuset, duration: float, tag: str, op=None, detached: bool = False
) -> Optional[Event]:
    """``CpuSet.execute`` booking through ``_book`` and ``env.schedule``."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    env = cpuset.env
    if duration == 0:
        if detached:
            return None
        done = Event(env)
        done.succeed()
        return done
    shared = cpuset._cores
    if not shared:
        raise RuntimeError("all cores are dedicated; no shared core available")
    now = env.now
    chosen = None
    best = None
    for core in shared:
        free_in = core.next_free - now
        if free_in <= 0:
            chosen = core
            break
        if best is None or free_in < best:
            best = free_in
            chosen = core
    end = _book(chosen, cpuset.accounting, now, duration, tag, op=op)
    if detached:
        return None
    done = Event(env)
    done._ok = True
    done._value = None
    env.schedule(done, delay=end - now)
    return done


class ReferenceBundle:
    """The old ``OpBundle``: count each op as it is added, sum its cost."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.seconds = 0.0
        profiling = ops.cpu.accounting.profiler is not None
        self._components: Optional[list[tuple[str, float]]] = [] if profiling else None

    def _add(self, op: str, seconds: float) -> None:
        self.seconds += seconds
        if self._components is not None:
            self._components.append((op, seconds))

    def copy(self, nbytes: int, trace=None, stage=None) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.COPY)
        self._add("copy", self.ops.costs.copy(nbytes))
        return self

    def context_switch(self, trace=None, stage=None, count: int = 1) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.CONTEXT_SWITCH, count)
        self._add("context_switch", self.ops.costs.context_switch * count)
        return self

    def interrupt(self, trace=None, stage=None, count: int = 1) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.INTERRUPT, count)
        self._add("interrupt", self.ops.costs.interrupt * count)
        return self

    def protocol_processing(
        self, nbytes: int, trace=None, stage=None, count: int = 1
    ) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.PROTOCOL_PROCESSING, count)
        self._add("protocol", self.ops.costs.protocol_processing(nbytes) * count)
        return self

    def serialize(self, nbytes: int, trace=None, stage=None) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.SERIALIZATION)
        self._add("serialize", self.ops.costs.serialize(nbytes))
        return self

    def deserialize(self, nbytes: int, trace=None, stage=None) -> "ReferenceBundle":
        self.ops._count(trace, stage, OverheadKind.DESERIALIZATION)
        self._add("deserialize", self.ops.costs.deserialize(nbytes))
        return self

    def syscall(self) -> "ReferenceBundle":
        self._add("syscall", self.ops.costs.syscall)
        return self

    def compute(self, seconds: float) -> "ReferenceBundle":
        self._add("compute", seconds)
        return self

    def commit(self, tag=None):
        op = self._components if self._components is not None else "bundle"
        return reference_execute(self.ops.cpu, self.seconds, tag or self.ops.tag, op=op)


def _external_arrival(b, nbytes, trace, stage, arg):
    b.interrupt(trace, stage, count=3)
    b.protocol_processing(nbytes, trace, stage)
    b.copy(nbytes, trace, stage)
    b.context_switch(trace, stage)
    b.serialize(nbytes, trace, stage)


def _kernel_tx(b, nbytes, trace, stage, arg):
    b.serialize(nbytes, trace, stage)
    b.copy(nbytes, trace, stage)
    b.protocol_processing(nbytes, trace, stage)
    b.interrupt(trace, stage, count=2)


def _kernel_rx(b, nbytes, trace, stage, arg):
    b.protocol_processing(nbytes, trace, stage)
    b.interrupt(trace, stage, count=2)
    b.copy(nbytes, trace, stage)
    b.context_switch(trace, stage, count=2)
    b.deserialize(nbytes, trace, stage)


def _loopback(b, nbytes, trace, stage, arg):
    b.serialize(nbytes, trace, stage)
    b.copy(nbytes, trace, stage)
    b.protocol_processing(nbytes, trace, stage)
    b.interrupt(trace, stage, count=2)
    b.copy(nbytes, trace, stage)
    b.context_switch(trace, stage, count=2)
    b.deserialize(nbytes, trace, stage)


def _gateway_response(b, nbytes, trace, stage, arg):
    b.serialize(nbytes, trace, stage)
    b.copy(nbytes, trace, stage)
    b.protocol_processing(nbytes, trace, stage)


def _sproxy_receive(b, nbytes, trace, stage, arg):
    b.interrupt(trace, stage)
    b.context_switch(trace, stage)


def _sk_msg_send_dropped(b, nbytes, trace, stage, arg):
    b.syscall()
    b.context_switch(trace, stage)
    b.compute(b.ops.costs.ebpf_run(arg))
    b.interrupt(trace, stage)


def _sk_msg_send(b, nbytes, trace, stage, arg):
    _sk_msg_send_dropped(b, nbytes, trace, stage, arg)
    b.compute(b.ops.costs.sockmap_redirect)


#: Recipe name in ``repro.kernel.ops`` -> the bundle calls its call site made.
REFERENCE_SHAPES = {
    "EXTERNAL_ARRIVAL": _external_arrival,
    "KERNEL_TX": _kernel_tx,
    "KERNEL_RX": _kernel_rx,
    "LOOPBACK": _loopback,
    "GATEWAY_RESPONSE": _gateway_response,
    "SPROXY_RECEIVE": _sproxy_receive,
    "SK_MSG_SEND_DROPPED": _sk_msg_send_dropped,
    "SK_MSG_SEND": _sk_msg_send,
}


def reference_charge(ops, name: str, nbytes: int, trace, stage, arg=None):
    """One charge of recipe ``name`` the old way; returns its event."""
    bundle = ReferenceBundle(ops)
    REFERENCE_SHAPES[name](bundle, nbytes, trace, stage, arg)
    return bundle.commit()
