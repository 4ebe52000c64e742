"""SPROXY socket endpoints: eBPF SK_MSG redirection between pods (§3.2.1).

Each pod's socket carries an SK_MSG hook with the SPROXY programs attached
(metrics, optional filter, redirect). Sending a descriptor executes those
programs for real in the simulated eBPF VM: the instruction count of the
actual run is what gets charged to the CPU — event-driven work, paid only
when a descriptor flows.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from ...kernel.ebpf import (
    ArrayMap,
    HookPoint,
    ProgramType,
    Scratch,
    SK_PASS,
    SockMap,
    programs,
)
from ...kernel.ops import SK_MSG_SEND, SK_MSG_SEND_DROPPED
from ...mem import PacketDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...audit import RequestTrace, Stage
    from ...kernel import KernelOps
    from ...runtime import WorkerNode


class SproxySocket:
    """A pod's socket interface, extended with the SPROXY at startup."""

    def __init__(
        self,
        node: "WorkerNode",
        owner_tag: str,
        instance_id: int,
        sockmap: SockMap,
        metrics_map: ArrayMap,
    ) -> None:
        self.node = node
        self.owner_tag = owner_tag
        self.instance_id = instance_id
        self.sockmap = sockmap
        self.metrics_map = metrics_map
        self.hook = HookPoint(f"sk_msg@{owner_tag}", ProgramType.SK_MSG, node.vm)
        self._scratch = Scratch(node.map_registry)
        self._queue: deque = deque()  # redirected descriptors, for the owner
        self.on_enqueue: Optional[Callable[[], None]] = None
        self.descriptors_sent = 0
        self.descriptors_dropped = 0

    def attach_sproxy(self, filter_fd: Optional[int] = None) -> None:
        """Attach the metric program plus the (filtered) redirect program."""
        self.hook.attach(programs.sproxy_l7_metrics(self.metrics_map.fd))
        if filter_fd is not None:
            self.hook.attach(
                programs.sproxy_filtered_redirect(filter_fd, self.sockmap.fd)
            )
        else:
            self.hook.attach(programs.sproxy_redirect(self.sockmap.fd))

    # Called from *inside the kernel* by bpf_msg_redirect_map.
    def deliver_descriptor(self, item: object) -> None:
        self._queue.append(item)
        self.on_enqueue()

    @property
    def count(self) -> int:
        return len(self._queue)

    def dequeue(self) -> tuple[bool, Optional[object]]:
        """As ``RteRing.dequeue``: (False, None) when empty."""
        return (True, self._queue.popleft()) if self._queue else (False, None)

    def send(
        self,
        descriptor: PacketDescriptor,
        item: object,
        ops: "KernelOps",
        trace: Optional["RequestTrace"],
        stage: Optional["Stage"],
    ):
        """Send a descriptor out of this socket (generator, sender context).

        ``item`` is what the target's receive queue gets (the descriptor plus
        side-band message state). Returns True if redirected, False if the
        SPROXY dropped it (unauthorized or unknown destination).
        """
        ctx = programs.encode_descriptor_ctx(
            descriptor.next_fn,
            descriptor.shm_offset,
            descriptor.length,
            self.instance_id,
            descriptor.generation,
        )
        # The hook holds only the SPROXY programs, whose helpers write
        # nothing but the redirect target, and no run outlives this send:
        # one scratch serves every send, reset here.
        scratch = self._scratch
        scratch.now_ns = self.node.clock.now_ns
        scratch.redirect_endpoint = None
        # send() syscall enters the kernel; the SK_MSG programs intercept.
        run = self.hook.fire(ctx, scratch)
        # The helpers record the redirect target in this run's scratch.
        endpoint = scratch.redirect_endpoint
        if run.verdict != SK_PASS or endpoint is None:
            yield ops.commit(
                SK_MSG_SEND_DROPPED, 0, trace, stage, arg=run.insns_executed
            )
            self.descriptors_dropped += 1
            self.node.counters.incr("spright/descriptors_dropped")
            return False
        yield ops.commit(SK_MSG_SEND, 0, trace, stage, arg=run.insns_executed)
        endpoint.deliver_descriptor(item)
        self.descriptors_sent += 1
        return True
