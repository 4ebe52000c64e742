"""DPDK-style RTE rings: the polling-based descriptor channel of D-SPRIGHT.

A bounded multi-producer/multi-consumer ring. Producers enqueue without
blocking (full ring -> drop/backpressure decision is the caller's); the
consumer's ``on_enqueue`` hook is told of each accepted descriptor, so a
poll-mode consumer need not simulate its empty polls.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional


class RingError(Exception):
    """Invalid ring construction or flag combinations."""


# Flags mirroring rte_ring_create(); 0 = MP/MC, per the paper's Appendix A.
RING_F_SP_ENQ = 0x0001
RING_F_SC_DEQ = 0x0002


class RteRing:
    """A bounded FIFO of descriptors with DPDK-like counters."""

    def __init__(self, name: str, size: int = 1024, flags: int = 0) -> None:
        if size <= 0 or (size & (size - 1)) != 0:
            raise RingError("ring size must be a positive power of two")
        self.name = name
        self.size = size
        self.flags = flags
        self._items: deque[object] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.drops = 0
        self.forced_drops = 0
        #: Called after each accepted enqueue (the consumer's wakeup).
        self.on_enqueue: Optional[Callable[[], None]] = None
        # Fault injection: called with the ring name before each enqueue;
        # returning True makes the enqueue behave as if the ring were full.
        self.fault_hook: Optional[Callable[[str], bool]] = None

    @property
    def single_producer(self) -> bool:
        return bool(self.flags & RING_F_SP_ENQ)

    @property
    def single_consumer(self) -> bool:
        return bool(self.flags & RING_F_SC_DEQ)

    @property
    def count(self) -> int:
        return len(self._items)

    @property
    def free_count(self) -> int:
        return self.size - len(self._items)

    def enqueue(self, item: object) -> bool:
        """rte_ring_enqueue: returns False when the ring is full."""
        if self.fault_hook is not None and self.fault_hook(self.name):
            self.drops += 1
            self.forced_drops += 1
            return False
        if len(self._items) >= self.size:
            self.drops += 1
            return False
        self._items.append(item)
        self.enqueued += 1
        if self.on_enqueue is not None:
            self.on_enqueue()
        return True

    def dequeue(self) -> tuple[bool, Optional[object]]:
        """rte_ring_dequeue: returns (False, None) when empty."""
        if not self._items:
            return False, None
        self.dequeued += 1
        return True, self._items.popleft()
