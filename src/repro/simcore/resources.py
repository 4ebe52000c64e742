"""Waitable resources: stores (queues) and counted resources.

These are the building blocks for sockets, rings, NIC queues, and CPU run
queues in the kernel substrate. Semantics mirror the classic DES resource
model: ``put``/``get`` return events that a process yields on.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: object) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(
        self, store: "Store", filter: Optional[Callable[[object], bool]] = None
    ) -> None:
        super().__init__(store.env)
        self.filter = filter
        store._get_waiters.append(self)
        store._trigger()


class Store:
    """A FIFO buffer with (optionally) bounded capacity.

    ``put(item)`` blocks while full; ``get()`` blocks while empty. This is
    the queueing primitive behind socket buffers and proxy queues.
    """

    def __init__(self, env: "Environment", capacity: float = inf) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[object] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: object) -> StorePut:
        return StorePut(self, item)

    def get(self, filter: Optional[Callable[[object], bool]] = None) -> StoreGet:
        return StoreGet(self, filter)

    def try_put(self, item: object) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self.is_full:
            return False
        self.items.append(item)
        self._trigger()
        return True

    def try_get(self) -> tuple[bool, object]:
        """Non-blocking get; returns (ok, item)."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._trigger()
        return True, item

    # -- internal -----------------------------------------------------------
    def _do_put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()

    def _do_get(self, event: StoreGet) -> None:
        if event.filter is None:
            if self.items:
                event.succeed(self.items.popleft())
            return
        for index, item in enumerate(self.items):
            if event.filter(item):
                del self.items[index]
                event.succeed(item)
                return

    def _trigger(self) -> None:
        # Alternate matching of put and get waiters until no progress.
        progressed = True
        while progressed:
            progressed = False
            while self._get_waiters:
                get_event = self._get_waiters[0]
                if get_event.triggered:
                    self._get_waiters.popleft()
                    continue
                self._do_get(get_event)
                if not get_event.triggered:
                    break
                self._get_waiters.popleft()
                progressed = True
            while self._put_waiters:
                put_event = self._put_waiters[0]
                if put_event.triggered:
                    self._put_waiters.popleft()
                    continue
                self._do_put(put_event)
                if not put_event.triggered:
                    break
                self._put_waiters.popleft()
                progressed = True


class ResourceRequest(Event):
    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._waiters.append(self)
        resource._trigger()

    def release(self) -> None:
        self.resource.release(self)

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class SlotGrant:
    """A slot taken by :meth:`Resource.grant_now`, with no event behind it."""

    __slots__ = ()


class Resource:
    """A counted resource (e.g. a pool of worker slots or CPU cores)."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[ResourceRequest | SlotGrant] = []
        self._waiters: deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        return ResourceRequest(self)

    def grant_now(self) -> Optional[SlotGrant]:
        """Take a free slot with no event, or return ``None``.

        A slot is granted only when a :meth:`request` would be granted at
        once *and* its event would be the very next one processed: no
        waiter queues, the heap holds nothing at ``now``, and the running
        callback is its event's last. The request's event would then pop
        at ``now`` before anything else runs, so a process that goes on
        without yielding sees the same state at the same time. Eids only
        break ties, so the events that remain keep their order. On
        ``None`` the caller yields :meth:`request` as usual. Either slot is
        given back with :meth:`release`.
        """
        env = self.env
        if (
            self._waiters
            or len(self.users) >= self.capacity
            or not env._last_callback
        ):
            return None
        queue = env._queue
        if queue and queue[0][0] <= env._now:
            return None
        slot = SlotGrant()
        self.users.append(slot)
        return slot

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource (vertical scaling); waiters are re-checked."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._trigger()

    def release(self, request: ResourceRequest | SlotGrant) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self._waiters:
            # Canceled before being granted.
            self._waiters.remove(request)
        self._trigger()

    def _trigger(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            request = self._waiters.popleft()
            if request.triggered:
                continue
            self.users.append(request)
            request.succeed()
