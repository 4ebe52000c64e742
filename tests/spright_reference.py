"""Reference versions of two SPRIGHT chain mechanisms, kept as oracles.

``reference_worker`` is the dispatch loop that delivered descriptors before
:class:`repro.dataplane.spright.chain.Member`: a detached process that,
while ``alive()``, waits on the member's endpoint and spawns a detached
handler process per descriptor. An event-driven endpoint is a
:class:`repro.simcore.Store` (the SPROXY socket's old inbox); a polled one
is a :class:`ReferenceRing`, the RTE ring with its old not-empty event.

``reference_pick_instance`` is the three-list residual-capacity pick that
:meth:`DfrRoutingTable.pick_instance
<repro.dataplane.spright.routing.DfrRoutingTable.pick_instance>` replaced.
"""

from __future__ import annotations

from collections import deque

from repro.simcore import Event, Store


class ReferenceRing:
    """A FIFO whose consumer waits on a not-empty event (no size bound)."""

    def __init__(self) -> None:
        self._items: deque = deque()
        self._waiters: list[Event] = []

    def enqueue(self, item) -> bool:
        self._items.append(item)
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()
        return True

    def dequeue(self):
        if not self._items:
            return False, None
        return True, self._items.popleft()

    def not_empty_event(self, env) -> Event:
        event = Event(env)
        if self._items:
            event.succeed()
        else:
            self._waiters.append(event)
        return event


def reference_endpoint(env, poll_interval):
    """The endpoint the reference loop waits on, and how to put to it."""
    if poll_interval is None:
        store = Store(env)
        return store, store.try_put
    ring = ReferenceRing()
    return ring, ring.enqueue


def _wait_for_item(env, endpoint, poll_interval):
    if poll_interval is None:
        item = yield endpoint.get()
        return item
    while True:
        ok, item = endpoint.dequeue()
        if ok:
            return item
        yield endpoint.not_empty_event(env)
        yield env.timeout(poll_interval)


def reference_worker(env, endpoint, make_handler, alive, poll_interval):
    """Generator: the dispatch loop, to start with ``env.process``."""
    handler = make_handler()
    while alive():
        item = yield from _wait_for_item(env, endpoint, poll_interval)
        env.process(handler(item), detached=True)


def reference_pick_instance(instances, function, now, exclude=None):
    """The pick over ``instances`` (function -> pods in instance order)."""
    pods = [pod for pod in instances.get(function, []) if pod.is_servable]
    responsive = [pod for pod in pods if pod.responsive]
    if responsive:
        pods = responsive
    if exclude:
        unclaimed = [pod for pod in pods if pod.instance_id not in exclude]
        if unclaimed:
            pods = unclaimed
    if not pods:
        return None
    return max(pods, key=lambda pod: pod.residual_capacity(now))
