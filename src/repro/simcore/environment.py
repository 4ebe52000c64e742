"""The simulation environment: clock plus prioritized event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Optional

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import InlineStart, Process, ProcessGenerator

# Scheduling priorities: URGENT beats NORMAL at the same timestamp. URGENT is
# used for process initialization and interrupts so they preempt same-time
# timeouts, matching intuitive causality.
URGENT = 0
NORMAL = 1


class Environment:
    """Coordinates processes and events on a simulated clock.

    Time is a float in **seconds**. The environment is single-threaded and
    deterministic: equal-time events are processed in schedule order.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Events processed so far — a free progress/throughput signal for
        #: the bench harness and live observers (int increment, no events).
        #: An observed run counts per event; an unobserved run adds its
        #: count when ``run()`` returns or raises.
        self.events_processed = 0
        self._observers: list = []
        #: True only while the last (or only) callback of the event being
        #: processed runs: nothing else of that event can run after it.
        #: :meth:`Resource.grant_now <repro.simcore.Resource.grant_now>`
        #: reads it.
        self._last_callback = False

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: str = "", detached: bool = False
    ) -> Optional[Process]:
        """Start a process; returns it, or ``None`` when ``detached``.

        ``detached=True`` is for fire-and-forget spawns nobody waits on:
        the process schedules no termination event, and an exception
        escaping it propagates out of :meth:`run` at once.
        """
        process = Process(self, generator, name=name, detached=detached)
        return None if detached else process

    def start_inline(self, generator: ProcessGenerator, name: str = "") -> None:
        """Start a detached process and run its first step now, inline.

        For a caller that runs exactly where the process's ``Initialize``
        would be the next event processed: it would pop at ``now`` before
        anything else runs, so running the step here instead sees the same
        state at the same time. No event is scheduled, and the remaining
        events keep their order (eids only break ties).
        """
        InlineStart(self, generator, name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` time units."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    # -- passive observers ----------------------------------------------------
    def add_observer(self, callback) -> None:
        """Register ``callback(now)`` to run after every processed event.

        The observer contract is strictly passive: a callback must not
        schedule events, create processes, or draw from any RNG stream —
        it may only *read* simulation state (and ship what it read to
        threads outside the simulation). Under that contract an observed
        run's event sequence, and therefore every table and golden it
        produces, is byte-identical to an unobserved run's. Whether a run
        is observed is decided when :meth:`run` starts, so an observer
        added from inside a running simulation is called from the next
        :meth:`run` on.
        """
        if callback not in self._observers:
            self._observers.append(callback)

    def remove_observer(self, callback) -> None:
        if callback in self._observers:
            self._observers.remove(callback)

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock."""
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("event queue is empty") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        last = len(callbacks) - 1
        for index, callback in enumerate(callbacks):
            self._last_callback = index == last
            callback(event)
        self._last_callback = False

        if not event._ok and not event.defused:
            # An unhandled failure crashes the simulation, loudly.
            exc = event._value
            assert isinstance(exc, BaseException)
            raise exc

        self.events_processed += 1
        if self._observers:
            for observer in self._observers:
                observer(self._now)

    # -- run loop ---------------------------------------------------------------
    def run(self, until: object = None) -> object:
        """Run until the given time, event, or queue exhaustion.

        ``until`` may be ``None`` (drain the queue), a number (absolute time
        horizon), or an :class:`Event` (run until it has been processed and
        return its value).

        Detached CPU charges and processes schedule no event, so with
        ``until=None`` the clock stops at the last event that something
        waits on, while the CPU ledger still books background work past it.

        With an observer attached every event goes through :meth:`step`;
        otherwise one local loop does the same work (and the same checks)
        without the per-event method calls.
        """
        stop_event: Optional[Event] = None
        horizon = inf
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(self._stop_callback)
            else:
                horizon = float(until)
                if horizon < self._now:
                    raise ValueError(
                        f"until ({horizon}) must not be before now ({self._now})"
                    )

        try:
            if self._observers:
                queue = self._queue
                while queue and queue[0][0] <= horizon:
                    self.step()
            else:
                self._run_unobserved(horizon)
        except StopSimulation as stop:
            finished = stop.args[0]
            assert isinstance(finished, Event)
            if not finished._ok and not finished.defused:
                exc = finished._value
                assert isinstance(exc, BaseException)
                raise exc
            return finished.value

        if stop_event is not None and stop_event.callbacks is not None:
            raise EmptySchedule(
                "run() finished without the awaited event being triggered"
            )
        if horizon is not inf:
            self._now = horizon
        return None

    def _run_unobserved(self, horizon: float) -> None:
        """:meth:`step` up to ``horizon``, inlined into one loop."""
        queue = self._queue
        processed = 0
        self._last_callback = True
        try:
            while queue and queue[0][0] <= horizon:
                self._now, _, _, event = heappop(queue)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    raise SimulationError(f"{event!r} was scheduled twice")
                if len(callbacks) == 1:
                    callbacks[0](event)
                elif callbacks:
                    self._last_callback = False
                    for callback in callbacks[:-1]:
                        callback(event)
                    self._last_callback = True
                    callbacks[-1](event)
                if not event._ok and not event._defused:
                    # An unhandled failure crashes the simulation, loudly.
                    exc = event._value
                    assert isinstance(exc, BaseException)
                    raise exc
                processed += 1
        finally:
            self._last_callback = False
            self.events_processed += processed

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)
