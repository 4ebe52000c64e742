"""Multi-core CPU model with per-component busy-time accounting.

Components are event-driven, as the paper's SPROXY/EPROXY are: they use
CPU only while work is queued, so usage is proportional to load. A
component books its work through a :class:`Charge`, the handle for one
(core set, tag) that :meth:`CpuSet.charge` resolves once, when the
component is wired; :meth:`CpuSet.execute` resolves one per call for
ad-hoc callers. D-SPRIGHT's spinning cores charge the ledger directly
(:meth:`CpuAccounting.record`), without booking a core.

Busy time is tagged with a component label so experiments can report CPU%
broken down by gateway / functions / queue proxies, as Figs 5, 10, 11, 12 do.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heappush
from typing import TYPE_CHECKING, Optional

from .environment import NORMAL
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

_new_event = object.__new__


def _slice(buckets: dict, width: float, start: float, duration: float) -> None:
    """Add ``duration`` seconds from ``start`` on to ``buckets``, one slice
    per bucket it spans."""
    remaining = duration
    cursor = start
    while remaining > 1e-15:
        index = int(cursor / width)
        bucket_end = (index + 1) * width
        if bucket_end <= cursor:
            # cursor / width rounded down although cursor sits on a
            # boundary (width 0.1, cursor 4.3 gives bucket 42 ending at
            # 4.3): take the next bucket, or the slice is empty forever.
            index += 1
            bucket_end = (index + 1) * width
        slice_len = min(remaining, bucket_end - cursor)
        buckets[index] += slice_len
        cursor += slice_len
        remaining -= slice_len


class CpuAccounting:
    """Accumulates tagged busy time, bucketed into a time series."""

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self.total_busy: dict[str, float] = defaultdict(float)
        self._buckets: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # Optional CPU profiler (repro.obs): observes every charge without
        # altering what is recorded, so profiled CPU% tables stay identical.
        self.profiler = None

    def record(self, tag: str, start: float, duration: float, op=None) -> None:
        """Attribute ``duration`` seconds of busy time starting at ``start``,
        with no core booked (a spinning poller, a processor-sharing queue).

        ``op`` names the operation (or carries a charge's per-operation
        breakdown) for the profiler; it never affects the ledger itself.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if duration == 0:
            return
        if self.profiler is not None:
            self.profiler.record(tag, op, duration)
        self.total_busy[tag] += duration
        _slice(self._buckets[tag], self.bucket_width, start, duration)

    def usage_percent(self, tag: str, bucket_index: int) -> float:
        """CPU usage (%) of ``tag`` during one bucket (100 == one full core)."""
        return 100.0 * self._buckets[tag].get(bucket_index, 0.0) / self.bucket_width

    def mean_percent(self, tag: str, duration: float) -> float:
        """Average CPU% of ``tag`` over the first ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return 100.0 * self.total_busy.get(tag, 0.0) / duration

    def tags(self) -> list[str]:
        return sorted(self.total_busy)


class _Core:
    """One core as a FCFS calendar queue.

    Instead of a core process pulling work items off a store (four event-loop
    rounds per item), the core tracks when it next becomes free: a booking
    starts at ``max(now, next_free)``, records its busy interval at once,
    and schedules a completion event only if someone waits for it.
    Semantically identical FCFS behaviour at a fraction of the event count.
    """

    __slots__ = ("index", "next_free")

    def __init__(self, index: int) -> None:
        self.index = index
        self.next_free = 0.0


class Charge:
    """One tag's bookings on one core set (:meth:`CpuSet.charge`).

    Everything a booking needs is resolved here, once: the cores, the
    bucket width, and the tag's ledger cells (its ``total_busy`` entry and
    bucket series), which every core set reporting into the same
    :class:`CpuAccounting` shares.
    """

    __slots__ = (
        "env", "queue", "eids", "cores", "tag", "accounting", "total_busy", "buckets", "width"
    )

    def __init__(self, cpuset: "CpuSet", tag: str) -> None:
        accounting = cpuset.accounting
        env = cpuset.env
        self.env = env
        self.queue = env._queue
        self.eids = env._eid
        self.cores = cpuset._cores
        self.tag = tag
        self.accounting = accounting
        self.total_busy = accounting.total_busy
        self.buckets = accounting._buckets[tag]
        self.width = accounting.bucket_width

    def book(self, duration: float, op=None, detached: bool = False) -> Optional[Event]:
        """Submit ``duration`` seconds of work; returns its completion event.

        Work goes to the first idle core, else to the least-backlogged one,
        approximating the kernel scheduler spreading runnable threads.
        ``op`` is an optional operation attribution for the CPU profiler
        (ignored when off).

        ``detached=True`` is for work nobody waits on (background and
        off-critical-path charges): the core calendar and the ledger are
        booked exactly as for awaited work, but no completion event is
        created or scheduled, and ``None`` is returned.
        """
        env = self.env
        if duration <= 0:
            if duration < 0:
                raise ValueError("duration must be non-negative")
            if detached:
                return None
            done = Event(env)
            done.succeed()
            return done
        now = env._now
        chosen = None
        best = math.inf
        for core in self.cores:
            free_in = core.next_free - now
            if free_in <= 0:
                chosen = core
                break
            if free_in < best:
                best = free_in
                chosen = core
        # FCFS after whatever the core already holds.
        start = chosen.next_free
        if start < now:
            start = now
        end = start + duration
        chosen.next_free = end
        tag = self.tag
        profiler = self.accounting.profiler
        if profiler is not None:
            profiler.record(tag, op, duration)
        self.total_busy[tag] += duration
        width = self.width
        index = int(start / width)
        if duration > 1e-15 and duration <= (index + 1) * width - start:
            # _slice, when its first slice is the whole duration.
            self.buckets[index] += duration
        else:
            _slice(self.buckets, width, start, duration)
        if detached:
            return None
        # Event(env) with its value set, without the __init__ call.
        done = _new_event(Event)
        done.env = env
        done.callbacks = []
        done._value = None
        done._ok = True
        done._defused = False
        # env.schedule(done, delay=end - now), inlined.
        heappush(self.queue, (now + (end - now), NORMAL, next(self.eids), done))
        return done


class CpuSet:
    """A set of identical cores, like the paper's 40-core c220g5 node."""

    def __init__(
        self,
        env: "Environment",
        cores: int = 40,
        bucket_width: float = 1.0,
        accounting: Optional[CpuAccounting] = None,
    ) -> None:
        """``accounting`` may be shared: pinned per-component core sets report
        into the node-wide ledger so machine totals stay coherent."""
        if cores <= 0:
            raise ValueError("need at least one core")
        self.env = env
        self.accounting = accounting if accounting is not None else CpuAccounting(bucket_width)
        self._cores = [_Core(index) for index in range(cores)]
        self._charges: dict[str, Charge] = {}

    def charge(self, tag: str) -> Charge:
        """The booking handle for ``tag`` on these cores (one per tag)."""
        charge = self._charges.get(tag)
        if charge is None:
            charge = self._charges[tag] = Charge(self, tag)
        return charge

    def execute(
        self, duration: float, tag: str, op=None, detached: bool = False
    ) -> Optional[Event]:
        """:meth:`Charge.book` through ``tag``'s handle, for ad-hoc callers;
        a component resolves its handle once instead."""
        return self.charge(tag).book(duration, op, detached)
