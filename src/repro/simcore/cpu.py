"""Multi-core CPU model with per-component busy-time accounting.

Two execution styles, matching the paper's dichotomy:

* **Event-driven** components submit work quanta via :meth:`CpuSet.execute`;
  they consume CPU only while work is queued (load-proportional usage, like
  SPROXY/EPROXY).
* **Polling** components (DPDK poll-mode threads) pin a whole core via
  :meth:`CpuSet.dedicate`; the core is 100% busy from acquisition to release
  regardless of traffic (like D-SPRIGHT's RTE ring consumers).

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
        """Attribute ``duration`` seconds of busy time starting at ``start``.

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
        width = self.bucket_width
        index = int(start / width)
        if duration > 1e-15 and duration <= (index + 1) * width - start:
            # The loop below, when its first slice is the whole duration.
            self._buckets[tag][index] += duration
            return
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
            self._buckets[tag][index] += slice_len
            cursor += slice_len
            remaining -= slice_len

    def usage_percent(self, tag: str, bucket_index: int) -> float:
        """CPU usage (%) of ``tag`` during one bucket (100 == one full core)."""
        return 100.0 * self._buckets[tag].get(bucket_index, 0.0) / self.bucket_width

    def series(self, tag: str, until: float) -> list[tuple[float, float]]:
        """(bucket start time, CPU%) pairs covering [0, until)."""
        buckets = int(math.ceil(until / self.bucket_width))
        return [
            (index * self.bucket_width, self.usage_percent(tag, index))
            for index in range(buckets)
        ]

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
    rounds per item), the core tracks when it next becomes free:
    :meth:`CpuSet.execute` starts a booked item at ``max(now, next_free)``
    and records its busy interval immediately, and schedules a completion
    event only if someone waits for it. Semantically identical FCFS
    behaviour at a fraction of the event count.
    """

    __slots__ = ("env", "index", "next_free", "dedicated_tag")

    def __init__(self, env: "Environment", index: int) -> None:
        self.env = env
        self.index = index
        self.next_free = 0.0
        self.dedicated_tag: Optional[str] = None

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a new submission."""
        return max(0.0, self.next_free - self.env.now)


class DedicatedCore:
    """Handle for a core pinned by a polling component."""

    def __init__(self, cpuset: "CpuSet", core: _Core, tag: str) -> None:
        self._cpuset = cpuset
        self._core = core
        self.tag = tag
        self.acquired_at = cpuset.env.now
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Return the core to the shared pool, charging the busy interval."""
        if self._released:
            return
        self._released = True
        now = self._cpuset.env.now
        self._cpuset.accounting.record(
            self.tag, self.acquired_at, now - self.acquired_at, op="poll_dedicated"
        )
        self._core.dedicated_tag = None
        self._cpuset._shared.append(self._core)

    def checkpoint(self) -> None:
        """Flush busy time accumulated so far (for mid-run sampling)."""
        if self._released:
            return
        now = self._cpuset.env.now
        self._cpuset.accounting.record(
            self.tag, self.acquired_at, now - self.acquired_at, op="poll_dedicated"
        )
        self.acquired_at = now


class CpuSet:
    """A set of identical cores, like the paper's 40-core c220g5 node."""

    def __init__(
        self,
        env: "Environment",
        cores: int = 40,
        freq_hz: float = 2.2e9,
        bucket_width: float = 1.0,
        accounting: Optional[CpuAccounting] = None,
    ) -> None:
        """``accounting`` may be shared: pinned per-component core sets report
        into the node-wide ledger so machine totals stay coherent."""
        if cores <= 0:
            raise ValueError("need at least one core")
        self.env = env
        self.freq_hz = freq_hz
        self.accounting = accounting if accounting is not None else CpuAccounting(bucket_width)
        self._cores = [_Core(env, index) for index in range(cores)]
        self._shared = list(self._cores)

    @property
    def total_cores(self) -> int:
        return len(self._cores)

    @property
    def shared_cores(self) -> int:
        return len(self._shared)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.freq_hz

    def execute(
        self, duration: float, tag: str, op=None, detached: bool = False
    ) -> Optional[Event]:
        """Submit ``duration`` seconds of work; returns its completion event.

        Work goes to the least-backlogged shared core, approximating the
        kernel scheduler spreading runnable threads. ``op`` is an optional
        operation attribution for the CPU profiler (ignored when off).

        ``detached=True`` is for work nobody waits on (background and
        off-critical-path charges): the core calendar and the ledger are
        booked exactly as for awaited work, but no completion event is
        created or scheduled, and ``None`` is returned.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        env = self.env
        if duration == 0:
            if detached:
                return None
            done = Event(env)
            done.succeed()
            return done
        shared = self._shared
        if not shared:
            raise RuntimeError("all cores are dedicated; no shared core available")
        # Least-loaded dispatch; fast path grabs the first idle core.
        now = env._now
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
        # Book the chosen core: FCFS after whatever it already holds.
        start = chosen.next_free
        if start < now:
            start = now
        end = start + duration
        chosen.next_free = end
        self.accounting.record(tag, start, duration, op=op)
        if detached:
            return None
        done = Event(env)
        done._value = None
        # env.schedule(done, delay=end - now), inlined.
        heappush(env._queue, (now + (end - now), NORMAL, next(env._eid), done))
        return done

    def execute_cycles(
        self, cycles: float, tag: str, op=None, detached: bool = False
    ) -> Optional[Event]:
        return self.execute(
            self.cycles_to_seconds(cycles), tag, op=op, detached=detached
        )

    def dedicate(self, tag: str) -> DedicatedCore:
        """Pin an idle shared core for a poll-mode component."""
        if not self._shared:
            raise RuntimeError("no shared core left to dedicate")
        # Prefer an idle core so we do not strand queued work.
        core = min(self._shared, key=lambda candidate: candidate.backlog)
        self._shared.remove(core)
        core.dedicated_tag = tag
        return DedicatedCore(self, core, tag)
