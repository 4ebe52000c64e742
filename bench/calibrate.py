"""A fixed stdlib-only workload that measures how fast the host runs now.

The benchmark runs on virtual machines shared with other work, where one
core's speed was seen to halve for minutes at a time and to flicker within
a second. The simulator's own time cannot tell a slower simulator from a
slower machine, so every timed slice of an episode is followed by one pass
of this loop. The slice's host seconds are then scaled by how long the
pass took against :data:`REFERENCE_S`, to the power
:data:`SIMULATOR_EXPONENT`.

The loop is a miniature discrete-event simulation (a heap of timestamped
entries, generator processes resumed with ``send``, counters in a dict and
a small object per event), so it leans on the interpreter the same way the
simulator's hottest layer does. It lives here, not in ``src/``, so that no
change to the simulator can change it.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one pass of the loop takes on the reference host: a 2-vCPU
#: Intel Xeon VM in its fast state, when no other tenant slowed it down.
#: In its slow state the same VM took 21 ms.
REFERENCE_S = 0.009

#: The simulator feels the host's slow state less than this loop does. When
#: its host time grew 1.75x, this loop's grew 1.92x (ln 1.75 / ln 1.92 =
#: 0.86); two other slowdowns, of 1.7x and 1.3x, gave 0.86 and 0.89.
SIMULATOR_EXPONENT = 0.87

_EVENTS = 10_000
_PROCESSES = 64


class _Entry:
    __slots__ = ("at", "process", "value")

    def __init__(self, at: float, process, value: int) -> None:
        self.at = at
        self.process = process
        self.value = value


def _process(index: int):
    total = 0
    while True:
        value = yield 0.001 * (1 + (index * 7 + total) % 13)
        total += value


def _work() -> int:
    counters: dict = {}
    processes = [_process(index) for index in range(_PROCESSES)]
    queue = []
    sequence = 0
    for index, process in enumerate(processes):
        delay = next(process)
        heapq.heappush(queue, (delay, sequence, _Entry(delay, process, index)))
        sequence += 1
    for _ in range(_EVENTS):
        now, _, entry = heapq.heappop(queue)
        delay = entry.process.send(entry.value)
        key = entry.value % 8
        counters[key] = counters.get(key, 0) + 1
        sequence += 1
        heapq.heappush(
            queue, (now + delay, sequence, _Entry(now + delay, entry.process, entry.value + 1))
        )
    return sum(counters.values())


def speed() -> float:
    """How fast the host runs the simulator now, relative to the reference
    host (1.0 = same)."""
    started = time.perf_counter()
    _work()
    return (REFERENCE_S / (time.perf_counter() - started)) ** SIMULATOR_EXPONENT
