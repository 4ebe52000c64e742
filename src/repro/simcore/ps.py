"""Egalitarian processor-sharing (PS) service for the DES.

The paper's request-cloning analysis ("Modeling of Request Cloning in Cloud
Server Systems using Processor Sharing", PAPERS.md) assumes PS servers: all
jobs in service share the capacity equally, so a job's completion time
stretches and shrinks as occupancy changes. The calendar-queue
:class:`~repro.simcore.cpu.CpuSet` cannot model that — it commits a
completion time at submission — so PS gets its own virtual-time queue.

Mechanics: the server tracks the set of active jobs and the wall time of the
last occupancy change. On every arrival, departure, or cancellation it first
*advances* — debiting ``elapsed * rate`` of remaining work from every active
job and recording the same busy time into the shared
:class:`~repro.simcore.cpu.CpuAccounting` ledger (so CPU% tables include PS
pods) — then re-times the next completion. Re-timing uses a generation
counter: the previously scheduled wake-up is simply ignored when it fires
stale, which is cheaper than unscheduling and keeps the event sequence
deterministic.

Cancellation (`cancel`) removes a job mid-service and instantly returns its
share to the survivors — the property synchronized request cloning relies
on: a cancelled clone must not keep stealing capacity from the winner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cpu import CpuAccounting
    from .environment import Environment

#: Work below this is "done" — absorbs float drift from rate re-timing.
_EPSILON = 1e-12


class PsJob:
    """One job inside a :class:`PsServer`; ``done`` fires on completion."""

    __slots__ = ("work", "remaining", "tag", "done", "submitted_at", "cancelled")

    def __init__(self, env: "Environment", work: float, tag: str) -> None:
        self.work = work
        self.remaining = work
        self.tag = tag
        self.done: Event = Event(env)
        self.submitted_at = env.now
        self.cancelled = False

    @property
    def finished(self) -> bool:
        return self.done.triggered


class PsServer:
    """A processor-sharing server with ``capacity`` core-equivalents.

    With ``n`` active jobs each runs at ``min(per_job_cap, capacity / n)``;
    a lone job is capped at ``per_job_cap`` (default one core) so PS pods
    match FCFS pods when uncontended instead of running ``capacity``-fold
    faster.
    """

    def __init__(
        self,
        env: "Environment",
        accounting: Optional["CpuAccounting"] = None,
        capacity: float = 1.0,
        per_job_cap: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if per_job_cap <= 0:
            raise ValueError("per_job_cap must be positive")
        self.env = env
        self.accounting = accounting
        self.capacity = capacity
        self.per_job_cap = per_job_cap
        self._jobs: list[PsJob] = []
        self._clock = env.now      # wall time of the last advance
        self._generation = 0       # invalidates stale wake-ups
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self.busy_time = 0.0       # total work actually served

    # -- views ---------------------------------------------------------------
    def rate(self) -> float:
        """Per-job service rate at the current occupancy."""
        if not self._jobs:
            return 0.0
        return min(self.per_job_cap, self.capacity / len(self._jobs))

    # -- the three occupancy-changing operations -------------------------------
    def submit(self, work: float, tag: str) -> PsJob:
        """Add a job of ``work`` seconds; returns it (yield ``job.done``)."""
        if work < 0:
            raise ValueError("work must be non-negative")
        job = PsJob(self.env, work, tag)
        if work <= _EPSILON:
            job.remaining = 0.0
            job.done.succeed(job)
            self.jobs_completed += 1
            return job
        self._advance()
        self._jobs.append(job)
        self._reschedule()
        return job

    def cancel(self, job: PsJob) -> bool:
        """Remove ``job`` mid-service; its share returns to the survivors.

        Returns False when the job already completed (nothing to cancel) —
        the caller then treats the completion as authoritative.
        """
        if job.finished or job.cancelled:
            return False
        self._advance()
        job.cancelled = True
        try:
            self._jobs.remove(job)
        except ValueError:  # pragma: no cover - defensive
            return False
        self.jobs_cancelled += 1
        self._reschedule()
        return True

    def _complete(self) -> None:
        """Finish every job whose remaining work hit zero (in FIFO order)."""
        finished = [job for job in self._jobs if job.remaining <= _EPSILON]
        if not finished:
            return
        for job in finished:
            self._jobs.remove(job)
            job.remaining = 0.0
            job.done.succeed(job)
            self.jobs_completed += 1

    # -- virtual time ---------------------------------------------------------
    def _advance(self) -> None:
        """Debit elapsed work from every active job and charge the ledger."""
        now = self.env.now
        elapsed = now - self._clock
        if elapsed > 0 and self._jobs:
            per_job = elapsed * self.rate()
            for job in self._jobs:
                job.remaining -= per_job
                if self.accounting is not None:
                    self.accounting.record(job.tag, self._clock, per_job, op="service_ps")
                self.busy_time += per_job
        self._clock = now

    def _reschedule(self) -> None:
        """Re-time the next completion after an occupancy change."""
        self._generation += 1
        if not self._jobs:
            return
        rate = self.rate()
        shortest = min(job.remaining for job in self._jobs)
        delay = max(0.0, shortest) / rate
        generation = self._generation
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _event: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # occupancy changed since this wake-up was scheduled
        self._advance()
        self._complete()
        self._reschedule()
