"""Gateway admission control: bounded queues, token bucket, CoDel-style shed.

The paper's claim that SPRIGHT sustains high load with bounded resources
(§5, Figs 9-11) presumes something says *no* at the front door; without it,
an open-loop overload drives queues (and retry amplification from PR 2's
resilience layer) to collapse goodput. This module is that front door,
shared by all four dataplane gateways and the cluster ingress:

* **bounded per-function admission queues** — at most ``queue_limit``
  admitted-but-unfinished requests per entry function; excess arrivals are
  shed immediately (a 503, not an unbounded queue);
* **token bucket** — a deterministic ``rate_limit``/``burst`` refill
  (computed from sim time, no background process) caps the sustained
  admission rate;
* **queue-delay shedding (CoDel-style)** — the controller tracks the
  *minimum* request sojourn time over ``delay_window`` intervals; when even
  the luckiest request exceeded ``target_delay``, standing queues have
  formed and the controller escalates its degradation level, shedding the
  lowest-priority request classes first (graceful degradation); sustained
  good intervals de-escalate one level at a time.

Shed requests fail with :class:`ShedError` (kind ``"shed"``, *not*
retryable) so PR 2's retry policies refuse to amplify the overload and its
breakers still count the failure. Everything is deterministic — the
controller draws no RNG and writes no counters until it actually sheds — so
runs without an attached policy are byte-identical to builds without this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..dataplane.base import Request, ShedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import Environment
    from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for gateway admission control. The default is fully inert."""

    queue_limit: Optional[int] = None      # per-function in-flight bound
    rate_limit: Optional[float] = None     # sustained admissions/second
    burst: float = 32.0                    # token bucket depth
    target_delay: Optional[float] = None   # CoDel-style sojourn target (s)
    delay_window: float = 0.5              # interval over which min sojourn is tracked
    max_degrade_level: int = 3             # priority tiers sheddable at worst

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.target_delay is not None and self.target_delay <= 0:
            raise ValueError("target_delay must be positive")
        if self.delay_window <= 0:
            raise ValueError("delay_window must be positive")
        if self.max_degrade_level < 0:
            raise ValueError("max_degrade_level must be >= 0")

    def enabled(self) -> bool:
        return (
            self.queue_limit is not None
            or self.rate_limit is not None
            or self.target_delay is not None
        )


class AdmissionController:
    """One gateway's admission state; consulted synchronously per request.

    ``try_admit`` returns None (admitted) or a :class:`ShedError`; the
    caller must pair every admit with ``on_done`` when the request finishes
    (success or failure) so queue occupancy and sojourn tracking stay
    truthful.
    """

    def __init__(
        self,
        env: "Environment",
        policy: AdmissionPolicy,
        counter: Optional["MetricsRegistry"] = None,
        scope: str = "",
    ) -> None:
        self.env = env
        self.policy = policy
        self.counter = counter
        self.scope = scope
        self._in_flight: dict[str, int] = {}
        self._admitted_at: dict[int, float] = {}
        self._tokens = float(policy.burst)
        self._last_refill = env.now
        # CoDel state: min sojourn seen in the current window.
        self._window_start = env.now
        self._window_min: Optional[float] = None
        self.degrade_level = 0
        self.shed_count = 0
        self.shed_by_class: dict[str, int] = {}
        self.admitted = 0

    # -- admission decision -------------------------------------------------------
    def try_admit(self, request: Request) -> Optional[ShedError]:
        policy = self.policy
        cls = request.request_class
        entry = cls.sequence[0]
        if self.degrade_level > 0 and cls.priority < self.degrade_level:
            return self._shed(
                request,
                f"degradation level {self.degrade_level} sheds "
                f"priority-{cls.priority} class {cls.name!r}",
            )
        if policy.queue_limit is not None:
            if self._in_flight.get(entry, 0) >= policy.queue_limit:
                return self._shed(
                    request,
                    f"admission queue for {entry!r} full "
                    f"({policy.queue_limit} in flight)",
                )
        if policy.rate_limit is not None and not self._take_token():
            return self._shed(request, "admission rate limit exceeded")
        self._in_flight[entry] = self._in_flight.get(entry, 0) + 1
        self._admitted_at[id(request)] = self.env.now
        self.admitted += 1
        return None

    def on_done(self, request: Request) -> None:
        """Request finished (any outcome): free its slot, feed the sojourn."""
        admitted_at = self._admitted_at.pop(id(request), None)
        if admitted_at is None:
            return  # shed (or admitted by someone else): no slot held
        entry = request.request_class.sequence[0]
        count = self._in_flight.get(entry, 0)
        if count > 0:
            self._in_flight[entry] = count - 1
        self._observe_sojourn(self.env.now - admitted_at)

    # -- internals ------------------------------------------------------------------
    def _take_token(self) -> bool:
        policy = self.policy
        now = self.env.now
        if now > self._last_refill:
            self._tokens = min(
                float(policy.burst),
                self._tokens + (now - self._last_refill) * policy.rate_limit,
            )
            self._last_refill = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def _observe_sojourn(self, sojourn: float) -> None:
        """CoDel-style control law on completed requests' sojourn times."""
        if self.policy.target_delay is None:
            return
        now = self.env.now
        if self._window_min is None or sojourn < self._window_min:
            self._window_min = sojourn
        if now - self._window_start < self.policy.delay_window:
            return
        # Window closed: even the *minimum* sojourn above target means a
        # standing queue, not a transient burst -> degrade one level.
        if self._window_min is not None:
            if self._window_min > self.policy.target_delay:
                if self.degrade_level < self.policy.max_degrade_level:
                    self.degrade_level += 1
                    if self.counter is not None:
                        self.counter.incr("recovery/degrade_ups")
            elif self.degrade_level > 0:
                self.degrade_level -= 1
                if self.counter is not None:
                    self.counter.incr("recovery/degrade_downs")
        self._window_start = now
        self._window_min = None

    def _shed(self, request: Request, why: str) -> ShedError:
        self.shed_count += 1
        name = request.request_class.name
        self.shed_by_class[name] = self.shed_by_class.get(name, 0) + 1
        if self.counter is not None:
            self.counter.incr("recovery/shed")
            self.counter.incr(f"recovery/shed/{name}")
        prefix = f"{self.scope}: " if self.scope else ""
        return ShedError(prefix + why)

    def in_flight(self, entry: str) -> int:
        return self._in_flight.get(entry, 0)
