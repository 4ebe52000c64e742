"""Resilience policies the gateways apply around request delivery.

The paper extracts the "server" (queue proxy, retries, health checks) out of
the pod; something still has to own the client-visible failure handling.
This module is that something, shared by all four dataplane gateways:

* **per-attempt timeout** — an attempt round that exceeds ``timeout`` is
  cancelled (its processes interrupted, resources released) and counted as
  a ``DeliveryError(kind="timeout")``;
* **retries with capped exponential backoff** — failed retryable attempts
  are retried up to ``retries`` times after
  ``min(backoff_base * 2**attempt, backoff_cap)`` plus deterministic
  jitter drawn from the ``resilience/backoff`` RNG stream;
* **request hedging** — after ``hedge_delay`` with no response, a cloned
  attempt is launched (à la "Modeling of Request Cloning in Cloud Server
  Systems using Processor Sharing", PAPERS.md); first completion wins and
  the losers are cancelled;
* **synchronized cloning** — ``clone_factor=d`` launches *d* attempts at
  dispatch time (not delay-triggered like hedging), each placed on a
  distinct pod via the request's claimed-pod set; the first completion
  wins, the losers are interrupted so shared-memory handles are freed by
  their own cleanup paths and their processor-sharing capacity returns to
  the survivors instantly. Each extra clone pays the plane's
  :class:`CloneCostModel` — descriptor-only for the shared-memory SPRIGHT
  planes, a full payload marshal for Knative/gRPC — which is what shifts
  the optimal clone factor per plane (the ``spright-repro cloning`` lab);
* **per-function circuit breaker** — ``breaker_threshold`` consecutive
  failures open the breaker for ``breaker_reset`` seconds, failing calls
  fast with ``kind="breaker_open"`` so a dead function cannot absorb the
  whole retry budget. Half-open admits exactly one probe: admission hands
  out a :class:`BreakerPermit`, and only the probe's own report (or a
  result from the current generation) can move the breaker state — stale
  results from attempts admitted before the trip are ignored.

Everything is deterministic: jitter comes from named ``RandomStreams``, and
with the default :class:`ResiliencePolicy` (no timeout, no retries, no
hedging, no cloning) the controller is never engaged, so fault-free runs
make zero extra RNG draws and stay bit-identical to builds without this
subsystem.

Default-policy guidance from the cloning lab (see EXPERIMENTS.md): with
exponential-ish service variability, SPRIGHT planes should clone at the
measured optimum (``clone_factor = d_opt``, descriptor cost model) while
Knative/gRPC stay at ``clone_factor=1`` unless payloads are small — their
per-clone marshal cost erases the min-of-d win at realistic sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..kernel.costs import CostModel, DEFAULT_COSTS
from ..simcore import DeliveryError, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataplane.base import Dataplane, Request
    from ..simcore import RandomStreams

#: RNG stream names (module-level so tests and docs agree on the spelling)
BACKOFF_STREAM = "resilience/backoff"
HEDGE_STREAM = "resilience/hedge"


@dataclass(frozen=True)
class CloneCostModel:
    """What dispatching one extra clone of a request costs the gateway.

    The cost (seconds) is charged to gateway CPU *and* delays that clone's
    dispatch — the primary attempt never pays it. ``kind`` is a label for
    reports: ``"descriptor"`` (SPRIGHT: the payload already sits in shared
    memory, a clone is one more 24-byte descriptor) vs ``"marshal"``
    (Knative/gRPC: every clone re-serializes and copies the payload).
    """

    kind: str = "descriptor"
    fixed: float = 0.0
    per_byte: float = 0.0

    def __post_init__(self) -> None:
        if self.fixed < 0 or self.per_byte < 0:
            raise ValueError("clone costs must be non-negative")

    def cost(self, nbytes: int) -> float:
        return self.fixed + self.per_byte * nbytes


#: Measured per-plane optimal synchronized-clone factor, from the PR 9
#: cloning lab (EXPERIMENTS.md "Request-cloning lab"): the shared-memory
#: planes keep winning from a second clone (descriptor-only dispatch, the
#: payload never moves), while Knative/gRPC's per-clone marshal cost erases
#: the min-of-d gain at realistic payload sizes, so their measured optimum
#: stays d=1. This is the default the scenario schema's ``resilience``
#: section ships (``clone_factor: optimal``).
MEASURED_OPTIMAL_CLONE_FACTOR = {
    "s-spright": 2,
    "d-spright": 2,
    "lambda-nic": 2,
    "knative": 1,
    "grpc": 1,
}


def optimal_clone_factor(plane: str) -> int:
    """The lab-measured optimal clone factor for ``plane`` (1 = don't clone)."""
    return MEASURED_OPTIMAL_CLONE_FACTOR.get(plane, 1)


def default_resilience_for_plane(
    plane: str,
    retries: int = 2,
    hedge_delay: Optional[float] = None,
    timeout: Optional[float] = 1.0,
    clone_factor="optimal",
    breaker_threshold: int = 8,
    breaker_reset: float = 2.0,
    costs: Optional[CostModel] = None,
) -> ResiliencePolicy:
    """The default policy experiments ship for ``plane``.

    ``clone_factor`` accepts an integer, ``"optimal"`` (the measured
    per-plane optimum above — the default), or ``None``/``"off"`` (1).
    Whenever the resolved factor clones, the plane's calibrated
    :class:`CloneCostModel` is attached so every extra clone pays its real
    dispatch cost.
    """
    if clone_factor in (None, "off"):
        resolved = 1
    elif clone_factor == "optimal":
        resolved = optimal_clone_factor(plane)
    else:
        resolved = int(clone_factor)
    cost = clone_cost_for_plane(plane, costs) if resolved > 1 else None
    return ResiliencePolicy(
        timeout=timeout,
        retries=retries,
        hedge_delay=hedge_delay,
        breaker_threshold=breaker_threshold,
        breaker_reset=breaker_reset,
        clone_factor=resolved,
        clone_cost=cost,
    )


def clone_cost_for_plane(
    plane: str, costs: Optional[CostModel] = None
) -> CloneCostModel:
    """The calibrated per-plane clone cost, derived from the kernel model.

    SPRIGHT planes clone by allocating a descriptor against the buffer
    already in the shared-memory pool (pool get + ring enqueue/dequeue);
    Knative clones re-serialize, copy, and re-parse the payload per clone;
    gRPC skips the broker-side re-parse but still marshals.
    """
    costs = costs or DEFAULT_COSTS
    name = plane.replace("-", "").lower()
    if name in ("sspright", "dspright", "lambdanic", "spright"):
        return CloneCostModel(
            kind="descriptor",
            fixed=costs.shm_pool_get + costs.ring_enqueue + costs.ring_dequeue,
            per_byte=0.0,
        )
    if name in ("kn", "knative"):
        return CloneCostModel(
            kind="marshal",
            fixed=costs.serialize_fixed + costs.deserialize_fixed + costs.copy_fixed,
            per_byte=costs.serialize_per_byte
            + costs.deserialize_per_byte
            + costs.copy_per_byte,
        )
    if name == "grpc":
        return CloneCostModel(
            kind="marshal",
            fixed=costs.serialize_fixed + costs.copy_fixed,
            per_byte=costs.serialize_per_byte + costs.copy_per_byte,
        )
    raise KeyError(f"no clone cost model for plane {plane!r}")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the gateway-side resilience controller.

    The default constructs an entirely inert policy: no timeout, no
    retries, no hedging, breaker disabled. ``Dataplane.submit`` only
    engages the controller when :meth:`enabled` is true.
    """

    timeout: Optional[float] = None  # per-attempt deadline (seconds)
    retries: int = 0  # extra attempts after the first
    backoff_base: float = 0.002  # first backoff (seconds)
    backoff_cap: float = 0.25  # exponential growth ceiling
    backoff_jitter: float = 0.5  # +- fraction of the delay
    hedge_delay: Optional[float] = None  # None = hedging off
    hedge_max: int = 1  # extra cloned attempts per round
    breaker_threshold: int = 0  # 0 = breaker disabled
    breaker_reset: float = 1.0  # open -> half-open cooldown
    # Synchronized cloning: d attempts launched together at dispatch, on
    # distinct pods, first completion wins. 1 = off. ``clone_cost`` prices
    # the d-1 extra dispatches (see clone_cost_for_plane).
    clone_factor: int = 1
    clone_cost: Optional[CloneCostModel] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")
        if self.clone_factor < 1:
            raise ValueError("clone_factor must be >= 1")

    def enabled(self) -> bool:
        return (
            self.timeout is not None
            or self.retries > 0
            or self.hedge_delay is not None
            or self.breaker_threshold > 0
            or self.clone_factor > 1
        )

    # -- deterministic delays (unit-testable without an Environment) ---------------
    def backoff_delay(self, rng: "RandomStreams", attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered.

        ``delay = min(base * 2**(attempt-1), cap)`` then scaled by a
        uniform factor in ``[1 - jitter, 1 + jitter]`` drawn from the
        ``resilience/backoff`` stream — deterministic per seed.
        """
        delay = min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
        if self.backoff_jitter > 0:
            delay *= rng.uniform(
                BACKOFF_STREAM, 1.0 - self.backoff_jitter, 1.0 + self.backoff_jitter
            )
        return delay

    def hedge_jitter(self, rng: "RandomStreams") -> float:
        """Jittered hedge trigger delay (breaks clone synchronization)."""
        assert self.hedge_delay is not None
        if self.backoff_jitter <= 0:
            return self.hedge_delay
        return self.hedge_delay * rng.uniform(
            HEDGE_STREAM, 1.0 - self.backoff_jitter, 1.0 + self.backoff_jitter
        )


class BreakerPermit:
    """Admission ticket from :meth:`CircuitBreaker.acquire`.

    Carries which trip *generation* admitted the attempt and whether it is
    the half-open probe — so a result reported after the breaker tripped
    (or re-tripped) cannot corrupt the state machine.
    """

    __slots__ = ("generation", "probe")

    def __init__(self, generation: int, probe: bool) -> None:
        self.generation = generation
        self.probe = probe


class CircuitBreaker:
    """Per-function consecutive-failure breaker (closed/open/half-open).

    Hardened half-open semantics: when the cooldown expires, *exactly one*
    probe is admitted no matter how many requests arrive concurrently at
    that instant, and only that probe's report can close or re-open the
    breaker. Results from attempts admitted before the trip carry an older
    generation and are ignored — previously a stale failure cleared the
    probe-in-flight flag (admitting a second probe) and a stale success
    closed the breaker without any probe succeeding.
    """

    def __init__(self, env, threshold: int, reset_after: float) -> None:
        self.env = env
        self.threshold = threshold
        self.reset_after = reset_after
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0
        self.generation = 0
        self.probes_admitted = 0
        self._probe_inflight = False

    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self.env.now - self.opened_at < self.reset_after:
            return "open"
        return "half_open"

    # -- permit API ---------------------------------------------------------------
    def acquire(self) -> Optional[BreakerPermit]:
        """Admit one attempt, or return None when the breaker refuses it."""
        if self.threshold <= 0 or self.opened_at is None:
            return BreakerPermit(self.generation, probe=False)
        if self.env.now - self.opened_at < self.reset_after:
            return None
        # half-open: admit exactly one probe until it reports back
        if self._probe_inflight:
            return None
        self._probe_inflight = True
        self.probes_admitted += 1
        return BreakerPermit(self.generation, probe=True)

    def on_success(self, permit: BreakerPermit) -> None:
        if permit.probe:
            self._probe_inflight = False
            self.failures = 0
            self.opened_at = None
            return
        if permit.generation != self.generation:
            return  # stale pre-trip attempt: must not close an open breaker
        self.failures = 0

    def on_failure(self, permit: BreakerPermit) -> None:
        if permit.probe:
            # The probe failed: stay open for a fresh cooldown window.
            self._probe_inflight = False
            self.opened_at = self.env.now
            return
        if permit.generation != self.generation:
            return  # stale pre-trip attempt: the trip already accounted it
        self.failures += 1
        if self.threshold > 0 and self.failures >= self.threshold:
            if self.opened_at is None:
                self.trips += 1
                self.generation += 1
            self.opened_at = self.env.now


class _Attempt:
    """Bookkeeping for one delivery attempt (primary, hedge, or clone)."""

    __slots__ = ("process", "request", "error", "done", "kind")

    def __init__(self, request: "Request", kind: str = "primary") -> None:
        self.process = None
        self.request = request
        self.error: Optional[DeliveryError] = None
        self.done = False
        self.kind = kind


class ResilienceController:
    """Drives delivery attempts for one dataplane according to a policy.

    One controller per dataplane; breakers are keyed by the request's entry
    function (the chain head for chained planes, which is where DFR routing
    and the autoscaler already make their decisions). Counters land in the
    node's ``faults/resilience/*`` namespace, and every action is marked on
    the original request (``retry:N``, ``hedge:launch``, ``hedge:win``,
    ``breaker:open``), so a traced request's span tree records it.
    """

    def __init__(self, plane: "Dataplane", policy: ResiliencePolicy) -> None:
        self.plane = plane
        self.policy = policy
        self.env = plane.node.env
        self.rng = plane.node.rng
        self.counters = plane.node.counters
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker_for(self, function: str) -> CircuitBreaker:
        breaker = self._breakers.get(function)
        if breaker is None:
            breaker = CircuitBreaker(
                self.env, self.policy.breaker_threshold, self.policy.breaker_reset
            )
            self._breakers[function] = breaker
        return breaker

    def breaker_trips(self) -> int:
        return sum(breaker.trips for breaker in self._breakers.values())

    # -- the main engine -----------------------------------------------------------
    def execute(self, request: "Request"):
        """Deliver ``request`` under the policy (simulation generator).

        On success the original ``request`` carries the winning attempt's
        completion state. On exhaustion it is marked failed with the last
        :class:`DeliveryError` stored on ``request.error``.
        """
        policy = self.policy
        entry = request.request_class.sequence[0]
        breaker = self.breaker_for(entry)
        last_error: Optional[DeliveryError] = None

        for attempt_no in range(policy.retries + 1):
            permit = breaker.acquire()
            if permit is None:
                self.counters.incr("faults/resilience/breaker_fastfail")
                request.mark("breaker:open", self.env.now)
                last_error = DeliveryError("breaker_open", f"breaker open for {entry}")
                break
            if attempt_no > 0:
                self.counters.incr("faults/resilience/retry")
                request.mark(f"retry:{attempt_no}", self.env.now)
                yield self.env.timeout(self.backoff_delay(attempt_no))

            error = yield from self._race(request, attempt_no)
            if error is None:
                breaker.on_success(permit)
                return
            last_error = error
            breaker.on_failure(permit)
            if not error.retryable:
                break

        request.failed = True
        request.error = last_error
        request.mark("failed", self.env.now)
        self.counters.incr("faults/resilience/exhausted")

    def backoff_delay(self, attempt: int) -> float:
        return self.policy.backoff_delay(self.rng, attempt)

    # -- one attempt round: primary + optional hedges, first win cancels the rest --
    def _race(self, request: "Request", attempt_no: int):
        """Run one attempt round. Returns None on success, else the error.

        The primary attempt runs on the original request, keeping its audit
        trace and span tree, so the primary's phases are recorded. Hedges
        and clones run on shadows detached from the tracer (see
        :meth:`_spawn_shadow`): the round's own ``hedge:``/``clone:`` marks
        land on the original request, a shadow's deliver/serve marks are
        not recorded.
        """
        policy = self.policy
        cloned = policy.clone_factor > 1
        if cloned:
            # Fresh claimed-pod set per round: the primary and every clone
            # add their chosen pod, so clones land on distinct pods. Shadow
            # requests share the set object (see _spawn_shadow).
            request.claimed_pods = set()
        attempts = [self._spawn(request, attempt_no, hedge=0)]
        for clone_index in range(1, policy.clone_factor):
            self.counters.incr("cloning/clones")
            request.mark(f"clone:launch:{clone_index}", self.env.now)
            attempts.append(
                self._spawn_shadow(
                    request,
                    attempt_no,
                    clone_index,
                    kind="clone",
                    clone_cost=self._clone_cost(request),
                )
            )
        hedges_launched = 0
        deadline = (
            self.env.timeout(policy.timeout) if policy.timeout is not None else None
        )

        while True:
            waits = [attempt.process for attempt in attempts if not attempt.done]
            if not waits:
                break
            if deadline is not None and not deadline.processed:
                waits.append(deadline)
            hedge_timer = None
            if (
                policy.hedge_delay is not None
                and hedges_launched < policy.hedge_max
                and not any(attempt.done for attempt in attempts)
            ):
                hedge_timer = self.env.timeout(policy.hedge_jitter(self.rng))
                waits.append(hedge_timer)

            yield self.env.any_of(waits)

            winner = self._winner(attempts)
            if winner is not None:
                self._cancel_losers(attempts, winner)
                if winner.request is not request:
                    self._adopt(request, winner.request)
                    if winner.kind == "clone":
                        request.mark("clone:win", self.env.now)
                        self.counters.incr("cloning/win_clone")
                    else:
                        request.mark("hedge:win", self.env.now)
                        self.counters.incr("faults/resilience/hedge_win")
                elif cloned:
                    self.counters.incr("cloning/win_primary")
                return None
            if deadline is not None and deadline.processed:
                self._cancel_losers(attempts, None)
                self.counters.incr("faults/resilience/timeout")
                return DeliveryError("timeout", f"attempt round {attempt_no} timed out")
            if all(attempt.done for attempt in attempts):
                break
            if hedge_timer is not None and hedge_timer.processed:
                hedges_launched += 1
                self.counters.incr("faults/resilience/hedge")
                request.mark("hedge:launch", self.env.now)
                attempts.append(
                    self._spawn_shadow(request, attempt_no, hedges_launched)
                )

        # every attempt failed on its own: surface the primary's error
        for attempt in attempts:
            if attempt.error is not None:
                return attempt.error
        return DeliveryError("crash", "all attempts failed without detail")

    def _clone_cost(self, request: "Request") -> float:
        if self.policy.clone_cost is None:
            return 0.0
        return self.policy.clone_cost.cost(len(request.payload))

    def _spawn(
        self,
        request: "Request",
        attempt_no: int,
        hedge: int,
        kind: str = "primary",
        clone_cost: float = 0.0,
    ) -> _Attempt:
        attempt = _Attempt(request, kind=kind)

        def runner():
            try:
                if clone_cost > 0.0:
                    # The clone's marshal/descriptor cost: burns gateway CPU
                    # and delays this clone's dispatch (the primary is free).
                    tag = f"{getattr(self.plane, 'plane', 'plane')}/gw/clone"
                    yield self.plane.node.cpu.execute(
                        clone_cost, tag, op="clone_dispatch"
                    )
                yield from self.plane.deliver_once(request)
            except DeliveryError as error:
                attempt.error = error
            except Interrupt:
                attempt.error = DeliveryError("timeout", "attempt cancelled")
            finally:
                attempt.done = True

        attempt.process = self.env.process(
            runner(),
            name=f"attempt-{request.request_class.name}-a{attempt_no}h{hedge}",
        )
        return attempt

    def _spawn_shadow(
        self,
        request: "Request",
        attempt_no: int,
        hedge: int,
        kind: str = "hedge",
        clone_cost: float = 0.0,
    ) -> _Attempt:
        """Launch a hedge/clone on a shadow: same identity, no audit trace
        (so kernel-op audits are not double-counted by cloned traversals).

        The shadow shares the claimed-pod set, so synchronized clones land
        on pairwise-distinct pods. It carries no span and no tracer, so its
        marks are no-ops: giving shadows the original's tracer would record
        every shadow traversal too, roughly doubling the spans per request
        of a cloned chaos run (59 to 115) while changing no table."""
        from ..dataplane.base import Request

        shadow = Request(
            request_class=request.request_class,
            payload=request.payload,
            created_at=request.created_at,
            trace=None,
        )
        shadow.claimed_pods = request.claimed_pods
        return self._spawn(shadow, attempt_no, hedge, kind=kind, clone_cost=clone_cost)

    def _winner(self, attempts: list[_Attempt]) -> Optional[_Attempt]:
        for attempt in attempts:
            if attempt.done and attempt.error is None and not attempt.request.failed:
                return attempt
        return None

    def _cancel_losers(
        self, attempts: list[_Attempt], winner: Optional[_Attempt]
    ) -> None:
        for attempt in attempts:
            if attempt is winner or attempt.done:
                continue
            if attempt.process.is_alive:
                attempt.process.interrupt("cancelled: raced out")
                self.counters.incr("faults/resilience/cancelled")
                if attempt.kind == "clone" or (
                    winner is not None and winner.kind == "clone"
                ):
                    self.counters.incr("cloning/cancelled")

    def _adopt(self, request: "Request", shadow: "Request") -> None:
        """Copy a winning hedge's completion state onto the original."""
        request.response = shadow.response
        request.completed_at = shadow.completed_at
        request.failed = shadow.failed
        request.error = shadow.error
