"""The pod supervisor: detect crashes/hangs, restart, reclaim, re-program.

This is the self-healing control loop the simulated node was missing: PR 2
made pods *crashable* but nothing ever brought one back, so a crash-storm
left deployments permanently degraded and their in-flight shared-memory
buffers leaked. The supervisor closes the detect -> restart -> reclaim ->
re-program loop:

* **detect** — a periodic sweep (plus the fault injector's synchronous
  crash notification) spots pods that refuse probes. Crashes
  (``healthy=False, responsive=False``) are acted on immediately; hangs
  (responsive=False but still nominally healthy) are given
  ``hang_grace`` seconds to recover before being treated as dead, and a
  :class:`~repro.runtime.health.HealthProber`'s down-set is honored when
  one is wired in;
* **restart** — the dead pod is terminated and replaced through
  :meth:`Deployment.restart_pod` after a capped-exponential per-function
  backoff (jittered from the ``recovery/backoff`` RNG stream), with the
  replacement's cold-start cost sampled from ``recovery/restart`` — a
  first-class restart latency, not a free respawn;
* **reclaim** — once the dead pod is gone, every shared-memory buffer still
  assigned to it is pulled back through the chain runtime's
  :class:`~repro.mem.ShmScavenger` hook (``recovery/orphans_reclaimed``);
* **re-program** — the replacement is gated behind readiness (deployment
  callbacks re-create its socket/ring, sockmap entry, and DFR route), and a
  post-ready verification pass re-registers anything a concurrent map
  eviction undid, extending the ``spright/sockmap_repairs`` path.

Every decision is deterministic per seed, and the supervisor only exists
when an experiment explicitly attaches one — runs without it are
byte-identical to builds without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import Deployment, WorkerNode
    from ..runtime.health import HealthProber
    from ..runtime.pod import Pod
    from ..simcore import RandomStreams

#: RNG stream names (module-level so tests and docs agree on the spelling)
BACKOFF_STREAM = "recovery/backoff"
RESTART_COST_STREAM = "recovery/restart"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for the pod supervisor's control loop."""

    check_interval: float = 0.25    # detection sweep period (seconds)
    hang_grace: float = 1.0         # unresponsive this long => treat as dead
    backoff_base: float = 0.1       # first restart backoff (seconds)
    backoff_cap: float = 5.0        # exponential growth ceiling
    backoff_jitter: float = 0.1     # +- fraction of the delay
    backoff_reset: float = 30.0     # quiet period that clears the backoff
    restart_cost_mean: float = 0.5  # replacement pod cold-start mean (seconds)
    restart_cost_cv: float = 0.25   # ... and its coefficient of variation
    max_restarts: Optional[int] = None  # per function; None = unlimited

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if self.hang_grace < 0:
            raise ValueError("hang_grace must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")

    def restart_backoff(self, rng: "RandomStreams", attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), jittered.

        ``delay = min(base * 2**(attempt-1), cap)`` scaled by a uniform
        factor in ``[1 - jitter, 1 + jitter]`` from the ``recovery/backoff``
        stream — deterministic per seed, mirroring the resilience layer's
        retry backoff so the two are tested the same way.
        """
        delay = min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
        if self.backoff_jitter > 0 and delay > 0:
            delay *= rng.uniform(
                BACKOFF_STREAM, 1.0 - self.backoff_jitter, 1.0 + self.backoff_jitter
            )
        return delay

    def restart_cost(self, rng: "RandomStreams") -> float:
        """The replacement pod's modeled cold-start delay (lognormal)."""
        if self.restart_cost_mean <= 0:
            return 0.0
        return rng.lognormal_service(
            RESTART_COST_STREAM, self.restart_cost_mean, self.restart_cost_cv
        )


@dataclass
class _Watched:
    """Supervisor-side state for one deployment."""

    function: str
    deployment: "Deployment"
    # chain-runtime hooks: reclaim orphans of a dead instance (returns a
    # count) and verify a replacement's transport registration post-ready.
    reclaimers: list = field(default_factory=list)
    verifiers: list = field(default_factory=list)
    attempts: int = 0
    last_restart_at: Optional[float] = None
    restarts: int = 0


class PodSupervisor:
    """Per-node crash-recovery control loop over watched deployments."""

    def __init__(
        self,
        node: "WorkerNode",
        policy: Optional[SupervisorPolicy] = None,
        prober: Optional["HealthProber"] = None,
    ) -> None:
        self.node = node
        self.policy = policy or SupervisorPolicy()
        self.prober = prober
        self._watched: list[_Watched] = []
        self._handled: set[int] = set()          # instance ids being restarted
        self._unresponsive_since: dict[int, float] = {}
        self.mttr_samples: list[float] = []      # detect -> replacement-ready
        self.restored_at: list[float] = []       # sim times replacements came up
        self.restarts = 0
        self.gave_up = 0
        self._started = False

    # -- wiring ----------------------------------------------------------------
    def watch(
        self,
        function: str,
        deployment: "Deployment",
        reclaimer: Optional[Callable[["Pod"], int]] = None,
        verifier: Optional[Callable[["Pod"], None]] = None,
    ) -> None:
        """Supervise one deployment.

        ``reclaimer(dead_pod) -> int`` frees shared-memory orphans of the
        dead instance (the SPRIGHT chain wires its scavenger here);
        ``verifier(new_pod)`` re-checks transport registration once the
        replacement is ready.
        """
        state = _Watched(function=function, deployment=deployment)
        if reclaimer is not None:
            state.reclaimers.append(reclaimer)
        if verifier is not None:
            state.verifiers.append(verifier)
        self._watched.append(state)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.node.env.process(self._loop(), name="pod-supervisor", detached=True)
        # Fast path: the injector tells us about crashes synchronously so
        # detection latency is bounded by the check interval, not by probe
        # thresholds (the sweep still catches hangs and probe-detected
        # deaths).
        self.node.faults.add_crash_listener(self._on_injected_crash)

    # -- detection ----------------------------------------------------------------
    def _on_injected_crash(self, pod: "Pod") -> None:
        state = self._state_for(pod)
        if state is not None and self._should_restart(pod):
            self._begin_restart(state, pod)

    def _state_for(self, pod: "Pod") -> Optional[_Watched]:
        for state in self._watched:
            if pod in state.deployment.pods:
                return state
        return None

    def _should_restart(self, pod: "Pod") -> bool:
        if pod.instance_id in self._handled:
            return False
        if pod.phase.value not in ("running",):
            return False
        return self._looks_dead(pod)

    def _looks_dead(self, pod: "Pod") -> bool:
        now = self.node.env.now
        if not pod.healthy and not pod.responsive:
            return True  # crashed (pod.fail())
        if self.prober is not None and self.prober.is_down(pod):
            return True  # probe threshold tripped
        if not pod.responsive:
            # Hung: unresponsive but nominally healthy. Grant hang_grace for
            # the fault to clear (short injected hangs recover on their own)
            # before declaring the pod dead.
            since = self._unresponsive_since.setdefault(pod.instance_id, now)
            return now - since >= self.policy.hang_grace
        self._unresponsive_since.pop(pod.instance_id, None)
        return False

    def _loop(self):
        while True:
            yield self.node.env.timeout(self.policy.check_interval)
            for state in self._watched:
                for pod in list(state.deployment.pods):
                    if self._should_restart(pod):
                        self._begin_restart(state, pod)

    # -- restart ------------------------------------------------------------------
    def _begin_restart(self, state: _Watched, pod: "Pod") -> None:
        self._handled.add(pod.instance_id)
        self._unresponsive_since.pop(pod.instance_id, None)
        self.node.counters.incr("recovery/crashes_detected")
        self.node.env.process(
            self._restart(state, pod), name=f"restart-{pod.cpu_tag}", detached=True
        )

    def _restart(self, state: _Watched, pod: "Pod"):
        policy = self.policy
        detected_at = self.node.env.now
        # Kill the dead pod; deployment callbacks deregister its sockmap
        # entry / ring and DFR route as it terminates.
        yield pod.terminate()
        # With the instance gone nothing can legitimately touch its buffers:
        # reclaim every orphan it still owned (generation-bumped so stale
        # descriptors fault cleanly).
        for reclaimer in state.reclaimers:
            reclaimer(pod)
        if policy.max_restarts is not None and state.restarts >= policy.max_restarts:
            self.gave_up += 1
            self.node.counters.incr("recovery/gave_up")
            return
        # Capped-exponential backoff per function, escalating across rapid
        # successive restarts and decaying after a quiet period.
        now = self.node.env.now
        if (
            state.last_restart_at is not None
            and now - state.last_restart_at > policy.backoff_reset
        ):
            state.attempts = 0
        state.attempts += 1
        state.last_restart_at = now
        delay = policy.restart_backoff(self.node.rng, state.attempts)
        if delay > 0:
            yield self.node.env.timeout(delay)
        # The replacement pays a modeled cold-start cost; readiness gating
        # comes from the pod lifecycle itself (STARTING until the delay
        # elapses), so traffic only routes to it once it is actually up.
        replacement = state.deployment.restart_pod(
            startup_delay=policy.restart_cost(self.node.rng)
        )
        state.restarts += 1
        self.restarts += 1
        self.node.counters.incr("recovery/restarts")
        yield replacement.ready
        for verifier in state.verifiers:
            verifier(replacement)
        self.mttr_samples.append(self.node.env.now - detected_at)
        self.restored_at.append(self.node.env.now)
        self.node.counters.incr("recovery/restored")
        self._handled.discard(pod.instance_id)

    # -- reporting ------------------------------------------------------------------
    def mttr_mean(self) -> float:
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)

    def mttr_max(self) -> float:
        return max(self.mttr_samples, default=0.0)
