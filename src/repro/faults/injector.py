"""Deterministic fault injection: the plan, the specs, and the injector.

The paper's resilience story (§3.3's in-kubelet health checks, DFR routing
around dead instances, load-proportional recovery) is only believable if the
repro can *break things on purpose*. This module provides that: a
:class:`FaultPlan` of scheduled and stochastic faults, executed by a
per-node :class:`FaultInjector` whose every random decision comes from the
node's named :class:`~repro.simcore.RandomStreams` — so a given seed always
breaks the same packets, crashes the same pods, and evicts the same map
entries, on every run, on every dataplane.

Injection points (each substrate exposes a hook; see DESIGN.md):

* **kernel legs** — the one packet-loss site: the audited transfer legs in
  ``dataplane/legs.py`` (``leg_external``, ``leg_kernel``,
  ``leg_localhost``) consult the injector per traversal (drop,
  corrupt-and-discard), so every plane sees the same loss process;
* **shared-memory rings** — ``mem/rings.py`` enqueue honors a
  ``fault_hook`` (forced overflow) and the ring transport adds
  injector-driven descriptor stalls;
* **pods** — crash (``pod.fail()``/``recover()``, observed by the
  HealthProber), hang (unresponsive to probes *and* glacially slow), and
  slowdown (service-time multiplier);
* **eBPF maps** — entries evicted from sockmaps/hashmaps at a scheduled
  instant, breaking SPROXY redirection until the runtime re-registers.

The injector is inert (``active == False``) until :meth:`FaultInjector.arm`
is called with a non-empty plan. Every hook's fast path is a single
attribute check and **no RNG stream is touched while inert**, which keeps
fault-free runs bit-identical to a build without this subsystem.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import Deployment, WorkerNode


class FaultKind(enum.Enum):
    PACKET_DROP = "packet_drop"
    PACKET_CORRUPT = "packet_corrupt"
    RING_OVERFLOW = "ring_overflow"
    RING_STALL = "ring_stall"
    POD_CRASH = "pod_crash"
    POD_HANG = "pod_hang"
    POD_SLOW = "pod_slow"
    MAP_EVICT = "map_evict"


#: kinds driven by a per-event probability inside an (optional) window
STOCHASTIC_KINDS = {
    FaultKind.PACKET_DROP,
    FaultKind.PACKET_CORRUPT,
    FaultKind.RING_OVERFLOW,
}
#: kinds executed once at ``at`` against a chosen target
SCHEDULED_KINDS = {
    FaultKind.POD_CRASH,
    FaultKind.POD_HANG,
    FaultKind.POD_SLOW,
    FaultKind.MAP_EVICT,
}


class FaultPlanError(ValueError):
    """An invalid fault plan or fault spec."""


@dataclass
class FaultSpec:
    """One fault. Interpretation depends on ``kind``:

    * stochastic kinds (``packet_drop``, ``packet_corrupt``,
      ``ring_overflow``): every matching event inside ``[at, at+duration)``
      fails with ``probability`` (``duration`` ``None`` = until the end of
      the run);
    * ``ring_stall``: matching dequeues inside the window are delayed by
      ``magnitude`` seconds;
    * ``pod_crash``/``pod_hang``: at ``at``, one pod of ``target`` (RNG
      pick) fails/hangs, recovering after ``duration`` (``None`` = never);
    * ``pod_slow``: the pod's service times are multiplied by ``magnitude``
      for ``duration`` seconds;
    * ``map_evict``: at ``at``, up to ``int(magnitude)`` entries are
      deleted from eBPF maps whose name matches ``target``.

    ``target`` is an ``fnmatch`` pattern against the hook's identity (a
    device/leg tag, ring name, function name, or map name); ``"*"`` matches
    everything.
    """

    kind: FaultKind
    at: float = 0.0
    duration: Optional[float] = None
    probability: float = 0.0
    target: str = "*"
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            self.kind = FaultKind(self.kind)
        if self.at < 0:
            raise FaultPlanError("fault 'at' must be >= 0")
        if self.duration is not None and self.duration < 0:
            raise FaultPlanError("fault duration must be >= 0")
        if self.kind in STOCHASTIC_KINDS and not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("probability must be within [0, 1]")
        if self.kind is FaultKind.POD_SLOW and self.magnitude < 1.0:
            raise FaultPlanError("pod_slow magnitude must be >= 1")
        if self.kind is FaultKind.MAP_EVICT and self.magnitude < 1:
            raise FaultPlanError("map_evict magnitude must be >= 1")

    def window_contains(self, now: float) -> bool:
        if now < self.at:
            return False
        if self.duration is None:
            return True
        return now < self.at + self.duration

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "at": self.at,
            "duration": self.duration,
            "probability": self.probability,
            "target": self.target,
            "magnitude": self.magnitude,
        }


@dataclass
class FaultPlan:
    """A named, ordered collection of faults (the ``--fault-plan`` input)."""

    name: str = "empty"
    faults: list[FaultSpec] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(name="empty", faults=[])

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultPlanError("fault plan must be a dict with a 'faults' list")
        faults = []
        for entry in data["faults"]:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise FaultPlanError(f"invalid fault entry: {entry!r}")
            known = {"kind", "at", "duration", "probability", "target", "magnitude"}
            unknown = set(entry) - known
            if unknown:
                raise FaultPlanError(f"unknown fault fields: {sorted(unknown)}")
            faults.append(FaultSpec(**entry))
        return cls(name=str(data.get("name", "custom")), faults=faults)

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def as_dict(self) -> dict:
        return {"name": self.name, "faults": [fault.as_dict() for fault in self.faults]}


class FaultInjector:
    """Per-node fault executor; owned by :class:`WorkerNode` as ``.faults``.

    Construction is free and inert. :meth:`arm` activates a plan: scheduled
    faults become simulation processes; stochastic faults are evaluated at
    the hook sites via the predicate methods below. Counters land under the
    node's ``faults/injected/*`` namespace.
    """

    def __init__(self, node: "WorkerNode") -> None:
        self.node = node
        self.plan: Optional[FaultPlan] = None
        self.active = False
        self._deployments: dict[str, list] = {}
        # per-kind stochastic specs, split once at arm() for cheap lookups
        self._packet_drop: list[FaultSpec] = []
        self._packet_corrupt: list[FaultSpec] = []
        self._ring_overflow: list[FaultSpec] = []
        self._ring_stall: list[FaultSpec] = []
        self._crash_listeners: list = []

    # -- wiring ----------------------------------------------------------------
    def register_deployment(self, function: str, deployment: "Deployment") -> None:
        """Dataplanes register deployments so pod faults can find targets."""
        self._deployments.setdefault(function, []).append(deployment)

    def add_crash_listener(self, callback) -> None:
        """Call ``callback(pod)`` right after an injected pod crash.

        The pod supervisor subscribes here so crash *detection* is prompt
        (the periodic sweep alone would add up to one check interval of
        latency). Listeners fire only for injected crashes; hangs are left
        to probes/sweeps, exactly as in a real cluster where a kill is
        visible to the kubelet immediately but a livelock is not.
        """
        self._crash_listeners.append(callback)

    def arm(self, plan: Optional[FaultPlan]) -> None:
        """Activate a plan; an empty/None plan leaves the injector inert."""
        if plan is None or not plan.faults:
            return
        self.plan = plan
        self.active = True
        for spec in plan.faults:
            if spec.kind is FaultKind.PACKET_DROP:
                self._packet_drop.append(spec)
            elif spec.kind is FaultKind.PACKET_CORRUPT:
                self._packet_corrupt.append(spec)
            elif spec.kind is FaultKind.RING_OVERFLOW:
                self._ring_overflow.append(spec)
            elif spec.kind is FaultKind.RING_STALL:
                self._ring_stall.append(spec)
            else:
                self.node.env.process(
                    self._run_scheduled(spec),
                    name=f"fault-{spec.kind.value}",
                    detached=True,
                )

    # -- stochastic predicates (hook-site fast paths) ------------------------------
    def _stochastic_hit(self, specs: list[FaultSpec], identity: str) -> bool:
        now = self.node.env.now
        for spec in specs:
            if not spec.window_contains(now):
                continue
            if not fnmatch(identity, spec.target):
                continue
            if self.node.rng.uniform("faults/stochastic", 0.0, 1.0) < spec.probability:
                return True
        return False

    def drop_packet(self, point: str, identity: str) -> bool:
        """Should this leg traversal be lost? The one loss site is
        :func:`repro.dataplane.legs._check_loss`; ``point`` names the leg."""
        if not self.active or not self._packet_drop:
            return False
        if self._stochastic_hit(self._packet_drop, identity):
            self.node.counters.incr("faults/injected/packet_drop")
            self.node.counters.incr(f"faults/injected/packet_drop/{point}")
            return True
        return False

    def corrupt_packet(self, point: str, identity: str) -> bool:
        """Should this leg's payload be corrupted (and discarded at the checksum)?"""
        if not self.active or not self._packet_corrupt:
            return False
        if self._stochastic_hit(self._packet_corrupt, identity):
            self.node.counters.incr("faults/injected/packet_corrupt")
            return True
        return False

    def ring_overflow(self, ring_name: str) -> bool:
        """Should this enqueue behave as if the ring were full?"""
        if not self.active or not self._ring_overflow:
            return False
        if self._stochastic_hit(self._ring_overflow, ring_name):
            self.node.counters.incr("faults/injected/ring_overflow")
            return True
        return False

    def ring_stall(self, ring_name: str) -> float:
        """Extra seconds a descriptor dequeue on this ring must wait."""
        if not self.active or not self._ring_stall:
            return 0.0
        now = self.node.env.now
        delay = 0.0
        for spec in self._ring_stall:
            if spec.window_contains(now) and fnmatch(ring_name, spec.target):
                delay += spec.magnitude
        if delay > 0:
            self.node.counters.incr("faults/injected/ring_stall")
        return delay

    # -- scheduled faults --------------------------------------------------------
    def _run_scheduled(self, spec: FaultSpec):
        if spec.at > 0:
            yield self.node.env.timeout(spec.at)
        if spec.kind is FaultKind.MAP_EVICT:
            self._evict_map_entries(spec)
            return
        pod = self._pick_pod(spec.target)
        if pod is None:
            self.node.counters.incr("faults/injected/no_target")
            return
        if spec.kind is FaultKind.POD_CRASH:
            self.node.counters.incr("faults/injected/pod_crash")
            pod.fail()
            for listener in self._crash_listeners:
                listener(pod)
            if spec.duration is not None:
                yield self.node.env.timeout(spec.duration)
                pod.recover()
                self.node.counters.incr("faults/injected/pod_recover")
        elif spec.kind is FaultKind.POD_HANG:
            # A hang: the pod looks alive to routing (healthy) but answers
            # neither probes nor requests in useful time — the prober and
            # the resilience timeouts must dig it out.
            self.node.counters.incr("faults/injected/pod_hang")
            pod.responsive = False
            pod.slowdown = max(pod.slowdown, 1e4)
            if spec.duration is not None:
                yield self.node.env.timeout(spec.duration)
                pod.slowdown = 1.0
                pod.recover()
                self.node.counters.incr("faults/injected/pod_recover")
        elif spec.kind is FaultKind.POD_SLOW:
            self.node.counters.incr("faults/injected/pod_slow")
            pod.slowdown = spec.magnitude
            if spec.duration is not None:
                yield self.node.env.timeout(spec.duration)
                pod.slowdown = 1.0
                self.node.counters.incr("faults/injected/pod_recover")

    def _pick_pod(self, target: str):
        candidates = []
        for function, deployments in sorted(self._deployments.items()):
            if not fnmatch(function, target):
                continue
            for deployment in deployments:
                candidates.extend(deployment.servable_pods())
        if not candidates:
            return None
        return self.node.rng.choice("faults/pod", candidates)

    def _evict_map_entries(self, spec: FaultSpec) -> None:
        """Delete up to ``magnitude`` entries from matching eBPF maps.

        Key 0 (the gateway's sockmap slot) is spared so an eviction breaks
        function delivery, not the response path wholesale — matching the
        realistic failure (pod entries churn; the gateway's is pinned).
        """
        from ..kernel.ebpf.maps import HashMap

        evicted = 0
        budget = int(spec.magnitude)
        for bpf_map in self.node.map_registry.maps():
            if evicted >= budget:
                break
            if not isinstance(bpf_map, HashMap):
                continue
            if not fnmatch(bpf_map.name, spec.target):
                continue
            keys = sorted(key for key in bpf_map.keys() if key != 0)
            while keys and evicted < budget:
                victim = self.node.rng.choice("faults/map", keys)
                keys.remove(victim)
                bpf_map.delete(victim)
                evicted += 1
        self.node.counters.incr("faults/injected/map_evict", evicted)
