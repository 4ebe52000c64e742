"""Named fault plans for the CLI and the resilience experiment suite.

``--fault-plan`` accepts either one of these names or a path to a JSON file
matching :meth:`FaultPlan.from_dict`. The plans are deliberately small and
legible — each one isolates a failure family the paper's resilience story
must survive.
"""

from __future__ import annotations

from .injector import FaultKind, FaultPlan, FaultSpec


def _loss_crash() -> FaultPlan:
    """The acceptance scenario: 1% packet loss plus a mid-run pod crash."""
    return FaultPlan(
        name="loss-crash",
        faults=[
            FaultSpec(kind=FaultKind.PACKET_DROP, probability=0.01),
            FaultSpec(kind=FaultKind.POD_CRASH, at=2.0, duration=3.0),
        ],
    )


def _lossy() -> FaultPlan:
    """Pure 1% stochastic packet loss on every kernel leg."""
    return FaultPlan(
        name="lossy",
        faults=[FaultSpec(kind=FaultKind.PACKET_DROP, probability=0.01)],
    )


def _crashy() -> FaultPlan:
    """Two pod crashes with staggered recovery plus a short hang."""
    return FaultPlan(
        name="crashy",
        faults=[
            FaultSpec(kind=FaultKind.POD_CRASH, at=1.0, duration=2.0),
            FaultSpec(kind=FaultKind.POD_CRASH, at=4.0, duration=2.0),
            FaultSpec(kind=FaultKind.POD_HANG, at=7.0, duration=1.0),
        ],
    )


def _ring_pressure() -> FaultPlan:
    """Shared-memory stress: forced ring overflows plus descriptor stalls."""
    return FaultPlan(
        name="ring-pressure",
        faults=[
            FaultSpec(kind=FaultKind.RING_OVERFLOW, probability=0.02),
            FaultSpec(
                kind=FaultKind.RING_STALL, at=1.0, duration=2.0, magnitude=0.0005
            ),
        ],
    )


def _crash_storm() -> FaultPlan:
    """Permanent crashes in quick succession: the supervisor must restart.

    Every fault has ``duration=None`` — the pod never recovers on its own,
    so without the recovery subsystem the deployment bleeds capacity until
    nothing serves. With a :class:`~repro.recovery.PodSupervisor` attached,
    each crash is detected, orphaned shared-memory buffers are reclaimed,
    and a replacement pod is restarted behind backoff.
    """
    return FaultPlan(
        name="crash-storm",
        faults=[
            FaultSpec(kind=FaultKind.POD_CRASH, at=2.0, duration=None),
            FaultSpec(kind=FaultKind.POD_CRASH, at=5.0, duration=None),
            FaultSpec(kind=FaultKind.POD_CRASH, at=8.0, duration=None),
            FaultSpec(kind=FaultKind.POD_CRASH, at=11.0, duration=None),
        ],
    )


def _map_churn() -> FaultPlan:
    """eBPF map evictions: sockmap entries vanish, SPROXY must re-register.

    The target names the sockmaps: a bare ``*`` would spend the budget on
    the chain's filter map, registered first, whose evicted allow rules
    fail closed by design and leave nothing to re-register.
    """
    return FaultPlan(
        name="map-churn",
        faults=[
            FaultSpec(kind=FaultKind.MAP_EVICT, at=1.5, magnitude=2, target="sockmap-*"),
            FaultSpec(kind=FaultKind.MAP_EVICT, at=3.0, magnitude=2, target="sockmap-*"),
        ],
    )


NAMED_PLANS = {
    "loss-crash": _loss_crash,
    "lossy": _lossy,
    "crash-storm": _crash_storm,
    "crashy": _crashy,
    "ring-pressure": _ring_pressure,
    "map-churn": _map_churn,
}


def load_plan(spec: str) -> FaultPlan:
    """Resolve ``--fault-plan``: a registered name, a JSON path, or 'none'."""
    if spec in ("", "none", "empty"):
        return FaultPlan.empty()
    factory = NAMED_PLANS.get(spec)
    if factory is not None:
        return factory()
    return FaultPlan.from_json(spec)
