"""Recovery experiment: self-healing under crash storms and overload.

Two scenario families, each run per plane over the boutique (closed loop)
and motion (open loop) workloads:

* **crash-storm** — the ``crash-storm`` fault plan kills pods permanently;
  the :class:`~repro.recovery.PodSupervisor` must detect each crash,
  reclaim the dead instance's shared-memory orphans, and bring up a
  replacement behind backoff. The availability table reports goodput, MTTR
  (detect -> replacement ready), restart/orphan counters, and tail latency
  *during* the recovery window vs *after* it — the paper-style "how bad was
  the dip and how fast did it close";
* **overload** — no faults: the closed loop is driven far past capacity,
  with and without gateway admission control. The point of comparison is
  the no-collapse property: shedding early (bounded queues + CoDel-style
  degradation, lowest-priority classes first) must not cost goodput.

Every run is deterministic per seed. With no plan armed and no recovery or
admission attached, the underlying runners are byte-identical to the
fault-free experiments (regression-tested in ``tests/test_recovery.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..faults import FaultPlan, load_plan
from ..recovery import AdmissionPolicy, SupervisorPolicy
from ..stats import format_table, window_percentile_cells_ms
from ..workloads import boutique
from .boutique_exp import build_boutique
from .common import leaked_slots
from .motion_exp import run_motion

ALL_PLANES = ("knative", "grpc", "s-spright", "d-spright")

#: extra simulated seconds after the load stops, letting in-flight requests
#: finish so the zero-leaked-slots check sees a quiesced pool.
DRAIN = 10.0


@dataclass
class RecoveryRunResult:
    """One (plane, workload, scenario) row of the availability table."""

    plane: str
    workload: str
    scenario: str
    duration: float
    sent: int
    completed: int
    failed: int
    shed: int
    crashes_detected: int = 0
    restarts: int = 0
    restored: int = 0
    orphans_reclaimed: int = 0
    sanitizer_orphans: int = 0
    mttr_mean_s: float = 0.0
    mttr_max_s: float = 0.0
    p99_during_ms: float = float("nan")
    p999_during_ms: float = float("nan")
    p99_after_ms: float = float("nan")
    p999_after_ms: float = float("nan")
    leaked_slots: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Successful completions per simulated second of offered load."""
        return self.completed / self.duration if self.duration else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.sent if self.sent else 0.0

    def as_dict(self) -> dict:
        return {
            "plane": self.plane,
            "workload": self.workload,
            "scenario": self.scenario,
            "sent": self.sent,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "goodput": self.goodput,
            "shed_rate": self.shed_rate,
            "crashes_detected": self.crashes_detected,
            "restarts": self.restarts,
            "restored": self.restored,
            "orphans_reclaimed": self.orphans_reclaimed,
            "sanitizer_orphans": self.sanitizer_orphans,
            "mttr_mean_s": self.mttr_mean_s,
            "mttr_max_s": self.mttr_max_s,
            "p99_during_ms": self.p99_during_ms,
            "p999_during_ms": self.p999_during_ms,
            "p99_after_ms": self.p99_after_ms,
            "p999_after_ms": self.p999_after_ms,
            "leaked_slots": self.leaked_slots,
            "extras": dict(self.extras),
        }


def prioritized_request_classes() -> list:
    """Boutique's chains with workload-class priorities for degradation.

    Ch-3 (the weight-10 browse chain) is the bulk tier shed first; the
    low-volume Ch-1/Ch-6 chains are the protected tier shed last.
    """
    tiers = {"Ch-1": 2, "Ch-6": 2, "Ch-3": 0}
    return [
        replace(cls, priority=tiers.get(cls.name, 1))
        for cls in boutique.request_classes()
    ]


def default_recovery_policy() -> SupervisorPolicy:
    """The CLI's supervisor shape: fast sweeps, sub-second restart cost."""
    return SupervisorPolicy(check_interval=0.25, restart_cost_mean=0.5)


def _recovery_window(
    fault_plan: Optional[FaultPlan], supervisor, duration: float
) -> tuple[float, float]:
    """[first fault, last replacement ready) — the degraded interval."""
    if fault_plan is None or not fault_plan.faults:
        return 0.0, 0.0
    start = min(spec.at for spec in fault_plan.faults)
    if supervisor is not None and supervisor.restored_at:
        end = min(max(supervisor.restored_at), duration)
    else:
        end = duration
    return start, end


def _harvest_recovery(node, supervisor) -> dict:
    counters = node.counters.as_dict()
    return {
        "crashes_detected": counters.get("recovery/crashes_detected", 0),
        "restarts": counters.get("recovery/restarts", 0),
        "restored": counters.get("recovery/restored", 0),
        "orphans_reclaimed": counters.get("recovery/orphans_reclaimed", 0),
        "shed": counters.get("recovery/shed", 0),
        "mttr_mean_s": supervisor.mttr_mean() if supervisor else 0.0,
        "mttr_max_s": supervisor.mttr_max() if supervisor else 0.0,
    }


def _crash_storm_result(
    run, workload: str, fault_plan: FaultPlan, drain: float, sent: int, failed: int
) -> RecoveryRunResult:
    """One crash-storm row from a run finished with ``drain``."""
    stats = _harvest_recovery(run.node, run.supervisor)
    start, end = _recovery_window(fault_plan, run.supervisor, run.duration)
    p99_d, p999_d = window_percentile_cells_ms(run.recorder, start, end)
    p99_a, p999_a = window_percentile_cells_ms(
        run.recorder, end, run.duration + drain
    )
    return RecoveryRunResult(
        plane=run.plane,
        workload=workload,
        scenario="crash-storm",
        duration=run.duration,
        sent=sent,
        completed=run.recorder.count(""),
        failed=failed,
        p99_during_ms=p99_d,
        p999_during_ms=p999_d,
        p99_after_ms=p99_a,
        p999_after_ms=p999_a,
        leaked_slots=leaked_slots(run.plane_obj),
        sanitizer_orphans=sum(
            runtime.sanitizer.orphan_reclaims
            for runtime in getattr(run.plane_obj, "runtimes", {}).values()
            if runtime.sanitizer is not None
        ),
        extras={"recovery_window": (start, end)},
        **stats,
    )


def run_recovery_boutique(
    plane: str,
    fault_plan: Optional[FaultPlan] = None,
    recovery: Optional[SupervisorPolicy] = None,
    admission: Optional[AdmissionPolicy] = None,
    scale: float = 0.05,
    duration: float = 30.0,
    seed: int = 2022,
    drain: float = DRAIN,
) -> RecoveryRunResult:
    """Boutique closed loop through a crash storm with the supervisor on.

    The run drains for ``drain`` so the leak check sees a quiesced pool.
    """
    if fault_plan is None:
        fault_plan = load_plan("crash-storm")
    if recovery is None:
        recovery = default_recovery_policy()
    run = build_boutique(
        plane,
        scale,
        duration,
        seed,
        request_classes=prioritized_request_classes(),
        sanitize=True,
        fault_plan=fault_plan,
        admission=admission,
        recovery=recovery,
    ).finish(drain)
    generator = run.generator
    return _crash_storm_result(
        run,
        "boutique",
        fault_plan,
        drain,
        generator.requests_sent,
        generator.requests_failed,
    )


def run_recovery_motion(
    plane: str,
    fault_plan: Optional[FaultPlan] = None,
    recovery: Optional[SupervisorPolicy] = None,
    duration: float = 600.0,
    seed: int = 2022,
) -> RecoveryRunResult:
    """Motion open loop through a crash storm with the supervisor on."""
    if fault_plan is None:
        fault_plan = load_plan("crash-storm")
    if recovery is None:
        recovery = default_recovery_policy()
    run = run_motion(
        plane,
        duration=duration,
        seed=seed,
        fault_plan=fault_plan,
        recovery=recovery,
        sanitize=True,
        drain=DRAIN,
    )
    return _crash_storm_result(
        run, "motion", fault_plan, DRAIN, run.generator.submitted, run.generator.failed
    )


def run_overload_boutique(
    plane: str,
    admission: Optional[AdmissionPolicy] = None,
    users: int = 48,
    scale: float = 0.02,
    duration: float = 5.0,
    seed: int = 2022,
) -> RecoveryRunResult:
    """Boutique driven past capacity, with vs without admission control.

    Overload comes from the demand side *and* the supply side: a small node
    (``scale``) is hit by a zero-think closed loop of ``users`` clients —
    far more concurrency than the chain can serve at its latency target.
    The identical overload runs twice — once unprotected, once with the
    admission policy, each drained for ``DRAIN`` so both count the same
    completions — and the protected run is reported, with the
    unprotected goodput in ``extras["goodput_no_shed"]`` for the
    no-collapse comparison.
    """
    if admission is None:
        # Size the queue bound just under the offered concurrency, and put
        # the sojourn target between the healthy floor (~0.1-0.9 ms: even
        # the fastest chain rides empty queues) and the overloaded floor
        # (~1.4 ms: every window's luckiest request still queued). The CoDel
        # law then engages only when a standing queue forms.
        # max_degrade_level=1 sheds only the bulk browse tier (priority 0):
        # in a closed loop, shed clients re-draw immediately, so deeper
        # degradation just starves the admitted classes without relieving
        # concurrency — level 1 is where goodput actually improves.
        admission = AdmissionPolicy(
            queue_limit=max(8, int(users * 0.8)),
            target_delay=0.001,
            delay_window=0.5,
            max_degrade_level=1,
        )
    kwargs = dict(
        users=users,
        spawn_rate=max(32.0, users / 2.0),
        think_time=None,
        request_classes=prioritized_request_classes(),
        sanitize=True,
    )
    baseline = build_boutique(plane, scale, duration, seed, **kwargs).finish(DRAIN)
    protected = build_boutique(
        plane, scale, duration, seed, admission=admission, **kwargs
    ).finish(DRAIN)
    generator = protected.generator
    counters = protected.node.counters.as_dict()
    shed_by_class = {
        name.rsplit("/", 1)[-1]: count
        for name, count in sorted(counters.items())
        if name.startswith("recovery/shed/")
    }
    p99, p999 = window_percentile_cells_ms(protected.recorder, 0.0, math.inf)
    base_p99, _ = window_percentile_cells_ms(baseline.recorder, 0.0, math.inf)
    return RecoveryRunResult(
        plane=plane,
        workload="boutique",
        scenario="overload",
        duration=duration,
        sent=generator.requests_sent,
        completed=protected.recorder.count(""),
        failed=generator.requests_failed,
        shed=counters.get("recovery/shed", 0),
        p99_during_ms=p99,
        p999_during_ms=p999,
        p99_after_ms=p99,
        p999_after_ms=p999,
        leaked_slots=leaked_slots(protected.plane_obj),
        extras={
            "goodput_no_shed": baseline.recorder.count("") / duration,
            "p99_no_shed_ms": base_p99,
            "shed_by_class": shed_by_class,
            "degrade_ups": counters.get("recovery/degrade_ups", 0),
            "degrade_downs": counters.get("recovery/degrade_downs", 0),
        },
    )


def run_recovery_suite(
    planes: Sequence[str] = ALL_PLANES,
    scale: float = 0.05,
    boutique_duration: float = 30.0,
    motion_duration: float = 600.0,
    seed: int = 2022,
    include_overload: bool = True,
) -> list[RecoveryRunResult]:
    """Crash-storm (both workloads) and overload rows for every plane."""
    results = []
    for plane in planes:
        results.append(
            run_recovery_boutique(
                plane, scale=scale, duration=boutique_duration, seed=seed
            )
        )
    for plane in planes:
        results.append(
            run_recovery_motion(plane, duration=motion_duration, seed=seed)
        )
    if include_overload:
        for plane in planes:
            # The overload probe keeps its own tuned shape (small node,
            # zero-think clients, short horizon) — the crash-storm scale
            # and duration would dilute it below saturation.
            results.append(run_overload_boutique(plane, seed=seed))
    return results


def format_availability_table(results: Sequence[RecoveryRunResult]) -> str:
    rows = []
    for r in results:
        rows.append(
            [
                r.plane,
                r.workload,
                r.scenario,
                r.sent,
                round(r.goodput, 1),
                round(100.0 * r.shed_rate, 1),
                r.restored,
                round(r.mttr_mean_s, 2),
                r.orphans_reclaimed,
                r.leaked_slots,
                round(r.p99_during_ms, 2),
                round(r.p99_after_ms, 2),
                round(r.p999_during_ms, 2),
                round(r.p999_after_ms, 2),
            ]
        )
    return format_table(
        [
            "plane",
            "workload",
            "scenario",
            "sent",
            "goodput (rps)",
            "shed %",
            "restored",
            "MTTR (s)",
            "orphans",
            "leaked",
            "p99 dur (ms)",
            "p99 aft (ms)",
            "p999 dur (ms)",
            "p999 aft (ms)",
        ],
        rows,
        title="Availability under crash storms and overload",
    )


def format_overload_comparison(results: Sequence[RecoveryRunResult]) -> str:
    """The no-collapse check: goodput/p99 with admission vs without."""
    rows = []
    for r in results:
        if r.scenario != "overload":
            continue
        rows.append(
            [
                r.plane,
                round(r.extras.get("goodput_no_shed", 0.0), 1),
                round(r.goodput, 1),
                round(r.extras.get("p99_no_shed_ms", float("nan")), 2),
                round(r.p99_during_ms, 2),
                r.shed,
                r.extras.get("degrade_ups", 0),
            ]
        )
    if not rows:
        rows.append(["-", 0, 0, 0, 0, 0, 0])
    return format_table(
        [
            "plane",
            "goodput no-shed",
            "goodput shed",
            "p99 no-shed (ms)",
            "p99 shed (ms)",
            "shed",
            "degrade ups",
        ],
        rows,
        title="Overload: admission control vs unprotected (no-collapse)",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro recovery``."""
    config = dict(config or {})
    duration = config.get("duration", 30.0)
    include_overload = config.get("include_overload", True)
    results = run_recovery_suite(
        planes=tuple(config.get("planes") or ALL_PLANES),
        scale=config.get("scale", 0.1),
        boutique_duration=duration,
        motion_duration=config.get("motion_duration", duration * 20),
        seed=config.get("seed", 2022),
        include_overload=include_overload,
    )
    sections = [format_availability_table(results)]
    if include_overload:
        sections.append(format_overload_comparison(results))
    return "\n\n".join(sections)
