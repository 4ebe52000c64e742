"""Resilience experiment: the four planes under injected faults.

Reruns the online-boutique (closed loop) and motion-detection (open loop)
workloads with a :class:`~repro.faults.FaultPlan` armed — packet loss on
the veth/NIC path, pod crashes, ring overflow — and a gateway-side
:class:`~repro.faults.ResiliencePolicy` (timeout + retries + optional
hedging + circuit breaker) absorbing what it can. The output is a
*resilience table*: per plane and workload, p50/p99/p999 latency of the
requests that completed, goodput (successful completions per second),
and how hard the policy had to work (retries, hedges, breaker trips).

With an empty plan and an inert policy every run is bit-identical to the
fault-free experiments: the injector makes zero RNG draws while disarmed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..faults import (
    FaultPlan,
    ResiliencePolicy,
    default_resilience_for_plane,
    load_plan,
)
from ..stats import format_table, percentile_cells_ms
from .boutique_exp import build_boutique
from .motion_exp import run_motion

ALL_PLANES = ("knative", "grpc", "s-spright", "d-spright")

# Counter names the table aggregates, all maintained by repro.faults.
RESILIENCE_COUNTERS = ("retry", "hedge", "hedge_win", "timeout", "exhausted")

# SPRIGHT's own recovery work, which map-churn and ring-pressure exercise.
RECOVERY_COUNTERS = (
    "spright/sockmap_repairs",
    "spright/ring_overflows",
    "spright/descriptors_dropped",
)


@dataclass
class FaultRunResult:
    """One (plane, workload) cell of the resilience table."""

    plane: str
    workload: str
    duration: float
    sent: int
    completed: int
    failed: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    injected: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)
    recovery: dict = field(default_factory=dict)
    breaker_trips: int = 0

    @property
    def goodput(self) -> float:
        """Successful completions per simulated second."""
        return self.completed / self.duration if self.duration else 0.0

    def as_dict(self) -> dict:
        return {
            "plane": self.plane,
            "workload": self.workload,
            "sent": self.sent,
            "completed": self.completed,
            "failed": self.failed,
            "goodput": self.goodput,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "injected": dict(self.injected),
            "resilience": dict(self.resilience),
            "recovery": dict(self.recovery),
            "breaker_trips": self.breaker_trips,
        }


def _fault_result(run, workload: str, sent: int, failed: int) -> FaultRunResult:
    """One table cell from a finished run: latency cells, faults/*
    counters, non-zero SPRIGHT recovery counters and breaker trips."""
    counters = run.node.counters.as_dict()
    injected = {
        name.rsplit("/", 1)[-1]: count
        for name, count in sorted(counters.items())
        if name.startswith("faults/injected/")
    }
    resilience = {
        name: counters.get(f"faults/resilience/{name}", 0)
        for name in RESILIENCE_COUNTERS
    }
    # Failures the chain absorbed (SPRIGHT worker-side) also count as injected
    # effects worth surfacing, as do per-kind terminal failures.
    for name, count in sorted(counters.items()):
        if name.startswith("faults/failed/"):
            injected.setdefault(f"failed_{name.rsplit('/', 1)[-1]}", count)
    recovery = {
        name: counters[name] for name in RECOVERY_COUNTERS if counters.get(name)
    }
    controller = run.plane_obj.resilience
    p50, p99, p999 = percentile_cells_ms(run.recorder)
    return FaultRunResult(
        plane=run.plane,
        workload=workload,
        duration=run.duration,
        sent=sent,
        completed=run.recorder.count(""),
        failed=failed,
        p50_ms=p50,
        p99_ms=p99,
        p999_ms=p999,
        injected=injected,
        resilience=resilience,
        recovery=recovery,
        breaker_trips=controller.breaker_trips() if controller else 0,
    )


def run_faults_boutique(
    plane: str,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ResiliencePolicy] = None,
    scale: float = 0.05,
    duration: float = 30.0,
    seed: int = 2022,
) -> FaultRunResult:
    """Boutique closed loop on one plane with faults + resilience armed."""
    run = build_boutique(
        plane, scale, duration, seed, fault_plan=fault_plan, resilience=policy
    ).finish()
    generator = run.generator
    return _fault_result(
        run, "boutique", generator.requests_sent, generator.requests_failed
    )


def run_faults_motion(
    plane: str,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ResiliencePolicy] = None,
    duration: float = 600.0,
    seed: int = 2022,
) -> FaultRunResult:
    """Motion open loop on one plane with faults + resilience armed."""
    run = run_motion(
        plane,
        duration=duration,
        seed=seed,
        fault_plan=fault_plan,
        resilience=policy,
    )
    return _fault_result(run, "motion", run.generator.submitted, run.generator.failed)


def run_resilience_suite(
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ResiliencePolicy] = None,
    planes: Sequence[str] = ALL_PLANES,
    scale: float = 0.05,
    boutique_duration: float = 30.0,
    motion_duration: float = 600.0,
    seed: int = 2022,
    retries: int = 2,
    hedge_delay: Optional[float] = None,
    timeout: float = 1.0,
    clone_factor="optimal",
) -> list[FaultRunResult]:
    """Both workloads on every plane; the resilience table's row source.

    Passing ``policy`` pins one explicit :class:`ResiliencePolicy` on every
    plane. Without it, each plane gets its shipped default — retries +
    breaker plus the measured-optimal clone factor for that plane
    (``clone_factor`` accepts an int, ``"optimal"``, or ``"off"``).
    """
    if fault_plan is None:
        fault_plan = load_plan("loss-crash")

    def plane_policy(plane: str) -> ResiliencePolicy:
        if policy is not None:
            return policy
        return default_resilience_for_plane(
            plane,
            retries=retries,
            hedge_delay=hedge_delay,
            timeout=timeout,
            clone_factor=clone_factor,
        )

    results = []
    for plane in planes:
        results.append(
            run_faults_boutique(
                plane,
                fault_plan=fault_plan,
                policy=plane_policy(plane),
                scale=scale,
                duration=boutique_duration,
                seed=seed,
            )
        )
    for plane in planes:
        results.append(
            run_faults_motion(
                plane,
                fault_plan=fault_plan,
                policy=plane_policy(plane),
                duration=motion_duration,
                seed=seed,
            )
        )
    return results


def run_config(config: Optional[dict] = None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro faults``."""
    config = dict(config or {})
    plan_spec = config.get("fault_plan", "loss-crash")
    if isinstance(plan_spec, FaultPlan):
        plan = plan_spec
    elif isinstance(plan_spec, dict):
        plan = FaultPlan.from_dict(plan_spec)
    else:
        plan = load_plan(plan_spec)
    duration = config.get("duration", 30.0)
    results = run_resilience_suite(
        fault_plan=plan,
        planes=tuple(config.get("planes", ALL_PLANES)),
        scale=config.get("scale", 0.1),
        boutique_duration=duration,
        motion_duration=config.get("motion_duration", duration * 20),
        seed=config.get("seed", 2022),
        retries=config.get("retries", 2),
        hedge_delay=config.get("hedge_delay"),
        timeout=config.get("request_timeout", 1.0),
        clone_factor=config.get("clone_factor", "optimal"),
    )
    return "\n\n".join(
        [
            format_resilience_table(results, plan_name=plan.name),
            format_fault_counters(results),
        ]
    )


def format_resilience_table(
    results: Sequence[FaultRunResult], plan_name: str = ""
) -> str:
    rows = []
    for r in results:
        rows.append(
            [
                r.plane,
                r.workload,
                r.sent,
                r.failed,
                round(r.goodput, 1),
                round(r.p50_ms, 3),
                round(r.p99_ms, 3),
                round(r.p999_ms, 3),
                r.resilience.get("retry", 0),
                r.resilience.get("hedge", 0),
                r.breaker_trips,
            ]
        )
    title = "Resilience under injected faults"
    if plan_name:
        title += f" (plan: {plan_name})"
    return format_table(
        [
            "plane",
            "workload",
            "sent",
            "failed",
            "goodput (rps)",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "retries",
            "hedges",
            "breaker trips",
        ],
        rows,
        title=title,
    )


def format_fault_counters(results: Sequence[FaultRunResult]) -> str:
    """Per-run faults/* counter dump, the table's audit trail."""
    rows = []
    for r in results:
        for name, count in sorted(r.injected.items()):
            rows.append([r.plane, r.workload, f"injected/{name}", count])
        for name, count in sorted(r.resilience.items()):
            if count:
                rows.append([r.plane, r.workload, f"resilience/{name}", count])
        for name, count in r.recovery.items():
            rows.append([r.plane, r.workload, name, count])
    if not rows:
        rows.append(["-", "-", "(no faults fired)", 0])
    return format_table(
        ["plane", "workload", "counter", "count"],
        rows,
        title="Fault injection + resilience counters",
    )
