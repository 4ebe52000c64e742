"""E8 (Fig 11): IoT motion detection — cold start vs always-warm.

Knative runs with scale-to-zero enabled (30 s grace period) on cold-start
pods, so bursts arriving after an idle gap pay seconds of startup latency
that cascades down the 2-function chain. S-SPRIGHT keeps one pod per
function warm — affordable because its event-driven pods consume no CPU
when idle — and shows flat response times throughout.
"""

from __future__ import annotations

from typing import Optional

from ..dataplane import SprightParams
from ..runtime import Autoscaler, AutoscalerPolicy, Kubelet, MetricsServer
from ..stats import LatencyRecorder, format_table
from ..workloads import OpenLoopGenerator
from ..workloads.motion import (
    MotionTraceParams,
    motion_functions,
    synthesize_motion_trace,
)
from .common import ScenarioResult, arm, build_plane, make_node


class MotionRun(ScenarioResult):
    """A motion run; its generator is the trace's OpenLoopGenerator."""

    @property
    def cold_starts(self) -> int:
        return self.node.counters.get(f"{self.plane_obj.plane}/cold_starts")

    def max_latency_s(self) -> float:
        return self.recorder.summary("").maximum

    def fn_cpu_percent(self) -> float:
        return self.cpu_percent("fn")

    def qp_cpu_percent(self) -> float:
        return self.cpu_percent("qp")


def run_motion(
    plane: str,
    duration: float = 3600.0,
    seed: int = 2022,
    grace_period: float = 30.0,
    trace_params: Optional[MotionTraceParams] = None,
    fault_plan=None,
    resilience=None,
    admission=None,
    recovery=None,
    sanitize=None,
    drain: float = 0.0,
) -> MotionRun:
    """One plane over the same synthetic MERL-like trace, finished with
    ``drain`` (see :meth:`~.common.ScenarioResult.finish`).

    ``fault_plan``/``resilience`` (see :mod:`repro.faults`) rerun the trace
    under injected failures with gateway-side retries; ``admission``/
    ``recovery`` (see :mod:`repro.recovery`) bound the front door and attach
    the pod supervisor. All default inert.
    """
    params = trace_params or MotionTraceParams(duration=duration)
    node = make_node(seed=seed)
    zero_scale = plane in ("knative", "grpc")
    functions = motion_functions(min_scale=0 if zero_scale else 1)
    kubelet = Kubelet(
        node,
        cold_start_enabled=zero_scale,
        termination_lag=30.0 if zero_scale else 0.0,
    )
    metrics = MetricsServer(registry=node.obs.registry)
    plane_obj = build_plane(
        plane,
        node,
        functions,
        kubelet=kubelet,
        metrics_server=metrics,
        spright_params=SprightParams(sanitize=sanitize),
    )
    supervisor = arm(node, plane_obj, fault_plan, resilience, admission, recovery)
    if zero_scale:
        autoscaler = Autoscaler(node, metrics)
        for deployment in plane_obj.deployments.values():
            autoscaler.register(
                deployment,
                AutoscalerPolicy(scale_to_zero=True, grace_period=grace_period),
            )
        autoscaler.start()
    recorder = LatencyRecorder()
    trace = synthesize_motion_trace(node, params)
    generator = OpenLoopGenerator(node, plane_obj, trace, recorder)
    generator.start()
    run = MotionRun(
        plane, duration, recorder, node, plane_obj, generator, supervisor=supervisor
    )
    return run.finish(drain)


def run_fig11(duration: float = 3600.0, seed: int = 2022):
    return {
        "knative": run_motion("knative", duration=duration, seed=seed),
        "s-spright": run_motion("s-spright", duration=duration, seed=seed),
    }


def format_report(runs: dict) -> str:
    rows = []
    for plane, run in runs.items():
        summary = run.recorder.summary("")
        rows.append(
            [
                plane,
                summary.count,
                summary.mean * 1e3,
                summary.p99 * 1e3,
                run.max_latency_s(),
                run.cold_starts,
                round(run.fn_cpu_percent() + run.qp_cpu_percent(), 1),
            ]
        )
    return format_table(
        ["plane", "events", "mean (ms)", "p99 (ms)", "max (s)", "cold starts", "CPU %"],
        rows,
        title="Fig 11: motion detection — cold start vs warm event-driven pods",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro motion``."""
    config = dict(config or {})
    runs = run_fig11(
        duration=config.get("duration", 3600.0), seed=config.get("seed", 2022)
    )
    return format_report(runs)
