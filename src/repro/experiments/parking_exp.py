"""E9 (Fig 12): parking image detection & charging — pre-warm vs SPRIGHT.

The workload is strictly periodic (164 snapshots every 240 s), so Knative is
given the best case the paper grants it: functions are pre-warmed 20 s before
each burst and scaled to zero in between (30 s grace, with the observed slow
80 s termination). S-SPRIGHT simply keeps its pods warm. The paper reports
S-SPRIGHT saving ~41% CPU and ~16% response time over the 700 s experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime import Autoscaler, AutoscalerPolicy, Kubelet, MetricsServer
from ..stats import LatencyRecorder, format_table
from ..workloads import OpenLoopGenerator
from ..workloads.parking import (
    ParkingTraceParams,
    next_burst_times,
    parking_functions,
    synthesize_parking_trace,
)
from .common import build_plane, make_node

PREWARM_LEAD = 20.0  # seconds before each burst (§4.2.2)


@dataclass
class ParkingRun:
    plane: str
    duration: float
    recorder: LatencyRecorder
    node: object
    plane_obj: object

    def latency_ms(self, which: str = "mean") -> float:
        return getattr(self.recorder.summary(""), which) * 1e3

    def total_cpu_core_seconds(self) -> float:
        prefix = f"{self.plane_obj.plane}/"
        accounting = self.node.cpu.accounting
        return sum(
            busy
            for tag, busy in accounting.total_busy.items()
            if tag.startswith(prefix)
        )

    def latency_series(self, bucket: float = 30.0):
        return self.recorder.latency_series(bucket=bucket)


def run_parking(
    plane: str,
    duration: float = 700.0,
    seed: int = 2022,
    prewarm: bool = True,
    trace_params: Optional[ParkingTraceParams] = None,
) -> ParkingRun:
    params = trace_params or ParkingTraceParams(duration=duration)
    node = make_node(seed=seed)
    zero_scale = plane in ("knative", "grpc")
    functions = parking_functions(min_scale=0 if zero_scale else 1)
    kubelet = Kubelet(
        node,
        cold_start_enabled=zero_scale,
        termination_lag=node.config.termination_lag if zero_scale else 0.0,
    )
    metrics = MetricsServer(registry=node.obs.registry)
    plane_obj = build_plane(plane, node, functions, kubelet=kubelet, metrics_server=metrics)
    if zero_scale:
        autoscaler = Autoscaler(node, metrics)
        for deployment in plane_obj.deployments.values():
            autoscaler.register(
                deployment,
                AutoscalerPolicy(scale_to_zero=True, grace_period=30.0),
            )
        autoscaler.start()
        if prewarm:
            for burst_time in next_burst_times(params):
                for deployment in plane_obj.deployments.values():
                    autoscaler.prewarm(
                        deployment, at_time=max(0.0, burst_time - PREWARM_LEAD)
                    )
    recorder = LatencyRecorder()
    trace = synthesize_parking_trace(node, params)
    OpenLoopGenerator(node, plane_obj, trace, recorder).start()
    node.run(until=duration)
    return ParkingRun(
        plane=plane,
        duration=duration,
        recorder=recorder,
        node=node,
        plane_obj=plane_obj,
    )


def run_fig12(duration: float = 700.0, seed: int = 2022):
    return {
        "knative": run_parking("knative", duration=duration, seed=seed, prewarm=True),
        "s-spright": run_parking("s-spright", duration=duration, seed=seed),
    }


def format_report(runs: dict) -> str:
    rows = []
    for plane, run in runs.items():
        summary = run.recorder.summary("")
        rows.append(
            [
                plane,
                summary.count,
                summary.mean,
                summary.p95,
                round(run.total_cpu_core_seconds(), 1),
            ]
        )
    knative = runs.get("knative")
    spright = runs.get("s-spright")
    title = "Fig 12: parking detection & charging — pre-warmed Knative vs S-SPRIGHT"
    if knative and spright:
        cpu_saving = 1 - spright.total_cpu_core_seconds() / max(
            1e-9, knative.total_cpu_core_seconds()
        )
        latency_saving = 1 - spright.recorder.summary("").mean / max(
            1e-9, knative.recorder.summary("").mean
        )
        title += (
            f"\nS-SPRIGHT saves {cpu_saving * 100:.0f}% CPU and "
            f"{latency_saving * 100:.0f}% mean response time"
        )
    return format_table(
        ["plane", "requests", "mean (s)", "p95 (s)", "CPU core-seconds"],
        rows,
        title=title,
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro parking``."""
    config = dict(config or {})
    runs = run_fig12(
        duration=config.get("duration", 700.0), seed=config.get("seed", 2022)
    )
    return format_report(runs)
