"""E3/E11 (Fig 5 + §3.2.2 spot values): event-based vs polling shared memory.

A 2-function chain driven by an ab-style closed loop at concurrency levels
1..512, comparing Knative, S-SPRIGHT (SPROXY), and D-SPRIGHT (DPDK rings) on
RPS, mean latency, and CPU broken into gateway and function components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataplane import nginx_function
from ..stats import format_table
from .common import ScenarioResult, build_closed_loop, geometric_concurrency_levels
from ..dataplane.base import RequestClass

CHAIN = ["fn-1", "fn-2"]


@dataclass
class Fig5Point:
    plane: str
    concurrency: int
    rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    gateway_cpu: float
    function_cpu: float
    queue_proxy_cpu: float
    total_cpu: float


@dataclass
class Fig5Result:
    points: list[Fig5Point] = field(default_factory=list)

    def series(self, plane: str) -> list[Fig5Point]:
        return sorted(
            (point for point in self.points if point.plane == plane),
            key=lambda point: point.concurrency,
        )

    def at(self, plane: str, concurrency: int) -> Fig5Point:
        for point in self.points:
            if point.plane == plane and point.concurrency == concurrency:
                return point
        raise KeyError(f"no point for {plane} @ {concurrency}")


def _functions(plane: str):
    """NGINX servers for Knative; the lean C ports for SPRIGHT (§3.8)."""
    from ..runtime import FunctionSpec

    if plane in ("s-spright", "d-spright"):
        return [
            FunctionSpec(name=name, service_time=10e-6, service_time_cv=0.2)
            for name in CHAIN
        ]
    return [nginx_function(name, service_time=10e-6) for name in CHAIN]


def _request_classes():
    return [RequestClass(name="fig5", sequence=CHAIN, payload_size=100)]


def run_point(
    plane: str, concurrency: int, duration: float = 2.0, seed: int = 2022
) -> Fig5Point:
    result: ScenarioResult = build_closed_loop(
        plane,
        _functions(plane),
        _request_classes(),
        concurrency=concurrency,
        duration=duration,
        seed=seed,
        client_overhead=0.0007,  # ab client + loopback per request
    ).finish()
    return Fig5Point(
        plane=plane,
        concurrency=concurrency,
        rps=result.rps,
        mean_latency_ms=result.latency_ms("mean"),
        p95_latency_ms=result.latency_ms("p95"),
        gateway_cpu=result.cpu_percent("gw"),
        function_cpu=result.cpu_percent("fn"),
        queue_proxy_cpu=result.cpu_percent("qp"),
        total_cpu=result.total_cpu_percent(),
    )


def run_fig5(
    planes: tuple[str, ...] = ("knative", "s-spright", "d-spright"),
    max_concurrency: int = 512,
    duration: float = 2.0,
    levels: tuple[int, ...] = (),
) -> Fig5Result:
    result = Fig5Result()
    chosen = list(levels) or geometric_concurrency_levels(max_concurrency)
    for plane in planes:
        for concurrency in chosen:
            result.points.append(run_point(plane, concurrency, duration=duration))
    return result


def format_report(result: Fig5Result) -> str:
    rows = [
        [
            point.plane,
            point.concurrency,
            f"{point.rps / 1e3:.1f}K",
            point.mean_latency_ms,
            point.gateway_cpu,
            point.function_cpu,
            point.queue_proxy_cpu,
            point.total_cpu,
        ]
        for point in sorted(result.points, key=lambda p: (p.plane, p.concurrency))
    ]
    return format_table(
        ["plane", "conc", "RPS", "latency(ms)", "GW%", "fn%", "QP%", "total%"],
        rows,
        title="Fig 5: polling vs event-driven shared memory (2-fn chain)",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro fig5``."""
    config = dict(config or {})
    result = run_fig5(
        max_concurrency=config.get("max_concurrency", 512),
        duration=config.get("duration", 1.0),
    )
    return format_report(result)
