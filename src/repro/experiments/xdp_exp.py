"""E10 (§3.5): eBPF XDP/TC acceleration of the external data path.

Compares S-SPRIGHT with and without XDP/TC redirection on the
ingress -> SPRIGHT-gateway leg. The paper reports 1.3x throughput and ~20%
latency reduction under peak load for the accelerated path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataplane import SprightParams, nginx_function
from ..dataplane.base import RequestClass
from ..stats import format_table
from .common import build_closed_loop

CHAIN = ["fn-1", "fn-2"]


@dataclass
class XdpPoint:
    accelerated: bool
    rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    gateway_cpu: float


def run_point(
    accelerated: bool,
    concurrency: int = 64,
    duration: float = 2.0,
    seed: int = 2022,
) -> XdpPoint:
    result = build_closed_loop(
        "s-spright",
        [nginx_function(name) for name in CHAIN],
        [RequestClass(name="xdp", sequence=CHAIN, payload_size=100)],
        concurrency=concurrency,
        duration=duration,
        seed=seed,
        client_overhead=0.0004,
        spright_params=SprightParams(use_xdp_acceleration=accelerated),
    ).finish()
    return XdpPoint(
        accelerated=accelerated,
        rps=result.rps,
        mean_latency_ms=result.latency_ms("mean"),
        p95_latency_ms=result.latency_ms("p95"),
        gateway_cpu=result.cpu_percent("gw"),
    )


def run_xdp_comparison(concurrency: int = 64, duration: float = 2.0) -> dict:
    baseline = run_point(False, concurrency=concurrency, duration=duration)
    accelerated = run_point(True, concurrency=concurrency, duration=duration)
    return {
        "baseline": baseline,
        "accelerated": accelerated,
        "throughput_gain": accelerated.rps / baseline.rps,
        "latency_reduction": 1 - accelerated.mean_latency_ms / baseline.mean_latency_ms,
    }


def format_report(comparison: dict) -> str:
    rows = [
        [
            "kernel stack" if not point.accelerated else "XDP/TC redirect",
            f"{point.rps / 1e3:.1f}K",
            point.mean_latency_ms,
            point.p95_latency_ms,
            point.gateway_cpu,
        ]
        for point in (comparison["baseline"], comparison["accelerated"])
    ]
    title = (
        "§3.5: external-path acceleration "
        f"(throughput x{comparison['throughput_gain']:.2f}, "
        f"latency -{comparison['latency_reduction'] * 100:.0f}%)"
    )
    return format_table(
        ["external path", "RPS", "mean (ms)", "p95 (ms)", "GW CPU %"], rows, title=title
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro xdp``."""
    config = dict(config or {})
    return format_report(run_xdp_comparison(duration=config.get("duration", 2.0)))
