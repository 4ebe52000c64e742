"""E2 (Fig 2): sidecar proxy comparison — RPS, latency, cycles/request.

wrk-style closed loop against a single NGINX function pod equipped with each
sidecar: Null (none), Knative queue proxy, Envoy, OpenFaaS of-watchdog.
Traffic is the paper's mix: 2% 10 KB requests, 98% 100 B requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataplane.sidecars import ALL_SIDECARS, SidecarPod, SidecarSpec
from ..runtime import WorkerNode
from ..stats import LatencyRecorder, format_table


@dataclass
class SidecarResult:
    name: str
    rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    cycles_per_request: dict


def _request_size(node: WorkerNode) -> int:
    """wrk mix: 2% of requests are 10 KB, the rest 100 B."""
    if node.rng.uniform("fig2/mix", 0.0, 1.0) < 0.02:
        return 10 * 1024
    return 100


def run_sidecar(
    spec: SidecarSpec,
    concurrency: int = 8,
    duration: float = 5.0,
    seed: int = 2022,
    client_overhead: float = 0.0003,
) -> SidecarResult:
    node = WorkerNode()
    pod = SidecarPod(node, spec)
    recorder = LatencyRecorder()

    def user(env):
        while env.now < duration:
            start = env.now
            size = _request_size(node)
            yield env.process(pod.handle_request(size))
            recorder.record(env.now, env.now - start)
            if client_overhead:
                yield env.timeout(client_overhead)

    for _ in range(concurrency):
        node.env.process(user(node.env), detached=True)
    node.run(until=duration)
    summary = recorder.summary("")
    return SidecarResult(
        name=spec.name,
        rps=summary.count / duration,
        mean_latency_ms=summary.mean * 1e3,
        p95_latency_ms=summary.p95 * 1e3,
        cycles_per_request=pod.cycles_per_request(),
    )


def run_fig2(duration: float = 5.0, concurrency: int = 8) -> list[SidecarResult]:
    return [
        run_sidecar(spec, concurrency=concurrency, duration=duration)
        for spec in ALL_SIDECARS
    ]


def format_report(results: list[SidecarResult]) -> str:
    rows = []
    for result in results:
        cycles = result.cycles_per_request
        total_mcycles = sum(cycles.values()) / 1e6
        rows.append(
            [
                result.name,
                f"{result.rps / 1e3:.1f}K",
                result.mean_latency_ms,
                f"{cycles['sidecar container'] / 1e6:.2f}M",
                f"{cycles['NGINX container'] / 1e6:.2f}M",
                f"{cycles['kernel stack'] / 1e6:.2f}M",
                f"{total_mcycles:.2f}M",
            ]
        )
    return format_table(
        ["sidecar", "RPS", "latency (ms)", "sidecar cyc", "nginx cyc", "kernel cyc", "total cyc/req"],
        rows,
        title="Fig 2: sidecar proxy performance and overhead breakdown",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro fig2``."""
    config = dict(config or {})
    return format_report(run_fig2(duration=config.get("duration", 5.0)))
