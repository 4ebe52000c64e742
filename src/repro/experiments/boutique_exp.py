"""E5/E6/E7 (Figs 9, 10, Table 5): the online boutique under four planes.

Locust-style closed loop (think time 1-10 s, spawn-rate ramp) over the six
Table 3 chains. The paper drives Knative and gRPC at 5K users and the two
SPRIGHT variants at 25K; at ``scale`` < 1 both the user population and the
node's cores shrink together, preserving the offered-load-to-capacity ratio
(and therefore the overload behaviour Fig 9/10 show).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..dataplane import KnativeParams, RequestClass
from ..stats import LatencyRecorder, format_table
from ..workloads import boutique
from .common import ScenarioResult, build_closed_loop

# Paper concurrency levels per plane.
USERS = {"knative": 5000, "grpc": 5000, "s-spright": 25000, "d-spright": 25000}
SPAWN_RATES = {"knative": 200, "grpc": 200, "s-spright": 500, "d-spright": 500}


def knative_boutique_params() -> KnativeParams:
    """Boutique mode: Istio mediates fn-to-fn; no 2-core pinned front-end."""
    return KnativeParams(
        broker_pinned_cores=None,
        broker_path_cpu=30e-6,
        broker_overhead_cpu=300e-6,   # Envoy-grade mediation per transition
    )


@dataclass
class BoutiqueRun:
    plane: str
    users: int
    duration: float
    recorder: LatencyRecorder
    result: ScenarioResult

    @property
    def rps(self) -> float:
        return self.result.rps

    def latency_ms(self, which: str = "mean") -> float:
        return self.result.latency_ms(which)

    def chain_summary(self, chain: str):
        return self.recorder.summary(group=chain)

    def rps_series(self, bucket: float = 5.0):
        return self.recorder.throughput_series(bucket=bucket, until=self.duration)

    def latency_series(self, bucket: float = 5.0):
        return self.recorder.latency_series(bucket=bucket)

    def cpu(self, prefix: str) -> float:
        return self.result.cpu_percent(prefix)


def build_boutique(
    plane: str,
    scale: float = 0.1,
    duration: float = 60.0,
    seed: int = 2022,
    users: Optional[int] = None,
    spawn_rate: Optional[float] = None,
    think_time=boutique.locust_think_time,
    request_classes: Optional[Sequence[RequestClass]] = None,
    **options,
) -> ScenarioResult:
    """Build the boutique closed loop on ``plane``; ``finish()`` runs it.

    The plane's own functions, Locust think time and a 0.5 ms client; users
    and spawn rate are the paper's, times ``scale``, unless given. The rest
    of ``options`` (faults, policies, audit, sanitize) go to
    :func:`~.common.build_closed_loop`.
    """
    if users is None:
        users = max(8, int(USERS[plane] * scale))
    if spawn_rate is None:
        spawn_rate = max(4.0, SPAWN_RATES[plane] * scale)
    return build_closed_loop(
        plane,
        boutique.spright_functions()
        if plane in ("s-spright", "d-spright")
        else boutique.go_grpc_functions(),
        request_classes or boutique.request_classes(),
        concurrency=users,
        duration=duration,
        scale=scale,
        seed=seed,
        spawn_rate=spawn_rate,
        think_time=think_time,
        client_overhead=0.0005,
        knative_params=knative_boutique_params() if plane == "knative" else None,
        **options,
    )


def run_boutique(
    plane: str,
    scale: float = 0.1,
    duration: float = 60.0,
    seed: int = 2022,
    users: Optional[int] = None,
) -> BoutiqueRun:
    result = build_boutique(plane, scale, duration, seed, users=users).finish()
    return BoutiqueRun(
        plane=plane,
        users=result.generator.concurrency,
        duration=duration,
        recorder=result.recorder,
        result=result,
    )


@dataclass
class BoutiqueComparison:
    runs: dict = field(default_factory=dict)

    def run_all(
        self, scale: float = 0.1, duration: float = 60.0, seed: int = 2022
    ) -> "BoutiqueComparison":
        for plane in ("knative", "grpc", "s-spright", "d-spright"):
            self.runs[plane] = run_boutique(
                plane, scale=scale, duration=duration, seed=seed
            )
        return self

    def table5(self) -> list[list]:
        """Table 5's layout: 95/99/mean latency per plane."""
        rows = []
        for plane, run in self.runs.items():
            summary = run.recorder.summary("")
            rows.append(
                [
                    plane,
                    run.users,
                    summary.p95 * 1e3,
                    summary.p99 * 1e3,
                    summary.mean * 1e3,
                ]
            )
        return rows


def format_table5(comparison: BoutiqueComparison) -> str:
    return format_table(
        ["plane", "users", "p95 (ms)", "p99 (ms)", "mean (ms)"],
        comparison.table5(),
        title="Table 5: online boutique latency across planes",
    )


def format_fig9(comparison: BoutiqueComparison, bucket: float = 5.0) -> str:
    rows = []
    for plane, run in comparison.runs.items():
        for time_point, rps in run.rps_series(bucket=bucket):
            rows.append([plane, time_point, rps])
    return format_table(
        ["plane", "t (s)", "RPS"], rows, title="Fig 9: boutique RPS time series"
    )


def format_fig10(comparison: BoutiqueComparison) -> str:
    rows = []
    for plane, run in comparison.runs.items():
        for chain in sorted(boutique.CALL_SEQUENCES):
            if run.recorder.count(chain) == 0:
                continue
            summary = run.chain_summary(chain)
            rows.append(
                [plane, chain, summary.count, summary.mean * 1e3, summary.p95 * 1e3]
            )
        rows.append(
            [
                plane,
                "CPU: gw/fn/qp %",
                round(run.cpu("gw")),
                round(run.cpu("fn")),
                round(run.cpu("qp")),
            ]
        )
    return format_table(
        ["plane", "chain", "count", "mean (ms)", "p95 (ms)"],
        rows,
        title="Fig 10: boutique per-chain latency + CPU",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro boutique``."""
    config = dict(config or {})
    comparison = BoutiqueComparison().run_all(
        scale=config.get("scale", 0.1),
        duration=config.get("duration", 60.0),
        seed=config.get("seed", 2022),
    )
    return "\n\n".join(
        [
            format_fig9(comparison, bucket=10.0),
            format_fig10(comparison),
            format_table5(comparison),
        ]
    )
