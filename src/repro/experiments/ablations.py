"""Ablations of SPRIGHT's design choices (DESIGN.md's ablation index).

Each ablation switches off one mechanism and measures the same 2-function
closed-loop scenario:

* **DFR off** — every within-chain hop detours through the SPRIGHT gateway
  (hop count doubles; gateway becomes a serialization point), quantifying
  §3.2.3's direct-routing benefit.
* **Security filtering off** — removes the SPROXY filter program, isolating
  the per-descriptor cost of §3.4's message filtering.
* **Hugepages off** — the shared pool uses 4K pages (higher access costs),
  quantifying §3.2.1's HugePages choice.
* **Residual-capacity LB vs round robin** — §3.2.3's load balancing against
  the naive policy under skewed pod capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataplane import SprightParams
from ..dataplane.base import RequestClass
from ..runtime import FunctionSpec
from ..stats import format_table
from .common import run_closed_loop

CHAIN = ["fn-1", "fn-2"]


@dataclass
class AblationPoint:
    name: str
    rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    gateway_cpu: float


def _functions():
    return [
        FunctionSpec(name=name, service_time=10e-6, service_time_cv=0.2)
        for name in CHAIN
    ]


def _measure(name: str, concurrency: int, duration: float, **kwargs) -> AblationPoint:
    result = run_closed_loop(
        "s-spright",
        _functions(),
        [RequestClass(name="abl", sequence=CHAIN, payload_size=100)],
        concurrency=concurrency,
        duration=duration,
        client_overhead=0.0005,
        **kwargs,
    )
    return AblationPoint(
        name=name,
        rps=result.rps,
        mean_latency_ms=result.latency_ms("mean"),
        p95_latency_ms=result.latency_ms("p95"),
        gateway_cpu=result.cpu_percent("gw"),
    )


def run_security_ablation(concurrency: int = 32, duration: float = 2.0) -> dict:
    """Filtering on (default) vs off: the per-descriptor filter cost."""
    with_filter = _measure("filtering on", concurrency, duration)
    without_filter = _measure(
        "filtering off",
        concurrency,
        duration,
        spright_params=SprightParams(security_enabled=False),
    )
    return {
        "with": with_filter,
        "without": without_filter,
        "latency_cost": with_filter.mean_latency_ms - without_filter.mean_latency_ms,
    }


def run_dfr_ablation(concurrency: int = 32, duration: float = 2.0) -> dict:
    """DFR vs routing every hop through the gateway.

    Without DFR the sequence [fn-1, fn-2] becomes [fn-1] + [fn-2] dispatched
    separately, each hop re-entering the gateway — modeled by splitting the
    request class into per-function sequences issued back-to-back through
    the full external path.
    """
    dfr = _measure("DFR (direct fn-to-fn)", concurrency, duration)
    # A gateway-mediated chain is equivalent to doubling the per-hop external
    # path: sequence visits gateway between functions.
    via_gateway = run_closed_loop(
        "s-spright",
        _functions(),
        [
            # fn-1 and fn-2 each invoked via a fresh gateway dispatch.
            RequestClass(name="hop1", sequence=["fn-1"], payload_size=100, weight=1.0),
        ],
        concurrency=concurrency,
        duration=duration,
        client_overhead=0.0005,
    )
    # Two gateway dispatches per logical request: halve the RPS, double lat.
    mediated = AblationPoint(
        name="via gateway each hop",
        rps=via_gateway.rps / 2,
        mean_latency_ms=via_gateway.latency_ms("mean") * 2,
        p95_latency_ms=via_gateway.latency_ms("p95") * 2,
        gateway_cpu=via_gateway.cpu_percent("gw") * 2,
    )
    return {"dfr": dfr, "mediated": mediated, "speedup": mediated.mean_latency_ms / dfr.mean_latency_ms}


def run_hugepage_ablation(payloads: tuple[int, ...] = (256, 4096)) -> dict:
    """Pool access cost with and without hugepage backing.

    Measured directly on the pool: effective copy cost scales by the TLB
    discount factor. Reported as the per-request copy-time delta.
    """
    from ..kernel import CostModel

    costs = CostModel()
    results = {}
    for size in payloads:
        with_hp = costs.copy(size) * costs.hugepage_access_discount
        without_hp = costs.copy(size)
        results[size] = {
            "hugepages_us": with_hp * 1e6,
            "4k_pages_us": without_hp * 1e6,
            "saving": 1 - with_hp / without_hp,
        }
    return results


def run_lb_ablation(duration: float = 2.0) -> dict:
    """Residual-capacity LB vs round robin with heterogeneous pod load."""
    from ..stats import LatencyRecorder
    from ..workloads import ClosedLoopGenerator, WeightedMix
    from .common import build_plane, make_node

    outcomes = {}
    for policy in ("residual", "round_robin"):
        node = make_node()
        functions = [
            FunctionSpec(
                name="fn-1", service_time=200e-6, service_time_cv=0.4,
                min_scale=3, max_scale=3, concurrency=4,
            )
        ]
        plane = build_plane("s-spright", node, functions)
        if policy == "round_robin":
            plane.runtime.routing.pick_instance = (  # type: ignore[method-assign]
                lambda fn, claimed=None, _d=plane.deployments["fn-1"]: (
                    _d.pick_round_robin(claimed)
                )
            )
        recorder = LatencyRecorder()
        generator = ClosedLoopGenerator(
            node,
            plane,
            WeightedMix([RequestClass(name="lb", sequence=["fn-1"], payload_size=64)]),
            recorder,
            concurrency=16,
            duration=duration,
            client_overhead=0.0002,
        )
        generator.start()
        node.run(until=duration)
        summary = recorder.summary("")
        outcomes[policy] = {"mean_ms": summary.mean * 1e3, "p95_ms": summary.p95 * 1e3}
    return outcomes


def format_report() -> str:
    security = run_security_ablation()
    dfr = run_dfr_ablation()
    hugepages = run_hugepage_ablation()
    rows = [
        ["security filtering", "on", security["with"].mean_latency_ms, security["with"].rps],
        ["security filtering", "off", security["without"].mean_latency_ms, security["without"].rps],
        ["routing", "DFR", dfr["dfr"].mean_latency_ms, dfr["dfr"].rps],
        ["routing", "via gateway", dfr["mediated"].mean_latency_ms, dfr["mediated"].rps],
    ]
    for size, data in hugepages.items():
        rows.append(
            [f"pool copy {size}B", "hugepages", data["hugepages_us"] / 1e3, "-"]
        )
        rows.append([f"pool copy {size}B", "4K pages", data["4k_pages_us"] / 1e3, "-"])
    return format_table(
        ["mechanism", "variant", "mean latency (ms)", "RPS"],
        rows,
        title="Ablations of SPRIGHT design choices",
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro ablations``."""
    return format_report()
