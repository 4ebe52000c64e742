"""Function and chain specifications (what a user deploys).

A :class:`ChainSpec` is the unit of deployment in SPRIGHT (§3.8's deployment
constraint: a chain is placed whole onto one node). Routing is the paper's
topic-based publish/subscribe model (§3.2.3): ``(current function, topic)``
keys select the next hop; ``ENTRY``/``RESPONSE`` are reserved endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

ENTRY = "__entry__"
RESPONSE = "__response__"
DEFAULT_TOPIC = ""


@dataclass
class FunctionResult:
    """What one function invocation produced."""

    payload: bytes
    topic: str = DEFAULT_TOPIC
    service_time: Optional[float] = None  # override spec's distribution
    extra_service_time: float = 0.0       # added on top (e.g. DB access)


# A behavior maps the inbound message payload to a result; ``context`` gives
# access to per-function state (e.g. the parking workload's metadata DB).
BehaviorFn = Callable[[bytes, dict], FunctionResult]


def echo_behavior(payload: bytes, context: dict) -> FunctionResult:
    """Default behavior: pass the payload through unchanged."""
    return FunctionResult(payload=payload)


@dataclass
class FunctionSpec:
    """One serverless function: service time model + scaling policy."""

    name: str
    service_time: float = 0.0          # mean CPU seconds per request
    service_time_cv: float = 0.25      # lognormal coefficient of variation
    # Service-time distribution: "lognormal" (default), "exp", or
    # "deterministic" — the latter two are the regimes the PS cloning
    # analysis (repro.cloning) has closed forms for.
    service_dist: str = "lognormal"
    # Service discipline at the pod: "fcfs" (default; work queues on the
    # node's shared cores) or "ps" (processor sharing: concurrent requests
    # split ``ps_capacity`` core-equivalents, stretching dynamically with
    # occupancy — the model request cloning is analyzed under).
    service_discipline: str = "fcfs"
    ps_capacity: float = 1.0
    concurrency: int = 32              # per-pod parallel request limit
    min_scale: int = 1                 # 0 enables scale-to-zero
    max_scale: int = 10
    memory_mb: float = 2.0             # Golang-ish footprint (§3.1: >2 MB)
    behavior: BehaviorFn = echo_behavior
    # Language-runtime overheads per invocation, on top of service_time.
    # The paper ports functions: Go + gRPC servers (Knative/gRPC modes) carry
    # heavy marshalling/scheduler overhead; the C ports for SPRIGHT do not.
    runtime_overhead_path: float = 0.0   # latency+CPU on the critical path
    runtime_overhead_bg: float = 0.0     # CPU off the critical path (GC, ...)
    # λ-NIC SmartNIC offload (PAPERS.md): a handler expressible as
    # match-action stages (kvstore GET, plate lookup) can run entirely at
    # the XDP/NIC layer. The flag states expressibility; eligibility also
    # requires the service time to fit the NIC's offload ceiling (the
    # engine checks both). ``nic_insns`` is the match-action program length
    # the NIC executes per invocation.
    nic_offloadable: bool = False
    nic_insns: int = 96

    def __post_init__(self) -> None:
        if self.service_time < 0:
            raise ValueError("service_time must be non-negative")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.min_scale < 0 or self.max_scale < max(1, self.min_scale):
            raise ValueError("invalid scale bounds")
        if self.service_dist not in ("lognormal", "exp", "deterministic"):
            raise ValueError(f"unknown service_dist {self.service_dist!r}")
        if self.service_discipline not in ("fcfs", "ps"):
            raise ValueError(
                f"unknown service_discipline {self.service_discipline!r}"
            )
        if self.ps_capacity <= 0:
            raise ValueError("ps_capacity must be positive")


@dataclass
class ChainSpec:
    """A function chain: functions + topic-based routing table."""

    name: str
    functions: list[FunctionSpec]
    # (function name or ENTRY, topic) -> next function name or RESPONSE
    routes: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function names in chain {self.name!r}")
        self._by_name = {spec.name: spec for spec in self.functions}
        for (source, _topic), destination in self.routes.items():
            if source != ENTRY and source not in self._by_name:
                raise ValueError(f"route source {source!r} is not in the chain")
            if destination != RESPONSE and destination not in self._by_name:
                raise ValueError(f"route destination {destination!r} is not in the chain")

    def function(self, name: str) -> FunctionSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise KeyError(f"no function {name!r} in chain {self.name!r}")
        return spec

    @property
    def function_names(self) -> list[str]:
        return [spec.name for spec in self.functions]
