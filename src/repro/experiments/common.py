"""Shared experiment plumbing: plane construction, scenario runs, reports.

Every experiment runner returns a plain dict of numbers so benchmarks,
examples, and the CLI can all print or assert on the same results. Runs are
deterministic for a given seed.

Scaling: the paper's full runs (25K Locust users, 150 s, 40 cores) take far
too long in a pure-Python DES, so runners accept a ``scale`` in (0, 1]:
users, cores, and proxy core counts shrink proportionally, which preserves
the ratios the paper reports (who wins and by what factor) — the quantities
EXPERIMENTS.md compares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..audit import Auditor
from ..faults import FaultPlan, ResiliencePolicy
from ..dataplane import (
    DSprightDataplane,
    GrpcDataplane,
    KnativeDataplane,
    KnativeParams,
    LambdaNicDataplane,
    RequestClass,
    SprightParams,
    SSprightDataplane,
)
from ..kernel import NodeConfig
from ..recovery import AdmissionPolicy, PodSupervisor, SupervisorPolicy
from ..runtime import FunctionSpec, Kubelet, MetricsServer, WorkerNode
from ..stats import LatencyRecorder
from ..workloads import ClosedLoopGenerator, WeightedMix

PLANES = {
    "knative": KnativeDataplane,
    "grpc": GrpcDataplane,
    "s-spright": SSprightDataplane,
    "d-spright": DSprightDataplane,
    "lambda-nic": LambdaNicDataplane,
}


@dataclass
class ScenarioResult:
    """One run: what a builder wired up, and what it records once finished.

    A builder returns it before the clock moves; :meth:`finish` runs it.
    """

    plane: str
    duration: float
    recorder: LatencyRecorder
    node: WorkerNode
    plane_obj: object
    generator: object
    auditor: Optional[Auditor] = None
    supervisor: Optional[PodSupervisor] = None

    def finish(self, drain: float = 0.0) -> "ScenarioResult":
        """Run the clock to ``duration`` and, with a ``drain``, on to
        ``duration + drain`` so in-flight requests finish. Returns the run."""
        self.node.run(until=self.duration)
        if drain:
            self.node.run(until=self.duration + drain)
        return self

    @property
    def rps(self) -> float:
        return self.recorder.count("") / self.duration

    def latency_ms(self, which: str = "mean") -> float:
        summary = self.recorder.summary("")
        return getattr(summary, which) * 1e3

    def cpu_percent(self, prefix: str) -> float:
        return self.node.cpu_percent_prefix(
            f"{self.plane_obj.plane}/{prefix}", self.duration
        )

    def total_cpu_percent(self) -> float:
        return self.node.cpu_percent_prefix(f"{self.plane_obj.plane}/", self.duration)


def make_node(scale: float = 1.0, seed: int = 2022, cores: int = 40) -> WorkerNode:
    config = NodeConfig(root_seed=seed)
    config.cores = max(4, int(round(cores * scale)))
    return WorkerNode(config)


def build_plane(
    name: str,
    node: WorkerNode,
    functions: list[FunctionSpec],
    metrics_server: Optional[MetricsServer] = None,
    kubelet: Optional[Kubelet] = None,
    knative_params: Optional[KnativeParams] = None,
    spright_params: Optional[SprightParams] = None,
    cold_start: bool = False,
    placement=None,
):
    """Construct and deploy one of the five planes by name.

    ``placement`` (a fabric-bound :class:`~repro.cluster.FunctionPlacement`)
    spreads the functions over cluster nodes, ``node`` being the ingress;
    None keeps every function on ``node``.
    """
    plane_cls = PLANES.get(name)
    if plane_cls is None:
        raise KeyError(f"unknown plane {name!r}; choose from {sorted(PLANES)}")
    kwargs: dict = {"kubelet": kubelet, "cold_start": cold_start, "placement": placement}
    if plane_cls is KnativeDataplane and knative_params is not None:
        kwargs["params"] = knative_params
    if issubclass(plane_cls, (SSprightDataplane, DSprightDataplane)):
        if spright_params is not None:
            kwargs["params"] = spright_params
        kwargs["metrics_server"] = metrics_server
    plane = plane_cls(node, functions, **{k: v for k, v in kwargs.items() if v is not None or k == "kubelet"})
    plane.deploy()
    return plane


def attach_recovery(
    node: WorkerNode, plane, policy: SupervisorPolicy
) -> PodSupervisor:
    """Wire a pod supervisor over every deployment of a built plane.

    SPRIGHT planes additionally get shared-memory orphan scavenging and the
    post-restart transport-registration check via their chain runtime; the
    other planes just get detect/restart/backoff.
    """
    supervisor = PodSupervisor(node, policy=policy)
    chain_runtime = getattr(plane, "runtime", None)
    reclaimer = getattr(chain_runtime, "reclaim_orphans", None)
    verifier = getattr(chain_runtime, "verify_registration", None)
    for name, deployment in plane.deployments.items():
        supervisor.watch(name, deployment, reclaimer=reclaimer, verifier=verifier)
    supervisor.start()
    return supervisor


def arm(
    node: WorkerNode,
    plane,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
    admission: Optional[AdmissionPolicy] = None,
    recovery: Optional[SupervisorPolicy] = None,
) -> Optional[PodSupervisor]:
    """Wire a built plane's faults and policies.

    ``fault_plan`` arms the node's fault injector; ``resilience`` attaches a
    gateway-side retry/hedge/breaker policy; ``admission`` bounds the front
    door (queue limits / token bucket / CoDel shedding); ``recovery``
    attaches a :class:`~repro.recovery.PodSupervisor` (see
    :func:`attach_recovery`) and returns it. Each left None stays inert,
    keeping fault-free runs bit-identical.
    """
    if fault_plan is not None:
        node.faults.arm(fault_plan)
    if resilience is not None:
        plane.use_resilience(resilience)
    if admission is not None:
        plane.use_admission(admission)
    if recovery is None:
        return None
    return attach_recovery(node, plane, recovery)


def leaked_slots(plane) -> int:
    """Shared-memory buffers still live on every node of ``plane``.

    Call it after a drain, so requests cut off mid-chain are not counted.
    A sanitizer watching a pool records each one as a LEAK violation with
    its allocation site. Planes without a pool leak nothing.
    """
    leaked = 0
    for runtime in getattr(plane, "runtimes", {}).values():
        pool = runtime.pool
        if runtime.sanitizer is not None:
            leaked += len(runtime.sanitizer.check_teardown(pool))
        else:
            leaked += pool.capacity - pool.free_count
    return leaked


def build_closed_loop(
    plane_name: str,
    functions: list[FunctionSpec],
    request_classes: Sequence[RequestClass],
    concurrency: int,
    duration: float,
    scale: float = 1.0,
    seed: int = 2022,
    spawn_rate: Optional[float] = None,
    think_time: Optional[Callable] = None,
    client_overhead: float = 0.0007,
    warmup: float = 0.0,
    audit: bool = False,
    knative_params: Optional[KnativeParams] = None,
    spright_params: Optional[SprightParams] = None,
    sanitize: Optional[bool] = None,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
    admission: Optional[AdmissionPolicy] = None,
    recovery: Optional[SupervisorPolicy] = None,
    placement=None,
) -> ScenarioResult:
    """Build one closed-loop run; :meth:`ScenarioResult.finish` runs it.

    ``placement`` (a fabric-bound :class:`~repro.cluster.FunctionPlacement`)
    spreads the functions over the fabric's nodes, the ingress being the
    node of the first function; None builds one node with
    :func:`make_node` from ``scale`` and ``seed``.
    ``sanitize`` forces memory-safety checked mode on (True) or off (False)
    for SPRIGHT planes; None defers to the params / process-wide default.
    ``fault_plan``, ``resilience``, ``admission`` and ``recovery`` go to
    :func:`arm`.
    """
    if placement is None:
        node = make_node(scale=scale, seed=seed)
    else:
        node = placement.fabric.nodes[placement.node_of(functions[0].name)]
    if sanitize is not None:
        spright_params = replace(
            spright_params or SprightParams(), sanitize=sanitize
        )
    plane = build_plane(
        plane_name,
        node,
        functions,
        knative_params=knative_params,
        spright_params=spright_params,
        placement=placement,
    )
    supervisor = arm(node, plane, fault_plan, resilience, admission, recovery)
    recorder = LatencyRecorder()
    auditor = Auditor(name=plane_name) if audit else None
    generator = ClosedLoopGenerator(
        node,
        plane,
        WeightedMix(list(request_classes)),
        recorder,
        concurrency=concurrency,
        duration=duration,
        spawn_rate=spawn_rate,
        think_time=think_time,
        client_overhead=client_overhead,
        auditor=auditor,
        warmup=warmup,
    )
    generator.start()
    return ScenarioResult(
        plane_name, duration, recorder, node, plane, generator, auditor, supervisor
    )


def geometric_concurrency_levels(maximum: int = 512) -> list[int]:
    """1, 2, 4, ..., maximum — Fig 5's x axis."""
    levels = []
    level = 1
    while level <= maximum:
        levels.append(level)
        level *= 2
    return levels
