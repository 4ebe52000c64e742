"""Minimal DES harness that reproduces the analytic cloning model exactly.

The validation question is "does the simulator's PS + synchronized-cloning
machinery match the closed forms?", so the harness strips away everything
the oracle does not model: no transport legs, no proxies, no marshaling —
just ``n`` processor-sharing pods behind the real
:class:`~repro.faults.ResilienceController`, fed by an open-loop Poisson
process. Clone placement uses the same claimed-pod exclusion the real
planes use, so with ``clone_factor == replicas`` every job lands on every
pod — the synchronized d-of-d form with an exact M/G/1-PS equivalent.

Everything is deterministic per seed: arrivals come from the
``cloning/arrivals`` RNG stream and service times from the pod's usual
``service/<fn>`` stream, so a validation pass on one machine is a pass on
every machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..dataplane.base import Request, RequestClass
from ..faults.resilience import CloneCostModel, ResilienceController, ResiliencePolicy
from ..kernel import NodeConfig
from ..runtime import FunctionSpec, WorkerNode
from ..runtime.pod import Pod
from .analytic import ps_response_time

ARRIVAL_STREAM = "cloning/arrivals"
LAB_FUNCTION = "clone-lab"


class PsLabPlane:
    """The barest plane the resilience controller can drive.

    ``deliver_once`` picks a pod round-robin (honoring the clone group's
    claimed-pod set, with the same all-claimed fallback the real pickers
    use) and serves on it — nothing else. The pods are processor-sharing,
    so concurrent clones stretch each other exactly as the model assumes.
    """

    plane = "lab"

    def __init__(self, node: WorkerNode, spec: FunctionSpec, replicas: int) -> None:
        self.node = node
        self.pods = [
            Pod(node, spec, cpu_tag=f"{self.plane}/fn/{spec.name}") for _ in range(replicas)
        ]
        for pod in self.pods:
            pod.start()
        self._rr = 0

    def _pick(self, claimed: Optional[set]) -> Pod:
        candidates = self.pods
        if claimed:
            unclaimed = [pod for pod in self.pods if pod.instance_id not in claimed]
            if unclaimed:
                candidates = unclaimed
        pod = candidates[self._rr % len(candidates)]
        self._rr += 1
        return pod

    def deliver_once(self, request: Request):
        pod = self._pick(request.claimed_pods)
        if request.claimed_pods is not None:
            request.claimed_pods.add(pod.instance_id)
        result = yield from pod.serve(request.payload)
        request.response = result.payload
        request.completed_at = self.node.env.now
        return request


@dataclass
class LabResult:
    """One (arrival rate, clone factor) point: measured vs predicted."""

    lam: float
    clone_factor: int
    dist: str
    completed: int
    failed: int
    mean_response: float
    analytic: float
    node: WorkerNode = field(repr=False)
    pods: list = field(repr=False, default_factory=list)
    samples: list = field(repr=False, default_factory=list)

    @property
    def relative_error(self) -> float:
        if self.analytic == 0:
            return float("inf")
        return abs(self.mean_response - self.analytic) / self.analytic

    def within(self, tolerance: float = 0.05) -> bool:
        return self.relative_error <= tolerance


def run_clone_point(
    lam: float,
    service_mean: float,
    clone_factor: int,
    dist: str = "exp",
    replicas: Optional[int] = None,
    duration: float = 20.0,
    warmup: float = 2.0,
    seed: int = 2022,
    clone_cost: Optional[CloneCostModel] = None,
    payload_size: int = 256,
) -> LabResult:
    """Run one validation point and return DES measurement + oracle value.

    Defaults to ``replicas == clone_factor`` — the synchronized d-of-d form
    whose oracle (:func:`~repro.cloning.analytic.ps_response_time`) is
    exact. The oracle assumes free cloning, so pass ``clone_cost`` only
    when studying cost effects, not when validating.
    """
    replicas = clone_factor if replicas is None else replicas
    config = NodeConfig(root_seed=seed)
    config.cores = max(4, replicas)
    node = WorkerNode(config)
    spec = FunctionSpec(
        name=LAB_FUNCTION,
        service_time=service_mean,
        service_dist=dist,
        service_discipline="ps",
        concurrency=4096,  # PS occupancy, not slots, must govern
        max_scale=max(10, replicas),
    )
    plane = PsLabPlane(node, spec, replicas)
    policy = ResiliencePolicy(clone_factor=clone_factor, clone_cost=clone_cost)
    controller = ResilienceController(plane, policy)
    request_class = RequestClass(
        name=LAB_FUNCTION, sequence=[LAB_FUNCTION], payload_size=payload_size
    )
    payload = b"x" * payload_size
    samples: list = []
    failures = [0]
    env = node.env

    def one_request():
        request = Request(
            request_class=request_class, payload=payload, created_at=env.now
        )
        started = env.now
        yield from controller.execute(request)
        if request.failed:
            failures[0] += 1
        elif started >= warmup:
            samples.append(env.now - started)

    def arrivals():
        while True:
            yield env.timeout(node.rng.exponential(ARRIVAL_STREAM, 1.0 / lam))
            env.process(one_request(), name="clone-lab-request", detached=True)

    env.process(arrivals(), name="clone-lab-arrivals", detached=True)
    node.run(until=duration)

    mean = sum(samples) / len(samples) if samples else float("nan")
    return LabResult(
        lam=lam,
        clone_factor=clone_factor,
        dist=dist,
        completed=len(samples),
        failed=failures[0],
        mean_response=mean,
        analytic=ps_response_time(lam, service_mean, clone_factor, dist),
        node=node,
        pods=plane.pods,
        samples=samples,
    )
