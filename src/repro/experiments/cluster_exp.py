"""Cluster experiment: nodes × placement policy × plane (§3.8 + λ-NIC).

Each cell builds the plane through :func:`~.common.build_plane` with a
placement, so it runs the plane's own request path: same-node hops pay
the plane's transport (kernel legs, SPROXY in the eBPF VM, rings) and
each node boundary one serialized fabric transfer. Knative's broker stays
on the ingress node and pays two transfers per remote function; SPRIGHT
crossings land in the receiving node's gateway. Two questions, one sweep:

1. **Does chain-locality placement win for SPRIGHT?** Every node boundary
   a placement introduces turns a ~2 µs shared-memory descriptor hop into
   a serialized cross-node transfer (~30 µs of wire + kernel work), so the
   policy that maximizes same-node segments should have the fewest
   cross-node hops and the lowest p99. The sweep runs the same mixed chain
   under ``bin_pack`` / ``spread`` / ``chain_locality`` and compares.

2. **Does λ-NIC offload cost ~zero host cores?** A side probe runs an
   all-offloadable two-function chain on one node under both ``s-spright``
   and ``lambda-nic``: the latter intercepts requests at the NIC's XDP
   layer and serves them on NIC cores, so its host CPU should collapse to
   the budget-fallback residue. The mixed chain (with a 200 µs heavy
   function the NIC refuses) takes the host chain, its short functions
   still on the NICs: the host fallback engages per function.

:class:`ClusterRun` reads hops from the fabric, host CPU from every
node's ledger, and NIC cores and leaked slots from the per-node engines
and chain runtimes, once, when the cell's run ends. The report ends with
computed verdict lines; CI diffs the whole sanitized 3-node report
against ``tests/goldens/cluster-smoke.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cluster import (
    POLICIES,
    ClusterFabric,
    ClusterScheduler,
    FunctionPlacement,
    NodeDescriptor,
    build_cluster,
)
from ..dataplane import RequestClass
from ..runtime import ChainSpec, FunctionSpec
from ..stats import LatencyRecorder, format_table
from .common import build_closed_loop, leaked_slots

#: default plane set for the sweep (knative/d-spright accepted via --planes)
CLUSTER_PLANES = ("grpc", "s-spright", "lambda-nic")
ALL_PLANES = ("knative", "grpc", "s-spright", "d-spright", "lambda-nic")
DEFAULT_NODE_COUNTS = (1, 3)


def mixed_chain() -> ChainSpec:
    """Six functions, asymmetric core requests (0.5/0.5/0.5/1.5/0.5/0.5).

    Sized against the 2.0-core scheduler capacity so the three policies
    produce *different* split patterns on 3 nodes: ``chain_locality``
    keeps segments [f1 f2 f3][f4 f5][f6] (3 boundaries incl. the response
    leg), ``bin_pack`` shreds to 4 and ``spread`` to 6. The short
    functions are match-action expressible (λ-NIC eligible); the 200 µs
    ``f4`` is far over the NIC ceiling and always runs on host pods.
    """
    return ChainSpec(
        "cluster-mixed",
        [
            FunctionSpec("f1", 30e-6, nic_offloadable=True),
            FunctionSpec("f2", 25e-6, nic_offloadable=True),
            FunctionSpec("f3", 35e-6, nic_offloadable=True),
            FunctionSpec("f4", 200e-6),
            FunctionSpec("f5", 20e-6, nic_offloadable=True),
            FunctionSpec("f6", 30e-6, nic_offloadable=True),
        ],
    )


def short_chain() -> ChainSpec:
    """The λ-NIC poster child: two tiny kvstore-style lookups."""
    return ChainSpec(
        "cluster-kv",
        [
            FunctionSpec("kv-get", 4e-6, nic_offloadable=True, nic_insns=64),
            FunctionSpec("kv-check", 3e-6, nic_offloadable=True, nic_insns=48),
        ],
    )


def scheduler_capacity(nodes: int) -> float:
    """Schedulable cores per node: roomy when everything fits on one node,
    tight (2.0) otherwise so multi-node placement is actually forced."""
    return 8.0 if nodes == 1 else 2.0


@dataclass
class ClusterRun:
    """One (plane, policy, nodes) cell of the sweep, summarised when its
    run ended so that the plane and its pools can be collected."""

    plane: str
    policy: str
    nodes: int
    duration: float
    recorder: LatencyRecorder
    placement: dict[str, str]  # function -> its node, in chain order
    leaked_slots: int  # shared-memory buffers live on any node after the drain
    hops_per_request: float  # cross-node transfers per completed request
    host_cpu_percent: float  # the plane's tags, summed over every node (core-%)
    nic_cores: float
    offloaded: int  # function runs on NIC cores
    host_serves: int  # function runs on host pods

    @property
    def rps(self) -> float:
        return self.recorder.count("") / self.duration

    @property
    def p99_ms(self) -> float:
        return self.recorder.summary("").p99 * 1e3


def place_chain(
    fabric: ClusterFabric,
    chain: ChainSpec,
    policy: str,
    capacity: Optional[float] = None,
) -> FunctionPlacement:
    """Place ``chain`` on ``fabric``'s nodes under ``policy``, bound to it."""
    scheduler = ClusterScheduler(
        [
            NodeDescriptor(
                name=name, cores=capacity or scheduler_capacity(len(fabric.nodes))
            )
            for name in fabric.nodes
        ]
    )
    placement = scheduler.place(chain, policy)
    placement.fabric = fabric
    return placement


def run_cluster_case(
    plane: str,
    policy: str,
    nodes: int,
    duration: float = 2.0,
    seed: int = 2022,
    concurrency: int = 16,
    chain_factory=mixed_chain,
    capacity: Optional[float] = None,
    sanitize: Optional[bool] = None,
    drain: float = 0.5,
) -> ClusterRun:
    """Build a cluster, place the chain under ``policy``, drive a closed
    loop from the entry function's node, drain, report.

    The post-duration ``drain`` lets in-flight requests finish so the
    leaked-slot count reflects real leaks, not requests cut off mid-chain.
    The report keeps no reference to the plane, so a sweep holds one
    cell's nodes and pools at a time.
    """
    chain = chain_factory()
    fabric = build_cluster(nodes, seed=seed, cores=8)
    run = build_closed_loop(
        plane,
        list(chain.functions),
        [RequestClass("seq", sequence=chain.function_names)],
        concurrency=concurrency,
        duration=duration,
        sanitize=sanitize,
        placement=place_chain(fabric, chain, policy, capacity),
    ).finish(drain)
    dataplane = run.plane_obj
    engines = list(getattr(dataplane, "engines", {}).values())
    completed = dataplane.requests_completed
    return ClusterRun(
        plane=plane,
        policy=policy,
        nodes=nodes,
        duration=duration,
        recorder=run.recorder,
        placement={fn: dataplane.placement.node_of(fn) for fn in dataplane.functions},
        leaked_slots=leaked_slots(dataplane),
        hops_per_request=fabric.xnode_hops / completed if completed else 0.0,
        host_cpu_percent=sum(
            node.cpu_percent_prefix(f"{dataplane.plane}/", duration)
            for node in fabric.nodes.values()
        ),
        nic_cores=sum(engine.nic_cpu_cores(duration) for engine in engines),
        offloaded=sum(engine.offloaded for engine in engines),
        host_serves=sum(
            pod.served
            for deployment in dataplane.deployments.values()
            for pod in deployment.pods
        ),
    )


def run_cluster_sweep(
    planes: Sequence[str] = CLUSTER_PLANES,
    policies: Sequence[str] = POLICIES,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    duration: float = 2.0,
    seed: int = 2022,
    sanitize: Optional[bool] = None,
) -> dict:
    """The full sweep plus the single-node λ-NIC offload probe."""
    runs: list[ClusterRun] = []
    for plane in planes:
        for nodes in node_counts:
            # On one node every policy yields the same placement; running
            # chain_locality alone keeps the table free of duplicate rows.
            for policy in (("chain_locality",) if nodes == 1 else policies):
                runs.append(
                    run_cluster_case(
                        plane,
                        policy,
                        nodes,
                        duration=duration,
                        seed=seed,
                        sanitize=sanitize,
                    )
                )
    probe = {
        plane: run_cluster_case(
            plane,
            "chain_locality",
            1,
            duration=duration,
            seed=seed,
            chain_factory=short_chain,
            sanitize=sanitize,
        )
        for plane in ("s-spright", "lambda-nic")
    }
    return {"runs": runs, "probe": probe}


def compute_verdicts(sweep: dict) -> list[str]:
    """The acceptance checks, as stable grep-able lines."""
    runs: list[ClusterRun] = sweep["runs"]
    probe: dict = sweep["probe"]
    verdicts: list[str] = []

    multinode = [r for r in runs if r.plane == "s-spright" and r.nodes > 1]
    by_policy = {r.policy: r for r in multinode}
    if len(by_policy) == len(POLICIES):
        locality = by_policy["chain_locality"]
        rivals = [by_policy["bin_pack"], by_policy["spread"]]
        wins = all(
            locality.p99_ms < rival.p99_ms
            and locality.hops_per_request <= rival.hops_per_request
            for rival in rivals
        )
        verdicts.append(
            "verdict: chain_locality wins for s-spright "
            f"(p99 {locality.p99_ms:.3f} ms vs bin_pack "
            f"{by_policy['bin_pack'].p99_ms:.3f} / spread "
            f"{by_policy['spread'].p99_ms:.3f}; hops "
            f"{locality.hops_per_request:.1f} vs "
            f"{by_policy['bin_pack'].hops_per_request:.1f}/"
            f"{by_policy['spread'].hops_per_request:.1f}): "
            f"{'yes' if wins else 'NO'}"
        )

    if "s-spright" in probe and "lambda-nic" in probe:
        host = probe["s-spright"]
        nic = probe["lambda-nic"]
        near_zero = nic.host_cpu_percent < max(10.0, 0.1 * host.host_cpu_percent)
        verdicts.append(
            "verdict: lambda-nic zero-host offload "
            f"(host CPU {nic.host_cpu_percent:.1f}% vs s-spright "
            f"{host.host_cpu_percent:.1f}%, NIC {nic.nic_cores:.2f} cores): "
            f"{'yes' if near_zero else 'NO'}"
        )

    lambda_runs = [r for r in runs if r.plane == "lambda-nic"]
    if lambda_runs:
        offloaded = sum(r.offloaded for r in lambda_runs)
        host_served = sum(r.host_serves for r in lambda_runs)
        engaged = offloaded > 0 and host_served > 0
        verdicts.append(
            "verdict: lambda-nic heavy-function host fallback engaged "
            f"(offloaded {offloaded}, host-served {host_served}): "
            f"{'yes' if engaged else 'NO'}"
        )

    leaked = sum(r.leaked_slots for r in runs) + sum(
        r.leaked_slots for r in probe.values()
    )
    verdicts.append(f"leaked shm slots: {leaked}")
    return verdicts


def format_report(sweep: dict) -> str:
    runs: list[ClusterRun] = sweep["runs"]
    probe: dict = sweep["probe"]
    rows = [
        [
            run.plane,
            run.policy,
            run.nodes,
            f"{run.hops_per_request:.1f}",
            f"{run.p99_ms:.3f}",
            f"{run.rps:.0f}",
            f"{run.host_cpu_percent:.1f}",
            f"{run.nic_cores:.2f}",
            run.leaked_slots,
        ]
        for run in runs
    ]
    table = format_table(
        ["plane", "policy", "nodes", "xnode hops/req", "p99 ms", "rps",
         "host CPU %", "NIC cores", "leaked"],
        rows,
        title="Cluster sweep: nodes x placement policy x plane (mixed chain)",
    )
    probe_rows = [
        [
            run.plane,
            f"{run.rps:.0f}",
            f"{run.p99_ms:.3f}",
            f"{run.host_cpu_percent:.1f}",
            f"{run.nic_cores:.2f}",
            run.offloaded,
            run.host_serves,
        ]
        for run in probe.values()
    ]
    probe_table = format_table(
        ["plane", "rps", "p99 ms", "host CPU %", "NIC cores", "offloaded",
         "host-served"],
        probe_rows,
        title="Offload probe: all-short kv chain, 1 node",
    )
    return "\n\n".join(
        [table, probe_table, "\n".join(compute_verdicts(sweep))]
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro cluster``."""
    config = dict(config or {})
    placement = config.get("placement", "all")
    policies = POLICIES if placement == "all" else (placement,)
    nodes = config.get("nodes", 3)
    node_counts = (1, nodes) if nodes > 1 else (1,)
    sweep = run_cluster_sweep(
        planes=tuple(config.get("planes") or CLUSTER_PLANES),
        policies=policies,
        node_counts=node_counts,
        duration=config.get("duration", 2.0),
        seed=config.get("seed", 2022),
    )
    return format_report(sweep)
