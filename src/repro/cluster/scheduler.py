"""Function-granularity placement across cluster nodes.

The paper's §3.8 keeps every function of a chain on one node so they can
share the chain's memory pool; this module relaxes that constraint:
individual chain *functions* land on nodes under CPU/memory constraints,
and the placement policy decides how much of the chain stays colocated —
which is exactly what the cluster experiment measures, because every node
boundary a SPRIGHT chain crosses turns a shared-memory descriptor hop into
a serialized wire transfer.

Policies (all deterministic functions of the topology and chain — no RNG):

* ``bin_pack``    — best-fit decreasing on core request: packs tightly,
  ignores adjacency; chains shred across nodes as bins fill.
* ``spread``      — each function to the node with the most free cores:
  maximal load balance, minimal locality.
* ``chain_locality`` — walk the chain in call order, staying on the current
  node while it fits; on overflow, move to the roomiest other node and keep
  walking. Produces long same-node segments — the SPRIGHT-friendly policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..runtime import ChainSpec, FunctionSpec

POLICIES = ("bin_pack", "spread", "chain_locality")


class PlacementError(Exception):
    """No node can host the function.

    ``diagnostics`` carries the machine-readable residual report: what was
    requested, and — per candidate node — what was free and by how much the
    request overshot it, so operators (and tests) can see *why* placement
    failed instead of just that it did.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None) -> None:
        super().__init__(message)
        self.diagnostics: dict = diagnostics or {}


@dataclass
class NodeDescriptor:
    """Scheduler's view of a node: capacity and current commitments."""

    name: str
    cores: int = 40
    memory_mb: float = 192 * 1024
    committed_cores: float = 0.0
    committed_memory_mb: float = 0.0

    @property
    def free_cores(self) -> float:
        return self.cores - self.committed_cores

    @property
    def free_memory_mb(self) -> float:
        return self.memory_mb - self.committed_memory_mb


def placement_diagnostics(
    subject: str,
    cores: float,
    memory_mb: float,
    nodes: Iterable[NodeDescriptor],
) -> dict:
    """Per-node residuals + shortfalls for a failed placement request."""
    return {
        "subject": subject,
        "cores_requested": cores,
        "memory_mb_requested": memory_mb,
        "candidates": [
            {
                "node": node.name,
                "free_cores": node.free_cores,
                "free_memory_mb": node.free_memory_mb,
                "core_shortfall": max(0.0, cores - node.free_cores),
                "memory_shortfall_mb": max(0.0, memory_mb - node.free_memory_mb),
            }
            for node in nodes
        ],
    }


def function_core_request(spec: FunctionSpec) -> float:
    """Host cores one function asks for.

    Light handlers (under the λ-NIC offload ballpark) request half a core;
    heavier ones scale with mean service time, capped at two cores — the
    asymmetry is what forces interesting placements on small nodes.
    """
    if spec.service_time <= 60e-6:
        return 0.5
    return min(2.0, 0.5 + spec.service_time / 200e-6)


def function_memory_request(spec: FunctionSpec, pool_share_mb: float = 8.0) -> float:
    """Function memory plus its share of the per-node chain pool."""
    return spec.memory_mb + pool_share_mb


@dataclass
class FunctionPlacement:
    """The outcome: which node hosts each function of one chain."""

    chain: str
    policy: str
    assignments: dict[str, str] = field(default_factory=dict)

    def node_of(self, function: str) -> str:
        return self.assignments[function]

    def nodes_used(self) -> list[str]:
        """Distinct nodes, in first-use order over the chain's functions."""
        seen: list[str] = []
        for node in self.assignments.values():
            if node not in seen:
                seen.append(node)
        return seen

    def transitions(self, sequence: Sequence[str]) -> int:
        """Node boundaries crossed executing ``sequence`` plus the return
        leg to the ingress (which sits with the first function)."""
        hops = 0
        previous: Optional[str] = None
        for function in sequence:
            node = self.assignments[function]
            if previous is not None and node != previous:
                hops += 1
            previous = node
        if sequence and previous != self.assignments[sequence[0]]:
            hops += 1
        return hops

    def digest(self) -> str:
        """Stable fingerprint of the assignment (determinism tests)."""
        blob = ";".join(
            f"{fn}={node}" for fn, node in sorted(self.assignments.items())
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ClusterScheduler:
    """Places one chain's functions over registered node descriptors."""

    def __init__(self, nodes: Sequence[NodeDescriptor]) -> None:
        self.nodes: dict[str, NodeDescriptor] = {}
        for descriptor in nodes:
            if descriptor.name in self.nodes:
                raise ValueError(f"node {descriptor.name!r} already registered")
            self.nodes[descriptor.name] = descriptor

    # -- public API ---------------------------------------------------------
    def place(self, chain: ChainSpec, policy: str) -> FunctionPlacement:
        if policy not in POLICIES:
            raise PlacementError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        placement = FunctionPlacement(chain=chain.name, policy=policy)
        if policy == "bin_pack":
            self._place_bin_pack(chain, placement)
        elif policy == "spread":
            self._place_spread(chain, placement)
        else:
            self._place_chain_locality(chain, placement)
        return placement

    # -- shared helpers -----------------------------------------------------
    def _fits(self, node: NodeDescriptor, spec: FunctionSpec) -> bool:
        return (
            node.free_cores >= function_core_request(spec)
            and node.free_memory_mb >= function_memory_request(spec)
        )

    def _commit(
        self, node: NodeDescriptor, spec: FunctionSpec, placement: FunctionPlacement
    ) -> None:
        node.committed_cores += function_core_request(spec)
        node.committed_memory_mb += function_memory_request(spec)
        placement.assignments[spec.name] = node.name

    def _no_fit(self, chain: ChainSpec, spec: FunctionSpec) -> PlacementError:
        cores = function_core_request(spec)
        memory = function_memory_request(spec)
        return PlacementError(
            f"no node has {cores:.1f} cores + {memory:.0f} MB "
            f"for function {chain.name}/{spec.name}",
            diagnostics=placement_diagnostics(
                f"{chain.name}/{spec.name}", cores, memory, self.nodes.values()
            ),
        )

    # -- policies -----------------------------------------------------------
    def _place_bin_pack(
        self, chain: ChainSpec, placement: FunctionPlacement
    ) -> None:
        # Best-fit decreasing: biggest requests first, each into the node
        # left with the least slack. Name breaks core-request ties so the
        # order is a pure function of the chain spec.
        ordered = sorted(
            chain.functions,
            key=lambda spec: (-function_core_request(spec), spec.name),
        )
        for spec in ordered:
            candidates = [n for n in self.nodes.values() if self._fits(n, spec)]
            if not candidates:
                raise self._no_fit(chain, spec)
            best = min(
                candidates,
                key=lambda n: (n.free_cores - function_core_request(spec), n.name),
            )
            self._commit(best, spec, placement)

    def _place_spread(
        self, chain: ChainSpec, placement: FunctionPlacement
    ) -> None:
        for spec in chain.functions:
            candidates = [n for n in self.nodes.values() if self._fits(n, spec)]
            if not candidates:
                raise self._no_fit(chain, spec)
            best = max(candidates, key=lambda n: (n.free_cores, n.name))
            self._commit(best, spec, placement)

    def _place_chain_locality(
        self, chain: ChainSpec, placement: FunctionPlacement
    ) -> None:
        current: Optional[NodeDescriptor] = None
        for spec in chain.functions:
            if current is not None and self._fits(current, spec):
                self._commit(current, spec, placement)
                continue
            others = [
                n
                for n in self.nodes.values()
                if n is not current and self._fits(n, spec)
            ]
            if not others:
                raise self._no_fit(chain, spec)
            # Roomiest other node: the next same-node segment can run long.
            current = max(others, key=lambda n: (n.free_cores, n.name))
            self._commit(current, spec, placement)
