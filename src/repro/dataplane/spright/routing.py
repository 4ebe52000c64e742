"""Direct Function Routing: the two-step route resolution of §3.2.3.

Step 1 (userspace, table kept in shared memory): ``(current function,
topic)`` -> next function *name* via the chain's routing table, configured
by the SPRIGHT controller from the user-defined sequence.

Step 2 (kernel): function name -> pod *instance* chosen by residual-capacity
load balancing; the instance ID is packed into the packet descriptor and the
in-kernel sockmap resolves it to a socket at redirect time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...runtime import DEFAULT_TOPIC
from ...runtime.pod import Pod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime import WorkerNode

GATEWAY_INSTANCE_ID = 0


class RoutingError(Exception):
    """Route misses and registration conflicts."""


class DfrRoutingTable:
    """Chain-scoped routing state: topic routes + live instance registry."""

    def __init__(self, node: "WorkerNode", chain_name: str) -> None:
        self.node = node
        self.chain_name = chain_name
        self._routes: dict[tuple[str, str], str] = {}
        self._instances: dict[str, list[Pod]] = {}
        self._by_instance_id: dict[int, Pod] = {}
        self.lookups = 0

    # -- controller-side configuration --------------------------------------
    def set_route(self, current: str, topic: str, next_function: str) -> None:
        self._routes[(current, topic)] = next_function

    def load_routes(self, routes: dict[tuple[str, str], str]) -> None:
        """Bulk-configure from a ChainSpec's route map (controller startup)."""
        for (current, topic), destination in routes.items():
            self.set_route(current, topic, destination)

    def register_instance(self, function: str, pod: Pod) -> None:
        self._instances.setdefault(function, []).append(pod)
        self._by_instance_id[pod.instance_id] = pod

    def deregister_instance(self, function: str, pod: Pod) -> None:
        pods = self._instances.get(function, [])
        if pod in pods:
            pods.remove(pod)
        self._by_instance_id.pop(pod.instance_id, None)

    # -- data-path resolution ----------------------------------------------------
    def next_function(self, current: str, topic: str = DEFAULT_TOPIC) -> str:
        """Step 1: the userspace routing-table lookup."""
        self.lookups += 1
        destination = self._routes.get((current, topic))
        if destination is None and topic != DEFAULT_TOPIC:
            destination = self._routes.get((current, DEFAULT_TOPIC))
        if destination is None:
            raise RoutingError(
                f"no route from {current!r} topic {topic!r} in chain {self.chain_name!r}"
            )
        return destination

    def pick_instance(self, function: str, exclude=None) -> Optional[Pod]:
        """Step 2 (LB): max residual service capacity among servable pods.

        Pods that stopped answering probes (hung, about to be marked down)
        are deprioritized: when any responsive instance exists, only
        responsive instances are candidates — otherwise a hung-but-healthy
        pod keeps winning on stale residual capacity and every retry/hedge
        lands back on it. Fault-free the filter is an exact no-op.

        ``exclude`` is a clone group's claimed-pod set (see
        ``Request.claimed_pods``): claimed instances are skipped so
        synchronized clones land on distinct pods, falling back to the full
        candidate list when every instance is claimed.

        One pass: the first pod, in instance order, with the greatest
        (responsive, unclaimed, residual capacity).
        """
        now = self.node.env.now
        best = None
        best_tier = best_capacity = 0
        for pod in self._instances.get(function, ()):
            if not pod.is_servable:
                continue
            tier = 2 if pod.responsive else 0
            if not exclude or pod.instance_id not in exclude:
                tier += 1
            if best is not None and tier < best_tier:
                continue
            capacity = pod.residual_capacity(now)
            if best is None or tier > best_tier or capacity > best_capacity:
                best, best_tier, best_capacity = pod, tier, capacity
        return best

    def instance(self, instance_id: int) -> Optional[Pod]:
        return self._by_instance_id.get(instance_id)
