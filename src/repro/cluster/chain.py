"""A function chain executed across cluster nodes under a placement.

The single-node planes in ``repro.dataplane`` own a whole chain on one
node; :class:`ClusterDataplane` walks the same call sequence across the
nodes a :class:`~repro.cluster.scheduler.FunctionPlacement` chose.
Same-node hops pay the plane's native transport cost — a SPROXY descriptor
redirect, a ring enqueue/dequeue, or a kernel/loopback leg — while node
boundaries traverse the :class:`~repro.cluster.fabric.ClusterFabric`:
payloads leave the node's shared-memory pool, are framed by a real protocol
codec, and pay both ends' NIC stacks plus wire time. That asymmetry is the
entire cluster experiment: every boundary a placement introduces converts a
~2 µs descriptor hop into a ~30 µs serialized transfer.

On the ``lambda-nic`` plane each node hosting functions gets a
:class:`~repro.dataplane.spright.NicComputeEngine`; offload-eligible
functions execute on their node's NIC cores (a cross-node transfer into an
offloaded function terminates at the receiving NIC — no host rx cost at
all), and everything else falls back to host pods on the S-SPRIGHT path.

:class:`ClusterDataplane` is a :class:`~repro.dataplane.Dataplane` rooted at
the ingress node: it inherits ``submit``, ``deliver_once``, resilience and
admission unchanged, and overrides only pod selection and the per-hop walk.
"""

from __future__ import annotations

from typing import Optional

from ..dataplane import Dataplane, ProxyComponent, Request
from ..dataplane.legs import external_arrival, leg_kernel, leg_localhost
from ..dataplane.spright import NicComputeEngine, NicComputeModel, SpinCharger
from ..mem import PoolSanitizer, SharedMemoryManager, default_sanitize
from ..runtime import ChainSpec, Deployment, Kubelet, Pod, WorkerNode
from .fabric import ClusterFabric
from .scheduler import FunctionPlacement

#: plane key -> CPU-tag prefix (kept distinct from the single-node planes
#: so cluster runs never pollute their accounting prefixes)
PLANE_TAGS = {
    "knative": "xc-kn",
    "grpc": "xc-grpc",
    "s-spright": "xc-sspright",
    "d-spright": "xc-dspright",
    "lambda-nic": "xc-lambdanic",
}
SHM_PLANES = ("s-spright", "d-spright", "lambda-nic")


class ClusterDataplane(Dataplane):
    """Executes one chain over the fabric according to a placement."""

    def __init__(
        self,
        fabric: ClusterFabric,
        chain: ChainSpec,
        plane: str,
        placement: FunctionPlacement,
        protocol: str = "grpc",
        gateway_cores: int = 2,
        sanitize: Optional[bool] = None,
        nic_model: Optional[NicComputeModel] = None,
        pool_capacity: int = 8192,
        pool_buffer_size: int = 16384,
    ) -> None:
        if plane not in PLANE_TAGS:
            raise KeyError(f"unknown plane {plane!r}; choose from {sorted(PLANE_TAGS)}")
        missing = [f for f in chain.function_names if f not in placement.assignments]
        if missing:
            raise ValueError(f"placement misses functions {missing!r}")
        self.fabric = fabric
        self.chain = chain
        self.plane_name = plane
        self.plane = PLANE_TAGS[plane]
        self.placement = placement
        self.protocol = protocol
        self.shm = plane in SHM_PLANES
        if sanitize is None:
            sanitize = default_sanitize()
        self.sanitize = sanitize

        self.nodes_used = [
            fabric.nodes[name] for name in placement.nodes_used()
        ]
        entry = chain.functions[0].name
        self.ingress_node: WorkerNode = fabric.nodes[placement.node_of(entry)]
        # The cluster ingress gateway sits with the entry function. SPRIGHT
        # planes pin it (the paper's fair-comparison config); the baselines
        # float it on the shared cores like Istio.
        self.gateway = ProxyComponent(
            self.ingress_node,
            tag=f"{self.plane}/gw",
            pinned_cores=gateway_cores if self.shm else None,
            path_cpu=10e-6,
            overhead_cpu=20e-6,
        )

        # Per-node wiring: kubelet + deployments for the functions placed
        # there, a private shm pool (SPRIGHT planes), NIC engines (λ-NIC),
        # poll-core spinners (D-SPRIGHT).
        self._kubelets: dict[str, Kubelet] = {}
        self._pools: dict[str, object] = {}
        self._managers: dict[str, SharedMemoryManager] = {}
        self.engines: dict[str, NicComputeEngine] = {}
        self._spinners: list[SpinCharger] = []
        self._net_ops: dict[str, object] = {}
        for node in self.nodes_used:
            self._kubelets[node.name] = Kubelet(
                node, cold_start_enabled=False, termination_lag=0.0
            )
            self._net_ops[node.name] = node.ops(f"{self.plane}/net")
            if self.shm:
                manager = SharedMemoryManager(
                    node.pools, f"{chain.name}@{node.name}"
                )
                manager.initialize(
                    buffer_size=pool_buffer_size, capacity=pool_capacity
                )
                pool = manager.attach(manager.file_prefix)
                if sanitize:
                    pool.attach_sanitizer(PoolSanitizer(counter=node.counters))
                self._managers[node.name] = manager
                self._pools[node.name] = pool
            if plane == "lambda-nic":
                engine = getattr(node.nic, "offload_engine", None)
                if engine is None:
                    engine = NicComputeEngine(node, nic_model)
                self.engines[node.name] = engine
        Dataplane.__init__(
            self,
            self.ingress_node,
            list(chain.functions),
            kubelet=self._kubelets[self.ingress_node.name],
        )
        for spec in chain.functions:
            node = fabric.nodes[placement.node_of(spec.name)]
            deployment = self._kubelets[node.name].deployment(
                spec, self.fn_tag(spec.name)
            )
            deployment.ensure_scale(max(1, spec.min_scale))
            self.deployments[spec.name] = deployment
            # Pod faults armed on a node find the functions placed there.
            node.faults.register_deployment(spec.name, deployment)
            if plane == "d-spright":
                for pod in deployment.servable_pods():
                    self._spinners.append(SpinCharger(node, pod.cpu_tag, cores=1.0))
        if plane == "d-spright" and self.shm:
            self._spinners.append(
                SpinCharger(self.ingress_node, self.gateway.tag, cores=gateway_cores)
            )
        self._deployed = True

        self.xnode_hops = 0
        self.offloaded = 0
        self.host_serves = 0

    # -- bookkeeping ---------------------------------------------------------
    def per_request_hops(self) -> float:
        if self.requests_completed == 0:
            return 0.0
        return self.xnode_hops / self.requests_completed

    def leaked_slots(self) -> int:
        """Shared-memory buffers still allocated (call after a drain)."""
        return sum(
            pool.capacity - pool.free_count for pool in self._pools.values()
        )

    def host_cpu_percent(self, duration: float) -> float:
        """Host CPU of this plane summed over every node (core-%)."""
        return sum(
            node.cpu_percent_prefix(f"{self.plane}/", duration)
            for node in self.fabric.nodes.values()
        )

    def nic_cpu_cores(self, duration: float) -> float:
        return sum(
            engine.nic_cpu_cores(duration) for engine in self.engines.values()
        )

    def teardown(self) -> None:
        for spinner in self._spinners:
            spinner.stop()
        for manager in self._managers.values():
            manager.teardown()

    # -- request path --------------------------------------------------------
    def select_pod(
        self, deployment: Deployment, exclude: Optional[set] = None
    ) -> Optional[Pod]:
        """SPRIGHT planes pick by residual capacity, the baselines round robin."""
        if self.shm:
            return deployment.pick_residual_capacity(exclude)
        return deployment.pick_round_robin(exclude)

    def handle_request(self, request: Request):
        env = self.ingress_node.env
        sequence = request.request_class.sequence
        nbytes = len(request.payload)
        costs = self.ingress_node.config.costs
        request.mark("ingress", env.now)

        # λ-NIC: when the entry function is offload-eligible on the ingress
        # node, the request is intercepted at the NIC's XDP layer and never
        # reaches the host gateway — the zero-host-cost entry path.
        entry_engine = self.engines.get(self.ingress_node.name)
        nic_entry = entry_engine is not None and entry_engine.eligible(
            self.chain.function(sequence[0])
        )
        span = request.span_begin(
            "leg:external", "leg", bytes=nbytes, nic=nic_entry
        )
        if nic_entry:
            yield env.timeout(costs.nic_dma + costs.xdp_fixed)
        else:
            # ①: client -> cluster ingress gateway on the entry node.
            yield from external_arrival(self.gateway.ops, nbytes, None, None)
            yield from self.gateway.traverse()
        request.span_end(span)

        payload = request.payload
        current = self.ingress_node
        handle = None          # shm residency: the pool buffer, if any
        handle_node = None     # ... and which node's pool owns it
        at_nic = nic_entry     # λ-NIC: payload currently in NIC SRAM
        try:
            for index, name in enumerate(sequence):
                spec = self.chain.function(name)
                target = self.fabric.nodes[self.placement.node_of(name)]
                engine = self.engines.get(target.name)
                offloadable = engine is not None and engine.eligible(spec)

                if target is not current:
                    if handle is not None:
                        payload = self._pool_read_free(handle_node, handle)
                        handle = handle_node = None
                    payload = yield from self.fabric.transfer(
                        current,
                        target,
                        payload,
                        ops_tx=self._net_ops[current.name],
                        ops_rx=self._net_ops[target.name],
                        request=request,
                        protocol=self.protocol,
                        nic_terminated=offloadable,
                        nic_sourced=at_nic,
                    )
                    self.xnode_hops += 1
                    at_nic = offloadable
                    current = target
                elif index > 0:
                    yield from self._intra_hop(current, len(payload), request)

                if offloadable and engine.try_reserve():
                    if handle is not None:
                        # Host pool -> NIC SRAM: cross PCIe once.
                        payload = self._pool_read_free(handle_node, handle)
                        handle = handle_node = None
                        yield env.timeout(current.config.costs.nic_dma)
                    try:
                        result = yield from engine.execute(spec, payload)
                    finally:
                        engine.release()
                    at_nic = True
                    self.offloaded += 1
                    current.counters.incr(f"{self.plane}/offloaded")
                else:
                    if offloadable:
                        current.counters.incr(f"{self.plane}/host_fallbacks")
                    if at_nic:
                        # NIC SRAM -> host memory: cross PCIe back in.
                        yield env.timeout(current.config.costs.nic_dma)
                        at_nic = False
                    if self.shm and handle is None:
                        handle, handle_node = self._pool_alloc(current, payload)
                    pod = yield from self.acquire_pod(name, request.claimed_pods)
                    result = yield from pod.serve(payload)
                    self.host_serves += 1
                    if handle is not None:
                        # Zero-copy in-place update of the chain's buffer.
                        self._pools[handle_node].write(handle, result.payload)
                payload = result.payload
                request.mark(f"served:{name}", env.now)

            # Response leg back to the ingress node (DFR-style ⑧).
            if handle is not None:
                payload = self._pool_read_free(handle_node, handle)
                handle = handle_node = None
            if current is not self.ingress_node:
                payload = yield from self.fabric.transfer(
                    current,
                    self.ingress_node,
                    payload,
                    ops_tx=self._net_ops[current.name],
                    ops_rx=self.gateway.ops,
                    request=request,
                    protocol=self.protocol,
                    nic_terminated=nic_entry,
                    nic_sourced=at_nic,
                )
                self.xnode_hops += 1
                at_nic = nic_entry
                current = self.ingress_node

            # ⑨: the response to the external client. A NIC-intercepted
            # request answers straight from the NIC (tx DMA only); a
            # gateway-terminated one pays the host response bundle.
            span = request.span_begin(
                "leg:response", "leg", bytes=len(payload), nic=nic_entry
            )
            if nic_entry:
                if not at_nic:
                    # Payload ended on the host: cross PCIe back to the NIC
                    # that still holds the client's flow state.
                    yield env.timeout(costs.nic_dma)
                yield env.timeout(costs.nic_dma)
                self.ingress_node.counters.incr(f"{self.plane}/nic_responses")
            else:
                if at_nic:
                    yield env.timeout(costs.nic_dma)
                bundle = self.gateway.ops.bundle()
                bundle.serialize(len(payload), None, None)
                bundle.copy(len(payload), None, None)
                bundle.protocol_processing(len(payload), None, None)
                yield bundle.commit()
            request.span_end(span)
        finally:
            if handle is not None:
                self._pools[handle_node].free(handle)
        request.response = payload
        request.mark("response", env.now)
        return request

    # -- helpers -------------------------------------------------------------
    def _pool_alloc(self, node: WorkerNode, payload: bytes):
        pool = self._pools[node.name]
        ops = self._net_ops[node.name]
        handle = pool.alloc(site=f"{self.plane}/{self.chain.name}@{node.name}")
        pool.write(handle, payload)
        # mempool get is cheap and off the critical path: charged, not awaited
        ops.background(node.config.costs.shm_pool_get)
        return handle, node.name

    def _pool_read_free(self, node_name: str, handle) -> bytes:
        pool = self._pools[node_name]
        payload = pool.read(handle)
        pool.free(handle)
        return payload

    def _intra_hop(self, node: WorkerNode, nbytes: int, request: Request):
        """Same-node function-to-function hop at the plane's native cost."""
        costs = node.config.costs
        ops = self._net_ops[node.name]
        span = request.span_begin(
            "hop:intra", "shm" if self.shm else "leg", bytes=nbytes, node=node.name
        )
        if self.plane_name == "knative":
            # Broker/queue-proxy style: a kernel leg plus the sidecar's
            # loopback leg — Table 1's within-chain shape.
            yield from leg_kernel(ops, nbytes, None, None)
            yield from leg_localhost(ops, nbytes, None, None)
        elif self.plane_name == "grpc":
            yield from leg_kernel(ops, nbytes, None, None)
        elif self.plane_name == "d-spright":
            yield ops.compute(costs.ring_enqueue + costs.ring_dequeue)
        else:
            # S-SPRIGHT / λ-NIC host path: SPROXY descriptor redirect plus
            # the receiver's wakeup — the payload never moves.
            yield ops.compute(costs.sockmap_redirect)
            yield ops.context_switch(None, None)
        request.span_end(span)
