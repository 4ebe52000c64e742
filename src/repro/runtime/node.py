"""The simulated worker node: one place wiring CPU, kernel, eBPF, memory.

Every experiment builds a :class:`WorkerNode` (the paper's Cloudlab c220g5),
then deploys a dataplane on it. The node owns the singletons: the CPU set,
the eBPF VM + map registry, the device registry, the FIB, the shared-memory
pool registry, and the RNG streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..faults import FaultInjector
from ..kernel import DeviceRegistry, FibTable, KernelOps, NodeConfig, PhysicalNic
from ..kernel.ebpf import MapRegistry, Vm
from ..mem import PoolRegistry
from ..obs import Observability, default_observe
from ..simcore import CpuSet, Environment, RandomStreams
from ..stats import LatencyRecorder


@dataclass
class NodeClock:
    """ns-resolution clock view for eBPF's ktime helper."""

    env: Environment

    @property
    def now_ns(self) -> int:
        return int(self.env.now * 1e9)


class WorkerNode:
    """A 40-core worker node with a full simulated kernel.

    Pass a shared ``env`` to co-simulate several nodes on one clock (the
    multi-node deployments §3.8 discusses); by default each node owns its
    environment.
    """

    def __init__(
        self,
        config: Optional[NodeConfig] = None,
        env: Optional[Environment] = None,
        name: str = "worker-1",
    ) -> None:
        self.config = config or NodeConfig()
        self.name = name
        self.env = env if env is not None else Environment()
        self.cpu = CpuSet(
            self.env,
            cores=self.config.cores,
            freq_hz=self.config.costs.cpu_freq_hz,
            bucket_width=self.config.cpu_bucket_width,
        )
        self.rng = RandomStreams(self.config.root_seed)
        self.map_registry = MapRegistry()
        self.vm = Vm(self.map_registry)
        self.devices = DeviceRegistry()
        self.fib = FibTable()
        self.nic = PhysicalNic(self.env, self.devices, self.vm)
        self.pools = PoolRegistry()
        self.clock = NodeClock(self.env)
        self.recorder = LatencyRecorder()
        # Observability bundle (repro.obs): the metrics registry is always
        # on and is node.counters; tracing/profiling follow the process
        # defaults (the CLI's --trace/--profile) unless enabled per node.
        self.obs = Observability(self.env, label=name)
        trace_default, profile_default = default_observe()
        if trace_default:
            self.obs.enable_tracing()
        if profile_default:
            self.obs.enable_profiling(self.cpu.accounting)
        self.counters = self.obs.registry
        self.faults = FaultInjector(self)
        self.devices.faults = self.faults
        # Pod instance ids are node-scoped (not module-global) so a run's
        # ids never depend on how many simulations ran earlier in the
        # process — reproducible in any test order.
        self._instance_ids = itertools.count(1)

    def next_instance_id(self) -> int:
        """Next pod instance id on this node (deterministic per run)."""
        return next(self._instance_ids)

    def ops(self, tag: str) -> KernelOps:
        """Kernel-operation vocabulary charged to ``tag``."""
        return KernelOps(
            self.env, self.cpu, self.config.costs, tag, self.faults, obs=self.obs
        )

    def run(self, until: float) -> None:
        self.env.run(until=until)

    # -- reporting -------------------------------------------------------------
    def cpu_percent(self, tag: str, duration: Optional[float] = None) -> float:
        horizon = duration if duration is not None else self.env.now
        return self.cpu.accounting.mean_percent(tag, horizon)

    def cpu_percent_prefix(self, prefix: str, duration: Optional[float] = None) -> float:
        """Sum of CPU% across all tags starting with ``prefix``."""
        horizon = duration if duration is not None else self.env.now
        return sum(
            self.cpu.accounting.mean_percent(tag, horizon)
            for tag in self.cpu.accounting.tags()
            if tag.startswith(prefix)
        )

    def cpu_series_prefix(self, prefix: str, until: Optional[float] = None):
        """Per-second CPU% summed over matching tags."""
        horizon = until if until is not None else self.env.now
        matching = [
            tag for tag in self.cpu.accounting.tags() if tag.startswith(prefix)
        ]
        if not matching:
            return []
        series_per_tag = [self.cpu.accounting.series(tag, horizon) for tag in matching]
        length = min(len(series) for series in series_per_tag)
        return [
            (
                series_per_tag[0][index][0],
                sum(series[index][1] for series in series_per_tag),
            )
            for index in range(length)
        ]
