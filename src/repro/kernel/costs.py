"""Calibrated cost model for the simulated node.

Every latency/CPU number the simulation produces traces back to the constants
here. Units are **seconds** (constructors accept microseconds for
readability). Defaults are calibrated so that the spot measurements in the
paper's §3.2.2 land in band for a 2-function chain:

* S-SPRIGHT ~0.02-0.04 ms response delay, D-SPRIGHT slightly lower,
  Knative ~6x higher;
* D-SPRIGHT burns >3 dedicated cores at any load while S-SPRIGHT's CPU is
  load-proportional.

The per-request *counts* of each operation are not free parameters: they come
from the audit framework (`repro.audit`) and must equal Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def usec(value: float) -> float:
    """Convert microseconds to seconds (the model's base unit)."""
    return value * 1e-6


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs of the simulated kernel and runtime.

    Attributes are grouped by the overhead classes audited in Table 1:
    copies, context switches, interrupts, protocol processing,
    serialization/deserialization — plus the SPRIGHT-specific mechanisms
    (eBPF, sockmap, rings, shared memory).
    """

    # -- data movement -----------------------------------------------------
    copy_fixed: float = usec(0.30)          # per-copy setup (cache, mmu)
    copy_per_byte: float = usec(0.0001)     # ~10 GB/s memcpy
    # -- scheduling --------------------------------------------------------
    context_switch: float = usec(1.2)       # direct + indirect cost [52]
    interrupt: float = usec(0.8)            # hard irq + softirq dispatch
    syscall: float = usec(0.5)              # user/kernel boundary crossing
    wakeup_latency: float = usec(0.7)       # runnable -> running (uncontended)
    # -- kernel protocol stack ----------------------------------------------
    protocol_stack: float = usec(3.0)       # TCP/IP rx or tx traversal
    iptables_per_rule: float = usec(0.05)   # conntrack/filter rule walk
    iptables_rules: int = 50                # typical k8s node [61]
    netfilter_fixed: float = usec(0.8)
    checksum_per_byte: float = usec(0.0003) # software checksum
    veth_traversal: float = usec(0.6)       # veth pair hop
    nic_dma: float = usec(1.0)              # NIC rx/tx DMA + descriptor
    # -- serialization (HTTP/gRPC/REST) --------------------------------------
    serialize_fixed: float = usec(1.0)
    serialize_per_byte: float = usec(0.002)   # ~500 MB/s marshalling
    deserialize_fixed: float = usec(1.2)
    deserialize_per_byte: float = usec(0.0025)
    # -- eBPF -----------------------------------------------------------------
    ebpf_instruction: float = usec(0.004)     # ~4 ns/insn JIT-adjacent
    ebpf_map_lookup: float = usec(0.15)
    ebpf_map_update: float = usec(0.25)
    sockmap_redirect: float = usec(0.5)       # bpf_msg_redirect_map fast path
    xdp_fixed: float = usec(0.4)              # XDP frame handling
    fib_lookup: float = usec(0.3)
    # -- shared memory / DPDK ----------------------------------------------
    ring_enqueue: float = usec(0.05)
    ring_dequeue: float = usec(0.05)
    poll_iteration: float = usec(0.1)          # one empty poll loop
    shm_pool_get: float = usec(0.2)            # mbuf alloc from mempool
    shm_pool_put: float = usec(0.15)
    hugepage_access_discount: float = 0.85     # TLB-friendly access factor
    descriptor_bytes: int = 16                 # SPROXY packet descriptor
    # -- cluster fabric (east-west, NIC-to-NIC over ToR) ---------------------
    xnode_link_latency: float = usec(25.0)     # propagation + switch hop
    xnode_bandwidth_bps: float = 10e9          # 10 GbE fabric links
    # -- λ-NIC SmartNIC offload (programmable NIC cores) ---------------------
    nic_compute_cores: float = 4.0             # wimpy RISC cores on the NIC
    nic_compute_slowdown: float = 2.75         # host-seconds -> NIC-seconds
    nic_offload_ceiling: float = usec(60.0)    # heaviest offloadable handler
    # -- machine ----------------------------------------------------------------
    cpu_freq_hz: float = 2.2e9                  # c220g5: Intel @ 2.2 GHz
    cores: int = 40

    # Derived helpers --------------------------------------------------------
    def copy(self, nbytes: int) -> float:
        """Cost of one data copy of ``nbytes``."""
        return self.copy_fixed + nbytes * self.copy_per_byte

    def serialize(self, nbytes: int) -> float:
        return self.serialize_fixed + nbytes * self.serialize_per_byte

    def deserialize(self, nbytes: int) -> float:
        return self.deserialize_fixed + nbytes * self.deserialize_per_byte

    def iptables_walk(self) -> float:
        return self.netfilter_fixed + self.iptables_rules * self.iptables_per_rule

    def protocol_processing(self, nbytes: int) -> float:
        """One protocol-stack traversal incl. software checksum and iptables."""
        return (
            self.protocol_stack
            + nbytes * self.checksum_per_byte
            + self.iptables_walk()
        )

    def ebpf_run(self, instructions: int) -> float:
        return instructions * self.ebpf_instruction

    def cycles(self, seconds: float) -> float:
        """Convert seconds of CPU time to cycles on this machine."""
        return seconds * self.cpu_freq_hz


DEFAULT_COSTS = CostModel()


@dataclass
class NodeConfig:
    """Knobs describing the simulated worker node and experiment defaults."""

    costs: CostModel = field(default_factory=CostModel)
    cores: int = 40
    cpu_bucket_width: float = 1.0
    root_seed: int = 2022
    # Knative-specific defaults, from the paper's testbed section.
    function_concurrency: int = 32      # per-pod parallel request limit
    scale_down_grace_period: float = 30.0
    pod_startup_mean: float = 2.2       # seconds; cold start of a pod
    pod_startup_cv: float = 0.35
    termination_lag: float = 80.0       # observed sluggish scale-down (Fig 12)
