"""Network devices: physical NIC and veth pairs, with eBPF attach points.

These exist so the §3.5 acceleration path is structurally real: an XDP hook
on the NIC RX path, TC hooks on the host-side veths, and a registry mapping
ifindexes to devices so ``XDP_REDIRECT``/``TC_ACT_REDIRECT`` verdicts can be
carried out (frame moved directly between devices, skipping the stack).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .ebpf import HookPoint, ProgramType, Vm
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import Environment


class DeviceRegistry:
    """ifindex -> device, for redirect verdict resolution.

    Also the seam where fault injection reaches the frame paths: the
    owning node points ``faults`` at its :class:`FaultInjector`, and every
    device consults it on RX/TX. ``faults`` stays ``None`` for registries
    built outside a node (unit tests), keeping devices standalone.
    """

    def __init__(self) -> None:
        self._devices: dict[int, "NetDevice"] = {}
        self._next_ifindex = 1
        self.faults = None  # set by WorkerNode; duck-typed FaultInjector

    def register(self, device: "NetDevice") -> int:
        ifindex = self._next_ifindex
        self._next_ifindex += 1
        self._devices[ifindex] = device
        return ifindex

    def get(self, ifindex: int) -> "NetDevice":
        device = self._devices.get(ifindex)
        if device is None:
            raise KeyError(f"no device with ifindex {ifindex}")
        return device

    def __len__(self) -> int:
        return len(self._devices)


class NetDevice:
    """Base device: a name, an ifindex and frame counters."""

    def __init__(self, env: "Environment", name: str, registry: DeviceRegistry) -> None:
        self.env = env
        self.name = name
        self.registry = registry
        self.ifindex = registry.register(self)
        self.frames_received = 0
        self.frames_sent = 0
        self.frames_dropped = 0    # fault injection: lost frames
        self.frames_corrupted = 0  # fault injection: checksum discards

    def receive_frame(self, packet: Packet) -> None:
        """Count a frame arriving at this device and stamp its ifindex."""
        faults = self.registry.faults
        if faults is not None and faults.active:
            if faults.drop_packet("rx", self.name):
                self.frames_dropped += 1
                return
            if faults.corrupt_packet("rx", self.name):
                # A corrupted frame fails its checksum and is discarded at
                # the driver; the sender never learns.
                self.frames_corrupted += 1
                return
        self.frames_received += 1
        packet.ingress_ifindex = self.ifindex

    def send_frame(self, packet: Packet) -> bool:
        faults = self.registry.faults
        if faults is not None and faults.active and faults.drop_packet("tx", self.name):
            self.frames_dropped += 1
            return False
        self.frames_sent += 1
        return True


class PhysicalNic(NetDevice):
    """The node's physical NIC: XDP hook at the earliest RX point.

    ``offload_engine`` is the SmartNIC seam: when a
    :class:`~repro.dataplane.spright.xdp_accel.NicComputeEngine` is
    attached, whole match-action-expressible functions execute on the NIC's
    own cores at this hook (λ-NIC), never waking the host. ``None`` means a
    plain fixed-function NIC.
    """

    def __init__(
        self, env: "Environment", registry: DeviceRegistry, vm: Vm, name: str = "eth0"
    ) -> None:
        super().__init__(env, name, registry)
        self.xdp_hook = HookPoint(f"xdp@{name}", ProgramType.XDP, vm)
        self.link_speed_bps = 10e9  # 10 GbE, per the c220g5 testbed
        self.offload_engine = None  # duck-typed NicComputeEngine (λ-NIC)


class VethEndpoint(NetDevice):
    """One side of a veth pair; host side carries the TC ingress hook."""

    def __init__(
        self,
        env: "Environment",
        registry: DeviceRegistry,
        vm: Vm,
        name: str,
        is_host_side: bool,
    ) -> None:
        super().__init__(env, name, registry)
        self.is_host_side = is_host_side
        self.peer: Optional["VethEndpoint"] = None
        self.tc_hook = HookPoint(f"tc@{name}", ProgramType.TC, vm) if is_host_side else None

    def send_frame(self, packet: Packet) -> bool:
        """Transmitting on one side makes the frame appear on the peer."""
        if self.peer is None:
            raise RuntimeError(f"veth {self.name} has no peer")
        if not super().send_frame(packet):
            return False  # dropped on the TX path; the peer never sees it
        self.peer.receive_frame(packet)
        return True


class VethPair:
    """A pod's veth pair: pod-side inside the netns, host-side on the node."""

    def __init__(
        self, env: "Environment", registry: DeviceRegistry, vm: Vm, pod_name: str
    ) -> None:
        self.host_side = VethEndpoint(
            env, registry, vm, name=f"veth-{pod_name}-host", is_host_side=True
        )
        self.pod_side = VethEndpoint(
            env, registry, vm, name=f"veth-{pod_name}-pod", is_host_side=False
        )
        self.host_side.peer = self.pod_side
        self.pod_side.peer = self.host_side
