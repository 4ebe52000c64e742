"""Network devices: the physical NIC with its XDP attach point.

These exist so the §3.5 acceleration path is structurally real: an XDP hook
on the NIC RX path and a registry mapping ifindexes to devices, so an
``XDP_REDIRECT`` verdict names a real device. Packet loss is modelled once,
on the dataplane legs (:mod:`repro.dataplane.legs`), not per frame here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ebpf import HookPoint, ProgramType, Vm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import Environment


class DeviceRegistry:
    """ifindex -> device, for redirect verdict resolution."""

    def __init__(self) -> None:
        self._devices: dict[int, "PhysicalNic"] = {}
        self._next_ifindex = 1

    def register(self, device: "PhysicalNic") -> int:
        ifindex = self._next_ifindex
        self._next_ifindex += 1
        self._devices[ifindex] = device
        return ifindex

    def get(self, ifindex: int) -> "PhysicalNic":
        device = self._devices.get(ifindex)
        if device is None:
            raise KeyError(f"no device with ifindex {ifindex}")
        return device

    def __len__(self) -> int:
        return len(self._devices)


class PhysicalNic:
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
        self.env = env
        self.name = name
        self.registry = registry
        self.ifindex = registry.register(self)
        self.xdp_hook = HookPoint(f"xdp@{name}", ProgramType.XDP, vm)
        self.link_speed_bps = 10e9  # 10 GbE, per the c220g5 testbed
        self.offload_engine = None  # duck-typed NicComputeEngine (λ-NIC)
