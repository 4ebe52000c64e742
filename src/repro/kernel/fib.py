"""Kernel FIB (Forwarding Information Base) table.

The XDP forwarding program (§3.5) consults this table through the
``bpf_fib_lookup`` helper to map a packet's destination to an egress
interface, replacing the iptables-heavy kernel routing path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .packet import FiveTuple


@dataclass(frozen=True)
class FibEntry:
    dst_ip: str
    ifindex: int
    gateway: Optional[str] = None


class FibTable:
    """Host routes: destination IP -> egress ifindex."""

    def __init__(self) -> None:
        self._routes: dict[str, FibEntry] = {}
        self.lookup_count = 0

    def add_route(self, dst_ip: str, ifindex: int, gateway: Optional[str] = None) -> None:
        self._routes[dst_ip] = FibEntry(dst_ip=dst_ip, ifindex=ifindex, gateway=gateway)

    def lookup(self, flow: FiveTuple) -> Optional[int]:
        """Resolve the egress ifindex for a flow; None on total miss."""
        self.lookup_count += 1
        entry = self._routes.get(flow.dst_ip)
        return None if entry is None else entry.ifindex

    def __len__(self) -> int:
        return len(self._routes)
