"""Flow identity: the IP 5-tuple the FIB and the XDP path look up."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FiveTuple:
    """IP 5-tuple used for FIB lookups and flow identity."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str = "tcp"

    def key(self) -> tuple:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def reversed(self) -> "FiveTuple":
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )
