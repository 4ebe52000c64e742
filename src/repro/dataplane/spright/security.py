"""Security domains: private pools + SPROXY descriptor filtering (§3.4).

A chain's security domain is (a) its private shared memory pool, reachable
only with the chain's file prefix (enforced by :mod:`repro.mem.pool`), and
(b) the in-kernel filtering map consulted by the SPROXY before any
redirection: ``(sender instance << 16) | destination instance`` must be
present, or the descriptor is dropped before it can touch another pod.
"""

from __future__ import annotations

from ...kernel.ebpf import HashMap, MapRegistry

FILTER_MAP_ENTRIES = 65536


def filter_key(sender_instance: int, destination_instance: int) -> int:
    """The key layout the SPROXY filter program computes in bytecode."""
    if not 0 <= sender_instance < 2**16:
        raise ValueError(f"sender instance {sender_instance} out of u16 range")
    if not 0 <= destination_instance < 2**16:
        raise ValueError(f"destination instance {destination_instance} out of u16 range")
    return (sender_instance << 16) | destination_instance


class SecurityDomain:
    """One chain's isolation state: the filter map plus audit counters."""

    def __init__(self, map_registry: MapRegistry, chain_name: str) -> None:
        self.chain_name = chain_name
        self.filter_map = HashMap(FILTER_MAP_ENTRIES, name=f"filter-{chain_name}")
        self.filter_fd = map_registry.create(self.filter_map)
        self.rules_installed = 0
        self.denied = 0

    def allow(self, sender_instance: int, destination_instance: int) -> None:
        """kubelet-configured rule: sender may address destination."""
        self.filter_map.update(filter_key(sender_instance, destination_instance), 1)
        self.rules_installed += 1

    def record_denial(self) -> None:
        self.denied += 1
