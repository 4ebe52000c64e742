"""Simulated Linux kernel substrate: costs, flows, stack, eBPF, NIC, FIB."""

from .costs import CostModel, DEFAULT_COSTS, NodeConfig, usec
from .fib import FibEntry, FibTable
from .netdev import DeviceRegistry, PhysicalNic
from .ops import KernelOps
from .packet import FiveTuple

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "DeviceRegistry",
    "FibEntry",
    "FibTable",
    "FiveTuple",
    "KernelOps",
    "NodeConfig",
    "PhysicalNic",
    "usec",
]
