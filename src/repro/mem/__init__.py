"""Shared memory substrate: pools, descriptors, RTE rings, chain managers."""

from .descriptor import (
    DESCRIPTOR_SIZE,
    DESCRIPTOR_VERSION,
    DescriptorError,
    PacketDescriptor,
)
from .manager import ChainMemory, SharedMemoryManager
from .pool import (
    BufferHandle,
    HUGEPAGE_SIZE,
    IsolationError,
    PoolError,
    PoolRegistry,
    PoolStats,
    SharedMemoryPool,
)
from .rings import RING_F_SC_DEQ, RING_F_SP_ENQ, RingError, RteRing
from .scavenger import ShmScavenger
from .sanitizer import (
    PoolSanitizer,
    SanitizerError,
    Violation,
    ViolationKind,
    default_sanitize,
    set_default_sanitize,
)

__all__ = [
    "BufferHandle",
    "ChainMemory",
    "DESCRIPTOR_SIZE",
    "DESCRIPTOR_VERSION",
    "DescriptorError",
    "HUGEPAGE_SIZE",
    "IsolationError",
    "PacketDescriptor",
    "PoolError",
    "PoolRegistry",
    "PoolSanitizer",
    "PoolStats",
    "RING_F_SC_DEQ",
    "RING_F_SP_ENQ",
    "RingError",
    "RteRing",
    "SanitizerError",
    "SharedMemoryManager",
    "SharedMemoryPool",
    "ShmScavenger",
    "Violation",
    "ViolationKind",
    "default_sanitize",
    "set_default_sanitize",
]
