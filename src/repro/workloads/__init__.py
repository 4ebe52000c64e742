"""Workloads: load generators + the paper's three evaluation scenarios."""

from .generators import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    TraceEvent,
    WeightedMix,
    make_payload,
)
from .kvstore import KvError, KvStats, KvStore, shared_store
from . import boutique, kvstore, motion, parking

__all__ = [
    "ClosedLoopGenerator",
    "OpenLoopGenerator",
    "TraceEvent",
    "WeightedMix",
    "boutique",
    "KvError",
    "KvStats",
    "KvStore",
    "kvstore",
    "shared_store",
    "make_payload",
    "motion",
    "parking",
]
