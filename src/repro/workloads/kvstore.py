"""In-memory key-value store: the boutique's 'in-memory DB' (Fig 8a).

The cart service and the parking plate-metadata path both hit an in-memory
store (Redis in the upstream boutique). This substrate stores real values
with LRU eviction and returns the access cost of each operation, which
behaviors fold into their service time — so data-dependent CPU (cart size,
metadata cardinality) is part of the measured latency rather than a fixed
constant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

# Redis-grade in-memory operation costs.
GET_COST = 1.5e-6
PUT_COST = 2.0e-6
VALUE_COST_PER_BYTE = 0.002e-6


class KvError(Exception):
    """Capacity misuse or malformed operations."""


@dataclass
class KvStats:
    gets: int = 0
    puts: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class KvStore:
    """LRU-bounded in-memory KV with per-operation cost reporting.

    Every operation returns ``(result, seconds)``; the caller (a function
    behavior) adds the seconds to its service time.
    """

    def __init__(self, name: str = "kv", max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise KvError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self._data: OrderedDict[str, bytes] = OrderedDict()
        self.stats = KvStats()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> tuple[Optional[bytes], float]:
        self.stats.gets += 1
        value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
            return None, GET_COST
        self.stats.hits += 1
        self._data.move_to_end(key)
        return value, GET_COST + len(value) * VALUE_COST_PER_BYTE

    def put(self, key: str, value: bytes) -> float:
        self.stats.puts += 1
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        cost = PUT_COST + len(value) * VALUE_COST_PER_BYTE
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.stats.evictions += 1
        return cost

    def delete(self, key: str) -> tuple[bool, float]:
        self.stats.deletes += 1
        existed = self._data.pop(key, None) is not None
        return existed, GET_COST

    def contains(self, key: str) -> tuple[bool, float]:
        value, cost = self.get(key)
        return value is not None, cost


def shared_store(context: dict, name: str = "db", max_entries: int = 100_000) -> KvStore:
    """Per-pod store accessor used by function behaviors."""
    store = context.get(name)
    if store is None:
        store = KvStore(name=name, max_entries=max_entries)
        context[name] = store
    return store
