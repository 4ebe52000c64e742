"""Shared-memory orphan scavenger: per-owner handle ledger + reclamation.

When a pod crashes, every pool buffer whose descriptor was parked in its
inbox/ring — or being served when the crash hit — would stay allocated
forever: the dead worker never reaches the ``free`` that the normal message
lifecycle performs, and a long crash-storm run exhausts the pool
(``PoolError: pool exhausted``) even though the node has plenty of memory.

The scavenger closes that leak. The chain runtime *assigns* each buffer to
the instance currently responsible for it (the pod a descriptor was just
delivered to, or the gateway once the response is on its way back) and
*releases* the assignment when the buffer is freed through the normal path.
On crash, :meth:`ShmScavenger.reclaim` force-frees everything still assigned
to the dead instance via :meth:`SharedMemoryPool.reclaim`, which bumps the
slot generation — so any stale descriptor the dead pod already emitted
faults cleanly at the ``(offset, generation)`` identity check (PR 1's ABA
machinery) instead of aliasing the slot's next occupant.

The ledger is plain bookkeeping: no RNG draws, no simulation events, and no
counters until an actual reclamation happens, so fault-free runs stay
byte-identical whether or not a scavenger is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from .pool import BufferHandle, SharedMemoryPool


class ShmScavenger:
    """Tracks which instance owns each live buffer; reclaims on crash.

    ``token`` is an opaque per-buffer payload (the chain runtime passes its
    side-band message) handed back by :meth:`reclaim` so the caller can fail
    waiting requesters without the mem layer knowing about dataplanes.
    """

    def __init__(
        self, pool: "SharedMemoryPool", counter: Optional["MetricsRegistry"] = None
    ) -> None:
        self.pool = pool
        self.counter = counter
        # id(handle) -> (owner, handle, token); id() identity matches the
        # pool's own handle-identity liveness rule.
        self._entries: dict[int, tuple[int, "BufferHandle", Any]] = {}
        self._by_owner: dict[int, dict[int, None]] = {}
        self.orphans_reclaimed = 0

    # -- ledger ----------------------------------------------------------------
    def assign(
        self, owner_id: int, handle: "BufferHandle", token: Any = None
    ) -> None:
        """Record that ``owner_id`` is now responsible for ``handle``.

        Re-assigning moves the buffer between owners (the descriptor hopped
        to the next function); the ledger holds at most one owner per buffer.
        """
        key = id(handle)
        previous = self._entries.get(key)
        if previous is not None:
            self._forget(key, previous[0])
        self._entries[key] = (owner_id, handle, token)
        self._by_owner.setdefault(owner_id, {})[key] = None

    def release(self, handle: "BufferHandle") -> None:
        """Drop the assignment (the buffer was freed through the normal path)."""
        key = id(handle)
        entry = self._entries.get(key)
        if entry is not None:
            self._forget(key, entry[0])

    def _forget(self, key: int, owner_id: int) -> None:
        self._entries.pop(key, None)
        owned = self._by_owner.get(owner_id)
        if owned is not None:
            owned.pop(key, None)
            if not owned:
                del self._by_owner[owner_id]

    def owned_count(self, owner_id: int) -> int:
        return len(self._by_owner.get(owner_id, ()))

    @property
    def tracked_count(self) -> int:
        return len(self._entries)

    # -- crash path -------------------------------------------------------------
    def reclaim(
        self, owner_id: int, site: str = ""
    ) -> list[tuple["BufferHandle", Any]]:
        """Force-free every buffer still assigned to a dead instance.

        Returns the ``(handle, token)`` pairs actually reclaimed (buffers the
        normal failure path already freed are skipped — reclamation is
        idempotent) and counts them under ``recovery/orphans_reclaimed``.
        """
        keys = list(self._by_owner.get(owner_id, ()))
        reclaimed: list[tuple["BufferHandle", Any]] = []
        for key in keys:
            owner, handle, token = self._entries[key]
            self._forget(key, owner)
            if self.pool.reclaim(handle, site=site):
                reclaimed.append((handle, token))
        if reclaimed:
            self.orphans_reclaimed += len(reclaimed)
            if self.counter is not None:
                self.counter.incr("recovery/orphans_reclaimed", len(reclaimed))
        return reclaimed
