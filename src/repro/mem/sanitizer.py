"""Generation-tagged memory sanitizer for the shared-memory dataplane.

ASan/KASAN in spirit, for our hugepage pool: every buffer slot carries a
monotonically increasing *generation* that :meth:`SharedMemoryPool.alloc`
bumps, and every access (``read``/``write``/``free``/descriptor resolution)
verifies ``(offset, generation)`` identity. That closes the classic ABA
hole where a freed :class:`BufferHandle` whose slot was re-allocated to
another request still passes an offset-only liveness check and silently
reads or clobbers the new owner's payload.

On top of the pool-level identity checks (always on — they are the
correctness fix, not an opt-in), :class:`PoolSanitizer` adds the tooling
layer: live-allocation tracking with allocation-site labels, violation
counters in a :class:`repro.obs.MetricsRegistry`, and chain-teardown
leak detection. Enable it per chain via ``SprightParams(sanitize=True)``,
globally via :func:`set_default_sanitize` (what the CLI's ``--sanitize``
flag does), or attach it to any pool directly with
:meth:`SharedMemoryPool.attach_sanitizer`.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import BufferHandle, SharedMemoryPool


class ViolationKind(enum.Enum):
    """The memory-safety violation classes the sanitizer distinguishes."""

    USE_AFTER_FREE = "use_after_free"
    DOUBLE_FREE = "double_free"
    STALE_FREE = "stale_free"
    CROSS_POOL = "cross_pool"
    RANGE_STRADDLE = "range_straddle"
    LEAK = "leak"

    @property
    def counter_name(self) -> str:
        return f"sanitizer/{self.value}"


class SanitizerError(Exception):
    """Raised in strict mode when a violation is recorded."""


@dataclass
class AllocationRecord:
    """One live buffer as the sanitizer sees it."""

    pool_name: str
    offset: int
    generation: int
    site: str
    alloc_index: int


@dataclass(frozen=True)
class Violation:
    """One detected memory-safety violation."""

    kind: ViolationKind
    pool_name: str
    detail: str
    site: str = ""

    def render(self) -> str:
        where = f" [site: {self.site}]" if self.site else ""
        return f"{self.kind.value}: pool {self.pool_name!r}: {self.detail}{where}"


# -- process-wide default (what the CLI's --sanitize toggles) -----------------
def _env_default(value: Optional[str]) -> bool:
    """Parse the SPRIGHT_REPRO_SANITIZE env var (CI runs suites with it set)."""
    return (value or "").strip().lower() not in ("", "0", "false", "no")


_default_sanitize = _env_default(os.environ.get("SPRIGHT_REPRO_SANITIZE"))


def set_default_sanitize(enabled: bool) -> None:
    """Turn checked mode on/off for every chain built afterwards."""
    global _default_sanitize
    _default_sanitize = bool(enabled)


def default_sanitize() -> bool:
    return _default_sanitize


class PoolSanitizer:
    """Tracks live allocations and records memory-safety violations.

    One sanitizer may watch several pools (e.g. every pool on a node),
    keying live allocations by ``(pool_name, offset)``. Violations are
    counted into ``counter`` under ``sanitizer/<kind>`` names so experiment
    drivers can assert zero violations after a checked run.
    """

    def __init__(
        self, counter: Optional[MetricsRegistry] = None, strict: bool = False
    ) -> None:
        self.counter = counter if counter is not None else MetricsRegistry()
        self.strict = strict
        self.violations: list[Violation] = []
        self._live: dict[tuple[str, int], AllocationRecord] = {}
        self._reclaimed: list[AllocationRecord] = []
        self._alloc_sequence = 0

    # -- pool hooks -----------------------------------------------------------
    def on_alloc(self, pool: "SharedMemoryPool", handle: "BufferHandle", site: str) -> None:
        self._alloc_sequence += 1
        self._live[(pool.name, handle.offset)] = AllocationRecord(
            pool_name=pool.name,
            offset=handle.offset,
            generation=handle.generation,
            site=site or "<unknown>",
            alloc_index=self._alloc_sequence,
        )

    def on_free(self, pool: "SharedMemoryPool", handle: "BufferHandle") -> None:
        self._live.pop((pool.name, handle.offset), None)

    def on_reclaim(
        self, pool: "SharedMemoryPool", handle: "BufferHandle", site: str
    ) -> None:
        """An orphaned buffer was force-freed by the scavenger.

        Not a violation — reclamation is the *remedy* for the leak a crashed
        owner would otherwise cause — but it is counted separately
        (``sanitizer/orphan_reclaims``) so experiments can cross-check the
        scavenger's own ``recovery/orphans_reclaimed`` accounting against
        what the sanitizer observed leaving the live set.
        """
        record = self._live.pop((pool.name, handle.offset), None)
        self._reclaimed.append(
            AllocationRecord(
                pool_name=pool.name,
                offset=handle.offset,
                generation=handle.generation,
                site=site or (record.site if record is not None else "<untracked>"),
                alloc_index=record.alloc_index if record is not None else 0,
            )
        )
        self.counter.incr("sanitizer/orphan_reclaims")

    def record(
        self, kind: ViolationKind, pool_name: str, detail: str, site: str = ""
    ) -> Violation:
        """Count one violation; raise in strict mode."""
        violation = Violation(kind=kind, pool_name=pool_name, detail=detail, site=site)
        self.violations.append(violation)
        self.counter.incr(kind.counter_name)
        if self.strict:
            raise SanitizerError(violation.render())
        return violation

    # -- teardown / reporting ---------------------------------------------------
    def site_of(self, pool_name: str, offset: int) -> str:
        record = self._live.get((pool_name, offset))
        return record.site if record is not None else ""

    def check_teardown(self, pool: "SharedMemoryPool") -> list[Violation]:
        """Report every buffer still live when its pool is destroyed."""
        leaked = []
        for handle in pool.live_handles():
            record = self._live.pop((pool.name, handle.offset), None)
            site = record.site if record is not None else "<untracked>"
            leaked.append(
                self.record(
                    ViolationKind.LEAK,
                    pool.name,
                    f"buffer at offset {handle.offset} (generation "
                    f"{handle.generation}, {handle.size} bytes) still live at "
                    f"pool teardown",
                    site=site,
                )
            )
        return leaked

    def leaks(self) -> list[Violation]:
        return [v for v in self.violations if v.kind is ViolationKind.LEAK]

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def orphan_reclaims(self) -> int:
        """How many orphaned buffers the scavenger pulled back."""
        return len(self._reclaimed)

    @property
    def total_violations(self) -> int:
        return len(self.violations)

    def counts(self) -> dict[str, int]:
        """Per-kind violation counts (zero-suppressed)."""
        out: dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind.value] = out.get(violation.kind.value, 0) + 1
        return out

    def report(self) -> str:
        """Plain-text summary, one line per violation."""
        if not self.violations:
            return "sanitizer: 0 violations"
        lines = [f"sanitizer: {len(self.violations)} violation(s)"]
        lines.extend(f"  {violation.render()}" for violation in self.violations)
        return "\n".join(lines)
