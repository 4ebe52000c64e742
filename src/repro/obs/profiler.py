"""Simulated-CPU profiler: every charged cost attributed to a stack.

Hangs off :class:`repro.simcore.cpu.CpuAccounting`, which every CPU charge
reports to (a core booking through :class:`repro.simcore.cpu.Charge` or a
direct ledger charge), and attributes each charge to a stack made of the
component's CPU tag segments (plane, component, pod) plus the operation
name supplied by the charging site (``copy``, ``context_switch``,
``ebpf_run``, ``service``, ...). Bundled charges carry their per-operation
breakdown so one coalesced CPU event still profiles as its constituents.

The profiler never alters what is recorded in the accounting ledger, so a
profiled run's CPU%% tables are identical to an unprofiled run's. Output is
folded-stack text (``plane;component;op <nanoseconds>``), the input format
of every flamegraph renderer.
"""

from __future__ import annotations

from typing import Sequence, Union

#: A charge's operation attribution: a single op name, or a pre-broken-down
#: sequence of (op name, seconds) components from a kernel commit.
OpAttribution = Union[None, str, Sequence[tuple[str, float]]]

UNTYPED = "untyped"


class CpuProfiler:
    """Accumulates seconds per (tag segments..., operation) stack."""

    def __init__(self) -> None:
        self.samples: dict[tuple[str, ...], float] = {}
        self.total = 0.0
        #: tag -> op name -> its sample key, built on the first charge.
        self._keys: dict[str, dict[str, tuple[str, ...]]] = {}

    def record(self, tag: str, op: OpAttribution, seconds: float) -> None:
        if seconds <= 0:
            return
        self.total += seconds
        keys = self._keys.get(tag)
        if keys is None:
            keys = self._keys[tag] = {}
        if op is None or isinstance(op, str):
            op = ((op or UNTYPED, seconds),)
        samples = self.samples
        for name, part in op:
            key = keys.get(name)
            if key is None:
                key = keys[name] = tuple(tag.split("/")) + (name,)
            samples[key] = samples.get(key, 0.0) + part

    # -- views ---------------------------------------------------------------
    def folded(self) -> str:
        """Folded-stack flamegraph text, weights in integer nanoseconds."""
        lines = []
        for key in sorted(self.samples):
            nanos = int(round(self.samples[key] * 1e9))
            if nanos > 0:
                lines.append(";".join(key) + f" {nanos}")
        return "\n".join(lines) + ("\n" if lines else "")

    def top_stacks(self, count: int = 10) -> list[tuple[str, float]]:
        ordered = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(";".join(key), seconds) for key, seconds in ordered[:count]]
