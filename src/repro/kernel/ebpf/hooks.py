"""Kernel hook points where eBPF programs attach and fire.

A hook point accepts only programs of its family (XDP on NIC RX, TC on veth,
SK_MSG on sockets), verifies and compiles them at attach time, and executes
every attached program in order when an event arrives — exactly the kernel's
behaviour that makes SPRIGHT's overhead load-proportional: no event, no
execution, no cost.
"""

from __future__ import annotations

from typing import Optional

from .isa import Program, ProgramType
from .vm import LoadedProgram, Scratch, Vm


class HookError(Exception):
    """Bad attach/detach operations."""


class HookRun:
    """Aggregate outcome of firing a hook: last verdict + total work done."""

    __slots__ = ("verdict", "insns_executed", "scratch")

    def __init__(self, verdict: int, insns_executed: int, scratch: Scratch) -> None:
        self.verdict = verdict  # the last program's return value; 0 if none ran
        self.insns_executed = insns_executed
        self.scratch = scratch


class HookPoint:
    """A named attach point (e.g. ``xdp@eth0``, ``sk_msg@fn-1``)."""

    def __init__(self, name: str, prog_type: ProgramType, vm: Vm) -> None:
        self.name = name
        self.prog_type = prog_type
        self.vm = vm
        self.programs: list[Program] = []
        self._loaded: list[LoadedProgram] = []  # parallel to ``programs``
        self.fire_count = 0
        self.total_insns = 0

    def attach(self, program: Program) -> None:
        """Verify, compile and attach; rejects wrong-family programs like the kernel."""
        if program.prog_type is not self.prog_type:
            raise HookError(
                f"cannot attach {program.prog_type.value} program "
                f"{program.name!r} to {self.prog_type.value} hook {self.name!r}"
            )
        self._loaded.append(self.vm.load(program))
        self.programs.append(program)

    def detach(self, program: Program) -> None:
        try:
            index = self.programs.index(program)
        except ValueError:
            raise HookError(f"{program.name!r} is not attached to {self.name!r}") from None
        del self.programs[index]
        del self._loaded[index]

    @property
    def is_armed(self) -> bool:
        return bool(self.programs)

    def fire(self, data: bytes = b"", scratch: Optional[Scratch] = None) -> HookRun:
        """Run all attached programs on an event. No programs -> no work."""
        if scratch is None:
            scratch = Scratch(self.vm.map_registry)
        run = self.vm.run
        verdict = insns = 0
        for loaded in self._loaded:
            result = run(loaded, data, scratch)
            verdict = result.return_value
            insns += result.insns_executed
        self.fire_count += 1
        self.total_insns += insns
        return HookRun(verdict, insns, scratch)
