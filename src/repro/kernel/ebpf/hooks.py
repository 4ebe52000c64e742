"""Kernel hook points where eBPF programs attach and fire.

A hook point accepts only programs of its family (XDP on NIC RX, TC on veth,
SK_MSG on sockets), verifies them at attach time, and executes every attached
program in order when an event arrives — exactly the kernel's behaviour that
makes SPRIGHT's overhead load-proportional: no event, no execution, no cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .isa import Program, ProgramType
from .verifier import verify
from .vm import RunResult, Scratch, Vm


class HookError(Exception):
    """Bad attach/detach operations."""


@dataclass(slots=True)
class HookRun:
    """Aggregate outcome of firing a hook: last verdict + total work done."""

    results: list[RunResult]
    insns_executed: int

    @property
    def verdict(self) -> int:
        return self.results[-1].return_value if self.results else 0

    @property
    def scratch(self) -> Optional[Scratch]:
        return self.results[-1].scratch if self.results else None


class HookPoint:
    """A named attach point (e.g. ``xdp@eth0``, ``sk_msg@fn-1``)."""

    def __init__(self, name: str, prog_type: ProgramType, vm: Vm) -> None:
        self.name = name
        self.prog_type = prog_type
        self.vm = vm
        self.programs: list[Program] = []
        self.fire_count = 0
        self.total_insns = 0

    def attach(self, program: Program) -> None:
        """Verify and attach; rejects wrong-family programs like the kernel."""
        if program.prog_type is not self.prog_type:
            raise HookError(
                f"cannot attach {program.prog_type.value} program "
                f"{program.name!r} to {self.prog_type.value} hook {self.name!r}"
            )
        verify(program)
        self.programs.append(program)

    def detach(self, program: Program) -> None:
        try:
            self.programs.remove(program)
        except ValueError:
            raise HookError(f"{program.name!r} is not attached to {self.name!r}") from None

    @property
    def is_armed(self) -> bool:
        return bool(self.programs)

    def fire(self, data: bytes = b"", scratch: Optional[Scratch] = None) -> HookRun:
        """Run all attached programs on an event. No programs -> no work."""
        if scratch is None:
            scratch = Scratch(map_registry=self.vm.map_registry)
        run_program = self.vm.run
        results = []
        insns = 0
        for program in self.programs:
            result = run_program(program, data, scratch)
            results.append(result)
            insns += result.insns_executed
        self.fire_count += 1
        self.total_insns += insns
        return HookRun(results, insns)
