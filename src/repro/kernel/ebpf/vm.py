"""The eBPF VM: compile-after-verify execution and the helper-function ABI.

Like the kernel's JIT, a program is verified and then compiled once, on its
first run; later runs call the compiled Python function directly.

Memory model: one flat little-endian byte array per invocation, laid out as
``[context/data region][stack]``. R1 enters pointing at offset 0 (the context)
and R10 at the end of memory (top of stack). Loads/stores are bounds-checked
at runtime; the verifier has already ruled out unbounded execution.

Helper side effects (socket redirection targets, FIB results) are
communicated through a per-invocation scratch object, which is how the hook
points learn what the program decided.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from .isa import (
    Insn,
    LOAD_SIZES,
    NUM_REGISTERS,
    Op,
    Program,
    R0,
    R1,
    R10,
    STACK_SIZE,
    STORE_SIZES,
    SK_DROP,
    SK_PASS,
    WORD_MASK,
    XDP_REDIRECT,
)
from .maps import ArrayMap, MapRegistry, SockMap
from .verifier import MAX_INSNS, verify

MAX_RUNTIME_INSNS = 100_000
_STACK = bytes(STACK_SIZE)

# Helper IDs (Linux values where they exist).
HELPER_MAP_LOOKUP = 1
HELPER_MAP_UPDATE = 2
HELPER_MAP_DELETE = 3
HELPER_KTIME_GET_NS = 5
HELPER_TRACE_PRINTK = 6
HELPER_GET_PRANDOM_U32 = 7
HELPER_REDIRECT = 23
HELPER_MSG_REDIRECT_MAP = 60
HELPER_FIB_LOOKUP = 69
# Simulated extension: atomic add on an array map slot (stands in for the
# lookup + XADD sequence real metric programs emit).
HELPER_ARRAY_ADD = 200


class VmFault(Exception):
    """Runtime fault (out-of-bounds access, bad helper, insn limit)."""


@dataclass(slots=True)
class Scratch:
    """Per-invocation helper context and side-effect channel."""

    map_registry: Optional[MapRegistry] = None
    now_ns: int = 0
    fib: Optional[object] = None          # kernel.fib.FibTable
    packet_flow: Optional[object] = None  # kernel.packet.FiveTuple
    redirect_endpoint: Optional[object] = None  # sockmap redirect target
    redirect_ifindex: Optional[int] = None      # XDP/TC redirect target
    printk_log: list = field(default_factory=list)
    prandom_state: int = 0x9E3779B9


@dataclass(slots=True)
class RunResult:
    """Outcome of one program execution."""

    return_value: int
    insns_executed: int
    scratch: Scratch
    memory: bytearray


# -- compilation -------------------------------------------------------------
# The verifier admits forward jumps only, so a program is a DAG of basic
# blocks. Each distinct program is compiled once into a Python function
# ``(memory, scratch, helpers) -> (r0, insns_executed)``: registers are
# locals, every block is one ``if pc == <start>:`` section in program order,
# and every block adds its length to the executed count. Loads and stores
# keep their runtime bounds check; a helper is looked up in the Vm's table
# when its call is reached. Register values stay in [0, 2**64), so masks are
# emitted only where an operation can leave that range.

# A verified run executes each instruction at most once.
assert MAX_INSNS < MAX_RUNTIME_INSNS

_MASK = hex(WORD_MASK)
_ALU_SOURCE = {
    Op.MOV_IMM: "{d} = {c}",
    Op.MOV_REG: "{d} = {s}",
    Op.ADD_IMM: "{d} = ({d} + {i}) & {m}",
    Op.ADD_REG: "{d} = ({d} + {s}) & {m}",
    Op.SUB_IMM: "{d} = ({d} - {i}) & {m}",
    Op.SUB_REG: "{d} = ({d} - {s}) & {m}",
    Op.MUL_IMM: "{d} = ({d} * {i}) & {m}",
    Op.MUL_REG: "{d} = ({d} * {s}) & {m}",
    Op.DIV_IMM: "{d} = ({d} // {i}) & {m}",
    Op.DIV_REG: "{d} = {d} // {s} if {s} else 0",
    Op.MOD_IMM: "{d} = ({d} % {i}) & {m}",
    Op.MOD_REG: "{d} = {d} % {s} if {s} else {d}",
    Op.AND_IMM: "{d} &= {c}",
    Op.AND_REG: "{d} &= {s}",
    Op.OR_IMM: "{d} |= {c}",
    Op.OR_REG: "{d} |= {s}",
    Op.XOR_IMM: "{d} ^= {c}",
    Op.XOR_REG: "{d} ^= {s}",
    Op.LSH_IMM: "{d} = ({d} << {i}) & {m}",
    Op.RSH_IMM: "{d} >>= {i}",
    Op.NEG: "{d} = -{d} & {m}",
}
_JUMP_SOURCE = {
    Op.JEQ_IMM: "{d} == {c}",
    Op.JEQ_REG: "{d} == {s}",
    Op.JNE_IMM: "{d} != {c}",
    Op.JNE_REG: "{d} != {s}",
    Op.JGT_IMM: "{d} > {c}",
    Op.JGE_IMM: "{d} >= {c}",
    Op.JLT_IMM: "{d} < {c}",
    Op.JLE_IMM: "{d} <= {c}",
    Op.JSET_IMM: "{d} & {c}",
}
_STRUCTS = {size: struct.Struct(f"<{code}") for size, code in zip((1, 2, 4, 8), "BHIQ")}


def _out_of_bounds(address: int, size: int) -> VmFault:
    return VmFault(f"memory access [{address}, {address + size}) out of bounds")


# Globals of every compiled program.
_NAMESPACE = {
    "VmFault": VmFault,
    "_out_of_bounds": _out_of_bounds,
    **{f"_load{size}": layout.unpack_from for size, layout in _STRUCTS.items()},
    **{f"_store{size}": layout.pack_into for size, layout in _STRUCTS.items()},
}


def _insn_source(insn: Insn, call_regs: str) -> list[str]:
    """Python statements for one non-branching instruction."""
    op, d, s = insn.op, f"r{insn.dst}", f"r{insn.src}"
    if op is Op.CALL:
        return [
            f"helper = helpers.get({insn.imm})",
            f"if helper is None: raise VmFault('unknown helper id {insn.imm}')",
            f"r0 = helper({call_regs}, memory, scratch) & {_MASK}",
        ]
    if op.is_load or op.is_store:
        size = LOAD_SIZES[op] if op.is_load else STORE_SIZES[op]
        base = s if op.is_load else d
        address = f"({base} + {insn.off}) & {_MASK}" if insn.off else base
        access = [
            f"a = {address}",
            f"if a + {size} > limit: raise _out_of_bounds(a, {size})",
        ]
        if op.is_load:
            return access + [f"{d} = _load{size}(memory, a)[0]"]
        low = (1 << (8 * size)) - 1
        if op is Op.ST_IMM32:
            value = str(insn.imm & low)
        else:
            value = s if size == 8 else f"{s} & {hex(low)}"
        return access + [f"_store{size}(memory, a, {value})"]
    return [_ALU_SOURCE[op].format(d=d, s=s, i=insn.imm, c=insn.imm & WORD_MASK, m=_MASK)]


def compile_program(program: Program) -> Callable:
    """Compile a verified program into ``(memory, scratch, helpers) -> (r0, n)``."""
    insns = program.insns
    count = len(insns)
    leaders = {0}
    for index, insn in enumerate(insns):
        if insn.op.is_jump:
            leaders.add(index + 1 + insn.off)
        if insn.op.is_jump or insn.op is Op.EXIT:
            leaders.add(index + 1)
    starts = sorted(leaders - {count})
    used = {R0, R1} | {insn.dst for insn in insns} | {insn.src for insn in insns}
    used.discard(R10)
    call_regs = "[" + ", ".join(
        f"r{reg}" if reg in used or reg == R10 else "0" for reg in range(NUM_REGISTERS)
    ) + "]"

    lines = [
        "def compiled(memory, scratch, helpers):",
        "    limit = r10 = len(memory)",
        "    " + " = ".join(f"r{reg}" for reg in sorted(used)) + " = 0",
    ]
    for start, end in zip(starts, starts[1:] + [count]):
        indent = "    "
        if start:
            lines.append(f"    if pc == {start}:")
            indent = "        "
        body = [f"n {'+=' if start else '='} {end - start}"]
        last = insns[end - 1]
        for insn in insns[start:end - 1]:
            body += _insn_source(insn, call_regs)
        if last.op is Op.EXIT:
            body.append("return r0, n")
        elif last.op is Op.JA:
            body.append(f"pc = {end + last.off}")
        elif last.op.is_jump:
            condition = _JUMP_SOURCE[last.op].format(
                d=f"r{last.dst}", s=f"r{last.src}", c=last.imm & WORD_MASK
            )
            body.append(f"pc = {end + last.off} if {condition} else {end}")
        else:
            body += _insn_source(last, call_regs)
            # Only an unreachable block can run off the end of the program.
            body.append(
                f"pc = {end}" if end < count else f"raise VmFault('pc {end} out of range')"
            )
        lines += [indent + statement for statement in body]

    namespace = dict(_NAMESPACE)
    exec(compile("\n".join(lines), f"<ebpf {program.name}>", "exec"), namespace)
    return namespace["compiled"]


class Vm:
    """Runs verified programs, each compiled once, against a map registry."""

    def __init__(self, map_registry: Optional[MapRegistry] = None) -> None:
        self.map_registry = map_registry or MapRegistry()
        self._helpers: dict[int, Callable] = {
            HELPER_MAP_LOOKUP: self._helper_map_lookup,
            HELPER_MAP_UPDATE: self._helper_map_update,
            HELPER_MAP_DELETE: self._helper_map_delete,
            HELPER_KTIME_GET_NS: self._helper_ktime,
            HELPER_TRACE_PRINTK: self._helper_printk,
            HELPER_GET_PRANDOM_U32: self._helper_prandom,
            HELPER_REDIRECT: self._helper_redirect,
            HELPER_MSG_REDIRECT_MAP: self._helper_msg_redirect_map,
            HELPER_FIB_LOOKUP: self._helper_fib_lookup,
            HELPER_ARRAY_ADD: self._helper_array_add,
        }
        # Keyed on content: every pod builds its own, identical SPROXY
        # programs, and they share one compiled function.
        self._compiled: dict[tuple[Insn, ...], Callable] = {}
        # Per-object fast path (hashing instructions costs more than a run).
        # The reference is weak and checked, so a new program that reuses a
        # freed program's id never runs the freed program's code.
        self._by_identity: dict[int, tuple[weakref.ref, Callable]] = {}

    def _load(self, program: Program) -> tuple[weakref.ref, Callable]:
        """Verify and compile new content; remember this program object."""
        function = self._compiled.get(program.insns)
        if function is None:
            verify(program)
            function = self._compiled[program.insns] = compile_program(program)
        key = id(program)
        table = self._by_identity

        def forget(ref: weakref.ref) -> None:
            if table.get(key, (None,))[0] is ref:
                del table[key]

        entry = table[key] = (weakref.ref(program, forget), function)
        return entry

    # -- execution -----------------------------------------------------------
    def run(
        self,
        program: Program,
        data: bytes = b"",
        scratch: Optional[Scratch] = None,
    ) -> RunResult:
        """Execute ``program`` with ``data`` as its context region.

        The first run of a program verifies it (raising
        :class:`VerifierError` if it is unsafe) and compiles it.
        """
        entry = self._by_identity.get(id(program))
        if entry is None or entry[0]() is not program:
            entry = self._load(program)
        if scratch is None:
            scratch = Scratch(map_registry=self.map_registry)
        elif scratch.map_registry is None:
            scratch.map_registry = self.map_registry
        memory = bytearray(data)
        memory += _STACK
        return_value, executed = entry[1](memory, scratch, self._helpers)
        return RunResult(return_value, executed, scratch, memory)

    # -- helpers ---------------------------------------------------------------
    # ABI: helpers receive (regs, memory, scratch) and return the new R0.
    def _helper_map_lookup(self, regs, memory, scratch) -> int:
        """R1=map fd, R2=key -> value as u64 (0 means miss/NULL)."""
        bpf_map = scratch.map_registry.get(regs[R1])
        value = bpf_map.lookup(regs[2] & WORD_MASK)
        if value is None:
            return 0
        if isinstance(value, int):
            return value
        return 1  # non-scalar value: report presence

    def _helper_map_update(self, regs, memory, scratch) -> int:
        """R1=map fd, R2=key, R3=value."""
        bpf_map = scratch.map_registry.get(regs[R1])
        bpf_map.update(regs[2] & WORD_MASK, regs[3] & WORD_MASK)
        return 0

    def _helper_map_delete(self, regs, memory, scratch) -> int:
        bpf_map = scratch.map_registry.get(regs[R1])
        try:
            bpf_map.delete(regs[2] & WORD_MASK)
        except Exception:
            return -2 & WORD_MASK  # -ENOENT
        return 0

    def _helper_ktime(self, regs, memory, scratch) -> int:
        return scratch.now_ns

    def _helper_printk(self, regs, memory, scratch) -> int:
        scratch.printk_log.append((regs[R1] & WORD_MASK, regs[2] & WORD_MASK))
        return 0

    def _helper_prandom(self, regs, memory, scratch) -> int:
        # xorshift32, deterministic per scratch
        state = scratch.prandom_state & 0xFFFFFFFF
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        scratch.prandom_state = state
        return state

    def _helper_redirect(self, regs, memory, scratch) -> int:
        """R1=target ifindex -> XDP_REDIRECT."""
        scratch.redirect_ifindex = regs[R1] & WORD_MASK
        return XDP_REDIRECT

    def _helper_msg_redirect_map(self, regs, memory, scratch) -> int:
        """R1=sockmap fd, R2=key (instance id) -> SK_PASS / SK_DROP."""
        bpf_map = scratch.map_registry.get(regs[R1])
        if not isinstance(bpf_map, SockMap):
            raise VmFault("msg_redirect_map requires a sockmap")
        endpoint = bpf_map.lookup(regs[2] & WORD_MASK)
        if endpoint is None:
            return SK_DROP
        scratch.redirect_endpoint = endpoint
        return SK_PASS

    def _helper_fib_lookup(self, regs, memory, scratch) -> int:
        """FIB lookup on scratch.packet_flow -> 0 hit (ifindex in scratch)."""
        if scratch.fib is None or scratch.packet_flow is None:
            return 1
        ifindex = scratch.fib.lookup(scratch.packet_flow)
        if ifindex is None:
            return 1
        scratch.redirect_ifindex = ifindex
        return 0

    def _helper_array_add(self, regs, memory, scratch) -> int:
        """R1=array fd, R2=index, R3=delta -> new value."""
        bpf_map = scratch.map_registry.get(regs[R1])
        if not isinstance(bpf_map, ArrayMap):
            raise VmFault("array_add requires an array map")
        return bpf_map.add(regs[2] & WORD_MASK, regs[3]) & WORD_MASK
