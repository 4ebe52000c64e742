"""The eBPF VM: load-time compilation and the helper-function ABI.

Like the kernel's verifier and JIT, :meth:`Vm.load` verifies a program and
compiles it once per distinct content, resolving each helper call and each
constant map fd at that point; a hook loads its programs when they are
attached, and every run afterwards calls the compiled function directly.

Memory model: one flat little-endian byte array per invocation, laid out as
``[context/data region][stack]``. R1 enters pointing at offset 0 (the context)
and R10 at the end of memory (top of stack). Loads/stores are bounds-checked
at runtime; the verifier has already ruled out unbounded execution. A
program with no store instruction cannot change its memory (no helper
writes it), so it runs on a read-only copy that consecutive runs over the
same context bytes share.

Helper side effects (socket redirection targets, FIB results) are
communicated through a per-invocation scratch object, which is how the hook
points learn what the program decided.
"""

from __future__ import annotations

import struct
import weakref
from typing import Callable, Optional, Union

from .isa import (
    Insn,
    LOAD_SIZES,
    Op,
    Program,
    R0,
    R1,
    R2,
    R10,
    STACK_SIZE,
    STORE_SIZES,
    SK_DROP,
    SK_PASS,
    WORD_MASK,
    XDP_REDIRECT,
)
from .maps import ArrayMap, HashMap, MapError, MapRegistry, SockMap
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

_ENOENT = -2 & WORD_MASK
_EINVAL = -22 & WORD_MASK


class VmFault(Exception):
    """Runtime fault (out-of-bounds access, bad helper, insn limit)."""


class Scratch:
    """Per-invocation helper context and side-effect channel."""

    __slots__ = (
        "map_registry",
        "now_ns",
        "fib",
        "packet_flow",
        "redirect_endpoint",
        "redirect_ifindex",
        "printk_log",
        "prandom_state",
    )

    def __init__(
        self,
        map_registry: Optional[MapRegistry] = None,
        now_ns: int = 0,
        fib: Optional[object] = None,          # kernel.fib.FibTable
        packet_flow: Optional[object] = None,  # kernel.packet.FiveTuple
        redirect_endpoint: Optional[object] = None,  # sockmap redirect target
        redirect_ifindex: Optional[int] = None,      # XDP/TC redirect target
        printk_log: Optional[list] = None,
        prandom_state: int = 0x9E3779B9,
    ) -> None:
        self.map_registry = map_registry
        self.now_ns = now_ns
        self.fib = fib
        self.packet_flow = packet_flow
        self.redirect_endpoint = redirect_endpoint
        self.redirect_ifindex = redirect_ifindex
        self.printk_log = [] if printk_log is None else printk_log
        self.prandom_state = prandom_state


class RunResult:
    """Outcome of one program execution."""

    __slots__ = ("return_value", "insns_executed", "scratch", "memory")

    def __init__(
        self, return_value: int, insns_executed: int, scratch: Scratch, memory
    ) -> None:
        self.return_value = return_value
        self.insns_executed = insns_executed
        self.scratch = scratch
        self.memory = memory  # bytearray, or bytes for a program that never stores


# -- helpers -----------------------------------------------------------------
# ABI: helpers receive (r1, r2, r3, r4, r5, memory, scratch) and return the
# new R0. Register values are already in [0, 2**64).
def _helper_map_lookup(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=map fd, R2=key -> value as u64 (0 means miss/NULL)."""
    value = scratch.map_registry.get(r1).lookup(r2)
    if value is None:
        return 0
    if isinstance(value, int):
        return value
    return 1  # non-scalar value: report presence


def _helper_map_update(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=map fd, R2=key, R3=value."""
    scratch.map_registry.get(r1).update(r2, r3)
    return 0


def _helper_map_delete(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=map fd, R2=key -> 0, -ENOENT (no such key) or -EINVAL (array map)."""
    bpf_map = scratch.map_registry.get(r1)
    try:
        bpf_map.delete(r2)
    except MapError:
        # Array slots always exist; Linux refuses to delete them.
        return _EINVAL if isinstance(bpf_map, ArrayMap) else _ENOENT
    return 0


def _helper_ktime(r1, r2, r3, r4, r5, memory, scratch) -> int:
    return scratch.now_ns


def _helper_printk(r1, r2, r3, r4, r5, memory, scratch) -> int:
    scratch.printk_log.append((r1, r2))
    return 0


def _helper_prandom(r1, r2, r3, r4, r5, memory, scratch) -> int:
    # xorshift32, deterministic per scratch
    state = scratch.prandom_state & 0xFFFFFFFF
    state ^= (state << 13) & 0xFFFFFFFF
    state ^= state >> 17
    state ^= (state << 5) & 0xFFFFFFFF
    scratch.prandom_state = state
    return state


def _helper_redirect(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=target ifindex -> XDP_REDIRECT."""
    scratch.redirect_ifindex = r1
    return XDP_REDIRECT


def _helper_msg_redirect_map(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=sockmap fd, R2=key (instance id) -> SK_PASS / SK_DROP."""
    bpf_map = scratch.map_registry.get(r1)
    if not isinstance(bpf_map, SockMap):
        raise VmFault("msg_redirect_map requires a sockmap")
    endpoint = bpf_map.lookup(r2)
    if endpoint is None:
        return SK_DROP
    scratch.redirect_endpoint = endpoint
    return SK_PASS


def _helper_fib_lookup(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """FIB lookup on scratch.packet_flow -> 0 hit (ifindex in scratch)."""
    if scratch.fib is None or scratch.packet_flow is None:
        return 1
    ifindex = scratch.fib.lookup(scratch.packet_flow)
    if ifindex is None:
        return 1
    scratch.redirect_ifindex = ifindex
    return 0


def _helper_array_add(r1, r2, r3, r4, r5, memory, scratch) -> int:
    """R1=array fd, R2=index, R3=delta -> new value."""
    bpf_map = scratch.map_registry.get(r1)
    if not isinstance(bpf_map, ArrayMap):
        raise VmFault("array_add requires an array map")
    return bpf_map.add(r2, r3)


HELPERS: dict[int, Callable] = {
    HELPER_MAP_LOOKUP: _helper_map_lookup,
    HELPER_MAP_UPDATE: _helper_map_update,
    HELPER_MAP_DELETE: _helper_map_delete,
    HELPER_KTIME_GET_NS: _helper_ktime,
    HELPER_TRACE_PRINTK: _helper_printk,
    HELPER_GET_PRANDOM_U32: _helper_prandom,
    HELPER_REDIRECT: _helper_redirect,
    HELPER_MSG_REDIRECT_MAP: _helper_msg_redirect_map,
    HELPER_FIB_LOOKUP: _helper_fib_lookup,
    HELPER_ARRAY_ADD: _helper_array_add,
}


# -- compilation -------------------------------------------------------------
# The verifier admits forward jumps only, so a program is a DAG of basic
# blocks. Each distinct program is compiled once into a Python function
# ``(memory, scratch) -> RunResult``: registers are locals, every block is
# one ``if pc == <start>:`` section in program order, and every block adds
# its length to the executed count. Register values stay in [0, 2**64), so
# masks are emitted only where an operation can leave that range.
#
# Within each block the compiler follows which registers hold a known
# constant (in the first block all do, at 0, R1 included: the context sits
# at offset 0). A load or store from a known address is emitted with that
# address; its bounds check is dropped when it lies inside the first
# STACK_SIZE bytes, which every run's memory has, and kept otherwise.
#
# Each CALL names its helper function; an unknown id compiles to the fault
# the call raises when it is reached. Like the kernel's load-time map-fd
# relocation, a stock array add or hash lookup whose R1 is a known fd is
# bound to that map: while the run's scratch resolves through the Vm's
# registry and the fd is still open, the call works on the map's storage
# directly. Otherwise it takes the helper, which raises the same MapError
# or VmFault it always did.

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
    "RunResult": RunResult,
    "_out_of_bounds": _out_of_bounds,
    **{f"_load{size}": layout.unpack_from for size, layout in _STRUCTS.items()},
    **{f"_store{size}": layout.pack_into for size, layout in _STRUCTS.items()},
}


class _Compiler:
    """Source and globals of one program's function, against one registry."""

    def __init__(self, program: Program, registry: MapRegistry) -> None:
        self.registry = registry
        self.namespace = dict(_NAMESPACE, _registry=registry, _maps=registry._maps)
        self.bound_fds: set[int] = set()
        insns = program.insns
        used = {R0, R1} | {insn.dst for insn in insns} | {insn.src for insn in insns}
        used.discard(R10)
        self.used = used
        self.args = [f"r{reg}" if reg in used else "0" for reg in range(R1, R1 + 5)]

    def call(self, helper_id: int, known: dict[int, int]) -> list[str]:
        helper = HELPERS.get(helper_id)
        if helper is None:
            return [f"raise VmFault('unknown helper id {helper_id}')"]
        self.namespace[f"_helper{helper_id}"] = helper
        generic = f"r0 = _helper{helper_id}({', '.join(self.args)}, memory, scratch) & {_MASK}"
        # As the kernel inlines array and hash lookups when it JITs.
        fd, index, r3 = known.get(R1), known.get(R2), self.args[2]
        bpf_map = self.registry._maps.get(fd)
        storage = f"_map{fd}"
        if (
            helper_id == HELPER_ARRAY_ADD
            and isinstance(bpf_map, ArrayMap)
            and type(bpf_map).add is ArrayMap.add
            and index is not None
            and index < bpf_map.max_entries
        ):
            self.namespace[storage] = bpf_map._slots
            fast = [f"{storage}[{index}] += {r3}", f"r0 = {storage}[{index}] & {_MASK}"]
        elif (
            helper_id in (HELPER_MAP_LOOKUP, HELPER_MSG_REDIRECT_MAP)
            and isinstance(bpf_map, SockMap if helper_id == HELPER_MSG_REDIRECT_MAP else HashMap)
            and type(bpf_map).lookup is HashMap.lookup
        ):
            self.namespace[storage] = bpf_map._data
            fast = [f"v = {storage}.get({self.args[1]})"]
            if helper_id == HELPER_MAP_LOOKUP:
                fast.append(f"r0 = 0 if v is None else v & {_MASK} if isinstance(v, int) else 1")
            else:
                fast += [
                    f"if v is None: r0 = {SK_DROP}",
                    f"else: scratch.redirect_endpoint = v; r0 = {SK_PASS}",
                ]
        else:
            return [generic]
        self.bound_fds.add(fd)
        return ["if bound:"] + ["    " + line for line in fast] + ["else:", "    " + generic]

    def insn(self, insn: Insn, known: dict[int, int]) -> list[str]:
        """Python statements for one non-branching instruction; updates
        ``known`` (register -> constant) past it."""
        op, d, s = insn.op, f"r{insn.dst}", f"r{insn.src}"
        if op is Op.CALL:
            source = self.call(insn.imm, known)
            known.pop(R0, None)
            return source
        if op.is_load or op.is_store:
            size = LOAD_SIZES[op] if op.is_load else STORE_SIZES[op]
            base = insn.src if op.is_load else insn.dst
            if base in known:
                address = (known[base] + insn.off) & WORD_MASK
                a = str(address)
                access = [] if address + size <= STACK_SIZE else [
                    f"if {address + size} > limit: raise _out_of_bounds({a}, {size})"
                ]
            else:
                a = "a"
                access = [
                    f"a = (r{base} + {insn.off}) & {_MASK}" if insn.off else f"a = r{base}",
                    f"if a + {size} > limit: raise _out_of_bounds(a, {size})",
                ]
            if op.is_load:
                known.pop(insn.dst, None)
                return access + [f"{d} = _load{size}(memory, {a})[0]"]
            low = (1 << (8 * size)) - 1
            if op is Op.ST_IMM32:
                value = str(insn.imm & low)
            else:
                value = s if size == 8 else f"{s} & {hex(low)}"
            return access + [f"_store{size}(memory, {a}, {value})"]
        if op is Op.MOV_IMM:
            known[insn.dst] = insn.imm & WORD_MASK
        elif op is Op.MOV_REG and insn.src in known:
            known[insn.dst] = known[insn.src]
        else:
            known.pop(insn.dst, None)
        return [_ALU_SOURCE[op].format(d=d, s=s, i=insn.imm, c=insn.imm & WORD_MASK, m=_MASK)]


def compile_program(program: Program, registry: MapRegistry) -> Callable:
    """Compile a verified program into ``(memory, scratch) -> RunResult``."""
    compiler = _Compiler(program, registry)
    insns = program.insns
    count = len(insns)
    leaders = {0}
    for index, insn in enumerate(insns):
        if insn.op.is_jump:
            leaders.add(index + 1 + insn.off)
        if insn.op.is_jump or insn.op is Op.EXIT:
            leaders.add(index + 1)
    starts = sorted(leaders - {count})

    body_lines = []
    for start, end in zip(starts, starts[1:] + [count]):
        indent = "    "
        if start:
            body_lines.append(f"    if pc == {start}:")
            indent = "        "
        body = [f"n {'+=' if start else '='} {end - start}"]
        known = {} if start else {reg: 0 for reg in compiler.used}
        last = insns[end - 1]
        for insn in insns[start:end]:
            if insn.op.is_jump or insn.op is Op.EXIT:
                break
            body += compiler.insn(insn, known)
        if last.op is Op.EXIT:
            body.append("return RunResult(r0, n, scratch, memory)")
        elif last.op is Op.JA:
            body.append(f"pc = {end + last.off}")
        elif last.op.is_jump:
            condition = _JUMP_SOURCE[last.op].format(
                d=f"r{last.dst}", s=f"r{last.src}", c=last.imm & WORD_MASK
            )
            body.append(f"pc = {end + last.off} if {condition} else {end}")
        else:
            # Only an unreachable block can run off the end of the program.
            body.append(
                f"pc = {end}" if end < count else f"raise VmFault('pc {end} out of range')"
            )
        body_lines += [indent + statement for statement in body]

    lines = [
        "def compiled(memory, scratch):",
        "    limit = r10 = len(memory)",
        "    " + " = ".join(f"r{reg}" for reg in sorted(compiler.used)) + " = 0",
    ]
    if compiler.bound_fds:
        lines.append(
            "    bound = scratch.map_registry is _registry and "
            + " and ".join(f"{fd} in _maps" for fd in sorted(compiler.bound_fds))
        )
    namespace = compiler.namespace
    exec(compile("\n".join(lines + body_lines), f"<ebpf {program.name}>", "exec"), namespace)
    return namespace["compiled"]


class LoadedProgram:
    """A verified program compiled against one Vm: what a hook keeps."""

    __slots__ = ("function", "stores")

    def __init__(self, program: Program, registry: MapRegistry) -> None:
        self.function = compile_program(program, registry)
        self.stores = any(insn.op.is_store for insn in program.insns)


class Vm:
    """Loads verified programs, each compiled once, and runs them."""

    #: Helper id -> function, as the compiled code and the reference
    #: interpreter resolve them.
    _helpers = HELPERS

    def __init__(self, map_registry: Optional[MapRegistry] = None) -> None:
        self.map_registry = map_registry if map_registry is not None else MapRegistry()
        # Keyed on content: every pod builds its own, identical SPROXY
        # programs, and they share one compiled function.
        self._compiled: dict[tuple[Insn, ...], LoadedProgram] = {}
        # Per-object fast path (hashing instructions costs more than a run).
        # The reference is weak and checked, so a new program that reuses a
        # freed program's id never runs the freed program's code.
        self._by_identity: dict[int, tuple[weakref.ref, LoadedProgram]] = {}
        # The last read-only memory built, and the context bytes it holds.
        self._shared_data: object = None
        self._shared_memory = b""

    def load(self, program: Program) -> LoadedProgram:
        """Verify and compile ``program`` (once per content) for this Vm.

        Raises :class:`VerifierError` if the program is unsafe; a rejected
        program is not cached.
        """
        entry = self._by_identity.get(id(program))
        if entry is not None and entry[0]() is program:
            return entry[1]
        loaded = self._compiled.get(program.insns)
        if loaded is None:
            verify(program)
            loaded = self._compiled[program.insns] = LoadedProgram(program, self.map_registry)
        key = id(program)
        table = self._by_identity

        def forget(ref: weakref.ref) -> None:
            if table.get(key, (None,))[0] is ref:
                del table[key]

        table[key] = (weakref.ref(program, forget), loaded)
        return loaded

    # -- execution -----------------------------------------------------------
    def run(
        self,
        program: Union[Program, LoadedProgram],
        data: bytes = b"",
        scratch: Optional[Scratch] = None,
    ) -> RunResult:
        """Execute ``program`` with ``data`` as its context region.

        ``program`` is a :class:`Program`, loaded on its first run, or what
        this Vm's :meth:`load` returned for one.
        """
        loaded = program if program.__class__ is LoadedProgram else self.load(program)
        if scratch is None:
            scratch = Scratch(self.map_registry)
        elif scratch.map_registry is None:
            scratch.map_registry = self.map_registry
        if loaded.stores:
            memory = bytearray(data)
            memory += _STACK
        elif data is self._shared_data:
            memory = self._shared_memory
        elif data.__class__ is bytes:
            memory = self._shared_memory = data + _STACK
            self._shared_data = data
        else:
            memory = bytes(data) + _STACK
        return loaded.function(memory, scratch)
