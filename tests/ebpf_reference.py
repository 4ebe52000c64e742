"""Reference interpreter for the eBPF VM: the differential-test oracle.

This is the instruction-at-a-time interpreter ``Vm.run`` used before
programs were compiled, kept unchanged: lower each instruction to a tuple,
then decode and execute one tuple per loop iteration. It runs a program
against a :class:`Vm`'s map registry and helper table, so the compiled path
and this loop can be compared run for run.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.ebpf.isa import (
    NUM_REGISTERS,
    Op,
    Program,
    R0,
    R1,
    R10,
    STACK_SIZE,
    WORD_MASK,
)
from repro.kernel.ebpf.vm import MAX_RUNTIME_INSNS, RunResult, Scratch, Vm, VmFault

# The interpreter loop dispatches on small integers rather than Op enum
# members; each Program is lowered to tuples first. Categories:
_CAT_EXIT, _CAT_CALL, _CAT_JA, _CAT_JMP, _CAT_LOAD, _CAT_STORE, _CAT_ALU = range(7)

_JMP_CODES = {
    Op.JEQ_IMM: 0, Op.JEQ_REG: 1, Op.JNE_IMM: 2, Op.JNE_REG: 3,
    Op.JGT_IMM: 4, Op.JGE_IMM: 5, Op.JLT_IMM: 6, Op.JLE_IMM: 7,
    Op.JSET_IMM: 8,
}
_ALU_CODES = {
    Op.MOV_IMM: 0, Op.MOV_REG: 1, Op.ADD_IMM: 2, Op.ADD_REG: 3,
    Op.SUB_IMM: 4, Op.SUB_REG: 5, Op.MUL_IMM: 6, Op.MUL_REG: 7,
    Op.DIV_IMM: 8, Op.DIV_REG: 9, Op.MOD_IMM: 10, Op.MOD_REG: 11,
    Op.AND_IMM: 12, Op.AND_REG: 13, Op.OR_IMM: 14, Op.OR_REG: 15,
    Op.XOR_IMM: 16, Op.XOR_REG: 17, Op.LSH_IMM: 18, Op.RSH_IMM: 19,
    Op.NEG: 20,
}
_LOAD_CODES = {Op.LD8: 1, Op.LD16: 2, Op.LD32: 4, Op.LD64: 8}
_STORE_CODES = {Op.ST8: 1, Op.ST16: 2, Op.ST32: 4, Op.ST64: 8, Op.ST_IMM32: 4}


def _lower(program: Program) -> list[tuple]:
    """Lower a Program to (category, code, dst, src, off, imm) tuples."""
    lowered = []
    for insn in program.insns:
        op = insn.op
        if op is Op.EXIT:
            lowered.append((_CAT_EXIT, 0, 0, 0, 0, 0))
        elif op is Op.CALL:
            lowered.append((_CAT_CALL, 0, 0, 0, 0, insn.imm))
        elif op is Op.JA:
            lowered.append((_CAT_JA, 0, 0, 0, insn.off, 0))
        elif op in _JMP_CODES:
            lowered.append(
                (_CAT_JMP, _JMP_CODES[op], insn.dst, insn.src, insn.off, insn.imm)
            )
        elif op in _LOAD_CODES:
            lowered.append(
                (_CAT_LOAD, _LOAD_CODES[op], insn.dst, insn.src, insn.off, 0)
            )
        elif op in _STORE_CODES:
            is_imm = 1 if op is Op.ST_IMM32 else 0
            lowered.append(
                (_CAT_STORE, (_STORE_CODES[op], is_imm), insn.dst, insn.src, insn.off, insn.imm)
            )
        else:
            lowered.append(
                (_CAT_ALU, _ALU_CODES[op], insn.dst, insn.src, insn.off, insn.imm)
            )
    return lowered


def reference_run(
    vm: Vm,
    program: Program,
    data: bytes = b"",
    scratch: Optional[Scratch] = None,
) -> RunResult:
    """Interpret ``program`` with ``data`` as its context region."""
    scratch = scratch or Scratch(map_registry=vm.map_registry)
    if scratch.map_registry is None:
        scratch.map_registry = vm.map_registry
    memory = bytearray(data) + bytearray(STACK_SIZE)
    mem_limit = len(memory)
    regs = [0] * NUM_REGISTERS
    regs[R1] = 0            # context pointer
    regs[R10] = mem_limit   # frame pointer (top of stack)

    lowered = _lower(program)
    program_len = len(lowered)
    helpers = vm._helpers
    mask = WORD_MASK
    pc = 0
    executed = 0
    while True:
        if executed >= MAX_RUNTIME_INSNS:
            raise VmFault("instruction limit exceeded")
        if not 0 <= pc < program_len:
            raise VmFault(f"pc {pc} out of range")
        category, code, dst, src, off, imm = lowered[pc]
        executed += 1

        if category == _CAT_ALU:
            value = regs[dst]
            if code == 0:
                value = imm
            elif code == 1:
                value = regs[src]
            elif code == 2:
                value = value + imm
            elif code == 3:
                value = value + regs[src]
            elif code == 4:
                value = value - imm
            elif code == 5:
                value = value - regs[src]
            elif code == 6:
                value = value * imm
            elif code == 7:
                value = value * regs[src]
            elif code == 8:
                value = value // imm
            elif code == 9:
                divisor = regs[src] & mask
                value = 0 if divisor == 0 else (value & mask) // divisor
            elif code == 10:
                value = value % imm
            elif code == 11:
                divisor = regs[src] & mask
                value = value if divisor == 0 else (value & mask) % divisor
            elif code == 12:
                value = value & imm
            elif code == 13:
                value = value & regs[src]
            elif code == 14:
                value = value | imm
            elif code == 15:
                value = value | regs[src]
            elif code == 16:
                value = value ^ imm
            elif code == 17:
                value = value ^ regs[src]
            elif code == 18:
                value = value << imm
            elif code == 19:
                value = (value & mask) >> imm
            else:  # NEG
                value = -value
            regs[dst] = value & mask
            pc += 1
            continue
        if category == _CAT_LOAD:
            address = (regs[src] + off) & mask
            end = address + code
            if end > mem_limit:
                raise VmFault(
                    f"memory access [{address}, {end}) out of bounds"
                )
            regs[dst] = int.from_bytes(memory[address:end], "little")
            pc += 1
            continue
        if category == _CAT_STORE:
            size, is_imm = code
            address = (regs[dst] + off) & mask
            end = address + size
            if end > mem_limit:
                raise VmFault(
                    f"memory access [{address}, {end}) out of bounds"
                )
            value = imm if is_imm else regs[src]
            memory[address:end] = (value & mask).to_bytes(8, "little")[:size]
            pc += 1
            continue
        if category == _CAT_JMP:
            dst_value = regs[dst] & mask
            if code == 0:
                taken = dst_value == imm & mask
            elif code == 1:
                taken = dst_value == regs[src] & mask
            elif code == 2:
                taken = dst_value != imm & mask
            elif code == 3:
                taken = dst_value != regs[src] & mask
            elif code == 4:
                taken = dst_value > imm & mask
            elif code == 5:
                taken = dst_value >= imm & mask
            elif code == 6:
                taken = dst_value < imm & mask
            elif code == 7:
                taken = dst_value <= imm & mask
            else:
                taken = bool(dst_value & imm)
            pc += 1 + (off if taken else 0)
            continue
        if category == _CAT_JA:
            pc += 1 + off
            continue
        if category == _CAT_CALL:
            helper = helpers.get(imm)
            if helper is None:
                raise VmFault(f"unknown helper id {imm}")
            regs[R0] = helper(*regs[R1:R1 + 5], memory, scratch) & mask
            pc += 1
            continue
        # _CAT_EXIT
        return RunResult(
            return_value=regs[R0] & mask,
            insns_executed=executed,
            scratch=scratch,
            memory=memory,
        )
