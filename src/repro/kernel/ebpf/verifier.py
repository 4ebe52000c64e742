"""Static verifier for the simulated eBPF VM.

Enforces the classic eBPF safety contract: bounded program size, forward-only
jumps (hence guaranteed termination), in-range jump targets, no reads of
uninitialized registers, no writes to the frame pointer, no constant division
by zero, and statically-checkable stack bounds. Programs that fail are
rejected at load time, exactly like the kernel would do.
"""

from __future__ import annotations

from .isa import (
    FRAME_POINTER,
    Insn,
    LOAD_SIZES,
    Op,
    Program,
    R0,
    R1,
    R10,
    STACK_SIZE,
    STORE_SIZES,
)

MAX_INSNS = 4096
# Registers clobbered by a helper call (caller-saved), per the eBPF ABI.
CALLER_SAVED = (R1, 2, 3, 4, 5)


class VerifierError(Exception):
    """Program rejected by the verifier; message says why and where."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"insn {index}: {reason}")
        self.index = index
        self.reason = reason


def _reads(insn: Insn) -> list[int]:
    """Registers an instruction reads."""
    op = insn.op
    if op in (Op.MOV_IMM,):
        return []
    if op in (Op.MOV_REG,):
        return [insn.src]
    if op in (Op.ADD_REG, Op.SUB_REG, Op.MUL_REG, Op.DIV_REG, Op.MOD_REG,
              Op.AND_REG, Op.OR_REG, Op.XOR_REG):
        return [insn.dst, insn.src]
    if op in (Op.ADD_IMM, Op.SUB_IMM, Op.MUL_IMM, Op.DIV_IMM, Op.MOD_IMM,
              Op.AND_IMM, Op.OR_IMM, Op.XOR_IMM, Op.LSH_IMM, Op.RSH_IMM, Op.NEG):
        return [insn.dst]
    if op.is_load:
        return [insn.src]
    if op in (Op.ST8, Op.ST16, Op.ST32, Op.ST64):
        return [insn.dst, insn.src]
    if op is Op.ST_IMM32:
        return [insn.dst]
    if op in (Op.JEQ_REG, Op.JNE_REG):
        return [insn.dst, insn.src]
    if op in (Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM, Op.JGE_IMM,
              Op.JLT_IMM, Op.JLE_IMM, Op.JSET_IMM):
        return [insn.dst]
    if op is Op.EXIT:
        return [R0]
    return []  # JA, CALL (args conservatively unchecked: helpers validate)


def _writes(insn: Insn) -> list[int]:
    op = insn.op
    if op.is_store or op in (Op.JA, Op.EXIT) or op.is_jump:
        return []
    if op is Op.CALL:
        return [R0]
    return [insn.dst]


def verify(program: Program) -> None:
    """Raise :class:`VerifierError` if the program is unsafe."""
    insns = program.insns
    if not insns:
        raise VerifierError(0, "empty program")
    if len(insns) > MAX_INSNS:
        raise VerifierError(0, f"program too large ({len(insns)} > {MAX_INSNS})")

    # Structural checks per instruction.
    for index, insn in enumerate(insns):
        if insn.op.is_jump:
            if insn.off < 0:
                raise VerifierError(index, "backward jump (loops are not allowed)")
            target = index + 1 + insn.off
            if not 0 <= target < len(insns):
                raise VerifierError(index, f"jump target {target} out of range")
        if insn.op in (Op.DIV_IMM, Op.MOD_IMM) and insn.imm == 0:
            raise VerifierError(index, "division by zero immediate")
        if insn.op in (Op.LSH_IMM, Op.RSH_IMM) and not 0 <= insn.imm < 64:
            raise VerifierError(index, f"shift amount {insn.imm} out of range")
        if FRAME_POINTER in _writes(insn):
            raise VerifierError(index, "write to frame pointer r10")
        if insn.op.is_load and insn.src == FRAME_POINTER:
            size = LOAD_SIZES[insn.op]
            if not -STACK_SIZE <= insn.off <= -size:
                raise VerifierError(index, f"stack read at fp{insn.off:+d} out of bounds")
        if insn.op.is_store and insn.dst == FRAME_POINTER:
            size = STORE_SIZES[insn.op]
            if not -STACK_SIZE <= insn.off <= -size:
                raise VerifierError(index, f"stack write at fp{insn.off:+d} out of bounds")

    # Register-initialization dataflow. Jumps are forward-only, so a single
    # in-order pass with per-instruction "initialized" sets converges.
    entry = frozenset({R1, R10})
    incoming: list[set[int] | None] = [None] * len(insns)
    incoming[0] = set(entry)

    def merge(target: int, state: set[int]) -> None:
        if incoming[target] is None:
            incoming[target] = set(state)
        else:
            incoming[target] &= state

    reached_exit = False
    for index, insn in enumerate(insns):
        state = incoming[index]
        if state is None:
            continue  # unreachable instruction: harmless, skip
        for register in _reads(insn):
            if register not in state:
                raise VerifierError(index, f"read of uninitialized register r{register}")
        out = set(state)
        if insn.op is Op.CALL:
            for register in CALLER_SAVED:
                out.discard(register)
            out.add(R0)
        else:
            out.update(_writes(insn))

        if insn.op is Op.EXIT:
            reached_exit = True
            continue
        if insn.op is Op.JA:
            merge(index + 1 + insn.off, out)
            continue
        if insn.op.is_jump:
            merge(index + 1 + insn.off, out)
        if index + 1 >= len(insns):
            raise VerifierError(index, "control flow falls off the end of the program")
        merge(index + 1, out)

    if not reached_exit:
        raise VerifierError(len(insns) - 1, "no reachable EXIT instruction")
