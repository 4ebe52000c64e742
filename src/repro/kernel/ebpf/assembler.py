"""Mnemonic program builder with label-based jumps."""

from __future__ import annotations

from dataclasses import dataclass

from .isa import Insn, Op, Program, ProgramType


@dataclass
class _PendingJump:
    index: int
    label: str


class Assembler:
    """Builds a :class:`Program` instruction by instruction.

    Jumps take label names; offsets are resolved (forward-only, as the
    verifier demands) at :meth:`build` time.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._insns: list[Insn] = []
        self._labels: dict[str, int] = {}
        self._pending: list[_PendingJump] = []

    # -- labels -------------------------------------------------------------
    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insns)
        return self

    def _emit(self, insn: Insn) -> "Assembler":
        self._insns.append(insn)
        return self

    def _emit_jump(self, op: Op, dst: int, src: int, imm: int, label: str) -> "Assembler":
        self._pending.append(_PendingJump(len(self._insns), label))
        return self._emit(Insn(op, dst=dst, src=src, off=0, imm=imm))

    # -- ALU ----------------------------------------------------------------
    def mov_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.MOV_IMM, dst=dst, imm=imm))

    def mov_reg(self, dst: int, src: int) -> "Assembler":
        return self._emit(Insn(Op.MOV_REG, dst=dst, src=src))

    def add_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.ADD_IMM, dst=dst, imm=imm))

    def sub_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.SUB_IMM, dst=dst, imm=imm))

    def mul_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.MUL_IMM, dst=dst, imm=imm))

    def div_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.DIV_IMM, dst=dst, imm=imm))

    def mod_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.MOD_IMM, dst=dst, imm=imm))

    def or_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.OR_IMM, dst=dst, imm=imm))

    def or_reg(self, dst: int, src: int) -> "Assembler":
        return self._emit(Insn(Op.OR_REG, dst=dst, src=src))

    def and_reg(self, dst: int, src: int) -> "Assembler":
        return self._emit(Insn(Op.AND_REG, dst=dst, src=src))

    def lsh_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.LSH_IMM, dst=dst, imm=imm))

    def rsh_imm(self, dst: int, imm: int) -> "Assembler":
        return self._emit(Insn(Op.RSH_IMM, dst=dst, imm=imm))

    # -- memory ---------------------------------------------------------------
    def ld8(self, dst: int, src: int, off: int = 0) -> "Assembler":
        return self._emit(Insn(Op.LD8, dst=dst, src=src, off=off))

    def ld16(self, dst: int, src: int, off: int = 0) -> "Assembler":
        return self._emit(Insn(Op.LD16, dst=dst, src=src, off=off))

    def ld32(self, dst: int, src: int, off: int = 0) -> "Assembler":
        return self._emit(Insn(Op.LD32, dst=dst, src=src, off=off))

    def ld64(self, dst: int, src: int, off: int = 0) -> "Assembler":
        return self._emit(Insn(Op.LD64, dst=dst, src=src, off=off))

    def st64(self, dst: int, src: int, off: int = 0) -> "Assembler":
        return self._emit(Insn(Op.ST64, dst=dst, src=src, off=off))

    # -- control flow --------------------------------------------------------
    def ja(self, label: str) -> "Assembler":
        return self._emit_jump(Op.JA, 0, 0, 0, label)

    def jeq_imm(self, dst: int, imm: int, label: str) -> "Assembler":
        return self._emit_jump(Op.JEQ_IMM, dst, 0, imm, label)

    def jne_imm(self, dst: int, imm: int, label: str) -> "Assembler":
        return self._emit_jump(Op.JNE_IMM, dst, 0, imm, label)

    def jgt_imm(self, dst: int, imm: int, label: str) -> "Assembler":
        return self._emit_jump(Op.JGT_IMM, dst, 0, imm, label)

    def jset_imm(self, dst: int, imm: int, label: str) -> "Assembler":
        return self._emit_jump(Op.JSET_IMM, dst, 0, imm, label)

    def call(self, helper_id: int) -> "Assembler":
        return self._emit(Insn(Op.CALL, imm=helper_id))

    def exit_(self) -> "Assembler":
        return self._emit(Insn(Op.EXIT))

    # -- finalization -----------------------------------------------------------
    def build(self, prog_type: ProgramType) -> Program:
        """Resolve labels and produce an immutable :class:`Program`."""
        insns = list(self._insns)
        for pending in self._pending:
            target = self._labels.get(pending.label)
            if target is None:
                raise ValueError(f"undefined label {pending.label!r}")
            offset = target - pending.index - 1
            original = insns[pending.index]
            insns[pending.index] = Insn(
                original.op,
                dst=original.dst,
                src=original.src,
                off=offset,
                imm=original.imm,
            )
        return Program(insns=tuple(insns), prog_type=prog_type, name=self.name)
