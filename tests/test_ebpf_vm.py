"""Unit tests for the eBPF ISA, assembler, and interpreter."""

import pytest

from repro.kernel.ebpf import (
    Assembler,
    ArrayMap,
    BpfMap,
    HashMap,
    HELPER_ARRAY_ADD,
    HELPER_KTIME_GET_NS,
    HELPER_MAP_DELETE,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
    MapRegistry,
    ProgramType,
    R0,
    R1,
    R2,
    R3,
    R6,
    Scratch,
    Vm,
    VmFault,
)
from repro.kernel.ebpf.isa import WORD_MASK, Insn, Op


def run_program(asm, data=b"", registry=None, scratch=None):
    vm = Vm(registry)
    program = asm.build(ProgramType.XDP)
    return vm.run(program, data=data, scratch=scratch)


def test_mov_and_exit_returns_immediate():
    asm = Assembler("ret42").mov_imm(R0, 42).exit_()
    result = run_program(asm)
    assert result.return_value == 42
    assert result.insns_executed == 2


def test_alu_arithmetic():
    asm = (
        Assembler("math")
        .mov_imm(R0, 10)
        .add_imm(R0, 5)      # 15
        .mul_imm(R0, 4)      # 60
        .sub_imm(R0, 10)     # 50
        .div_imm(R0, 7)      # 7
        .mod_imm(R0, 4)      # 3
        .exit_()
    )
    assert run_program(asm).return_value == 3


def test_alu_register_ops_and_shifts():
    asm = (
        Assembler("bits")
        .mov_imm(R0, 0b1100)
        .mov_imm(R2, 0b1010)
        .and_reg(R0, R2)      # 0b1000
        .or_imm(R0, 0b0001)   # 0b1001
        .lsh_imm(R0, 4)       # 0b10010000
        .rsh_imm(R0, 2)       # 0b100100
        .exit_()
    )
    assert run_program(asm).return_value == 0b100100


def test_64bit_wraparound():
    asm = Assembler("wrap").mov_imm(R0, -1).add_imm(R0, 2).exit_()
    # -1 is stored as 2^64 - 1; +2 wraps to 1.
    assert run_program(asm).return_value == 1


def test_load_from_context():
    asm = Assembler("load").ld32(R0, R1, 4).exit_()
    data = (7).to_bytes(4, "little") + (99).to_bytes(4, "little")
    assert run_program(asm, data=data).return_value == 99


def test_load_sizes():
    data = bytes([0xAA, 0xBB, 0xCC, 0xDD, 0x11, 0x22, 0x33, 0x44])
    for op_name, size, expected in [
        ("ld8", 1, 0xAA),
        ("ld16", 2, 0xBBAA),
        ("ld32", 4, 0xDDCCBBAA),
        ("ld64", 8, 0x44332211DDCCBBAA),
    ]:
        asm = Assembler(op_name)
        getattr(asm, op_name)(R0, R1, 0)
        asm.exit_()
        assert run_program(asm, data=data).return_value == expected, op_name


def test_store_to_stack_and_reload():
    asm = (
        Assembler("stack")
        .mov_imm(R2, 1234)
        .st64(R1, R2, 0)  # spill via ctx base is fine too, but use fp:
        .exit_()
    )
    # Instead test the frame pointer path explicitly:
    asm = (
        Assembler("stack")
        .mov_imm(R2, 1234)
        .mov_reg(R3, 10)  # placeholder, rebuilt below
    )
    from repro.kernel.ebpf.isa import R10

    asm = Assembler("stack2")
    asm.mov_imm(R2, 1234)
    asm.st64(R10, R2, -8)
    asm.ld64(R0, R10, -8)
    asm.exit_()
    assert run_program(asm, data=b"\x00" * 8).return_value == 1234


def test_out_of_bounds_load_faults():
    asm = Assembler("oob").mov_imm(R2, 10_000_000).ld32(R0, R2, 0).exit_()
    with pytest.raises(VmFault, match="out of bounds"):
        run_program(asm, data=b"\x00" * 8)


def test_jump_taken_and_not_taken():
    def build(value):
        asm = Assembler("branch")
        asm.mov_imm(R2, value)
        asm.jeq_imm(R2, 5, "is_five")
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.label("is_five")
        asm.mov_imm(R0, 1)
        asm.exit_()
        return asm

    assert run_program(build(5)).return_value == 1
    assert run_program(build(6)).return_value == 0


def test_unconditional_jump_skips_code():
    asm = Assembler("ja")
    asm.mov_imm(R0, 1)
    asm.ja("end")
    asm.mov_imm(R0, 2)
    asm.label("end")
    asm.exit_()
    assert run_program(asm).return_value == 1


def test_jset_tests_bits():
    asm = Assembler("jset")
    asm.mov_imm(R2, 0b0110)
    asm.jset_imm(R2, 0b0100, "hit")
    asm.mov_imm(R0, 0)
    asm.exit_()
    asm.label("hit")
    asm.mov_imm(R0, 1)
    asm.exit_()
    assert run_program(asm).return_value == 1


def test_div_reg_by_zero_yields_zero():
    asm = (
        Assembler("divz")
        .mov_imm(R0, 100)
        .mov_imm(R2, 0)
        ._emit(Insn(Op.DIV_REG, dst=R0, src=R2))
        .exit_()
    )
    assert run_program(asm).return_value == 0


def test_helper_map_lookup_and_update():
    registry = MapRegistry()
    fd = registry.create(HashMap(max_entries=8, name="t"))
    asm = Assembler("map")
    asm.mov_imm(R1, fd)
    asm.mov_imm(R2, 7)       # key
    asm.mov_imm(R3, 31337)   # value
    asm.call(HELPER_MAP_UPDATE)
    asm.mov_imm(R1, fd)
    asm.mov_imm(R2, 7)
    asm.call(HELPER_MAP_LOOKUP)
    asm.exit_()
    assert run_program(asm, registry=registry).return_value == 31337


def test_helper_map_lookup_miss_returns_zero():
    registry = MapRegistry()
    fd = registry.create(HashMap(max_entries=8))
    asm = Assembler("miss")
    asm.mov_imm(R1, fd)
    asm.mov_imm(R2, 404)
    asm.call(HELPER_MAP_LOOKUP)
    asm.exit_()
    assert run_program(asm, registry=registry).return_value == 0


def test_helper_array_add_accumulates():
    registry = MapRegistry()
    fd = registry.create(ArrayMap(max_entries=2, name="metrics"))
    asm = Assembler("acc")
    for _ in range(3):
        asm.mov_imm(R1, fd)
        asm.mov_imm(R2, 0)
        asm.mov_imm(R3, 10)
        asm.call(HELPER_ARRAY_ADD)
    asm.exit_()
    result = run_program(asm, registry=registry)
    assert result.return_value == 30
    assert registry.get(fd).lookup(0) == 30


def test_helper_map_delete_errnos():
    """0 on a delete, -ENOENT for a missing key, -EINVAL for an array map;
    a failure that is not a MapError is not turned into an errno."""

    class Broken(BpfMap):
        def delete(self, key):
            raise RuntimeError("broken map")

    registry = MapRegistry()
    hash_fd = registry.create(HashMap(max_entries=4))
    array_fd = registry.create(ArrayMap(max_entries=2))
    broken_fd = registry.create(Broken(max_entries=1))
    registry.get(hash_fd).update(1, 5)

    def delete(fd, key):
        asm = Assembler("delete").mov_imm(R1, fd).mov_imm(R2, key)
        asm.call(HELPER_MAP_DELETE).exit_()
        return run_program(asm, registry=registry).return_value

    assert delete(hash_fd, 1) == 0
    assert 1 not in registry.get(hash_fd)
    assert delete(hash_fd, 1) == -2 & WORD_MASK  # -ENOENT
    assert delete(array_fd, 0) == -22 & WORD_MASK  # -EINVAL
    assert registry.get(array_fd).lookup(0) == 0
    with pytest.raises(RuntimeError, match="broken map"):
        delete(broken_fd, 0)


def test_helper_ktime_reads_scratch_clock():
    scratch = Scratch(now_ns=123456789)
    asm = Assembler("time").call(HELPER_KTIME_GET_NS).exit_()
    result = run_program(asm, scratch=scratch)
    assert result.return_value == 123456789


def test_unknown_helper_faults():
    asm = Assembler("bad").call(9999).exit_()
    with pytest.raises(VmFault, match="unknown helper"):
        run_program(asm)


def test_keep_register_across_helper_call():
    registry = MapRegistry()
    fd = registry.create(HashMap(max_entries=4))
    asm = Assembler("callee_saved")
    asm.mov_imm(R6, 55)        # R6 is callee-saved
    asm.mov_imm(R1, fd)
    asm.mov_imm(R2, 1)
    asm.call(HELPER_MAP_LOOKUP)
    asm.mov_reg(R0, R6)
    asm.exit_()
    assert run_program(asm, registry=registry).return_value == 55


def test_undefined_label_rejected_at_build():
    asm = Assembler("nolabel").mov_imm(R0, 0).ja("nowhere")
    with pytest.raises(ValueError, match="undefined label"):
        asm.build(ProgramType.XDP)


def test_duplicate_label_rejected():
    asm = Assembler("dup")
    asm.label("x")
    with pytest.raises(ValueError, match="duplicate label"):
        asm.label("x")


def test_invalid_register_rejected():
    with pytest.raises(ValueError, match="invalid register"):
        Insn(Op.MOV_IMM, dst=11)
