"""Tests for eBPF introspection (bpftool) and result export."""

from repro.kernel.ebpf import (
    ArrayMap,
    HashMap,
    HookPoint,
    MapRegistry,
    ProgramType,
    SockMap,
    Vm,
    disassemble,
    disassemble_insn,
    map_dump,
    prog_list,
    programs,
    registry_summary,
    render_prog_list,
)
from repro.kernel.ebpf.isa import Insn, Op
from repro.stats import read_json, write_csv, write_json


# -- disassembler --------------------------------------------------------------

def test_disassemble_all_stock_programs():
    for program in (
        programs.sproxy_redirect(3),
        programs.sproxy_filtered_redirect(3, 4),
        programs.sproxy_l7_metrics(5),
        programs.eproxy_l3_metrics(5),
        programs.xdp_fib_forward(),
        programs.tc_fib_forward(),
    ):
        listing = disassemble(program)
        assert program.prog_type.value in listing
        assert listing.count("\n") == len(program)  # one line per insn + header
        assert "exit" in listing


def test_disassemble_insn_formats():
    assert "r0 = 7" in disassemble_insn(Insn(Op.MOV_IMM, dst=0, imm=7), 0)
    assert "call 60" in disassemble_insn(Insn(Op.CALL, imm=60), 1)
    assert "goto +3" in disassemble_insn(Insn(Op.JA, off=3), 2)
    assert "if r2 == 5 goto +1" in disassemble_insn(
        Insn(Op.JEQ_IMM, dst=2, imm=5, off=1), 3
    )
    assert "*(u32 *)(r6 +0)" in disassemble_insn(Insn(Op.LD32, dst=1, src=6, off=0), 4)
    assert "r1 <<= 16" in disassemble_insn(Insn(Op.LSH_IMM, dst=1, imm=16), 5)


# -- prog list -----------------------------------------------------------------

def test_prog_list_counts_fires():
    vm = Vm()
    hook = HookPoint("xdp@eth0", ProgramType.XDP, vm)
    hook.attach(programs.xdp_fib_forward())
    for _ in range(3):
        hook.fire(data=programs.encode_packet_ctx(100, 1))
    stats = prog_list([hook])
    assert len(stats) == 1
    assert stats[0].fire_count == 3
    assert stats[0].avg_insns_per_fire > 0
    rendered = render_prog_list([hook])
    assert "xdp@eth0" in rendered
    assert "xdp_forward" in rendered


def test_prog_stat_zero_fires():
    vm = Vm()
    hook = HookPoint("tc@veth", ProgramType.TC, vm)
    hook.attach(programs.tc_fib_forward())
    assert prog_list([hook])[0].avg_insns_per_fire == 0.0


# -- map dump ----------------------------------------------------------------------

def test_map_dump_array():
    array = ArrayMap(max_entries=3, name="metrics")
    array.update(0, 42)
    dump = map_dump(array)
    assert "[0] = 42" in dump
    assert "array" in dump


def test_map_dump_hash():
    table = HashMap(max_entries=8, name="filter")
    table.update(0x10002, 1)
    dump = map_dump(table)
    assert "0x10002" in dump


def test_map_dump_sockmap():
    class Sock:
        owner_tag = "fn-1"

        def deliver_descriptor(self, item):
            pass

    sockmap = SockMap(max_entries=4, name="sm")
    sockmap.update(7, Sock())
    dump = map_dump(sockmap)
    assert "[7] = socket:fn-1" in dump


def test_registry_summary_lists_all_maps():
    registry = MapRegistry()
    registry.create(HashMap(max_entries=4, name="a"))
    registry.create(ArrayMap(max_entries=2, name="b"))
    summary = registry_summary(registry)
    assert "a" in summary and "b" in summary
    assert "hash" in summary and "array" in summary


def test_node_wide_introspection_after_deployment():
    """A deployed SPRIGHT chain is fully visible through bpftool views."""
    from repro.dataplane import SSprightDataplane
    from repro.runtime import FunctionSpec, WorkerNode

    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="f", service_time=0.0)])
    plane.deploy()
    node.run(until=0.01)
    summary = registry_summary(node.map_registry)
    assert "sockmap-chain" in summary
    assert "filter-chain" in summary
    assert "l7metrics-chain" in summary


# -- export ------------------------------------------------------------------------------

def test_write_and_read_json_roundtrip(tmp_path):
    payload = {"rps": 1234.5, "series": [(0, 1), (1, 2)], "name": "fig9"}
    path = write_json(tmp_path / "out" / "fig9.json", payload)
    loaded = read_json(path)
    assert loaded["rps"] == 1234.5
    assert loaded["series"] == [[0, 1], [1, 2]]


def test_write_json_handles_dataclasses_and_bytes(tmp_path):
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int
        payload: bytes

    path = write_json(tmp_path / "point.json", Point(x=3, payload=b"\x01\x02"))
    loaded = read_json(path)
    assert loaded == {"x": 3, "payload": "0102"}


def test_write_csv(tmp_path):
    path = write_csv(
        tmp_path / "series.csv", ["t", "rps"], [[0, 100], [1, 200]]
    )
    content = path.read_text().strip().splitlines()
    assert content[0] == "t,rps"
    assert content[2] == "1,200"
