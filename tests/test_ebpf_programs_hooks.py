"""Tests for SPRIGHT's eBPF programs, maps, and hook points."""

import pytest

from repro.kernel.ebpf import (
    ArrayMap,
    Assembler,
    HashMap,
    HookError,
    HookPoint,
    MapError,
    MapRegistry,
    ProgramType,
    R0,
    Scratch,
    SK_DROP,
    SK_PASS,
    SockMap,
    TC_ACT_OK,
    TC_ACT_REDIRECT,
    Vm,
    XDP_PASS,
    XDP_REDIRECT,
    programs,
)
from repro.kernel.fib import FibTable
from repro.kernel.packet import FiveTuple


class FakeSocket:
    """Minimal sockmap endpoint for testing."""

    def __init__(self, name):
        self.name = name
        self.delivered = []

    def deliver_descriptor(self, descriptor):
        self.delivered.append(descriptor)


# -- maps ------------------------------------------------------------------

def test_hashmap_basic_crud():
    table = HashMap(max_entries=2)
    table.update(1, "a")
    table.update(2, "b")
    assert table.lookup(1) == "a"
    table.delete(1)
    assert table.lookup(1) is None


def test_hashmap_capacity_enforced():
    table = HashMap(max_entries=1)
    table.update(1, "a")
    with pytest.raises(MapError, match="full"):
        table.update(2, "b")
    table.update(1, "c")  # overwriting an existing key is fine
    assert table.lookup(1) == "c"


def test_hashmap_delete_missing_key_errors():
    table = HashMap(max_entries=4)
    with pytest.raises(MapError, match="not found"):
        table.delete(9)


def test_array_map_bounds_and_add():
    array = ArrayMap(max_entries=4)
    assert array.lookup(0) == 0
    array.update(3, 7)
    assert array.lookup(3) == 7
    assert array.lookup(4) is None
    with pytest.raises(MapError):
        array.update(4, 1)
    with pytest.raises(MapError, match="delete"):
        array.delete(0)


def test_sockmap_requires_socket_endpoints():
    sockmap = SockMap(max_entries=4)
    with pytest.raises(MapError, match="socket endpoints"):
        sockmap.update(1, "not a socket")
    sockmap.update(1, FakeSocket("fn-1"))
    assert sockmap.lookup(1).name == "fn-1"


def test_map_registry_fds_are_unique():
    registry = MapRegistry()
    fd_a = registry.create(HashMap(max_entries=2))
    fd_b = registry.create(HashMap(max_entries=2))
    assert fd_a != fd_b
    registry.close(fd_a)
    with pytest.raises(MapError):
        registry.get(fd_a)


# -- SPROXY redirect program ---------------------------------------------

def make_sproxy_env():
    registry = MapRegistry()
    sockmap = SockMap(max_entries=16, name="spright_sockmap")
    fd = registry.create(sockmap)
    vm = Vm(registry)
    return registry, sockmap, fd, vm


def test_sproxy_redirect_hits_sockmap():
    registry, sockmap, fd, vm = make_sproxy_env()
    target = FakeSocket("fn-2")
    sockmap.update(2, target)
    program = programs.sproxy_redirect(sockmap_fd=fd)
    ctx = programs.encode_descriptor_ctx(
        next_fn_id=2, shm_offset=4096, payload_len=100, sender_id=1
    )
    result = vm.run(program, data=ctx)
    assert result.return_value == SK_PASS
    assert result.scratch.redirect_endpoint is target


def test_sproxy_redirect_drops_on_unknown_function():
    registry, sockmap, fd, vm = make_sproxy_env()
    program = programs.sproxy_redirect(sockmap_fd=fd)
    ctx = programs.encode_descriptor_ctx(99, 0, 0, 1)
    result = vm.run(program, data=ctx)
    assert result.return_value == SK_DROP
    assert result.scratch.redirect_endpoint is None


def test_sproxy_filtered_redirect_allows_authorized_pair():
    registry, sockmap, sock_fd, vm = make_sproxy_env()
    filters = HashMap(max_entries=64, name="filter")
    filter_fd = registry.create(filters)
    sockmap.update(2, FakeSocket("fn-2"))
    filters.update((1 << 16) | 2, 1)  # fn-1 -> fn-2 allowed
    program = programs.sproxy_filtered_redirect(filter_fd, sock_fd)
    ctx = programs.encode_descriptor_ctx(2, 0, 64, sender_id=1)
    assert vm.run(program, data=ctx).return_value == SK_PASS


def test_sproxy_filtered_redirect_drops_unauthorized_pair():
    registry, sockmap, sock_fd, vm = make_sproxy_env()
    filters = HashMap(max_entries=64)
    filter_fd = registry.create(filters)
    sockmap.update(2, FakeSocket("fn-2"))
    # No rule for sender 7 -> fn 2.
    program = programs.sproxy_filtered_redirect(filter_fd, sock_fd)
    ctx = programs.encode_descriptor_ctx(2, 0, 64, sender_id=7)
    result = vm.run(program, data=ctx)
    assert result.return_value == SK_DROP
    assert result.scratch.redirect_endpoint is None


# -- metric programs ----------------------------------------------------------

def test_sproxy_l7_metrics_counts_requests_and_bytes():
    registry = MapRegistry()
    metrics = ArrayMap(max_entries=2, name="metrics")
    fd = registry.create(metrics)
    vm = Vm(registry)
    program = programs.sproxy_l7_metrics(fd)
    for length in (100, 250):
        ctx = programs.encode_descriptor_ctx(1, 0, length, 0)
        assert vm.run(program, data=ctx).return_value == SK_PASS
    assert metrics.lookup(programs.METRIC_SLOT_COUNT) == 2
    assert metrics.lookup(programs.METRIC_SLOT_BYTES) == 350


def test_eproxy_l3_metrics_counts_packets():
    registry = MapRegistry()
    metrics = ArrayMap(max_entries=2)
    fd = registry.create(metrics)
    vm = Vm(registry)
    program = programs.eproxy_l3_metrics(fd)
    ctx = programs.encode_packet_ctx(pkt_len=1500, ingress_ifindex=3)
    assert vm.run(program, data=ctx).return_value == TC_ACT_OK
    assert metrics.lookup(0) == 1
    assert metrics.lookup(1) == 1500


# -- XDP/TC forwarding -----------------------------------------------------

def test_xdp_forward_redirects_on_fib_hit():
    vm = Vm()
    fib = FibTable()
    fib.add_route("10.0.0.2", ifindex=4)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 1111, 80)
    scratch = Scratch(map_registry=vm.map_registry, fib=fib, packet_flow=flow)
    result = vm.run(
        programs.xdp_fib_forward(), data=programs.encode_packet_ctx(100, 1), scratch=scratch
    )
    assert result.return_value == XDP_REDIRECT
    assert result.scratch.redirect_ifindex == 4


def test_xdp_forward_passes_on_fib_miss():
    vm = Vm()
    fib = FibTable()  # empty, no default
    flow = FiveTuple("10.0.0.1", "10.9.9.9", 1111, 80)
    scratch = Scratch(map_registry=vm.map_registry, fib=fib, packet_flow=flow)
    result = vm.run(
        programs.xdp_fib_forward(), data=programs.encode_packet_ctx(100, 1), scratch=scratch
    )
    assert result.return_value == XDP_PASS


def test_tc_forward_redirects_on_fib_hit():
    vm = Vm()
    fib = FibTable()
    fib.set_default(ifindex=9)
    flow = FiveTuple("10.0.0.1", "172.16.0.5", 1111, 80)
    scratch = Scratch(map_registry=vm.map_registry, fib=fib, packet_flow=flow)
    result = vm.run(
        programs.tc_fib_forward(), data=programs.encode_packet_ctx(200, 2), scratch=scratch
    )
    assert result.return_value == TC_ACT_REDIRECT
    assert result.scratch.redirect_ifindex == 9


# -- hook points ----------------------------------------------------------------

def test_hook_rejects_wrong_program_type():
    vm = Vm()
    hook = HookPoint("xdp@eth0", ProgramType.XDP, vm)
    with pytest.raises(HookError, match="cannot attach"):
        hook.attach(programs.tc_fib_forward())


def test_hook_verifies_at_attach_time():
    from repro.kernel.ebpf.verifier import VerifierError

    vm = Vm()
    hook = HookPoint("xdp@eth0", ProgramType.XDP, vm)
    bad = Assembler("bad").mov_imm(R0, 1)  # falls off the end
    with pytest.raises(VerifierError):
        hook.attach(bad.build(ProgramType.XDP))


def test_hook_runs_programs_in_order_and_counts_work():
    vm = Vm()
    hook = HookPoint("sk_msg@fn", ProgramType.SK_MSG, vm)
    registry = vm.map_registry
    metrics = ArrayMap(max_entries=2)
    fd = registry.create(metrics)
    sockmap = SockMap(max_entries=4)
    sock_fd = registry.create(sockmap)
    sockmap.update(1, FakeSocket("fn-1"))

    hook.attach(programs.sproxy_l7_metrics(fd))
    hook.attach(programs.sproxy_redirect(sock_fd))
    ctx = programs.encode_descriptor_ctx(1, 0, 42, 0)
    run = hook.fire(data=ctx)
    assert run.verdict == SK_PASS
    assert metrics.lookup(0) == 1
    assert run.insns_executed > 10
    assert hook.fire_count == 1


def test_unarmed_hook_does_no_work():
    vm = Vm()
    hook = HookPoint("tc@veth", ProgramType.TC, vm)
    assert not hook.is_armed
    run = hook.fire(data=b"\x00" * 16)
    assert run.insns_executed == 0
    assert run.verdict == 0


def test_hook_detach():
    vm = Vm()
    hook = HookPoint("xdp@eth0", ProgramType.XDP, vm)
    program = programs.xdp_fib_forward()
    hook.attach(program)
    hook.detach(program)
    assert not hook.is_armed
    with pytest.raises(HookError):
        hook.detach(program)
