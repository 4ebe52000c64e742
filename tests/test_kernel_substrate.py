"""Tests for the kernel substrate: costs, iptables, FIB, devices, packets."""

import weakref

import pytest

from repro.kernel import (
    CostModel,
    DeviceRegistry,
    FibTable,
    FiveTuple,
    Message,
    NodeConfig,
    Packet,
    PhysicalNic,
    Rule,
    RuleChain,
    Verdict,
    VethPair,
    kubernetes_like_chain,
    usec,
)
from repro.kernel.ebpf import Vm
from repro.runtime import WorkerNode
from repro.simcore import Environment


# -- cost model -----------------------------------------------------------------

def test_usec_conversion():
    assert usec(1.0) == pytest.approx(1e-6)


def test_copy_cost_scales_with_size():
    costs = CostModel()
    assert costs.copy(10_000) > costs.copy(100) > costs.copy_fixed


def test_protocol_processing_includes_iptables_walk():
    costs = CostModel()
    base = costs.protocol_stack + 100 * costs.checksum_per_byte
    assert costs.protocol_processing(100) == pytest.approx(base + costs.iptables_walk())


def test_iptables_walk_grows_with_rule_count():
    few = CostModel(iptables_rules=10)
    many = CostModel(iptables_rules=1000)
    assert many.iptables_walk() > 10 * few.iptables_walk() / 2


def test_cycles_roundtrip():
    costs = CostModel()
    assert costs.seconds_from_cycles(costs.cycles(0.5)) == pytest.approx(0.5)


def test_serialize_vs_deserialize_asymmetry():
    costs = CostModel()
    assert costs.deserialize(1000) > costs.serialize(1000) * 0.9


# -- packets / messages -------------------------------------------------------------

def test_five_tuple_reversal():
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 1234, 80)
    back = flow.reversed()
    assert back.src_ip == "10.0.0.2"
    assert back.dst_port == 1234
    assert back.reversed().key() == flow.key()


def test_packet_size_includes_headers():
    packet = Packet(flow=FiveTuple("a", "b", 1, 2), payload=b"x" * 100)
    assert packet.size == 100 + packet.headers_len


def test_message_child_keeps_context():
    parent = Message(payload=b"req", topic="orders", caller_id="fn-1", created_at=5.0)
    child = parent.child(b"resp")
    assert child.topic == "orders"
    assert child.caller_id == "fn-1"
    assert child.created_at == 5.0
    assert child.message_id != parent.message_id


# -- iptables -----------------------------------------------------------------------

def pkt(dst_ip="10.1.1.1", dst_port=80):
    return Packet(flow=FiveTuple("10.0.0.1", dst_ip, 999, dst_port))


def test_chain_first_match_wins():
    chain = RuleChain("test")
    chain.append(Rule(verdict=Verdict.DROP, dst_port=80))
    chain.append(Rule(verdict=Verdict.ACCEPT, dst_port=80))
    result = chain.evaluate(pkt())
    assert result.verdict == Verdict.DROP
    assert result.rules_walked == 1


def test_chain_default_verdict_walks_all_rules():
    chain = RuleChain("test")
    for port in (1, 2, 3):
        chain.append(Rule(verdict=Verdict.DROP, dst_port=port))
    result = chain.evaluate(pkt(dst_port=999))
    assert result.verdict == Verdict.ACCEPT
    assert result.rules_walked == 3


def test_dnat_translation_carried_in_traversal():
    chain = RuleChain("nat")
    chain.append(
        Rule(
            verdict=Verdict.DNAT,
            dst_ip="10.96.0.1",
            dst_port=443,
            nat_to=("10.244.1.5", 8443),
        )
    )
    result = chain.evaluate(pkt(dst_ip="10.96.0.1", dst_port=443))
    assert result.verdict == Verdict.DNAT
    assert result.nat_to == ("10.244.1.5", 8443)


def test_kubernetes_like_chain_has_filler_then_services():
    chain = kubernetes_like_chain(
        [("10.96.0.10", 80, "10.244.0.7", 8080)], filler_rules=50
    )
    assert len(chain) == 51
    result = chain.evaluate(pkt(dst_ip="10.96.0.10", dst_port=80))
    assert result.verdict == Verdict.DNAT
    assert result.rules_walked == 51  # walked all the filler first


def test_rule_protocol_matcher():
    rule = Rule(verdict=Verdict.ACCEPT, protocol="udp")
    assert not rule.matches(pkt())  # default protocol is tcp


# -- FIB --------------------------------------------------------------------------------

def test_fib_exact_route_beats_default():
    fib = FibTable()
    fib.add_route("10.0.0.9", ifindex=3)
    fib.set_default(ifindex=1)
    assert fib.lookup(FiveTuple("a", "10.0.0.9", 1, 2)) == 3
    assert fib.lookup(FiveTuple("a", "203.0.113.1", 1, 2)) == 1


def test_fib_miss_without_default():
    fib = FibTable()
    assert fib.lookup(FiveTuple("a", "b", 1, 2)) is None
    assert fib.lookup_count == 1


def test_fib_route_removal():
    fib = FibTable()
    fib.add_route("10.0.0.9", ifindex=3)
    fib.remove_route("10.0.0.9")
    with pytest.raises(KeyError):
        fib.remove_route("10.0.0.9")
    assert len(fib) == 0


# -- devices ----------------------------------------------------------------------------

def test_device_registry_assigns_unique_ifindexes():
    env = Environment()
    registry = DeviceRegistry()
    vm = Vm()
    nic = PhysicalNic(env, registry, vm)
    pair = VethPair(env, registry, vm, pod_name="fn-1")
    indexes = {nic.ifindex, pair.host_side.ifindex, pair.pod_side.ifindex}
    assert len(indexes) == 3
    assert registry.get(nic.ifindex) is nic


def test_veth_send_appears_on_peer():
    env = Environment()
    registry = DeviceRegistry()
    vm = Vm()
    pair = VethPair(env, registry, vm, pod_name="fn-1")
    packet = Packet(flow=FiveTuple("a", "b", 1, 2), payload=b"data")
    pair.pod_side.send_frame(packet)
    assert pair.host_side.frames_received == 1
    assert packet.ingress_ifindex == pair.host_side.ifindex


def test_veth_keeps_no_received_frame_alive():
    env = Environment()
    registry = DeviceRegistry()
    pair = VethPair(env, registry, Vm(), pod_name="fn-1")
    packet = Packet(flow=FiveTuple("a", "b", 1, 2), payload=b"data")
    sent = weakref.ref(packet)
    pair.pod_side.send_frame(packet)
    del packet
    env.run()
    assert pair.host_side.frames_received == 1
    assert sent() is None


def test_host_side_veth_has_tc_hook_pod_side_does_not():
    env = Environment()
    registry = DeviceRegistry()
    vm = Vm()
    pair = VethPair(env, registry, vm, pod_name="x")
    assert pair.host_side.tc_hook is not None
    assert pair.pod_side.tc_hook is None


def test_nic_has_xdp_hook_and_10g_link():
    env = Environment()
    registry = DeviceRegistry()
    nic = PhysicalNic(env, registry, Vm())
    assert nic.xdp_hook.prog_type.value == "xdp"
    assert nic.link_speed_bps == 10e9


# -- node wiring ---------------------------------------------------------------------------

def test_worker_node_defaults_match_testbed():
    node = WorkerNode()
    assert node.cpu.total_cores == 40
    assert node.config.costs.cpu_freq_hz == pytest.approx(2.2e9)
    assert node.nic.ifindex >= 1


def test_node_cpu_prefix_aggregation():
    node = WorkerNode()

    def work(env):
        yield node.cpu.execute(1.0, "plane/fn/a")
        yield node.cpu.execute(1.0, "plane/fn/b")
        yield node.cpu.execute(1.0, "plane/gw")

    node.env.process(work(node.env))
    node.run(until=4.0)
    assert node.cpu_percent_prefix("plane/fn", 4.0) == pytest.approx(50.0)
    assert node.cpu_percent_prefix("plane/", 4.0) == pytest.approx(75.0)


def test_node_config_custom_cores():
    config = NodeConfig()
    config.cores = 8
    node = WorkerNode(config)
    assert node.cpu.total_cores == 8
