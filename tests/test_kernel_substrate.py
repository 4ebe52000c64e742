"""Tests for the kernel substrate: costs, FIB, devices, flows."""

import pytest

from repro.kernel import (
    CostModel,
    DeviceRegistry,
    FibTable,
    FiveTuple,
    NodeConfig,
    PhysicalNic,
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


def test_serialize_vs_deserialize_asymmetry():
    costs = CostModel()
    assert costs.deserialize(1000) > costs.serialize(1000) * 0.9


# -- flows -------------------------------------------------------------

def test_five_tuple_reversal():
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 1234, 80)
    back = flow.reversed()
    assert back.src_ip == "10.0.0.2"
    assert back.dst_port == 1234
    assert back.reversed().key() == flow.key()


# -- FIB --------------------------------------------------------------------------------

def test_fib_miss_without_default():
    fib = FibTable()
    assert fib.lookup(FiveTuple("a", "b", 1, 2)) is None
    assert fib.lookup_count == 1


# -- devices ----------------------------------------------------------------------------

def test_device_registry_assigns_unique_ifindexes():
    env = Environment()
    registry = DeviceRegistry()
    vm = Vm()
    nic = PhysicalNic(env, registry, vm)
    second = PhysicalNic(env, registry, vm, name="eth1")
    assert nic.ifindex != second.ifindex
    assert registry.get(nic.ifindex) is nic
    assert registry.get(second.ifindex) is second
    assert len(registry) == 2


def test_nic_has_xdp_hook_and_10g_link():
    env = Environment()
    registry = DeviceRegistry()
    nic = PhysicalNic(env, registry, Vm())
    assert nic.xdp_hook.prog_type.value == "xdp"
    assert nic.link_speed_bps == 10e9


# -- node wiring ---------------------------------------------------------------------------

def test_worker_node_defaults_match_testbed():
    node = WorkerNode()
    assert node.config.cores == 40
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

    done = []

    def work(env):
        yield node.cpu.execute(1.0, "t")
        done.append(env.now)

    for _ in range(9):
        node.env.process(work(node.env))
    node.run(until=3.0)
    # Eight cores: eight charges finish at t=1, the ninth waits for a core.
    assert done == [1.0] * 8 + [2.0]
