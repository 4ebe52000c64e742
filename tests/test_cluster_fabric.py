"""Cluster fabric: topology, routing, codecs, and cross-node leg costs."""

import pytest

from repro.cluster import (
    ClusterFabric,
    LinkSpec,
    build_cluster,
    decode_wire,
    encode_wire,
)
from repro.kernel import FiveTuple, NodeConfig
from repro.runtime import WorkerNode
from repro.simcore import DeliveryError, Environment


def _drive(env, generator):
    """Run a generator to completion on the env, capturing its return."""
    result = {}

    def wrapper():
        result["value"] = yield from generator
    env.process(wrapper())
    env.run(until=1.0)
    return result.get("value")


def _transfer(fabric, src, dst, payload=b"hello cluster", **kwargs):
    return _drive(
        fabric.env,
        fabric.transfer(
            src,
            dst,
            payload,
            ops_tx=src.ops("t/net"),
            ops_rx=dst.ops("t/net"),
            **kwargs,
        ),
    )


# --- codecs ------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["grpc", "http"])
def test_wire_codec_round_trips(protocol):
    payload = b"\x00\x01binary payload\xff" * 7
    wire = encode_wire(payload, protocol)
    assert wire != payload  # real framing, not a pass-through
    assert decode_wire(wire, protocol) == payload


def test_wire_codec_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        encode_wire(b"x", "carrier-pigeon")
    with pytest.raises(ValueError):
        decode_wire(b"x", "carrier-pigeon")


# --- topology ----------------------------------------------------------------


def test_build_cluster_assigns_ips_and_bidirectional_routes():
    fabric = build_cluster(3)
    assert sorted(fabric.nodes) == ["worker-1", "worker-2", "worker-3"]
    assert fabric.ips["worker-1"] == "10.10.1.1"
    assert fabric.ips["worker-3"] == "10.10.3.1"
    for src in fabric.nodes.values():
        for dst_name, dst_ip in fabric.ips.items():
            if dst_name == src.name:
                continue
            flow = FiveTuple(
                src_ip=fabric.ips[src.name],
                dst_ip=dst_ip,
                src_port=40000,
                dst_port=8080,
            )
            assert src.fib.lookup(flow) is not None


def test_per_node_seeds_are_decorrelated_and_node0_matches_single():
    fabric = build_cluster(2, seed=2022)
    roots = [n.config.root_seed for n in fabric.nodes.values()]
    assert roots[0] == 2022  # byte-identity anchor for 1-node clusters
    assert len(set(roots)) == 2


def test_add_node_rejects_foreign_clock_and_duplicates():
    fabric = build_cluster(1)
    stranger = WorkerNode(NodeConfig(), name="stranger")  # its own env
    with pytest.raises(ValueError):
        fabric.add_node(stranger)
    with pytest.raises(ValueError):
        fabric.add_node(
            WorkerNode(NodeConfig(), env=fabric.env, name="worker-1")
        )


# --- transfers ---------------------------------------------------------------


def test_transfer_round_trips_payload_and_counts():
    fabric = build_cluster(2)
    src = fabric.nodes["worker-1"]
    dst = fabric.nodes["worker-2"]
    payload = b"x" * 256
    out = _transfer(fabric, src, dst, payload)
    assert out == payload
    assert fabric.xnode_hops == 1
    counters = src.counters.as_dict()
    assert counters["cluster/xnode_hops"] == 1
    wire_bytes = counters["cluster/worker-1->worker-2/bytes"]
    assert wire_bytes > len(payload)  # framing overhead is real
    assert fabric.bytes_moved == wire_bytes


def test_transfer_without_route_raises_typed_error():
    fabric = build_cluster(2)
    src = fabric.nodes["worker-1"]
    from repro.kernel import FibTable

    src.fib = FibTable()  # routes vanished (misconfiguration)
    with pytest.raises(DeliveryError) as excinfo:
        _transfer(fabric, src, fabric.nodes["worker-2"])
    assert excinfo.value.kind == "no_route"


def test_link_spec_overrides_change_wire_time():
    slow = LinkSpec(latency=10e-3, bandwidth_bps=1e6)
    assert slow.wire_time(1000) == pytest.approx(10e-3 + 8e-3)
    fabric = build_cluster(2, link=slow)
    assert fabric.default_link is slow
    before = fabric.env.now
    _transfer(fabric, fabric.nodes["worker-1"], fabric.nodes["worker-2"])
    assert fabric.env.now - before > 10e-3


def test_nic_sourced_transfer_charges_no_sender_host_cpu():
    duration = 0.5

    def host_cpu_after(nic_sourced):
        fabric = build_cluster(2)
        src, dst = fabric.nodes["worker-1"], fabric.nodes["worker-2"]
        _drive(
            fabric.env,
            fabric.transfer(
                src,
                dst,
                b"p" * 64,
                ops_tx=src.ops("t/net"),
                ops_rx=dst.ops("t/net"),
                nic_sourced=nic_sourced,
                nic_terminated=True,
            ),
        )
        return src.cpu_percent_prefix("t/", duration)

    assert host_cpu_after(nic_sourced=False) > 0.0
    assert host_cpu_after(nic_sourced=True) == 0.0


def test_default_link_comes_from_cost_model():
    fabric = build_cluster(1)
    costs = fabric.nodes["worker-1"].config.costs
    assert fabric.default_link.latency == costs.xnode_link_latency
    assert fabric.default_link.bandwidth_bps == costs.xnode_bandwidth_bps


def test_fabric_rejects_node_off_clock_env_check():
    env = Environment()
    fabric = ClusterFabric(env)
    node = WorkerNode(NodeConfig(), env=env, name="n1")
    fabric.add_node(node)
    assert fabric.ips["n1"] == "10.10.1.1"
