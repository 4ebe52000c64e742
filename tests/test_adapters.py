"""Tests for protocol adaptation (§3.6) and the XDP accelerator (§3.5)."""

import json

import pytest

from repro.dataplane.spright import (
    AdapterError,
    AdapterHookPoint,
    CoapAdapter,
    HttpAdapter,
    MqttAdapter,
    SSprightDataplane,
    XdpAccelerator,
)
from repro.dataplane.base import RequestClass
from repro.protocols import (
    CoapCode,
    CoapMessage,
    ConnectPacket,
    HttpRequest,
    PublishPacket,
    PubackPacket,
    encode_request,
)
from repro.runtime import FunctionSpec, WorkerNode


def make_hook():
    hook = AdapterHookPoint()
    hook.load(HttpAdapter())
    hook.load(MqttAdapter())
    hook.load(CoapAdapter())
    return hook


def run_adapt(hook, raw, protocol):
    """Drive the adapt generator outside a simulation (no ops)."""
    generator = hook.adapt(raw, protocol, ops=None)
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def test_http_adapter_extracts_body_and_topic():
    hook = make_hook()
    raw = encode_request(
        HttpRequest(method="POST", path="/orders/new", body=b'{"qty": 3}')
    )
    event, topic, ack = run_adapt(hook, raw, "http")
    assert event.data == b'{"qty": 3}'
    assert topic == "orders.new"
    assert ack == b""
    assert event.type == "com.spright.http.request"


def test_mqtt_adapter_converts_publish_and_acks_qos1():
    hook = make_hook()
    publish = PublishPacket(topic="sensors/1", payload=b"ON", qos=1, packet_id=9)
    event, topic, ack = run_adapt(hook, publish.encode(), "mqtt")
    assert event.data == b"ON"
    assert topic == "sensors/1"
    assert PubackPacket.decode(ack).packet_id == 9


def test_mqtt_adapter_qos0_has_no_ack():
    hook = make_hook()
    publish = PublishPacket(topic="t", payload=b"x", qos=0)
    _, _, ack = run_adapt(hook, publish.encode(), "mqtt")
    assert ack == b""


def test_mqtt_adapter_rejects_non_publish():
    hook = make_hook()
    with pytest.raises(AdapterError, match="PUBLISH"):
        run_adapt(hook, ConnectPacket(client_id="c").encode(), "mqtt")


def test_coap_adapter_converts_post():
    hook = make_hook()
    message = CoapMessage(
        code=CoapCode.POST, message_id=7, uri_path=["garage", "spot4"],
        payload=b"\x01snapshot",
    )
    event, topic, ack = run_adapt(hook, message.encode(), "coap")
    assert event.data == b"\x01snapshot"
    assert topic == "garage.spot4"
    decoded_ack = CoapMessage.decode(ack)
    assert decoded_ack.message_id == 7
    assert decoded_ack.code == CoapCode.CREATED


def test_unknown_protocol_rejected():
    hook = make_hook()
    with pytest.raises(AdapterError, match="no adapter"):
        run_adapt(hook, b"", "ftp")


def test_adapter_load_unload_at_runtime():
    hook = AdapterHookPoint()
    adapter = HttpAdapter()
    hook.load(adapter)
    assert hook.loaded() == ["http"]
    with pytest.raises(AdapterError, match="already loaded"):
        hook.load(HttpAdapter())


def test_mqtt_session_held_at_gateway():
    hook = make_hook()
    connack = hook.sessions.connect(ConnectPacket(client_id="sensor-1").encode())
    assert connack  # CONNACK bytes
    assert len(hook.sessions) == 1


def test_handle_raw_end_to_end_mqtt():
    """PUBLISH -> adapter -> shared memory -> chain -> response + PUBACK."""
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="act", service_time=1e-4)])
    plane.deploy()
    publish = PublishPacket(
        topic="lights/on",
        payload=json.dumps({"room": 4}).encode(),
        qos=1,
        packet_id=11,
    )
    request_class = RequestClass(name="iot", sequence=["act"], payload_size=32)
    outcome = {}

    def driver(env):
        request, ack = yield from plane.handle_raw(
            publish.encode(), "mqtt", request_class
        )
        outcome["request"] = request
        outcome["ack"] = ack

    node.env.process(driver(node.env))
    node.run(until=2.0)
    assert outcome["request"].response == json.dumps({"room": 4}).encode()
    assert PubackPacket.decode(outcome["ack"]).packet_id == 11
    assert plane.adapter_hook.invocations == 1


def test_handle_raw_keeps_the_request_class_priority():
    """The adapter's topic replaces the class's topic and nothing else."""
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="act", service_time=1e-4)])
    plane.deploy()
    raw = PublishPacket(topic="lights/on", payload=b"x", qos=0).encode()
    _, topic, _ = run_adapt(make_hook(), raw, "mqtt")
    assert topic
    request_class = RequestClass(
        name="iot", sequence=["act"], payload_size=32, priority=2
    )
    outcome = {}

    def driver(env):
        request, _ = yield from plane.handle_raw(raw, "mqtt", request_class)
        outcome["request"] = request

    node.env.process(driver(node.env))
    node.run(until=2.0)
    adapted = outcome["request"].request_class
    assert adapted.priority == 2
    assert adapted.topic == topic
    assert adapted.name == "iot"


# -- XDP accelerator ----------------------------------------------------------

def test_xdp_accelerator_counts_redirects_and_passes():
    node = WorkerNode()
    accelerator = XdpAccelerator(node)
    accelerator.install_route("10.0.1.2", ifindex=5)
    ops = node.ops("test")

    def driver(env):
        yield from accelerator.forward(ops, 1000, "10.0.1.2", None, None)
        yield from accelerator.forward(ops, 1000, "203.0.113.9", None, None)

    node.env.process(driver(node.env))
    node.run(until=1.0)
    assert accelerator.redirects == 1
    assert accelerator.passes == 1


def test_xdp_redirect_is_cheaper_than_stack_fallback():
    node = WorkerNode()
    accelerator = XdpAccelerator(node)
    accelerator.install_route("10.0.1.2", ifindex=5)
    times = {}

    def timed(name, dst):
        def proc(env):
            ops = node.ops(name)
            start = env.now
            yield from accelerator.forward(ops, 1400, dst, None, None)
            times[name] = env.now - start

        return proc

    node.env.process(timed("hit", "10.0.1.2")(node.env))
    node.run(until=1.0)
    node.env.process(timed("miss", "198.51.100.1")(node.env))
    node.run(until=2.0)
    assert times["hit"] < times["miss"]
