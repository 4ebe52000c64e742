"""Focused tests for the Knative and gRPC baseline dataplanes."""

from repro.dataplane import (
    GrpcDataplane,
    GrpcParams,
    KnativeDataplane,
    KnativeParams,
    Request,
    RequestClass,
)
from repro.protocols import decode_frames, FrameType
from repro.runtime import FunctionSpec, WorkerNode


def deploy(plane_cls, functions=None, **kwargs):
    node = WorkerNode()
    functions = functions or [
        FunctionSpec(name="fn-1", service_time=10e-6),
        FunctionSpec(name="fn-2", service_time=10e-6),
    ]
    plane = plane_cls(node, functions, **kwargs)
    plane.deploy()
    return node, plane


def run_one(node, plane, sequence=("fn-1", "fn-2")):
    request = Request(
        request_class=RequestClass(name="t", sequence=list(sequence), payload_size=64),
        payload=b"x" * 64,
        created_at=node.env.now,
    )

    def driver(env):
        yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=node.env.now + 5.0)
    return request


# -- Knative --------------------------------------------------------------------

def test_knative_broker_mediates_every_transfer():
    node, plane = deploy(KnativeDataplane)
    run_one(node, plane)
    # 1 admission + 2 response mediations (mediate_every_hop).
    assert plane.broker.traversals == 3
    assert plane.ingress.traversals == 2  # in + response out


def test_knative_queue_proxy_traversed_twice_per_invocation():
    node, plane = deploy(KnativeDataplane)
    run_one(node, plane)
    for name in ("fn-1", "fn-2"):
        assert plane.queue_proxies[name].traversals == 2  # delivery + response


def test_knative_mediate_every_hop_off_reduces_broker_load():
    node, plane = deploy(
        KnativeDataplane, params=KnativeParams(mediate_every_hop=False)
    )
    run_one(node, plane)
    assert plane.broker.traversals == 1  # admission only


def test_knative_queue_proxies_share_pods_of_same_function():
    node, plane = deploy(KnativeDataplane)
    assert set(plane.queue_proxies) == {"fn-1", "fn-2"}


def test_knative_latency_grows_linearly_with_chain_length():
    """Takeaway #1: overhead scales with the number of chain hops."""
    durations = {}
    for length in (1, 4):
        node, plane = deploy(
            KnativeDataplane,
            functions=[
                FunctionSpec(name=f"fn-{i}", service_time=0.0) for i in range(4)
            ],
        )
        request = run_one(node, plane, sequence=[f"fn-{i}" for i in range(length)])
        durations[length] = request.latency
    assert durations[4] > 2.5 * durations[1]


# -- gRPC -----------------------------------------------------------------------

def test_grpc_has_no_proxies():
    node, plane = deploy(GrpcDataplane)
    request = run_one(node, plane)
    assert request.response is not None
    assert not hasattr(plane, "queue_proxies")
    assert node.cpu_percent_prefix("grpc/qp") == 0.0


def test_grpc_wire_bytes_are_http2_frames():
    node, plane = deploy(GrpcDataplane)
    wire = plane.encode_call("fn-2", b"payload")
    frames = decode_frames(wire)
    types = [frame.frame_type for frame in frames]
    assert FrameType.HEADERS in types
    assert FrameType.DATA in types


def test_grpc_hpack_compresses_repeated_calls():
    node, plane = deploy(GrpcDataplane)
    first = plane.encode_call("fn-2", b"payload")
    second = plane.encode_call("fn-2", b"payload")
    assert len(second) < len(first)  # dynamic-table hits on call #2


def test_grpc_without_http2_framing_is_bare_grpc_frame():
    node, plane = deploy(GrpcDataplane, params=GrpcParams(use_http2_framing=False))
    wire = plane.encode_call("fn-2", b"payload")
    assert wire[0] in (0, 1)  # gRPC compressed-flag byte, no HTTP/2 header


def test_grpc_stream_ids_are_odd_and_increasing():
    node, plane = deploy(GrpcDataplane)
    plane.encode_call("fn-2", b"a")
    plane.encode_call("fn-2", b"b")
    assert plane._streams["fn-2"] == 5  # 1, 3 used; next is 5


def test_grpc_faster_than_knative_same_chain():
    node_kn, plane_kn = deploy(KnativeDataplane)
    request_kn = run_one(node_kn, plane_kn)
    node_g, plane_g = deploy(GrpcDataplane)
    request_g = run_one(node_g, plane_g)
    assert request_g.latency < request_kn.latency
