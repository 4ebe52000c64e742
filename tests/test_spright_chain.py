"""Integration tests for the SPRIGHT chain runtime: zero-copy, DFR,
security domains, load balancing, metrics, and the D-SPRIGHT transport."""

import pytest

from repro.dataplane import (
    DSprightDataplane,
    Request,
    RequestClass,
    SprightParams,
    SSprightDataplane,
)
from repro.dataplane.spright import GATEWAY_INSTANCE_ID, filter_key
from repro.mem import IsolationError
from repro.runtime import FunctionSpec, MetricsServer, WorkerNode


def deploy_chain(plane_cls=SSprightDataplane, functions=None, **kwargs):
    node = WorkerNode()
    functions = functions or [
        FunctionSpec(name="fn-1", service_time=10e-6),
        FunctionSpec(name="fn-2", service_time=10e-6),
    ]
    plane = plane_cls(node, functions, **kwargs)
    plane.deploy()
    return node, plane


def run_requests(node, plane, count=3, sequence=("fn-1", "fn-2"), payload=b"hello"):
    request_class = RequestClass(name="t", sequence=list(sequence), payload_size=len(payload))
    requests = []

    def driver(env):
        for _ in range(count):
            request = Request(
                request_class=request_class, payload=payload, created_at=env.now
            )
            requests.append(request)
            yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=10.0)
    return requests


def test_request_flows_through_chain_and_returns_payload():
    node, plane = deploy_chain()
    requests = run_requests(node, plane, payload=b"ping")
    assert all(request.response == b"ping" for request in requests)
    assert all(request.completed_at is not None for request in requests)


def test_payload_written_to_pool_exactly_once_per_request():
    """Zero-copy: one gateway write-in plus one in-place write per function."""
    node, plane = deploy_chain()
    run_requests(node, plane, count=4)
    stats = plane.runtime.pool.stats
    # 1 gateway write + 2 function in-place updates per request.
    assert stats.writes == 4 * 3
    assert stats.allocs == 4
    assert stats.frees == 4
    assert plane.runtime.pool.in_use_count == 0


def test_descriptors_counted_by_sproxy_metrics_program():
    node, plane = deploy_chain()
    run_requests(node, plane, count=5)
    metrics = plane.runtime.transport.metrics_map
    # 3 hops per request (gw->fn1, fn1->fn2, fn2->gw), counted in-kernel.
    assert metrics.lookup(0) == 5 * 3


def test_sockmap_contains_gateway_and_pods():
    node, plane = deploy_chain()
    node.run(until=0.01)
    sockmap = plane.runtime.transport.sockmap
    assert GATEWAY_INSTANCE_ID in sockmap
    assert len(sockmap) == 3  # gateway + 2 pods


def test_dfr_topic_routing_without_sequences():
    """Pub/sub mode: the routing table, not the message, picks next hops."""
    from repro.runtime import ENTRY, RESPONSE, FunctionResult

    def topic_behavior(payload, context):
        return FunctionResult(payload=payload + b"|routed", topic="hot")

    node = WorkerNode()
    functions = [
        FunctionSpec(name="classify", service_time=5e-6, behavior=topic_behavior),
        FunctionSpec(name="hot-path", service_time=5e-6),
    ]
    routes = {
        (ENTRY, ""): "classify",
        ("classify", "hot"): "hot-path",
        ("hot-path", ""): RESPONSE,
    }
    plane = SSprightDataplane(node, functions, routes=routes)
    plane.deploy()
    plane.runtime.routing.load_routes(routes)

    from repro.dataplane.spright.chain import SprightMessage
    from repro.simcore import Event

    results = {}

    def driver(env):
        runtime = plane.runtime
        handle = runtime.pool.alloc()
        runtime.pool.write(handle, b"event")
        message = SprightMessage(
            handle=handle,
            trace=None,
            request=None,
            done=Event(env),
            remaining=None,  # topic-driven
            topic="",
        )
        yield env.process(
            _dispatch(runtime, message, "classify", plane.deployments["classify"])
        )
        response = yield message.done
        results["response"] = response

    def _dispatch(runtime, message, head, deployment):
        yield from runtime.dispatch(message, head, deployment)

    node.env.process(driver(node.env))
    node.run(until=5.0)
    assert results["response"] == b"event|routed"
    assert plane.runtime.routing.lookups >= 2


def test_security_domain_rules_installed_per_pod():
    node, plane = deploy_chain()
    node.run(until=0.01)
    security = plane.runtime.security
    pods = [
        pod
        for deployment in plane.deployments.values()
        for pod in deployment.servable_pods()
    ]
    assert len(pods) == 2

    def allowed(sender, destination):
        # What the in-kernel filter program looks up per descriptor.
        return security.filter_map.lookup(filter_key(sender, destination)) is not None

    for pod in pods:
        assert allowed(GATEWAY_INSTANCE_ID, pod.instance_id)
        assert allowed(pod.instance_id, GATEWAY_INSTANCE_ID)
    assert allowed(pods[0].instance_id, pods[1].instance_id)


def test_unauthorized_descriptor_dropped_by_filter_program():
    """A foreign sender id is refused by the in-kernel filter (§3.4)."""
    node, plane = deploy_chain()
    node.run(until=0.01)
    runtime = plane.runtime
    pods = plane.deployments["fn-2"].servable_pods()
    target = pods[0]

    # Craft a descriptor from a sender that has no filter rule.
    from repro.kernel.ebpf import SK_DROP, Scratch, programs

    foreign_sender = 999
    ctx = programs.encode_descriptor_ctx(
        next_fn_id=target.instance_id,
        shm_offset=0,
        payload_len=16,
        sender_id=foreign_sender,
    )
    endpoint = runtime._endpoints[target.instance_id]
    scratch = Scratch(map_registry=node.map_registry)
    run = endpoint.hook.fire(data=ctx, scratch=scratch)
    assert run.verdict == SK_DROP
    assert scratch.redirect_endpoint is None


def test_cross_chain_pool_attach_is_refused():
    node = WorkerNode()
    plane_a = SSprightDataplane(
        node, [FunctionSpec(name="fa", service_time=0.0)], chain_name="chain-a"
    )
    plane_a.deploy()
    plane_b = SSprightDataplane(
        node, [FunctionSpec(name="fb", service_time=0.0)], chain_name="chain-b"
    )
    plane_b.deploy()
    with pytest.raises(IsolationError):
        node.pools.attach(
            plane_a.runtime.pool.name, plane_b.runtime.manager.file_prefix
        )


def test_security_disabled_uses_plain_redirect():
    node, plane = deploy_chain(params=SprightParams(security_enabled=False))
    assert plane.runtime.security is None
    requests = run_requests(node, plane)
    assert all(request.response == b"hello" for request in requests)


def test_dspright_transport_delivers_via_rings():
    node, plane = deploy_chain(plane_cls=DSprightDataplane)
    requests = run_requests(node, plane, count=4)
    assert all(request.response == b"hello" for request in requests)
    rings = plane.runtime.manager.memory.rings
    assert len(rings) == 3  # gateway + 2 pods
    assert sum(ring.enqueued for ring in rings.values()) == 4 * 3


def test_dspright_burns_poll_cores_when_idle():
    node, plane = deploy_chain(plane_cls=DSprightDataplane)
    node.run(until=10.5)
    # Gateway spin: ~2 cores; each fn pod ~1 core, with zero traffic.
    gw = node.cpu_percent_prefix("dspright/gw/", 10.0)
    fn = node.cpu_percent_prefix("dspright/fn", 10.0)
    assert gw > 180.0
    assert fn > 180.0


def test_sspright_idle_cpu_is_zero():
    node, plane = deploy_chain()
    node.run(until=10.0)
    assert node.cpu_percent_prefix("sspright/", 10.0) < 1.0


def test_metrics_agent_reports_to_metrics_server():
    node = WorkerNode()
    metrics = MetricsServer()
    reported = []
    report = metrics.report
    metrics.report = lambda sample: (reported.append(sample), report(sample))
    plane = SSprightDataplane(
        node,
        [FunctionSpec(name="fn-1", service_time=10e-6)],
        metrics_server=metrics,
    )
    plane.deploy()
    run_requests(node, plane, count=10, sequence=("fn-1",))
    node.run(until=20.0)
    assert metrics.reports_received == len(reported) > 0
    assert any(
        sample.function == plane.chain_name and sample.request_rate > 0
        for sample in reported
    )


def test_residual_capacity_lb_spreads_load_across_pods():
    node = WorkerNode()
    spec = FunctionSpec(
        name="fn-1", service_time=200e-6, min_scale=3, max_scale=3, concurrency=2
    )
    plane = SSprightDataplane(node, [spec])
    plane.deploy()
    run_requests(node, plane, count=30, sequence=("fn-1",))
    pods = plane.deployments["fn-1"].servable_pods()
    served = [pod.served for pod in pods]
    assert sum(served) == 30
    assert min(served) > 0  # every pod took a share


def test_filter_key_packing():
    assert filter_key(1, 2) == (1 << 16) | 2
    with pytest.raises(ValueError):
        filter_key(70000, 0)


def test_overload_shedding_with_queue_limit():
    """A bounded broker queue sheds excess load as failed (503) requests."""
    from repro.dataplane import KnativeDataplane, KnativeParams
    from repro.stats import LatencyRecorder
    from repro.workloads import ClosedLoopGenerator, WeightedMix

    node = WorkerNode()
    plane = KnativeDataplane(
        node,
        [FunctionSpec(name="f", service_time=5e-3, service_time_cv=0.0)],
        params=KnativeParams(
            broker_pinned_cores=1, broker_path_cpu=2e-3, broker_queue_limit=4
        ),
    )
    plane.deploy()
    recorder = LatencyRecorder()
    generator = ClosedLoopGenerator(
        node,
        plane,
        WeightedMix([RequestClass(name="t", sequence=["f"], payload_size=64)]),
        recorder,
        concurrency=64,
        duration=1.0,
        client_overhead=0.0001,
    )
    generator.start()
    node.run(until=1.0)
    drops = node.counters.get("kn/overload_drops")
    assert drops > 0
    assert plane.broker.shed == drops
    assert generator.requests_failed == drops
    # Successful requests still complete and are the only ones recorded.
    assert recorder.count("") == plane.requests_completed - 0
    assert recorder.count("") > 0
