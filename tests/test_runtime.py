"""Tests for the orchestration substrate: pods, kubelet, autoscaler, metrics."""

import pytest

from repro.dataplane.spright.routing import DfrRoutingTable
from repro.kernel import NodeConfig
from repro.runtime import (
    Autoscaler,
    AutoscalerPolicy,
    ChainSpec,
    ENTRY,
    FunctionResult,
    FunctionSpec,
    Kubelet,
    MetricsServer,
    PodMetrics,
    PodPhase,
    RESPONSE,
    WorkerNode,
    desired_scale_for_concurrency,
)


def make_node(**overrides):
    config = NodeConfig(**overrides)
    return WorkerNode(config)


# -- specs ---------------------------------------------------------------------

def test_chain_rejects_duplicate_function_names():
    with pytest.raises(ValueError, match="duplicate"):
        ChainSpec(
            name="c",
            functions=[FunctionSpec(name="a"), FunctionSpec(name="a")],
        )


def test_chain_rejects_dangling_route():
    with pytest.raises(ValueError, match="not in the chain"):
        ChainSpec(
            name="c",
            functions=[FunctionSpec(name="a")],
            routes={(ENTRY, ""): "ghost"},
        )


def test_chain_topic_routing_falls_back_to_default():
    chain = ChainSpec(
        name="c",
        functions=[FunctionSpec(name="a"), FunctionSpec(name="b")],
        routes={
            (ENTRY, ""): "a",
            ("a", "hot"): "b",
            ("a", ""): RESPONSE,
            ("b", ""): RESPONSE,
        },
    )
    table = DfrRoutingTable(make_node(), chain.name)
    table.load_routes(chain.routes)
    assert table.next_function(ENTRY) == "a"
    assert table.next_function("a", "hot") == "b"
    assert table.next_function("a", "cold") == RESPONSE  # falls back to default


def test_function_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec(name="x", service_time=-1)
    with pytest.raises(ValueError):
        FunctionSpec(name="x", concurrency=0)
    with pytest.raises(ValueError):
        FunctionSpec(name="x", min_scale=5, max_scale=2)


# -- pods ------------------------------------------------------------------------

def test_pod_startup_delay_gates_readiness():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=True)
    pod = kubelet.create_pod(FunctionSpec(name="f"), cpu_tag="t/fn/f")
    assert pod.phase is PodPhase.STARTING
    node.run(until=30.0)
    assert pod.phase is PodPhase.RUNNING
    assert pod.ready.triggered


def test_pod_without_cold_start_is_ready_immediately():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(FunctionSpec(name="f"), cpu_tag="t/fn/f")
    node.run(until=0.001)
    assert pod.is_servable


def test_pod_serve_charges_service_time():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(
        FunctionSpec(name="f", service_time=0.010, service_time_cv=0.0),
        cpu_tag="t/fn/f",
    )
    results = []

    def client(env):
        yield pod.ready
        result = yield env.process(pod.serve(b"data"))
        results.append((env.now, result))

    node.env.process(client(node.env))
    node.run(until=1.0)
    assert len(results) == 1
    elapsed, result = results[0]
    assert isinstance(result, FunctionResult)
    assert result.payload == b"data"
    assert 0.009 <= elapsed <= 0.02
    assert node.cpu.accounting.total_busy["t/fn/f"] == pytest.approx(0.01, rel=0.2)


def test_pod_concurrency_limit_queues_requests():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(
        FunctionSpec(name="f", service_time=0.1, service_time_cv=0.0, concurrency=1),
        cpu_tag="t/fn/f",
    )
    completions = []

    def client(env, name):
        yield pod.ready
        yield env.process(pod.serve(b"x"))
        completions.append((name, round(env.now, 3)))

    node.env.process(client(node.env, "a"))
    node.env.process(client(node.env, "b"))
    node.run(until=2.0)
    assert [name for name, _ in completions] == ["a", "b"]
    # Second request waited for the first (concurrency=1).
    assert completions[1][1] >= 2 * 0.1 * 0.9


def test_pod_startup_burns_cpu():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=True)
    pod = kubelet.create_pod(FunctionSpec(name="f"), cpu_tag="t/fn/f")
    node.run(until=30.0)
    # Startup charged ~0.8 x delay of CPU.
    assert node.cpu.accounting.total_busy["t/fn/f"] > 0.5 * pod.startup_delay


def test_pod_termination_lag_holds_cpu():
    node = make_node(termination_lag=10.0)
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(FunctionSpec(name="f"), cpu_tag="t/fn/f")
    node.run(until=0.01)

    def killer(env):
        yield env.timeout(1.0)
        pod.terminate()

    node.env.process(killer(node.env))
    node.run(until=20.0)
    assert pod.phase is PodPhase.TERMINATED
    assert node.cpu.accounting.total_busy["t/fn/f"] == pytest.approx(
        10.0 * pod.termination_cpu_fraction, rel=0.05
    )


def test_pod_serve_while_pending_is_an_error():
    node = make_node()
    pod_spec = FunctionSpec(name="f")
    from repro.runtime.pod import Pod

    pod = Pod(node, pod_spec, cpu_tag="t")
    with pytest.raises(RuntimeError, match="not servable"):
        next(pod.serve(b"x"))


# -- deployment & autoscaler ---------------------------------------------------------

def test_desired_scale_rule():
    assert desired_scale_for_concurrency(0, 32, 0, 10) == 0
    assert desired_scale_for_concurrency(1, 32, 0, 10) == 1
    assert desired_scale_for_concurrency(33, 32, 0, 10) == 2
    assert desired_scale_for_concurrency(9999, 32, 0, 10) == 10
    assert desired_scale_for_concurrency(0, 32, 1, 10) == 1


def test_deployment_scale_up_and_down():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(FunctionSpec(name="f", max_scale=5), "t/fn/f")
    deployment.scale_to(3)
    node.run(until=0.01)
    assert deployment.scale == 3
    deployment.scale_to(1)
    node.run(until=0.02)
    assert deployment.scale == 1


def test_deployment_residual_capacity_picks_least_loaded():
    """The DFR picker (§3.2.3) takes the deployment's least-loaded pod."""
    from repro.dataplane.spright import DfrRoutingTable

    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False)
    deployment = kubelet.deployment(
        FunctionSpec(name="f", service_time=0.01, concurrency=4, max_scale=4), "t/fn/f"
    )
    deployment.scale_to(2)
    node.run(until=0.01)
    pod_a, pod_b = deployment.servable_pods()
    routing = DfrRoutingTable(node, "t")
    routing.register_instance("f", pod_a)
    routing.register_instance("f", pod_b)
    pod_a.in_flight = 3
    for _ in range(20):
        pod_a.rate_window.observe(node.env.now)
    assert routing.pick_instance("f") is pod_b


def test_deployment_any_servable_event_fires_on_cold_start():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=True)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=0), "t/fn/f")
    times = []

    def waiter(env):
        yield deployment.any_servable_event()
        times.append(env.now)

    node.env.process(waiter(node.env))
    deployment.scale_to(1)
    node.run(until=30.0)
    assert times and times[0] > 0.5  # had to wait for the cold start


def test_autoscaler_scales_to_zero_after_grace_period():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    metrics = MetricsServer()
    autoscaler = Autoscaler(node, metrics)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=0), "t/fn/f")
    deployment.scale_to(1)
    autoscaler.register(
        deployment, AutoscalerPolicy(scale_to_zero=True, grace_period=5.0)
    )
    autoscaler.start()
    node.run(until=20.0)
    assert deployment.scale == 0


def test_autoscaler_respects_min_scale_without_zero_scaling():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    metrics = MetricsServer()
    autoscaler = Autoscaler(node, metrics)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=1), "t/fn/f")
    autoscaler.register(deployment, AutoscalerPolicy(scale_to_zero=False))
    autoscaler.start()
    node.run(until=60.0)
    assert deployment.scale == 1  # stays warm


def test_autoscaler_scales_up_under_reported_load():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    metrics = MetricsServer()
    autoscaler = Autoscaler(node, metrics)
    deployment = kubelet.deployment(
        FunctionSpec(name="f", min_scale=1, max_scale=8), "t/fn/f"
    )
    autoscaler.register(deployment, AutoscalerPolicy(target_concurrency=32))
    autoscaler.start()

    def reporter(env):
        yield env.timeout(1.0)
        metrics.report(
            PodMetrics(function="f", timestamp=env.now, request_rate=500, concurrency=100)
        )

    node.env.process(reporter(node.env))
    node.run(until=10.0)
    assert deployment.scale >= 4  # ceil(100/32) = 4


def test_autoscaler_prewarm_schedules_scale_up():
    node = make_node()
    kubelet = Kubelet(node, cold_start_enabled=True, termination_lag=0.0)
    metrics = MetricsServer()
    autoscaler = Autoscaler(node, metrics)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=0), "t/fn/f")
    autoscaler.prewarm(deployment, at_time=5.0)
    node.run(until=4.9)
    assert deployment.scale == 0
    node.run(until=15.0)
    assert deployment.scale == 1


# -- metrics server --------------------------------------------------------------------

def test_metrics_server_staleness():
    metrics = MetricsServer(staleness_limit=10.0)
    metrics.report(PodMetrics(function="f", timestamp=0.0, request_rate=5, concurrency=2))
    assert metrics.request_rate("f", now=5.0) == 5
    assert metrics.request_rate("f", now=50.0) == 0.0
