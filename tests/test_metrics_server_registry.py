"""Registry-backed MetricsServer: latest samples live as autoscale gauges."""

from repro.obs import MetricsRegistry
from repro.runtime import MetricsServer, PodMetrics

SAMPLES = [
    PodMetrics(function="fn-a", timestamp=2.0, request_rate=10.0, concurrency=4),
    PodMetrics(function="fn-b", timestamp=4.0, request_rate=3.5, concurrency=1,
               response_time=0.02),
    PodMetrics(function="fn-a", timestamp=6.0, request_rate=12.0, concurrency=6),
]


def reported_server():
    server = MetricsServer()
    for sample in SAMPLES:
        server.report(sample)
    return server


def test_latest_equivalent_in_both_modes():
    server = reported_server()
    assert server.latest("fn-a") == SAMPLES[2]
    assert server.latest("fn-b") == SAMPLES[1]
    assert isinstance(server.latest("fn-a").concurrency, int)
    assert server.latest("unknown") is None


def test_query_helpers_equivalent():
    server = reported_server()
    assert server.request_rate("fn-a") == 12.0
    assert server.concurrency("fn-a") == 6
    assert server.request_rate("unknown") == 0.0
    assert server.concurrency("unknown") == 0
    assert server.functions() == ["fn-a", "fn-b"]
    assert server.reports_received == len(SAMPLES)


def test_staleness_limit_applies_in_both_modes():
    server = reported_server()
    late = 6.0 + 31.0  # past the default 30 s staleness limit
    assert server.latest("fn-a", now=late) is None
    assert server.request_rate("fn-a", now=late) == 0.0
    assert server.concurrency("fn-a", now=late) == 0
    assert server.latest("fn-a", now=10.0) is not None


def test_registry_mode_exposes_autoscale_gauges():
    registry = MetricsRegistry()
    server = MetricsServer(registry=registry)
    server.report(SAMPLES[0])
    assert registry.gauge("autoscale/fn-a/request_rate").value == 10.0
    assert registry.gauge("autoscale/fn-a/concurrency").value == 4
    text = registry.render_openmetrics()
    assert "spright_autoscale_fn_a_request_rate 10" in text


def test_autoscaler_reads_registry_backed_signals():
    """Regression: the autoscaler scales up from registry-backed metrics."""
    from repro.runtime import Autoscaler, AutoscalerPolicy, FunctionSpec, Kubelet
    from repro.runtime.node import WorkerNode

    node = WorkerNode()
    metrics = MetricsServer(registry=node.obs.registry)
    kubelet = Kubelet(node)
    spec = FunctionSpec(name="fn-a", service_time=1e-3, min_scale=1, max_scale=8)
    deployment = kubelet.deployment(spec, "test/fn/fn-a")
    deployment.ensure_scale(1)
    autoscaler = Autoscaler(node, metrics)
    autoscaler.register(deployment, AutoscalerPolicy(target_concurrency=2))
    autoscaler.start()

    def reporter(env):
        while True:
            yield env.timeout(1.0)
            metrics.report(
                PodMetrics(
                    function="fn-a",
                    timestamp=env.now,
                    request_rate=100.0,
                    concurrency=10,
                )
            )

    node.env.process(reporter(node.env))
    node.run(until=10.0)
    assert deployment.scale > 1  # scaled up from the reported concurrency


def test_snapshot_lists_stale_functions_in_both_modes():
    server = reported_server()
    snapshot = server.snapshot(now=6.0 + 31.0)  # fn-a stale, fn-b staler
    assert snapshot["schema"] == "spright.autoscale/1"
    assert snapshot["reports_received"] == len(SAMPLES)
    rows = {row["function"]: row for row in snapshot["functions"]}
    assert set(rows) == {"fn-a", "fn-b"}
    # latest() hides stale functions; snapshot() shows them flagged.
    assert rows["fn-a"]["stale"] and rows["fn-b"]["stale"]
    assert rows["fn-a"]["request_rate"] == 12.0
    fresh = server.snapshot(now=10.0)
    assert not any(row["stale"] for row in fresh["functions"])
    # Without a clock, staleness is unjudged (never flagged).
    assert not any(row["stale"] for row in server.snapshot()["functions"])
