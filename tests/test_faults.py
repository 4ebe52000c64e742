"""Tests for the fault-injection + resilience subsystem (repro.faults)."""

import json

import pytest

from repro.dataplane.base import Request, RequestClass
from repro.faults import (
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    NAMED_PLANS,
    ResiliencePolicy,
    load_plan,
)
from repro.kernel.ebpf import HashMap
from repro.mem import RteRing
from repro.runtime import FunctionSpec, Kubelet, WorkerNode
from repro.simcore import DeliveryError


def make_request() -> Request:
    return Request(
        request_class=RequestClass(name="t", sequence=["f"], payload_size=8),
        payload=b"x" * 8,
        created_at=0.0,
    )


def traced(node, request: Request) -> Request:
    """Open a root span for a request driven without Dataplane.submit."""
    node.obs.enable_tracing().start_request(request, "t")
    return request


def milestones(request: Request) -> list[str]:
    """Names of the request root's children (phases and event markers)."""
    tracer = request.tracer
    return [span.name for span in tracer.spans if span.parent == request.span.sid]


# -- plan validation ---------------------------------------------------------------

def test_fault_spec_validation():
    with pytest.raises(FaultPlanError):
        FaultSpec(kind=FaultKind.PACKET_DROP, probability=1.5)
    with pytest.raises(FaultPlanError):
        FaultSpec(kind=FaultKind.POD_CRASH, at=-1.0)
    with pytest.raises(FaultPlanError):
        FaultSpec(kind=FaultKind.POD_SLOW, magnitude=0.5)
    spec = FaultSpec(kind="packet_drop", probability=0.1, at=1.0, duration=2.0)
    assert spec.kind is FaultKind.PACKET_DROP
    assert not spec.window_contains(0.5)
    assert spec.window_contains(1.0)
    assert spec.window_contains(2.9)
    assert not spec.window_contains(3.0)


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        name="p",
        faults=[FaultSpec(kind=FaultKind.POD_CRASH, at=2.0, duration=1.0)],
    )
    again = FaultPlan.from_dict(plan.as_dict())
    assert again.name == "p"
    assert again.faults[0].kind is FaultKind.POD_CRASH
    assert again.faults[0].at == 2.0


def test_plan_rejects_unknown_fields():
    with pytest.raises(FaultPlanError, match="unknown"):
        FaultPlan.from_dict({"faults": [{"kind": "packet_drop", "chaos": 9}]})
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict({"nope": []})


def test_load_plan_names_and_json(tmp_path):
    assert not load_plan("none")
    assert not load_plan("")
    for name in NAMED_PLANS:
        plan = load_plan(name)
        assert plan.faults, name
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps({"name": "file", "faults": [{"kind": "ring_stall", "magnitude": 0.001}]})
    )
    plan = load_plan(str(path))
    assert plan.name == "file"
    assert plan.faults[0].kind is FaultKind.RING_STALL


# -- injector: inert == free -------------------------------------------------------

def test_inert_injector_makes_no_rng_draws():
    node = WorkerNode()
    assert not node.faults.active
    assert node.faults.drop_packet("rx", "eth0") is False
    assert node.faults.ring_overflow("rx-ring") is False
    assert node.faults.ring_stall("rx-ring") == 0.0
    node.faults.arm(None)
    node.faults.arm(FaultPlan.empty())
    assert not node.faults.active
    # The zero-cost contract: no fault stream was ever created or drawn.
    assert "faults/stochastic" not in node.rng._streams
    assert not any(
        name.startswith("faults/") for name in node.counters.as_dict()
    )


def test_stochastic_drop_and_target_matching():
    node = WorkerNode()
    node.faults.arm(
        FaultPlan(
            name="t",
            faults=[
                FaultSpec(kind=FaultKind.PACKET_DROP, probability=1.0, target="veth-*")
            ],
        )
    )
    assert node.faults.drop_packet("rx", "veth-gw") is True
    assert node.faults.drop_packet("rx", "eth0") is False
    assert node.counters.get("faults/injected/packet_drop") == 1
    assert node.counters.get("faults/injected/packet_drop/rx") == 1


def test_scheduled_pod_crash_and_recovery():
    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=1), "t/fn/f")
    deployment.scale_to(1)
    node.run(until=0.01)
    node.faults.register_deployment("f", deployment)
    node.faults.arm(
        FaultPlan(
            name="crash",
            faults=[FaultSpec(kind=FaultKind.POD_CRASH, at=0.1, duration=0.2, target="f")],
        )
    )
    node.run(until=0.2)
    assert not deployment.servable_pods()
    assert node.counters.get("faults/injected/pod_crash") == 1
    node.run(until=0.5)
    assert deployment.servable_pods()
    assert node.counters.get("faults/injected/pod_recover") == 1


def test_pod_slow_multiplies_service_time():
    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(FunctionSpec(name="f", min_scale=1), "t/fn/f")
    deployment.scale_to(1)
    node.run(until=0.01)
    node.faults.register_deployment("f", deployment)
    node.faults.arm(
        FaultPlan(
            name="slow",
            faults=[FaultSpec(kind=FaultKind.POD_SLOW, at=0.1, duration=0.2, magnitude=10.0)],
        )
    )
    pod = deployment.servable_pods()[0]
    node.run(until=0.15)
    assert pod.slowdown == 10.0
    node.run(until=0.5)
    assert pod.slowdown == 1.0


def test_ring_overflow_hook_and_stall():
    ring = RteRing("rx", size=8)
    ring.fault_hook = lambda name: name == "rx"
    assert ring.enqueue("d") is False
    assert ring.forced_drops == 1 and ring.drops == 1
    ring.fault_hook = None
    assert ring.enqueue("d") is True

    node = WorkerNode()
    node.faults.arm(
        FaultPlan(
            name="stall",
            faults=[FaultSpec(kind=FaultKind.RING_STALL, at=0.0, magnitude=0.002)],
        )
    )
    assert node.faults.ring_stall("any-ring") == pytest.approx(0.002)


def test_map_evict_spares_gateway_key():
    node = WorkerNode()
    table = HashMap(max_entries=16, name="sockmap")
    node.map_registry.create(table)
    for key in range(4):
        table.update(key, f"sock-{key}")
    node.faults.arm(
        FaultPlan(
            name="evict",
            faults=[FaultSpec(kind=FaultKind.MAP_EVICT, at=0.0, magnitude=2, target="sockmap")],
        )
    )
    node.run(until=0.01)
    assert node.counters.get("faults/injected/map_evict") == 2
    assert table.lookup(0) == "sock-0"  # the pinned gateway slot survives
    assert len(table) == 2


# -- resilience policy + controller ------------------------------------------------

def test_policy_inert_by_default():
    policy = ResiliencePolicy()
    assert not policy.enabled()
    assert ResiliencePolicy(retries=1).enabled()
    assert ResiliencePolicy(timeout=0.5).enabled()
    with pytest.raises(ValueError):
        ResiliencePolicy(retries=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(timeout=0.0)


def test_circuit_breaker_trips_and_half_opens():
    node = WorkerNode()
    breaker = CircuitBreaker(node.env, threshold=2, reset_after=1.0)
    breaker.on_failure(breaker.acquire())
    breaker.on_failure(breaker.acquire())  # trips
    assert breaker.trips == 1
    assert breaker.acquire() is None
    node.env._now = 2.0  # past the cooldown
    probe = breaker.acquire()  # the single half-open probe
    assert probe is not None and probe.probe
    assert breaker.acquire() is None  # second caller fenced out
    breaker.on_success(probe)
    assert breaker.acquire() is not None


def test_half_open_admits_exactly_one_probe_under_concurrency():
    """Regression: concurrent arrivals at the instant the cooldown expires
    must admit exactly one probe, not one each."""
    node = WorkerNode()
    breaker = CircuitBreaker(node.env, threshold=1, reset_after=1.0)
    breaker.on_failure(breaker.acquire())  # trips
    assert breaker.state() == "open"
    node.env._now = 1.0  # exactly at reset_after expiry
    assert breaker.state() == "half_open"
    permits = [breaker.acquire() for _ in range(5)]
    admitted = [permit for permit in permits if permit is not None]
    assert len(admitted) == 1 and admitted[0].probe
    assert breaker.probes_admitted == 1
    # the probe closing the breaker re-opens admission for everyone
    breaker.on_success(admitted[0])
    assert breaker.state() == "closed"
    assert breaker.acquire() is not None


def test_stale_results_cannot_corrupt_half_open_state():
    """Regression: results from attempts admitted before the trip carry an
    older generation — a stale failure used to clear the probe-in-flight
    flag (admitting a second probe) and a stale success used to close the
    breaker without any probe succeeding."""
    node = WorkerNode()
    breaker = CircuitBreaker(node.env, threshold=2, reset_after=1.0)
    stale = breaker.acquire()  # in flight before the trip (generation 0)
    breaker.on_failure(breaker.acquire())
    breaker.on_failure(breaker.acquire())  # trips -> generation 1
    assert breaker.trips == 1 and breaker.generation == 1
    node.env._now = 2.0
    probe = breaker.acquire()
    assert probe is not None and probe.probe
    # stale failure: probe slot stays occupied, no second probe
    breaker.on_failure(stale)
    assert breaker.acquire() is None
    assert breaker.probes_admitted == 1
    # stale success: the breaker must NOT close on it
    breaker.on_success(stale)
    assert breaker.state() == "half_open"
    assert breaker.acquire() is None
    # only the probe's own report resolves the half-open state
    breaker.on_success(probe)
    assert breaker.state() == "closed"


def test_failed_probe_reopens_for_a_fresh_cooldown():
    node = WorkerNode()
    breaker = CircuitBreaker(node.env, threshold=1, reset_after=1.0)
    breaker.on_failure(breaker.acquire())  # trips at t=0
    node.env._now = 1.5
    probe = breaker.acquire()
    assert probe is not None and probe.probe
    breaker.on_failure(probe)
    # re-opened with a fresh window anchored at the probe's failure
    assert breaker.state() == "open"
    node.env._now = 2.4  # 1.0 s from the ORIGINAL trip would be long past
    assert breaker.acquire() is None
    node.env._now = 2.5
    next_probe = breaker.acquire()
    assert next_probe is not None and next_probe.probe


class FlakyPlane:
    """Stub dataplane: fails the first N deliveries, then succeeds."""

    def __init__(self, node, fail_times=0, kind="drop", delay=0.001):
        self.node = node
        self.resilience = None
        self.calls = 0
        self.fail_times = fail_times
        self.kind = kind
        self.delay = delay

    def deliver_once(self, request):
        self.calls += 1
        call = self.calls
        yield self.node.env.timeout(self.delay)
        if call <= self.fail_times:
            raise DeliveryError(self.kind, "injected failure")
        request.response = b"ok"
        request.completed_at = self.node.env.now


def run_execute(node, plane, policy, request):
    from repro.faults import ResilienceController

    controller = ResilienceController(plane, policy)
    node.env.process(controller.execute(request))
    node.run(until=10.0)
    return controller


def test_retries_recover_from_transient_faults():
    node = WorkerNode()
    plane = FlakyPlane(node, fail_times=2)
    request = traced(node, make_request())
    run_execute(node, plane, ResiliencePolicy(retries=3), request)
    assert not request.failed
    assert request.response == b"ok"
    assert plane.calls == 3
    assert node.counters.get("faults/resilience/retry") == 2
    names = milestones(request)
    assert "retry:1" in names and "retry:2" in names


def test_retry_budget_exhaustion_fails_request():
    node = WorkerNode()
    plane = FlakyPlane(node, fail_times=99)
    request = make_request()
    run_execute(node, plane, ResiliencePolicy(retries=2), request)
    assert request.failed
    assert request.error is not None and request.error.kind == "drop"
    assert plane.calls == 3
    assert node.counters.get("faults/resilience/exhausted") == 1


def test_timeout_cancels_slow_attempt():
    node = WorkerNode()
    plane = FlakyPlane(node, delay=5.0)
    request = make_request()
    run_execute(node, plane, ResiliencePolicy(timeout=0.01), request)
    assert request.failed
    assert request.error.kind == "timeout"
    assert node.counters.get("faults/resilience/timeout") == 1


def test_hedge_wins_when_primary_is_slow():
    node = WorkerNode()

    class SlowThenFast(FlakyPlane):
        def deliver_once(self, request):
            self.calls += 1
            delay = 1.0 if self.calls == 1 else 0.001
            yield self.node.env.timeout(delay)
            request.response = b"ok"
            request.completed_at = self.node.env.now

    plane = SlowThenFast(node)
    request = traced(node, make_request())
    run_execute(node, plane, ResiliencePolicy(hedge_delay=0.01), request)
    assert not request.failed
    assert request.response == b"ok"
    assert request.completed_at < 0.5  # the hedge, not the 1 s primary
    assert node.counters.get("faults/resilience/hedge") == 1
    assert node.counters.get("faults/resilience/hedge_win") == 1
    names = milestones(request)
    assert "hedge:launch" in names and "hedge:win" in names


def test_breaker_fails_fast_after_consecutive_failures():
    node = WorkerNode()
    plane = FlakyPlane(node, fail_times=99)
    policy = ResiliencePolicy(retries=0, breaker_threshold=2, breaker_reset=60.0)
    from repro.faults import ResilienceController

    controller = ResilienceController(plane, policy)
    requests = [make_request() for _ in range(3)]

    def driver(env):
        for request in requests:
            yield env.process(controller.execute(request))

    node.env.process(driver(node.env))
    node.run(until=10.0)
    assert controller.breaker_trips() == 1
    assert plane.calls == 2  # the third request never reached the plane
    assert requests[2].error.kind == "breaker_open"
    assert node.counters.get("faults/resilience/breaker_fastfail") == 1


# -- end-to-end: empty plan is bit-identical ---------------------------------------

def boutique_latencies(fault_plan=None, resilience=None):
    from repro.experiments.common import run_closed_loop
    from repro.workloads import boutique

    result = run_closed_loop(
        "grpc",
        boutique.go_grpc_functions(),
        boutique.request_classes(),
        concurrency=16,
        duration=3.0,
        scale=0.05,
        fault_plan=fault_plan,
        resilience=resilience,
    )
    return result.recorder.latencies("")


def test_empty_plan_and_inert_policy_bit_identical():
    baseline = boutique_latencies()
    armed = boutique_latencies(
        fault_plan=FaultPlan.empty(), resilience=ResiliencePolicy()
    )
    assert baseline == armed


def test_armed_plan_actually_perturbs_the_run():
    baseline = boutique_latencies()
    lossy = boutique_latencies(
        fault_plan=FaultPlan(
            name="lossy",
            faults=[FaultSpec(kind=FaultKind.PACKET_DROP, probability=0.05)],
        ),
        resilience=ResiliencePolicy(timeout=0.5, retries=2),
    )
    assert baseline != lossy
