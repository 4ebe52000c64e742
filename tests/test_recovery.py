"""Tests for the self-healing control plane (repro.recovery).

Covers the supervisor's detect/restart/backoff loop, shared-memory orphan
reclamation through the scavenger, admission-control queue bounds and
priority-ordered CoDel shedding, post-restart sockmap re-registration, and
the byte-identity contract (disarmed recovery perturbs nothing).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    Request,
    RequestClass,
    ShedError,
    SprightParams,
    SSprightDataplane,
)
from repro.dataplane.spright.chain import SprightMessage
from repro.faults import FaultKind, FaultPlan, FaultSpec, load_plan
from repro.mem import ShmScavenger, SharedMemoryPool, PoolSanitizer
from repro.recovery import (
    AdmissionController,
    AdmissionPolicy,
    BACKOFF_STREAM,
    PodSupervisor,
    SupervisorPolicy,
)
from repro.runtime import FunctionSpec, Kubelet, WorkerNode
from repro.simcore import Event


def make_deployment(node, name="f", min_scale=1):
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(
        FunctionSpec(name=name, service_time=10e-6), f"t/fn/{name}"
    )
    deployment.scale_to(min_scale)
    node.run(until=0.01)
    return deployment


def crash_plan(at=0.1, target="*"):
    return FaultPlan(
        name="crash",
        faults=[FaultSpec(kind=FaultKind.POD_CRASH, at=at, duration=None, target=target)],
    )


# -- policy validation -------------------------------------------------------------

def test_supervisor_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(check_interval=0.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(hang_grace=-1.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_base=1.0, backoff_cap=0.5)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_jitter=1.5)


def test_admission_policy_validation_and_inertness():
    assert not AdmissionPolicy().enabled()
    assert AdmissionPolicy(queue_limit=4).enabled()
    assert AdmissionPolicy(rate_limit=10.0).enabled()
    assert AdmissionPolicy(target_delay=0.01).enabled()
    with pytest.raises(ValueError):
        AdmissionPolicy(queue_limit=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(rate_limit=-1.0)
    with pytest.raises(ValueError):
        AdmissionPolicy(target_delay=0.0)
    with pytest.raises(ValueError):
        AdmissionPolicy(burst=0.5)


def test_inert_admission_policy_attaches_nothing():
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="fn-1")])
    plane.deploy()
    plane.use_admission(AdmissionPolicy())
    assert plane.admission is None


# -- backoff determinism (hypothesis, per seed) ------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       attempt=st.integers(min_value=1, max_value=12))
def test_restart_backoff_deterministic_and_bounded(seed, attempt):
    from repro.kernel import NodeConfig

    policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=5.0, backoff_jitter=0.1)
    first = policy.restart_backoff(WorkerNode(NodeConfig(root_seed=seed)).rng, attempt)
    second = policy.restart_backoff(WorkerNode(NodeConfig(root_seed=seed)).rng, attempt)
    assert first == second  # same seed, same stream, same delay
    nominal = min(0.1 * 2 ** (attempt - 1), 5.0)
    assert nominal * 0.9 <= first <= nominal * 1.1


def test_restart_backoff_escalates_then_caps():
    policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=2.0, backoff_jitter=0.0)
    node = WorkerNode()
    delays = [policy.restart_backoff(node.rng, attempt) for attempt in range(1, 8)]
    assert delays == sorted(delays)
    assert delays[-1] == 2.0  # capped
    assert BACKOFF_STREAM not in node.rng._streams  # jitter=0 draws nothing


# -- supervisor: detect -> restart -> restore --------------------------------------

def test_supervisor_restarts_crashed_pod():
    node = WorkerNode()
    deployment = make_deployment(node)
    dead = deployment.pods[0]
    node.faults.register_deployment("f", deployment)
    supervisor = PodSupervisor(
        node, policy=SupervisorPolicy(backoff_base=0.05, restart_cost_mean=0.2)
    )
    supervisor.watch("f", deployment)
    supervisor.start()
    node.faults.arm(crash_plan(at=0.1))
    node.run(until=5.0)
    assert node.counters.get("recovery/crashes_detected") == 1
    assert node.counters.get("recovery/restarts") == 1
    assert node.counters.get("recovery/restored") == 1
    replacements = deployment.servable_pods()
    assert len(replacements) == 1
    assert replacements[0].instance_id != dead.instance_id
    assert len(supervisor.mttr_samples) == 1
    # MTTR includes the backoff plus the modeled cold-start cost.
    assert supervisor.mttr_mean() > 0.05
    assert supervisor.restored_at and supervisor.restored_at[0] > 0.1


def test_supervisor_detects_hang_after_grace():
    node = WorkerNode()
    deployment = make_deployment(node)
    node.faults.register_deployment("f", deployment)
    supervisor = PodSupervisor(
        node, policy=SupervisorPolicy(check_interval=0.1, hang_grace=0.3)
    )
    supervisor.watch("f", deployment)
    supervisor.start()
    node.faults.arm(
        FaultPlan(
            name="hang",
            faults=[FaultSpec(kind=FaultKind.POD_HANG, at=0.1, duration=None)],
        )
    )
    node.run(until=0.35)
    # Inside the grace window a hang is not yet a death.
    assert node.counters.get("recovery/crashes_detected") == 0
    node.run(until=5.0)
    assert node.counters.get("recovery/crashes_detected") == 1
    assert node.counters.get("recovery/restored") == 1


def test_short_hang_recovers_without_restart():
    node = WorkerNode()
    deployment = make_deployment(node)
    node.faults.register_deployment("f", deployment)
    supervisor = PodSupervisor(
        node, policy=SupervisorPolicy(check_interval=0.1, hang_grace=1.0)
    )
    supervisor.watch("f", deployment)
    supervisor.start()
    node.faults.arm(
        FaultPlan(
            name="blip",
            faults=[FaultSpec(kind=FaultKind.POD_HANG, at=0.1, duration=0.2)],
        )
    )
    node.run(until=5.0)
    assert node.counters.get("recovery/crashes_detected") == 0
    assert supervisor.restarts == 0


def test_supervisor_gives_up_past_max_restarts():
    node = WorkerNode()
    deployment = make_deployment(node)
    node.faults.register_deployment("f", deployment)
    supervisor = PodSupervisor(node, policy=SupervisorPolicy(max_restarts=0))
    supervisor.watch("f", deployment)
    supervisor.start()
    node.faults.arm(crash_plan(at=0.1))
    node.run(until=5.0)
    assert node.counters.get("recovery/gave_up") == 1
    assert supervisor.gave_up == 1
    assert node.counters.get("recovery/restarts") == 0
    assert not deployment.servable_pods()


def test_supervisor_runs_are_deterministic():
    def one_run():
        node = WorkerNode()
        deployment = make_deployment(node)
        node.faults.register_deployment("f", deployment)
        supervisor = PodSupervisor(node, policy=SupervisorPolicy())
        supervisor.watch("f", deployment)
        supervisor.start()
        node.faults.arm(crash_plan(at=0.1))
        node.run(until=10.0)
        return supervisor.mttr_samples

    assert one_run() == one_run()


# -- scavenger: orphan reclamation --------------------------------------------------

def test_scavenger_reclaims_only_dead_owner_and_is_idempotent():
    node = WorkerNode()
    pool = SharedMemoryPool("p", "prefix", buffer_size=64, capacity=8)
    sanitizer = PoolSanitizer(counter=node.counters)
    pool.attach_sanitizer(sanitizer)
    scavenger = ShmScavenger(pool, counter=node.counters)

    mine = pool.alloc(site="test/mine")
    also_mine = pool.alloc(site="test/also")
    theirs = pool.alloc(site="test/theirs")
    scavenger.assign(7, mine, token="a")
    scavenger.assign(7, also_mine, token="b")
    scavenger.assign(8, theirs)
    assert scavenger.owned_count(7) == 2 and scavenger.tracked_count == 3

    # One buffer is freed through the normal path before the crash.
    scavenger.release(also_mine)
    pool.free(also_mine)

    generation_before = mine.generation
    reclaimed = scavenger.reclaim(7, site="test/crash")
    assert [token for _handle, token in reclaimed] == ["a"]
    assert node.counters.get("recovery/orphans_reclaimed") == 1
    assert sanitizer.orphan_reclaims == 1
    assert scavenger.reclaim(7) == []  # idempotent
    # The slot generation was bumped: a stale handle faults instead of
    # aliasing the next occupant.
    fresh = pool.alloc(site="test/next")
    if fresh.offset == mine.offset:
        assert fresh.generation > generation_before

    # Only the live owner's buffer remains; no leaks after it goes too.
    scavenger.release(theirs)
    pool.free(theirs)
    pool.free(fresh)
    assert not sanitizer.check_teardown(pool)
    assert pool.in_use_count == 0


def test_scavenger_reassignment_moves_ownership():
    pool = SharedMemoryPool("p", "prefix", buffer_size=64, capacity=4)
    scavenger = ShmScavenger(pool)
    handle = pool.alloc()
    scavenger.assign(1, handle)
    scavenger.assign(2, handle)  # descriptor hopped to the next function
    assert scavenger.owned_count(1) == 0
    assert scavenger.reclaim(1) == []
    assert [h for h, _ in scavenger.reclaim(2)] == [handle]
    assert pool.in_use_count == 0


def test_chain_reclaim_wakes_requester_and_leaves_no_leak():
    node = WorkerNode()
    plane = SSprightDataplane(
        node,
        [FunctionSpec(name="fn-1", service_time=0.05)],
        params=SprightParams(sanitize=True),
    )
    plane.deploy()
    runtime = plane.runtime
    pod = plane.deployments["fn-1"].pods[0]

    request_class = RequestClass(name="t", sequence=["fn-1"], payload_size=4)
    request = Request(request_class=request_class, payload=b"data", created_at=0.0)

    reclaimed_counts = []

    def crash(env):
        # Crash mid-service: the descriptor is parked with (or being burned
        # by) the pod, so its buffer is an orphan the supervisor must pull.
        yield env.timeout(0.01)
        pod.fail()
        yield pod.terminate()
        reclaimed_counts.append(runtime.reclaim_orphans(pod))

    node.env.process(plane.submit(request))
    node.env.process(crash(node.env))
    node.run(until=5.0)
    assert reclaimed_counts == [1]

    assert request.failed and request.error is not None
    assert request.error.kind == "crash"
    assert node.counters.get("recovery/orphans_reclaimed") == 1
    assert runtime.pool.in_use_count == 0
    assert not runtime.sanitizer.check_teardown(runtime.pool)
    assert runtime.sanitizer.orphan_reclaims == 1


def test_chain_reclaim_is_noop_for_buffers_freed_normally():
    node = WorkerNode()
    plane = SSprightDataplane(
        node, [FunctionSpec(name="fn-1")], params=SprightParams(sanitize=True)
    )
    plane.deploy()
    pod = plane.deployments["fn-1"].pods[0]
    request_class = RequestClass(name="t", sequence=["fn-1"], payload_size=4)
    request = Request(request_class=request_class, payload=b"data", created_at=0.0)
    node.env.process(plane.submit(request))
    node.run(until=1.0)
    assert not request.failed
    assert plane.runtime.reclaim_orphans(pod) == 0
    assert node.counters.get("recovery/orphans_reclaimed") == 0


def test_reclaimed_message_descriptor_cannot_reenter_chain():
    node = WorkerNode()
    plane = SSprightDataplane(
        node, [FunctionSpec(name="fn-1")], params=SprightParams(sanitize=True)
    )
    plane.deploy()
    runtime = plane.runtime
    pod = plane.deployments["fn-1"].pods[0]
    handle = runtime.pool.alloc(site="test/manual")
    runtime.pool.write(handle, b"x")
    message = SprightMessage(
        handle=handle, trace=None, request=None, done=Event(node.env)
    )
    runtime.scavenger.assign(pod.instance_id, handle, message)
    assert runtime.reclaim_orphans(pod) == 1
    assert message.freed and message.done.triggered
    assert message.failed_error is not None
    # The freed guard stops the next hop from resurrecting the descriptor.
    sent = list(runtime._send_to_function(None, None, message, "fn-1", None))
    assert not message.in_chain
    assert runtime.pool.in_use_count == 0
    del sent


# -- sockmap re-registration after restart ----------------------------------------

def test_verify_registration_repairs_evicted_sockmap_entry():
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="fn-1")])
    plane.deploy()
    node.run(until=0.01)
    runtime = plane.runtime
    pod = plane.deployments["fn-1"].pods[0]
    assert runtime.verify_registration(pod)  # wired: nothing to repair
    assert node.counters.get("spright/sockmap_repairs") == 0

    runtime.transport.sockmap.delete(pod.instance_id)
    assert runtime.verify_registration(pod)
    assert pod.instance_id in runtime.transport.sockmap
    assert node.counters.get("spright/sockmap_repairs") == 1


def test_verify_registration_rejects_unknown_pod():
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="fn-1")])
    plane.deploy()
    pod = plane.deployments["fn-1"].pods[0]
    pod.fail()

    def driver(env):
        yield pod.terminate()

    node.env.process(driver(node.env))
    node.run(until=1.0)
    assert not plane.runtime.verify_registration(pod)


def test_supervised_restart_rewires_transport_end_to_end():
    node = WorkerNode()
    plane = SSprightDataplane(
        node,
        [FunctionSpec(name="fn-1", service_time=10e-6)],
        params=SprightParams(sanitize=True),
    )
    plane.deploy()
    deployment = plane.deployments["fn-1"]
    node.faults.register_deployment("fn-1", deployment)
    supervisor = PodSupervisor(
        node, policy=SupervisorPolicy(backoff_base=0.05, restart_cost_mean=0.1)
    )
    supervisor.watch(
        "fn-1",
        deployment,
        reclaimer=plane.runtime.reclaim_orphans,
        verifier=plane.runtime.verify_registration,
    )
    supervisor.start()
    node.faults.arm(crash_plan(at=0.05, target="fn-1"))
    node.run(until=5.0)
    assert node.counters.get("recovery/restored") == 1
    replacement = deployment.servable_pods()[0]
    assert replacement.instance_id in plane.runtime.transport.sockmap
    # The replacement serves traffic through the repaired plumbing.
    request_class = RequestClass(name="t", sequence=["fn-1"], payload_size=4)
    request = Request(
        request_class=request_class, payload=b"ping", created_at=node.env.now
    )
    node.env.process(plane.submit(request))
    node.run(until=6.0)
    assert request.response == b"ping"
    assert plane.runtime.pool.in_use_count == 0


# -- admission control --------------------------------------------------------------

def classed_request(name="c", priority=1, entry="frontend"):
    return Request(
        request_class=RequestClass(
            name=name, sequence=[entry], payload_size=8, priority=priority
        ),
        payload=b"x" * 8,
        created_at=0.0,
    )


def test_queue_limit_bounds_in_flight_per_entry():
    node = WorkerNode()
    controller = AdmissionController(
        node.env, AdmissionPolicy(queue_limit=2), counter=node.counters, scope="gw"
    )
    first, second, third = (classed_request() for _ in range(3))
    assert controller.try_admit(first) is None
    assert controller.try_admit(second) is None
    shed = controller.try_admit(third)
    assert isinstance(shed, ShedError)
    assert shed.kind == "shed" and not shed.retryable
    assert controller.in_flight("frontend") == 2
    assert node.counters.get("recovery/shed") == 1
    assert node.counters.get("recovery/shed/c") == 1
    controller.on_done(first)
    assert controller.try_admit(classed_request()) is None
    # Other entry functions have their own bound.
    assert controller.try_admit(classed_request(entry="checkout")) is None


def test_on_done_for_shed_request_holds_no_slot():
    node = WorkerNode()
    controller = AdmissionController(node.env, AdmissionPolicy(queue_limit=1))
    admitted = classed_request()
    rejected = classed_request()
    assert controller.try_admit(admitted) is None
    assert controller.try_admit(rejected) is not None
    controller.on_done(rejected)  # must not decrement the admitted slot
    assert controller.in_flight("frontend") == 1


def test_token_bucket_rate_limits_deterministically():
    node = WorkerNode()
    controller = AdmissionController(
        node.env, AdmissionPolicy(rate_limit=10.0, burst=2.0)
    )
    assert controller.try_admit(classed_request()) is None
    assert controller.try_admit(classed_request()) is None
    assert isinstance(controller.try_admit(classed_request()), ShedError)
    node.env._now = 0.1  # one token refilled at 10/s
    assert controller.try_admit(classed_request()) is None
    assert isinstance(controller.try_admit(classed_request()), ShedError)


def test_codel_degrades_and_sheds_lowest_priority_first():
    node = WorkerNode()
    policy = AdmissionPolicy(
        target_delay=0.01, delay_window=0.5, max_degrade_level=2
    )
    controller = AdmissionController(
        node.env, policy, counter=node.counters, scope="gw"
    )
    # A bad window: even the minimum sojourn exceeds the target.
    slow = classed_request()
    assert controller.try_admit(slow) is None
    node.env._now = 0.6
    controller.on_done(slow)
    assert controller.degrade_level == 1
    assert node.counters.get("recovery/degrade_ups") == 1

    # Priority 0 is shed first; higher tiers still flow.
    bulk = classed_request(name="bulk", priority=0)
    shed = controller.try_admit(bulk)
    assert isinstance(shed, ShedError) and "degradation" in str(shed)
    assert controller.try_admit(classed_request(name="mid", priority=1)) is None
    assert node.counters.get("recovery/shed/bulk") == 1

    # A good window de-escalates one level at a time.
    quick = classed_request()
    controller.try_admit(quick)
    node.env._now = 0.605
    controller.on_done(quick)  # window still open: no decision yet
    assert controller.degrade_level == 1
    late = classed_request()
    controller.try_admit(late)
    node.env._now = 1.2
    controller._observe_sojourn(0.001)
    assert controller.degrade_level == 0
    assert node.counters.get("recovery/degrade_downs") == 1


def test_codel_escalation_respects_max_degrade_level():
    node = WorkerNode()
    controller = AdmissionController(
        node.env, AdmissionPolicy(target_delay=0.001, max_degrade_level=1)
    )
    for round_index in range(1, 4):
        request = classed_request()
        controller.try_admit(request)
        node.env._now = round_index * 0.6
        controller.on_done(request)
    assert controller.degrade_level == 1  # capped


def test_plane_submit_sheds_with_typed_error_and_counter():
    node = WorkerNode()
    plane = SSprightDataplane(
        node,
        [FunctionSpec(name="fn-1", service_time=0.01)],
        params=SprightParams(sanitize=True),
    )
    plane.deploy()
    plane.use_admission(AdmissionPolicy(queue_limit=1))
    request_class = RequestClass(name="t", sequence=["fn-1"], payload_size=4)
    requests = [
        Request(request_class=request_class, payload=b"data", created_at=0.0)
        for _ in range(3)
    ]
    for request in requests:
        node.env.process(plane.submit(request))
    node.run(until=5.0)
    outcomes = [request.error.kind if request.failed else "ok" for request in requests]
    assert outcomes.count("shed") == 2 and outcomes.count("ok") == 1
    shed_requests = [r for r in requests if r.failed]
    assert all(r.completed_at is not None for r in shed_requests)
    assert node.counters.get("sspright/shed") == 2
    assert node.counters.get("recovery/shed") == 2
    assert plane.admission.in_flight("fn-1") == 0  # every admit was paired
    assert plane.runtime.pool.in_use_count == 0    # sheds never touched the pool


# -- byte-identity: disarmed recovery is free --------------------------------------

def boutique_latencies(**kwargs):
    from repro.experiments.common import build_closed_loop
    from repro.workloads import boutique

    result = build_closed_loop(
        "s-spright",
        boutique.spright_functions(),
        boutique.request_classes(),
        concurrency=16,
        duration=2.0,
        scale=0.05,
        **kwargs,
    ).finish()
    return result.recorder.latencies("")


def test_disarmed_recovery_is_byte_identical():
    baseline = boutique_latencies()
    inert = boutique_latencies(admission=AdmissionPolicy(), recovery=None)
    assert baseline == inert


def test_attached_supervisor_without_faults_is_byte_identical():
    # The supervisor's sweep finds nothing: no RNG draws, no counters, and
    # the latency stream is untouched.
    baseline = boutique_latencies()
    watched = boutique_latencies(recovery=SupervisorPolicy())
    assert baseline == watched


def test_motion_disarmed_recovery_is_byte_identical():
    from repro.experiments.motion_exp import run_motion

    baseline = run_motion("s-spright", duration=200.0)
    inert = run_motion("s-spright", duration=200.0, admission=AdmissionPolicy())
    assert baseline.recorder.latencies("") == inert.recorder.latencies("")


def test_audit_tables_unchanged_by_recovery_import():
    from repro.experiments import audits

    report = audits.format_report()
    assert "Kn total" in report and "SP total" in report
    assert "15" in report and "25" in report


def test_crash_storm_plan_registered_and_permanent():
    plan = load_plan("crash-storm")
    assert plan.name == "crash-storm"
    assert len(plan.faults) == 4
    assert all(spec.kind is FaultKind.POD_CRASH for spec in plan.faults)
    assert all(spec.duration is None for spec in plan.faults)


# -- end-to-end: crash storm leaves a healed, leak-free chain ----------------------

def test_recovery_boutique_smoke_heals_and_leaks_nothing():
    from repro.experiments import recovery_exp

    result = recovery_exp.run_recovery_boutique(
        "s-spright", scale=0.01, duration=7.0, drain=4.0
    )
    # Crashes at 2 s and 5 s land inside the 7 s horizon.
    assert result.crashes_detected >= 2
    assert result.restored == result.restarts >= 2
    assert result.mttr_mean_s > 0.0
    assert result.leaked_slots == 0
    assert result.completed > 0
    assert result.orphans_reclaimed == result.sanitizer_orphans


def test_crash_storm_availability_table_matches_golden():
    """The CI crash-storm run, pinned byte for byte: sent, goodput, MTTR,
    orphans, leaked slots and the during/after tail latencies."""
    from pathlib import Path

    from repro.experiments import recovery_exp

    result = recovery_exp.run_recovery_boutique("s-spright", scale=0.02, duration=14.0)
    golden = Path(__file__).parent / "goldens" / "recovery-crash-storm.txt"
    table = recovery_exp.format_availability_table([result])
    assert table + "\n" == golden.read_text()
