"""Tests for health probing and vertical scaling."""

from repro.dataplane import SSprightDataplane
from repro.runtime import (
    FunctionSpec,
    HealthProber,
    Kubelet,
    ProbePolicy,
    VerticalPodScaler,
    VerticalScalePolicy,
    WorkerNode,
)


# -- health probing ----------------------------------------------------------------

def make_probed_deployment(interval=1.0):
    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(
        FunctionSpec(name="f", min_scale=2, max_scale=4), "t/fn/f"
    )
    deployment.scale_to(2)
    prober = HealthProber(
        node, ProbePolicy(interval=interval, failure_threshold=2)
    )
    prober.watch(deployment)
    prober.start()
    node.run(until=0.01)
    return node, deployment, prober


def test_prober_keeps_healthy_pods_servable():
    node, deployment, prober = make_probed_deployment()
    node.run(until=10.0)
    assert prober.probes_sent > 0
    assert prober.pods_marked_down == 0
    assert len(deployment.servable_pods()) == 2


def test_failed_pod_leaves_rotation_and_recovers():
    node, deployment, prober = make_probed_deployment()
    victim = deployment.servable_pods()[0]

    def inject(env):
        yield env.timeout(2.0)
        victim.fail()
        yield env.timeout(10.0)
        victim.recover()  # fault clears; prober confirms

    node.env.process(inject(node.env))
    node.run(until=5.0)
    assert not victim.is_servable
    assert victim not in deployment.servable_pods()
    assert prober.pods_marked_down == 1
    node.run(until=20.0)
    assert victim.is_servable


def test_failed_pod_excluded_from_dfr_routing():
    node = WorkerNode()
    plane = SSprightDataplane(
        node,
        [FunctionSpec(name="f", service_time=10e-6, min_scale=2, max_scale=2)],
    )
    plane.deploy()
    node.run(until=0.01)
    pods = plane.deployments["f"].servable_pods()
    pods[0].fail()
    picks = {plane.runtime.routing.pick_instance("f").instance_id for _ in range(10)}
    assert picks == {pods[1].instance_id}


# -- vertical scaling --------------------------------------------------------------

def test_vertical_scaler_grows_saturated_pod():
    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    deployment = kubelet.deployment(
        FunctionSpec(name="f", concurrency=8, min_scale=1), "t/fn/f"
    )
    deployment.scale_to(1)
    node.run(until=0.01)
    pod = deployment.servable_pods()[0]
    scaler = VerticalPodScaler(
        node, VerticalScalePolicy(tick_interval=1.0, step=8, min_concurrency=8)
    )
    scaler.watch(deployment)
    scaler.start()
    pod.in_flight = 8  # saturated
    node.run(until=2.5)
    assert scaler.scale_ups >= 1
    assert scaler.capacity_of(pod) > 8
    pod.in_flight = 0  # idle again
    node.run(until=10.0)
    assert scaler.scale_downs >= 1
    assert scaler.capacity_of(pod) == 8


def test_pod_resize_unblocks_waiters():
    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(
        FunctionSpec(name="f", service_time=0.05, service_time_cv=0.0, concurrency=1),
        cpu_tag="t/fn/f",
    )
    done = []

    def client(env, name):
        yield pod.ready
        yield env.process(pod.serve(b"x"))
        done.append((name, round(env.now, 3)))

    node.env.process(client(node.env, "a"))
    node.env.process(client(node.env, "b"))

    def grow(env):
        yield env.timeout(0.01)
        pod.resize(2)  # second request now runs concurrently

    node.env.process(grow(node.env))
    node.run(until=1.0)
    assert len(done) == 2
    # Both finished near t=0.05/0.06, not serialized to 0.10.
    assert done[1][1] < 0.09
