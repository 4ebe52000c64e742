"""End-to-end cluster dataplane runs: hops, identity guards, λ-NIC, and
composition with the shared Dataplane request path."""

from pathlib import Path

from repro import obs
from repro.dataplane import Dataplane, Request, RequestClass, ShedError
from repro.experiments import audits, cluster_exp
from repro.experiments.cluster_exp import run_cluster_case
from repro.faults import FaultKind, FaultPlan, FaultSpec, ResiliencePolicy, load_plan
from repro.recovery import AdmissionPolicy
from repro.runtime import ChainSpec, FunctionSpec


def _small(plane, policy, nodes, **kwargs):
    kwargs.setdefault("duration", 0.4)
    kwargs.setdefault("concurrency", 8)
    return run_cluster_case(plane, policy, nodes, **kwargs)


def test_every_plane_completes_with_engineered_hops_and_no_leaks():
    for plane in cluster_exp.ALL_PLANES:
        run = _small(plane, "chain_locality", 3)
        assert run.recorder.count("") > 0, plane
        assert run.hops_per_request == 3.0, plane
        assert run.leaked_slots == 0, plane


def test_policy_hop_counts_match_placement_geometry():
    hops = {
        policy: _small("s-spright", policy, 3).hops_per_request
        for policy in ("chain_locality", "bin_pack", "spread")
    }
    assert hops == {"chain_locality": 3.0, "bin_pack": 4.0, "spread": 6.0}


def test_chain_locality_beats_spread_on_p99_for_s_spright():
    locality = _small("s-spright", "chain_locality", 3, duration=0.6)
    spread = _small("s-spright", "spread", 3, duration=0.6)
    assert locality.p99_ms < spread.p99_ms
    assert locality.rps > spread.rps


def test_cross_node_counters_land_on_the_sending_node():
    run = _small("grpc", "spread", 3)
    fabric = run.dataplane.fabric
    per_node_hops = sum(
        node.counters.as_dict().get("cluster/xnode_hops", 0)
        for node in fabric.nodes.values()
    )
    assert per_node_hops == fabric.xnode_hops > 0
    link_bytes = {
        name: value
        for node in fabric.nodes.values()
        for name, value in node.counters.as_dict().items()
        if name.startswith("cluster/") and name.endswith("/bytes")
    }
    assert link_bytes  # per-link byte counters exist
    assert sum(link_bytes.values()) == fabric.bytes_moved


# --- satellite (a): single-node byte-identity guard -------------------------


def test_single_node_cluster_keeps_goldens_byte_identical():
    """A 1-node chain_locality cluster is the degenerate case: zero
    cross-node hops, and — because node 0 keeps the exact root seed and the
    cluster stack shares no state with the single-node pipeline — running
    it must leave the audited tables byte-identical to the golden."""
    run = _small("s-spright", "chain_locality", 1)
    assert run.hops_per_request == 0.0
    assert run.dataplane.fabric.xnode_hops == 0
    assert run.leaked_slots == 0
    golden = Path(__file__).parent / "goldens" / "tables.txt"
    assert audits.format_report() + "\n" == golden.read_text()


# --- satellite (c): tracing is an observer, not a participant ---------------


def test_traced_multinode_run_is_byte_identical_to_untraced():
    kwargs = dict(duration=0.4, concurrency=8)
    untraced = run_cluster_case("s-spright", "bin_pack", 3, **kwargs)
    obs.set_default_observe(trace=True)
    try:
        traced = run_cluster_case("s-spright", "bin_pack", 3, **kwargs)
    finally:
        obs.set_default_observe(trace=False)
        obs.reset_sessions()

    assert traced.recorder.count("") == untraced.recorder.count("")
    assert traced.recorder.summary("").p99 == untraced.recorder.summary("").p99
    for name, node in untraced.dataplane.fabric.nodes.items():
        twin = traced.dataplane.fabric.nodes[name]
        assert twin.counters.as_dict() == node.counters.as_dict(), name

    tracer = traced.dataplane.ingress_node.obs.tracer
    assert tracer is not None
    legs = [s for s in tracer.spans if s.name == "leg:xnode"]
    assert legs, "cross-node legs should open spans when traced"
    assert all(s.end is not None for s in legs)
    assert {s.attrs["protocol"] for s in legs} == {"grpc"}


# --- λ-NIC offload plane ----------------------------------------------------


def test_lambda_nic_entry_path_skips_the_host():
    host = _small(
        "s-spright",
        "chain_locality",
        1,
        chain_factory=cluster_exp.short_chain,
        duration=0.5,
    )
    nic = _small(
        "lambda-nic",
        "chain_locality",
        1,
        chain_factory=cluster_exp.short_chain,
        duration=0.5,
    )
    assert nic.dataplane.offloaded > 0
    assert nic.nic_cores > 0.0
    assert nic.host_cpu_percent < max(10.0, 0.1 * host.host_cpu_percent)
    assert nic.p99_ms < host.p99_ms


def test_lambda_nic_heavy_function_falls_back_to_host_pods():
    run = _small("lambda-nic", "chain_locality", 3)
    # The 200 µs f4 is over the NIC ceiling: every request touches a host
    # pod for it, while the short functions ride the NIC.
    assert run.dataplane.offloaded > 0
    assert run.dataplane.host_serves >= run.recorder.count("")
    assert run.leaked_slots == 0


# --- composition: the cluster plane is a Dataplane ---------------------------


def _cluster(plane="s-spright", policy="chain_locality", nodes=3, chain=None):
    chain_factory = (lambda: chain) if chain else cluster_exp.mixed_chain
    return cluster_exp.build_cluster_plane(
        plane, policy, nodes, chain_factory=chain_factory
    )


def _closed_loop(dataplane, users, duration=0.3, drain=0.5, think=0.0007):
    """Drive ``users`` closed-loop clients; return every finished request."""
    env = dataplane.node.env
    request_class = RequestClass("seq", sequence=dataplane.chain.function_names)
    finished = []

    def user():
        while env.now < duration:
            request = Request(
                request_class=request_class, payload=b"x" * 256, created_at=env.now
            )
            yield env.process(dataplane.submit(request))
            finished.append(request)
            yield env.timeout(think)

    for _ in range(users):
        env.process(user())
    env.run(until=duration + drain)
    dataplane.teardown()
    return finished


def _counter(node, name):
    return node.counters.as_dict().get(name, 0)


def test_cluster_plane_is_a_dataplane():
    dataplane = _cluster()
    assert isinstance(dataplane, Dataplane)
    assert dataplane.node is dataplane.ingress_node
    assert set(dataplane.deployments) == set(dataplane.chain.function_names)


def test_admission_sheds_at_the_cluster_front_door():
    dataplane = _cluster()
    dataplane.use_admission(AdmissionPolicy(queue_limit=8))
    finished = _closed_loop(dataplane, users=64)
    shed = [r for r in finished if r.failed]
    assert _counter(dataplane.node, "xc-sspright/shed") == len(shed) > 0
    assert all(isinstance(r.error, ShedError) for r in shed)
    assert any(not r.failed for r in finished)
    assert dataplane.leaked_slots() == 0


def test_lossy_cluster_fails_without_policy_and_recovers_with_retries():
    def run(policy):
        dataplane = _cluster()
        for node in dataplane.fabric.nodes.values():
            node.faults.arm(load_plan("lossy"))
        if policy is not None:
            dataplane.use_resilience(policy)
        return dataplane, _closed_loop(dataplane, users=16)

    bare, bare_finished = run(None)
    assert _counter(bare.node, "faults/failed/drop") > 0
    assert any(r.failed for r in bare_finished)

    resilient, finished = run(ResiliencePolicy(timeout=0.05, retries=2))
    assert finished and not any(r.failed for r in finished)
    assert _counter(resilient.node, "faults/resilience/retry") > 0
    assert resilient.leaked_slots() == 0


def test_pod_crash_on_a_cluster_node_finds_its_target():
    dataplane = _cluster()
    dataplane.use_resilience(ResiliencePolicy(timeout=0.05, retries=2))
    host = dataplane.fabric.nodes[dataplane.placement.node_of("f4")]
    host.faults.arm(
        FaultPlan(
            "f4-crash",
            [FaultSpec(kind=FaultKind.POD_CRASH, at=0.1, duration=0.05, target="f4")],
        )
    )
    finished = _closed_loop(dataplane, users=16)
    assert _counter(host, "faults/injected/pod_crash") == 1
    assert _counter(host, "faults/injected/no_target") == 0
    assert _counter(dataplane.node, "faults/resilience/retry") > 0
    assert any(not r.failed for r in finished)
    assert dataplane.leaked_slots() == 0


# --- pod health on the cluster path ------------------------------------------


def test_select_pod_skips_a_failed_replica_and_requests_complete():
    """One replica of a two-pod function fails: neither picker (residual on
    the SPRIGHT planes, round robin on the baselines) ever returns it, and
    the chain keeps serving through the surviving replica."""
    for plane in ("s-spright", "grpc"):
        chain = ChainSpec(
            "health",
            [FunctionSpec("front", 30e-6, min_scale=2), FunctionSpec("back", 30e-6)],
        )
        dataplane = _cluster(plane, "spread", nodes=2, chain=chain)
        dataplane.node.env.run(until=0.01)
        deployment = dataplane.deployments["front"]
        victim, survivor = deployment.servable_pods()
        victim.fail()
        picks = {dataplane.select_pod(deployment) for _ in range(8)}
        assert picks == {survivor}, plane
        served_before = victim.served
        finished = _closed_loop(dataplane, users=4, duration=0.1)
        assert finished and not any(r.failed for r in finished), plane
        assert victim.served == served_before, plane
        assert survivor.served > 0, plane
