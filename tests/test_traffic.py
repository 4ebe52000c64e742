"""Traffic subsystem: determinism, parallel identity, DES reconciliation.

The load-bearing properties:

* same seed => byte-identical arrival traces and keep-alive decisions
  (hypothesis, across seeds and source kinds);
* the multiprocessing fleet runner's merged output is identical to the
  serial run (the CI ``traffic-smoke`` job re-asserts this end to end);
* a DES run's ``autoscale/*`` cold-start counters reconcile *exactly* with
  its deployments and its plane's own cold-start counter;
* the §4.2.2 acceptance story: S-SPRIGHT keeps pods warm for free while
  Knative pays in cold starts or idle sidecar CPU.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import traffic_exp
from repro.experiments.common import build_plane, make_node
from repro.runtime import Autoscaler, AutoscalerPolicy, Kubelet, MetricsServer
from repro.stats import LatencyRecorder
from repro.traffic import (
    PLANE_PROFILES,
    CellSpec,
    EconomicsLedger,
    FixedWindowKeepAlive,
    FleetParams,
    HeavyTailSource,
    HistogramKeepAlive,
    KpaKeepAlive,
    MmppSource,
    ModulatedSource,
    PinnedKeepAlive,
    SloPolicy,
    SyntheticFleet,
    build_specs,
    make_policy,
    run_cells,
    simulate_cell,
    zipf_weights,
)
from repro.workloads import OpenLoopGenerator, TraceEvent
from repro.workloads.motion import (
    MotionTraceParams,
    motion_functions,
    motion_request_class,
    synthesize_motion_trace,
)


# --- arrival sources ---------------------------------------------------------


def _sources(seed: int):
    heavy = HeavyTailSource(mean_gap=3.0, duration=1800.0, seed=seed)
    return [
        MmppSource(low_rate=0.1, high_rate=4.0, duration=1800.0, seed=seed),
        heavy,
        ModulatedSource(heavy, lambda t: 0.5 + t / 3600.0, seed=seed),
    ]


def _trace(source):
    """The exact (time, fn) reprs of a source's arrivals."""
    return [(repr(arrival.time), arrival.fn) for arrival in source.events()]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sources_byte_identical_for_same_seed(seed):
    """Same seed => byte-identical trace, across repeats and fresh objects."""
    for first, second in zip(_sources(seed), _sources(seed)):
        trace = _trace(first)
        assert trace == _trace(first)  # restartable iteration
        assert trace == _trace(second)  # fresh instance


def test_sources_diverge_across_seeds_and_names():
    base = HeavyTailSource(mean_gap=1.0, duration=600.0, seed=1)
    other_seed = HeavyTailSource(mean_gap=1.0, duration=600.0, seed=2)
    other_name = HeavyTailSource(mean_gap=1.0, duration=600.0, seed=1, name="other")
    assert _trace(base) != _trace(other_seed)
    assert _trace(base) != _trace(other_name)


def test_sources_monotone_and_bounded():
    for source in _sources(7):
        last = 0.0
        for arrival in source.events():
            assert arrival.time >= last
            assert 0.0 <= arrival.time <= 1800.0
            last = arrival.time


def test_zipf_weights_normalized_and_skewed():
    weights = zipf_weights(16, s=1.1)
    assert len(weights) == 16
    assert abs(sum(weights) - 1.0) < 1e-12
    assert weights == sorted(weights, reverse=True)
    assert weights[0] > 4 * weights[-1]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), pattern=st.sampled_from(
    ["flat", "diurnal", "bursty"]
))
def test_fleet_trace_deterministic(seed, pattern):
    params = FleetParams(
        functions=4, duration=3600.0, total_rate=0.3, seed=seed, pattern=pattern
    )
    for index in range(params.functions):
        first = _trace(SyntheticFleet(params).source(index))
        assert first == _trace(SyntheticFleet(params).source(index))
        times = [float(t) for t, _ in first]
        assert times == sorted(times)


def test_fleet_params_validation():
    with pytest.raises(ValueError):
        FleetParams(functions=0)
    with pytest.raises(ValueError):
        FleetParams(total_rate=-1.0)
    with pytest.raises(ValueError):
        FleetParams(pattern="weekly")


# --- keep-alive policies -----------------------------------------------------


def _drive_policy(policy, seed: int, gaps: int = 200):
    rng = random.Random(seed)
    t = 0.0
    for _ in range(gaps):
        gap = rng.expovariate(1.0 / 40.0)
        policy.observe_gap("fn", gap)
        t += gap
        policy.plan_after("fn", t)
    return policy.decision_digest()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_keepalive_decisions_byte_identical(seed):
    for make in (
        lambda: FixedWindowKeepAlive(window=120.0),
        lambda: KpaKeepAlive(grace_period=30.0),
        lambda: HistogramKeepAlive(min_samples=4),
        lambda: PinnedKeepAlive(),
    ):
        assert _drive_policy(make(), seed) == _drive_policy(make(), seed)


def test_fixed_window_plan():
    plan = FixedWindowKeepAlive(window=300.0).plan_after("fn", 100.0)
    assert plan.warm_until == 400.0
    assert plan.is_warm_at(399.9) and not plan.is_warm_at(400.1)


def test_kpa_plan_is_tick_quantized():
    policy = KpaKeepAlive(grace_period=30.0, tick_interval=2.0)
    plan = policy.plan_after("fn", 11.3)
    assert plan.warm_until == 42.0  # ceil((11.3 + 30) / 2) * 2
    assert plan.warm_until % policy.tick_interval == 0


def test_histogram_falls_back_then_predicts():
    policy = HistogramKeepAlive(min_samples=8, fallback_window=600.0, linger=10.0)
    early = policy.plan_after("fn", 0.0)
    assert early.warm_until == 600.0  # not enough history: fixed fallback
    for _ in range(50):
        policy.observe_gap("fn", 100.0)  # regular minute-and-a-bit gaps
    learned = policy.plan_after("fn", 1000.0)
    # Long predictable gap: linger briefly, then pre-warm just before the
    # predicted next arrival instead of staying warm the whole time.
    assert learned.warm_until < 1000.0 + 100.0
    assert learned.prewarm_at is not None and learned.prewarm_until is not None
    assert 1000.0 < learned.prewarm_at < learned.prewarm_until
    assert learned.prewarm_until >= 1000.0 + 100.0


def test_pinned_never_scales_to_zero():
    policy = PinnedKeepAlive(min_scale=2)
    assert policy.min_warm("fn") == 2
    plan = policy.plan_after("fn", 5.0)
    assert plan.is_warm_at(10.0**9)


def test_make_policy_rejects_unknown():
    with pytest.raises(KeyError):
        make_policy("lru")
    assert isinstance(make_policy("histogram"), HistogramKeepAlive)


def test_warm_plan_idle_accounting():
    from repro.traffic.keepalive import WarmPlan

    plan = WarmPlan(warm_until=100.0)
    assert plan.warm_idle_seconds(40.0, 80.0) == 40.0  # next arrival cuts it
    assert plan.warm_idle_seconds(40.0, 500.0) == 60.0  # window cuts it
    prewarmed = WarmPlan(warm_until=50.0, prewarm_at=90.0, prewarm_until=120.0)
    # 10 s of tail window + the prewarm pod idling until the arrival at 110.
    assert prewarmed.warm_idle_seconds(40.0, 110.0) == 10.0 + 20.0


# --- fleet runner ------------------------------------------------------------


def _small_specs():
    fleet = FleetParams(functions=5, duration=7200.0, total_rate=0.4, seed=9)
    return build_specs(
        ["knative", "s-spright"], ["kpa", "pinned"], fleet, patterns=("bursty",)
    )


def test_parallel_run_identical_to_serial():
    specs = _small_specs()
    serial = run_cells(specs, processes=1)
    parallel = run_cells(specs, processes=2)
    assert [r.digest() for r in serial] == [r.digest() for r in parallel]
    lab_s = traffic_exp.TrafficLab(results=serial)
    lab_p = traffic_exp.TrafficLab(results=parallel)
    assert traffic_exp.format_traffic_table(lab_s) == traffic_exp.format_traffic_table(
        lab_p
    )


def test_cell_is_deterministic_and_policy_sensitive():
    specs = _small_specs()
    again = simulate_cell(specs[0])
    assert again.digest() == run_cells([specs[0]])[0].digest()
    digests = {r.digest() for r in run_cells(specs)}
    assert len(digests) == len(specs)  # every (plane, policy) cell differs


def test_acceptance_spright_warm_pod_advantage():
    """§4.2.2 at fleet scale: warm pods are free only on S-SPRIGHT."""
    lab = traffic_exp.run_traffic_lab(
        planes=("knative", "s-spright"),
        policies=("kpa", "pinned"),
        patterns=("bursty",),
        functions=6,
        duration=7200.0,
        total_rate=0.5,
        seed=3,
    )
    kn_kpa = lab.cell("bursty", "knative", "kpa")
    kn_pin = lab.cell("bursty", "knative", "pinned")
    sp_pin = lab.cell("bursty", "s-spright", "pinned")
    assert kn_kpa.cold_starts > 0  # scale-to-zero pays in cold starts
    assert kn_pin.wasted_warm_cpu_s > 0  # always-warm pays in sidecar CPU
    assert sp_pin.cold_starts == 0
    assert sp_pin.wasted_warm_cpu_s == 0  # event-driven pods idle for free
    assert sp_pin.slo_attainment >= kn_kpa.slo_attainment
    assert sp_pin.wasted_warm_cpu_s < kn_pin.wasted_warm_cpu_s
    # Economics are published under traffic/<pattern>/<plane>/<policy>/*.
    assert (
        lab.registry.counter(
            "traffic/bursty/s-spright/pinned/total/cold_starts"
        ).value
        == 0
    )
    assert (
        lab.registry.counter("traffic/bursty/knative/kpa/total/cold_starts").value
        == kn_kpa.cold_starts
    )


def test_histogram_beats_kpa_on_bursty_traffic():
    """The hybrid-histogram predictor avoids most of KPA's cold starts."""
    lab = traffic_exp.run_traffic_lab(
        planes=("knative",),
        policies=("kpa", "histogram"),
        patterns=("bursty",),
        functions=6,
        duration=14400.0,
        total_rate=0.5,
        seed=3,
    )
    kpa = lab.cell("bursty", "knative", "kpa")
    hist = lab.cell("bursty", "knative", "histogram")
    assert hist.cold_starts < kpa.cold_starts / 2
    assert hist.slo_attainment > kpa.slo_attainment


def test_cell_spec_validation():
    fleet = FleetParams(functions=2, duration=600.0)
    with pytest.raises(ValueError):
        CellSpec(plane="istio", policy="kpa", fleet=fleet)
    with pytest.raises(ValueError):
        CellSpec(plane="knative", policy="lru", fleet=fleet)
    with pytest.raises(ValueError):
        run_cells(build_specs(["knative"], ["kpa"], fleet), processes=0)


# --- economics ledger --------------------------------------------------------


def test_ledger_merge_matches_single_ledger():
    slo = SloPolicy(threshold_s=0.1)
    whole, left, right = (EconomicsLedger(slo=slo) for _ in range(3))
    for index in range(100):
        shard = left if index % 2 else right
        for ledger in (whole, shard):
            ledger.record_request(
                f"fn-{index % 3}", 0.05 if index % 4 else 0.5, cold=index % 5 == 0,
                penalty_s=0.4,
            )
            ledger.record_warm_idle(f"fn-{index % 3}", 1.5, idle_cpu_frac=0.05)
    left.merge(right)
    merged, direct = left.total(), whole.total()
    assert (merged.requests, merged.cold_starts, merged.warm_starts, merged.slo_hits) == (
        direct.requests,
        direct.cold_starts,
        direct.warm_starts,
        direct.slo_hits,
    )
    # Float fields accumulate in different orders across shards.
    assert merged.cold_penalty_s == pytest.approx(direct.cold_penalty_s)
    assert merged.wasted_warm_pod_s == pytest.approx(direct.wasted_warm_pod_s)
    assert merged.wasted_warm_cpu_s == pytest.approx(direct.wasted_warm_cpu_s)
    assert left.slo_attainment() == whole.slo_attainment()


# --- DES integration ---------------------------------------------------------


def _motion_des(duration=400.0, seed=2022):
    """A Fig-11-style Knative run with scale-to-zero."""
    node = make_node(seed=seed)
    functions = motion_functions(min_scale=0)
    kubelet = Kubelet(node, cold_start_enabled=True, termination_lag=30.0)
    metrics = MetricsServer(registry=node.obs.registry)
    plane = build_plane(
        "knative", node, functions, kubelet=kubelet, metrics_server=metrics
    )
    autoscaler = Autoscaler(node, metrics)
    for deployment in plane.deployments.values():
        autoscaler.register(
            deployment, AutoscalerPolicy(scale_to_zero=True, grace_period=30.0)
        )
    autoscaler.start()
    recorder = LatencyRecorder()
    trace = synthesize_motion_trace(node, MotionTraceParams(duration=duration))
    generator = OpenLoopGenerator(node, plane, trace, recorder)
    generator.start()
    node.run(until=duration)
    return node, plane


def test_des_traffic_reconciles_with_autoscale_metrics():
    node, plane = _motion_des()
    registry = node.obs.registry
    total_cold = 0
    for name, deployment in plane.deployments.items():
        autoscale_cold = registry.counter(f"autoscale/{name}/cold_starts").value
        assert autoscale_cold == deployment.cold_starts
        total_cold += autoscale_cold
    # The per-function control-plane counters add up to the dataplane's own
    # cold-start total: one scale-from-zero wait == one counted cold start.
    assert total_cold == node.counters.get(f"{plane.plane}/cold_starts")
    assert total_cold > 0  # the motion trace's idle gaps do trigger them
    # Idle warm capacity is integrated on the tick grid as gauges.
    assert any(
        registry.gauge(f"autoscale/{name}/idle_pod_seconds").value > 0
        for name in plane.deployments
    )


# --- open loop ---------------------------------------------------------------


def _open_loop_setup(seed=2022):
    node = make_node(seed=seed)
    functions = motion_functions(min_scale=1)
    kubelet = Kubelet(node, cold_start_enabled=False, termination_lag=0.0)
    metrics = MetricsServer(registry=node.obs.registry)
    plane = build_plane(
        "s-spright", node, functions, kubelet=kubelet, metrics_server=metrics
    )
    return node, plane


def test_open_loop_list_path_unchanged():
    node, plane = _open_loop_setup()
    events = [
        TraceEvent(time=t, request_class=motion_request_class())
        for t in (2.0, 0.5, 1.0)  # deliberately unsorted: lists get sorted
    ]
    generator = OpenLoopGenerator(node, plane, events, recorder=LatencyRecorder())
    assert [event.time for event in generator.trace] == [0.5, 1.0, 2.0]
    generator.start()
    node.run(until=10.0)
    assert generator.submitted == 3


# --- plane profiles ----------------------------------------------------------


def test_plane_profiles_encode_the_papers_cost_story():
    assert set(PLANE_PROFILES) == {"knative", "grpc", "s-spright", "d-spright"}
    s = PLANE_PROFILES["s-spright"]
    d = PLANE_PROFILES["d-spright"]
    kn = PLANE_PROFILES["knative"]
    assert s.idle_pod_cpu_frac == 0.0  # event-driven: idle pods are free
    assert d.idle_pod_cpu_frac == 1.0  # polling: a spinning core per pod
    assert 0 < kn.idle_pod_cpu_frac < 1  # sidecar burn
    assert kn.per_request_overhead > s.per_request_overhead  # §3.2.2 bands


# --- byte-identity guard -----------------------------------------------------


def test_tables_match_pre_traffic_golden():
    """Tables 1/2 are byte-identical to the golden captured before the
    traffic subsystem existed — its hooks must be inert when unused.
    (CI's traffic-smoke job extends this guard to Fig 11 and Figs 9/10.)"""
    from pathlib import Path

    from repro.experiments import audits

    golden = Path(__file__).parent / "goldens" / "tables.txt"
    assert audits.format_report() + "\n" == golden.read_text()
