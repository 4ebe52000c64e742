"""Tests for workload definitions: boutique (Table 3), motion, parking."""

import json

import pytest

from repro.runtime import WorkerNode
from repro.workloads import ClosedLoopGenerator, WeightedMix, make_payload
from repro.workloads import boutique, motion, parking
from repro.workloads.generators import OpenLoopGenerator, TraceEvent
from repro.workloads.motion import MotionTraceParams, synthesize_motion_trace
from repro.workloads.parking import (
    ParkingTraceParams,
    make_snapshot,
    next_burst_times,
    synthesize_parking_trace,
)


# -- boutique ------------------------------------------------------------------

def test_table3_sequences_match_paper():
    classes = {cls.name: cls for cls in boutique.request_classes()}
    # Ch-1: GET "/" -> 1,2,1,3,1,4,1,2,1,10,1
    assert classes["Ch-1"].sequence == [
        "frontend", "currency", "frontend", "product-catalog", "frontend",
        "cart", "frontend", "currency", "frontend", "ad", "frontend",
    ]
    # Ch-2 is the single-function setCurrency call.
    assert classes["Ch-2"].sequence == ["frontend"]
    # Ch-6 (checkout) is the longest chain: 25 invocations.
    assert len(classes["Ch-6"].sequence) == 25
    assert classes["Ch-6"].sequence[1] == "checkout"


def test_boutique_has_ten_services():
    assert len(boutique.SERVICES) == 10
    names = {spec.name for spec in boutique.spright_functions()}
    assert names == set(boutique.SERVICES.values())


def test_go_port_carries_runtime_overhead_c_port_does_not():
    go = {spec.name: spec for spec in boutique.go_grpc_functions()}
    c = {spec.name: spec for spec in boutique.spright_functions()}
    for name in boutique.SERVICES.values():
        assert go[name].runtime_overhead_path > 0
        assert go[name].runtime_overhead_bg > 0
        assert c[name].runtime_overhead_path == 0
        assert c[name].service_time == go[name].service_time


def test_locust_think_time_range():
    node = WorkerNode()
    samples = [boutique.locust_think_time(node) for _ in range(200)]
    assert all(1.0 <= value <= 10.0 for value in samples)
    assert 4.0 < sum(samples) / len(samples) < 7.0


def test_catalog_behavior_serves_items():
    result = boutique._catalog_behavior(b"", {})
    items = json.loads(result.payload)
    assert len(items) == 8


def test_cart_behavior_accumulates_state():
    context = {}
    for _ in range(3):
        result = boutique._cart_behavior(b"\x01\x02\x03\x04\x05\x06\x07\x08", context)
    assert json.loads(result.payload)["items"] == 3


# -- motion ----------------------------------------------------------------------

def test_motion_trace_is_sorted_and_bounded():
    node = WorkerNode()
    params = MotionTraceParams(duration=1200.0)
    trace = synthesize_motion_trace(node, params)
    times = [event.time for event in trace]
    assert times == sorted(times)
    assert all(0 <= t < params.duration for t in times)
    assert len(trace) > 10


def test_motion_trace_has_long_idle_gaps():
    """The cold-start experiment needs gaps exceeding the 30 s grace period."""
    node = WorkerNode()
    trace = synthesize_motion_trace(node, MotionTraceParams(duration=3600.0))
    times = [event.time for event in trace]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert max(gaps) > 30.0


def test_motion_trace_deterministic_per_seed():
    node_a = WorkerNode()
    node_b = WorkerNode()
    params = MotionTraceParams(duration=600.0)
    trace_a = synthesize_motion_trace(node_a, params)
    trace_b = synthesize_motion_trace(node_b, params)
    assert [e.time for e in trace_a] == [e.time for e in trace_b]


def test_sensor_behavior_routes_to_actuate_topic():
    result = motion._sensor_behavior(
        json.dumps({"sensor": 3, "motion": True}).encode(), {}
    )
    assert result.topic == "actuate"
    command = json.loads(result.payload)
    assert command["on"] is True


def test_actuator_behavior_updates_lights():
    context = {}
    motion._actuator_behavior(json.dumps({"light": "3", "on": True}).encode(), context)
    assert context["lights"]["3"] is True


def test_motion_service_times_are_1ms():
    for spec in motion.motion_functions():
        assert spec.service_time == pytest.approx(1e-3)


# -- parking -----------------------------------------------------------------------

def test_table4_service_times():
    assert parking.SERVICE_TIMES["plate-detection"] == pytest.approx(0.435)
    assert parking.SERVICE_TIMES["plate-search"] == pytest.approx(0.020)
    assert parking.SERVICE_TIMES["plate-index"] == pytest.approx(0.001)
    assert parking.SERVICE_TIMES["persist-metadata"] == pytest.approx(0.010)
    assert parking.SERVICE_TIMES["charging"] == pytest.approx(0.050)


def test_parking_chain_sequences_match_table4():
    classes = parking.parking_request_classes()
    assert classes["Ch-1"].sequence == [
        "plate-detection", "plate-search", "plate-index",
        "persist-metadata", "charging",
    ]
    assert classes["Ch-2"].sequence == [
        "plate-detection", "plate-search", "charging",
    ]


def test_snapshot_is_3kb_with_embedded_plate():
    snapshot = make_snapshot("CA0042")
    assert len(snapshot) == parking.SNAPSHOT_BYTES
    assert b"PLATE:CA0042" in snapshot


def test_parking_trace_bursts_every_240s():
    node = WorkerNode()
    params = ParkingTraceParams(duration=700.0)
    trace = synthesize_parking_trace(node, params)
    # 3 bursts (t=0, 240, 480) x 164 spots.
    assert len(trace) == 3 * 164
    bursts = next_burst_times(params)
    assert bursts == [0.0, 240.0, 480.0]
    # Each event lies within its burst's sweep window.
    for event in trace:
        offset = event.time % params.interval
        assert offset <= params.burst_spread + 1e-9


def test_detection_behavior_extracts_plate():
    result = parking._detection_behavior(make_snapshot("XY1234"), {})
    assert json.loads(result.payload)["plate"].strip() == "XY1234"


def test_persist_then_search_marks_known():
    context = {}
    record = json.dumps({"plate": "AA1"}).encode()
    first = parking._search_behavior(record, context)
    assert json.loads(first.payload)["known"] is False
    parking._persist_behavior(record, context)
    second = parking._search_behavior(record, context)
    assert json.loads(second.payload)["known"] is True


def test_charging_behavior_bills_cumulatively():
    context = {}
    record = json.dumps({"plate": "AA1"}).encode()
    parking._charging_behavior(record, context)
    result = parking._charging_behavior(record, context)
    assert json.loads(result.payload)["charged"] == pytest.approx(5.0)


# -- generators --------------------------------------------------------------------

def test_make_payload_sizes():
    assert make_payload(0) == b""
    assert len(make_payload(100)) == 100
    assert len(make_payload(7, fill=b"abc")) == 7


def test_weighted_mix_requires_classes():
    with pytest.raises(ValueError):
        WeightedMix([])


def test_weighted_mix_respects_weights():
    from repro.dataplane.base import RequestClass

    node = WorkerNode()
    heavy = RequestClass(name="heavy", sequence=["f"], weight=9.0)
    light = RequestClass(name="light", sequence=["f"], weight=1.0)
    mix = WeightedMix([heavy, light])
    picks = [mix.pick(node).name for _ in range(500)]
    assert picks.count("heavy") > 350


def test_open_loop_generator_respects_timestamps():
    from repro.dataplane import SSprightDataplane
    from repro.dataplane.base import RequestClass
    from repro.runtime import FunctionSpec
    from repro.stats import LatencyRecorder

    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="f", service_time=1e-5)])
    plane.deploy()
    request_class = RequestClass(name="t", sequence=["f"], payload_size=16)
    trace = [TraceEvent(time=t, request_class=request_class) for t in (0.5, 1.5, 2.5)]
    recorder = LatencyRecorder()
    OpenLoopGenerator(node, plane, trace, recorder).start()
    node.run(until=5.0)
    completions = sorted(t for t, _ in recorder._samples[""])
    assert len(completions) == 3
    assert completions[0] == pytest.approx(0.5, abs=0.05)
    assert completions[2] == pytest.approx(2.5, abs=0.05)


def test_closed_loop_warmup_excludes_early_samples():
    from repro.dataplane import SSprightDataplane
    from repro.dataplane.base import RequestClass
    from repro.runtime import FunctionSpec
    from repro.stats import LatencyRecorder

    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="f", service_time=1e-5)])
    plane.deploy()
    recorder = LatencyRecorder()
    generator = ClosedLoopGenerator(
        node,
        plane,
        WeightedMix([RequestClass(name="t", sequence=["f"], payload_size=16)]),
        recorder,
        concurrency=2,
        duration=2.0,
        client_overhead=0.01,
        warmup=1.0,
    )
    generator.start()
    node.run(until=2.0)
    assert generator.requests_sent > recorder.count("")
    assert all(t >= 1.0 for t, _ in recorder._samples[""])


def test_weighted_mix_rejects_negative_weight():
    from repro.dataplane.base import RequestClass

    bad = RequestClass(name="bad", sequence=["f"], weight=-0.5)
    good = RequestClass(name="good", sequence=["f"], weight=1.0)
    with pytest.raises(ValueError, match="bad"):
        WeightedMix([good, bad])


def test_weighted_mix_rejects_zero_total_weight():
    from repro.dataplane.base import RequestClass

    zero = RequestClass(name="zero", sequence=["f"], weight=0.0)
    with pytest.raises(ValueError, match="positive total"):
        WeightedMix([zero, zero])
    with pytest.raises(ValueError):
        WeightedMix([])
