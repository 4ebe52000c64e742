"""Property-based tests for span-tree invariants (repro.obs tracing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    GrpcDataplane,
    KnativeDataplane,
    RequestClass,
    SSprightDataplane,
)
from repro.faults import ResiliencePolicy, load_plan
from repro.runtime import FunctionSpec, WorkerNode
from repro.stats import LatencyRecorder
from repro.workloads import ClosedLoopGenerator, WeightedMix

EPS = 1e-12

PLANES = {
    "knative": KnativeDataplane,
    "grpc": GrpcDataplane,
    "s-spright": SSprightDataplane,
}


def run_small_traced(
    plane_name: str,
    seed: int,
    duration: float = 1.0,
    fault_plan=None,
    resilience=None,
):
    """A tiny closed-loop run with tracing on; returns the node's tracer."""
    from repro.kernel import NodeConfig

    config = NodeConfig(root_seed=seed)
    config.cores = 8
    node = WorkerNode(config)
    tracer = node.obs.enable_tracing()
    functions = [
        FunctionSpec(name="fn-1", service_time=0.5e-3, service_time_cv=0.2),
        FunctionSpec(name="fn-2", service_time=1e-3, service_time_cv=0.2),
    ]
    plane = PLANES[plane_name](node, functions)
    plane.deploy()
    if fault_plan is not None:
        node.faults.arm(fault_plan)
    if resilience is not None:
        plane.use_resilience(resilience)
    mix = WeightedMix(
        [RequestClass(name="t", sequence=["fn-1", "fn-2"], payload_size=64)]
    )
    generator = ClosedLoopGenerator(
        node, plane, mix, LatencyRecorder(), concurrency=4, duration=duration
    )
    generator.start()
    node.run(until=duration)
    return tracer


def assert_tree_invariants(tracer):
    spans = tracer.finished_spans()
    by_sid = {span.sid: span for span in tracer.spans}
    for span in spans:
        if span.parent is None:
            continue
        # No orphans: every parent sid resolves to a created span.
        assert span.parent in by_sid, f"orphan span {span!r}"
        parent = by_sid[span.parent]
        # Child-within-parent bounds (closed parents only: a span whose
        # request was cut off at the horizon never closed).
        assert span.start >= parent.start - EPS
        if parent.end is not None and span.end is not None:
            assert span.end <= parent.end + EPS, (
                f"{span.name} [{span.start}, {span.end}] escapes "
                f"{parent.name} [{parent.start}, {parent.end}]"
            )
    # Phases of one root never overlap and are monotone. Group them by
    # parent once, in creation order, rather than scanning every span per root.
    phases_of = {}
    for span in spans:
        if span.category == "phase":
            phases_of.setdefault(span.parent, []).append(span)
    for root in tracer.roots():
        phases = sorted(phases_of.get(root.sid, ()), key=lambda s: s.start)
        for before, after in zip(phases, phases[1:]):
            assert after.start >= before.end - EPS


def span_signature(tracer):
    return [
        (span.name, span.category, span.start, span.end, span.parent)
        for span in tracer.finished_spans()
    ]


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
@pytest.mark.parametrize("plane_name", sorted(PLANES))
def test_span_tree_invariants(plane_name, seed):
    tracer = run_small_traced(plane_name, seed)
    assert tracer.requests_started > 0
    assert_tree_invariants(tracer)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_span_tree_deterministic_per_seed(seed):
    first = run_small_traced("s-spright", seed)
    second = run_small_traced("s-spright", seed)
    assert span_signature(first) == span_signature(second)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_span_tree_invariants_with_faults_and_hedging(seed):
    """Interleaved retries/hedges must not break the tree shape."""
    policy = ResiliencePolicy(
        timeout=1.0, retries=2, hedge_delay=0.02, breaker_threshold=8
    )
    tracer = run_small_traced(
        "s-spright",
        seed,
        duration=1.5,
        fault_plan=load_plan("loss-crash"),
        resilience=policy,
    )
    assert tracer.requests_started > 0
    assert_tree_invariants(tracer)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_span_counts_deterministic_with_fault_plan(seed):
    policy = ResiliencePolicy(timeout=1.0, retries=1, breaker_threshold=8)
    runs = [
        run_small_traced(
            "knative",
            seed,
            duration=1.0,
            fault_plan=load_plan("lossy"),
            resilience=policy,
        )
        for _ in range(2)
    ]
    assert span_signature(runs[0]) == span_signature(runs[1])
