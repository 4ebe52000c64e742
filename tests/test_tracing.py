"""Tests for per-request milestones and the span-derived waterfall views."""

import pytest

from repro.dataplane import (
    GrpcDataplane,
    KnativeDataplane,
    Request,
    RequestClass,
    SSprightDataplane,
)
from repro.obs.span import Span, Tracer
from repro.runtime import FunctionSpec, WorkerNode
from repro.simcore import Environment
from repro.stats.tracing import overhead_time, service_time, waterfall


def run_traced(plane_cls):
    """One traced request through a 2-function chain: (root, its children)."""
    node = WorkerNode()
    tracer = node.obs.enable_tracing()
    functions = [
        FunctionSpec(name="fn-1", service_time=1e-3, service_time_cv=0.0),
        FunctionSpec(name="fn-2", service_time=2e-3, service_time_cv=0.0),
    ]
    plane = plane_cls(node, functions)
    plane.deploy()
    request = Request(
        request_class=RequestClass(name="t", sequence=["fn-1", "fn-2"], payload_size=64),
        payload=b"x" * 64,
        created_at=0.0,
    )

    def driver(env):
        yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=5.0)
    assert request.completed_at is not None
    return request.span, tracer.children_index()[request.span.sid]


def phases(spans):
    return sorted(
        (span for span in spans if span.category == "phase"),
        key=lambda span: (span.start, span.sid),
    )


def backwards_stamped():
    """A request milestoned a@1.0, b@0.5 (backwards), c@2.0 via the tracer."""
    env = Environment()
    tracer = Tracer(env)

    class _Request:
        created_at = 0.0
        span = None

    request = _Request()
    tracer.start_request(request, "req")
    for name, stamp in (("a", 1.0), ("b", 0.5), ("c", 2.0)):
        env._now = max(env.now, stamp)
        tracer.on_mark(request, name, stamp)
    tracer.finish_request(request)
    return request.span, tracer.children_index()[request.span.sid]


@pytest.mark.parametrize(
    "plane_cls", [KnativeDataplane, GrpcDataplane, SSprightDataplane]
)
def test_timeline_has_expected_milestones(plane_cls):
    _, spans = run_traced(plane_cls)
    names = [span.name for span in phases(spans)]
    assert "deliver:fn-1" in names
    assert "served:fn-2" in names
    assert names[-1] == "response"
    stamps = [span.end for span in phases(spans)]
    assert stamps == sorted(stamps)
    assert not any(span.attrs.get("out_of_order") for span in spans)


def test_timeline_disabled_by_default():
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="f", service_time=0.0)])
    plane.deploy()
    request = Request(
        request_class=RequestClass(name="t", sequence=["f"], payload_size=8),
        payload=b"x" * 8,
        created_at=0.0,
    )

    def driver(env):
        yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=1.0)
    assert request.completed_at is not None
    # zero overhead when not requested: no tracer, no span
    assert node.obs.tracer is None
    assert request.span is None and request.tracer is None


def test_service_time_extraction():
    root, spans = run_traced(SSprightDataplane)
    served = service_time(spans)
    # fn-1 = 1 ms, fn-2 = 2 ms, CV 0.
    assert served == pytest.approx(3e-3, rel=0.05)
    overhead = overhead_time(root, spans)
    assert 0 < overhead < served  # SPRIGHT overhead well under service time
    assert overhead + served == pytest.approx(root.duration)


def test_knative_overhead_dominates_spright():
    kn_overhead = overhead_time(*run_traced(KnativeDataplane))
    sp_overhead = overhead_time(*run_traced(SSprightDataplane))
    assert kn_overhead > 2 * sp_overhead


def test_segments_partition_the_timeline():
    root, spans = run_traced(SSprightDataplane)
    parts = phases(spans)
    assert parts[0].start == root.start
    for before, after in zip(parts, parts[1:]):
        assert after.start == before.end  # contiguous, non-overlapping
    total = sum(span.duration for span in parts)
    assert total == pytest.approx(parts[-1].end - root.start)
    assert total == pytest.approx(root.duration)


def test_waterfall_renders():
    art = waterfall(*run_traced(SSprightDataplane))
    assert "deliver:fn-1" in art
    assert "total" in art
    assert "#" in art


def test_waterfall_empty():
    root = Span(sid=1, name="req", category="request", start=0.0, parent=None)
    assert "empty" in waterfall(root, [])


# -- out-of-order milestones (clamp + flag, never a fake bar) -----------------

def test_segments_clamp_out_of_order_stamps():
    _, spans = backwards_stamped()
    parts = phases(spans)
    assert [span.name for span in parts] == ["a", "b", "c"]
    assert [bool(span.attrs.get("out_of_order")) for span in parts] == [
        False,
        True,
        False,
    ]
    assert parts[1].duration == 0.0
    assert parts[1].start == 1.0  # cursor held at the latest time seen
    assert parts[2].start == 1.0 and parts[2].duration == pytest.approx(1.0)
    assert all(span.duration >= 0 for span in parts)


def test_waterfall_marks_out_of_order_segments():
    art = waterfall(*backwards_stamped())
    assert "(out-of-order)" in art
    assert "!" in art
    b_line = next(line for line in art.splitlines() if line.startswith("b"))
    assert "#" not in b_line  # flagged milestones never render as bars


def test_waterfall_in_order_rendering_unchanged():
    """Clamping must not alter how well-formed timelines render."""
    art = waterfall(*run_traced(SSprightDataplane))
    assert "(out-of-order)" not in art
    assert "!" not in art
