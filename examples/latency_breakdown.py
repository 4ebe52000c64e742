#!/usr/bin/env python3
"""Where do the milliseconds go? Per-request waterfalls across dataplanes.

Sends one traced request through Knative, gRPC mode, and S-SPRIGHT, and
renders each journey's phase spans as an ASCII waterfall — making the paper's Table 1/2
story visible per request: in Knative the dataplane (broker hops, sidecars,
kernel crossings) swamps the actual function work; in SPRIGHT the functions
dominate their own latency.

Run:  python examples/latency_breakdown.py
"""

from repro.dataplane import (
    GrpcDataplane,
    KnativeDataplane,
    Request,
    RequestClass,
    SSprightDataplane,
)
from repro.runtime import FunctionSpec, WorkerNode
from repro.stats import overhead_time, service_time, waterfall


def trace_one(plane_cls):
    """One request through a fresh node: (request, its root's children)."""
    node = WorkerNode()
    tracer = node.obs.enable_tracing()
    functions = [
        FunctionSpec(name="detect", service_time=300e-6, service_time_cv=0.0),
        FunctionSpec(name="annotate", service_time=150e-6, service_time_cv=0.0),
    ]
    plane = plane_cls(node, functions)
    plane.deploy()
    request = Request(
        request_class=RequestClass(
            name="inference", sequence=["detect", "annotate"], payload_size=1024
        ),
        payload=b"img" * 342,
        created_at=0.0,
    )

    def driver(env):
        yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=2.0)
    return request, tracer.children_index()[request.span.sid]


def main() -> None:
    for plane_cls in (KnativeDataplane, GrpcDataplane, SSprightDataplane):
        request, spans = trace_one(plane_cls)
        total_ms = request.latency * 1e3
        served = service_time(spans)
        overhead = overhead_time(request.span, spans)
        print(f"=== {plane_cls.__name__} ===")
        print(waterfall(request.span, spans))
        print(
            f"function work: {served * 1e3:.3f} ms "
            f"({served / request.latency * 100:.0f}%)   "
            f"dataplane overhead: {overhead * 1e3:.3f} ms "
            f"({overhead / request.latency * 100:.0f}%)   "
            f"total: {total_ms:.3f} ms"
        )
        print()


if __name__ == "__main__":
    main()
