"""E1/E4: regenerate Tables 1 and 2 from executed pipelines."""

from __future__ import annotations

from ..audit import AuditTable, Auditor, DESCRIPTOR_WIRE_BYTES, OverheadKind
from ..dataplane import KnativeDataplane, Request, RequestClass, SSprightDataplane
from ..runtime import FunctionSpec, WorkerNode
from ..stats import format_table

AUDIT_CHAIN = ["fn-1", "fn-2"]  # '1 broker/front-end + 2 functions'


def audit_plane(plane_cls, repetitions: int = 5, seed: int = 2022) -> AuditTable:
    """Run the audit chain on a fresh node and reduce the traces."""
    node = WorkerNode()
    functions = [FunctionSpec(name=name, service_time=0.0) for name in AUDIT_CHAIN]
    plane = plane_cls(node, functions)
    plane.deploy()
    auditor = Auditor(name=plane.plane)
    request_class = RequestClass(name="audit", sequence=AUDIT_CHAIN, payload_size=100)

    def driver(env):
        for _ in range(repetitions):
            request = Request(
                request_class=request_class,
                payload=b"x" * request_class.payload_size,
                created_at=env.now,
                trace=auditor.new_trace(),
            )
            yield env.process(plane.submit(request))

    node.env.process(driver(node.env), detached=True)
    node.run(until=30.0)
    return auditor.table()


def run_table1() -> AuditTable:
    """Table 1: Knative per-request overhead audit."""
    return audit_plane(KnativeDataplane)


def run_table2() -> AuditTable:
    """Table 2: SPRIGHT per-request overhead audit."""
    return audit_plane(SSprightDataplane)


def format_report() -> str:
    """Both audit tables plus the paper-vs-measured deltas."""
    table1 = run_table1()
    table2 = run_table2()
    rows = []
    for kind in OverheadKind:
        rows.append(
            [
                kind.value,
                table1.external_total(kind),
                table1.chain_total(kind),
                table1.total(kind),
                table2.external_total(kind),
                table2.chain_total(kind),
                table2.total(kind),
            ]
        )
    return format_table(
        ["overhead", "Kn ext", "Kn chain", "Kn total", "SP ext", "SP chain", "SP total"],
        rows,
        title=(
            "Tables 1 & 2: per-request overhead audit ('1 broker + 2 functions'; "
            f"SPRIGHT moves only the {DESCRIPTOR_WIRE_BYTES}-byte descriptor "
            "within the chain)"
        ),
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro tables``."""
    return format_report()
