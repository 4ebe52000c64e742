"""End-to-end audit tests: executed pipelines must reproduce Tables 1 and 2.

These are the paper's headline accounting claims. The counts are not
hard-coded anywhere in the dataplane implementations — they emerge from the
operations the components actually perform — so these tests pin the
implementations to the paper.
"""

import pytest

from repro.audit import Auditor, OverheadKind, Stage
from repro.dataplane import (
    KnativeDataplane,
    Request,
    RequestClass,
    SSprightDataplane,
)
from repro.runtime import FunctionSpec, WorkerNode


def run_chain(plane_cls, node=None, repetitions=3, **plane_kwargs):
    """Drive a '1 broker/front-end + 2 functions' chain and audit it."""
    node = node or WorkerNode()
    functions = [
        FunctionSpec(name="fn-1", service_time=0.0),
        FunctionSpec(name="fn-2", service_time=0.0),
    ]
    plane = plane_cls(node, functions, **plane_kwargs)
    plane.deploy()
    auditor = Auditor(name=plane.plane)
    request_class = RequestClass(
        name="audit", sequence=["fn-1", "fn-2"], payload_size=100
    )

    def driver(env):
        for _ in range(repetitions):
            request = Request(
                request_class=request_class,
                payload=b"x" * request_class.payload_size,
                created_at=env.now,
                trace=auditor.new_trace(),
            )
            yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=10.0)
    return auditor.table(), plane, node


# The paper's Table 1, '1 broker/front-end + 2 functions', per request.
TABLE_1 = {
    OverheadKind.COPY: ((1, 2, 3), (4, 4, 4, 12), 15),
    OverheadKind.CONTEXT_SWITCH: ((1, 2, 3), (4, 4, 4, 12), 15),
    OverheadKind.INTERRUPT: ((3, 4, 7), (6, 6, 6, 18), 25),
    OverheadKind.PROTOCOL_PROCESSING: ((1, 2, 3), (3, 3, 3, 9), 12),
    OverheadKind.SERIALIZATION: ((1, 1, 2), (2, 2, 2, 6), 8),
    OverheadKind.DESERIALIZATION: ((0, 1, 1), (2, 2, 2, 6), 7),
}

# The paper's Table 2: SPRIGHT on the same chain (DFR: ③ gw->fn1, ④ fn1->fn2).
TABLE_2 = {
    OverheadKind.COPY: ((1, 2, 3), (0, 0, 0), 3),
    OverheadKind.CONTEXT_SWITCH: ((1, 2, 3), (2, 2, 4), 7),
    OverheadKind.INTERRUPT: ((3, 4, 7), (2, 2, 4), 11),
    OverheadKind.PROTOCOL_PROCESSING: ((1, 2, 3), (0, 0, 0), 3),
    OverheadKind.SERIALIZATION: ((1, 1, 2), (0, 0, 0), 2),
    OverheadKind.DESERIALIZATION: ((0, 1, 1), (0, 0, 0), 1),
}


@pytest.fixture(scope="module")
def knative_table():
    table, _, _ = run_chain(KnativeDataplane)
    return table


@pytest.fixture(scope="module")
def spright_table():
    table, _, _ = run_chain(SSprightDataplane)
    return table


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table1_external_columns(knative_table, kind):
    step1, step2, external = TABLE_1[kind][0]
    assert knative_table.stage(Stage.STEP_1, kind) == step1, kind
    assert knative_table.stage(Stage.STEP_2, kind) == step2, kind
    assert knative_table.external_total(kind) == external, kind


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table1_chain_columns(knative_table, kind):
    step3, step4, step5, chain_total = TABLE_1[kind][1]
    assert knative_table.stage(Stage.STEP_3, kind) == step3, kind
    assert knative_table.stage(Stage.STEP_4, kind) == step4, kind
    assert knative_table.stage(Stage.STEP_5, kind) == step5, kind
    assert knative_table.chain_total(kind) == chain_total, kind


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table1_totals(knative_table, kind):
    assert knative_table.total(kind) == TABLE_1[kind][2], kind


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table2_external_columns(spright_table, kind):
    step1, step2, external = TABLE_2[kind][0]
    assert spright_table.stage(Stage.STEP_1, kind) == step1, kind
    assert spright_table.stage(Stage.STEP_2, kind) == step2, kind
    assert spright_table.external_total(kind) == external, kind


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table2_chain_columns(spright_table, kind):
    step3, step4, chain_total = TABLE_2[kind][1]
    assert spright_table.stage(Stage.STEP_3, kind) == step3, kind
    assert spright_table.stage(Stage.STEP_4, kind) == step4, kind
    assert spright_table.chain_total(kind) == chain_total, kind


@pytest.mark.parametrize("kind", list(OverheadKind))
def test_table2_totals(spright_table, kind):
    assert spright_table.total(kind) == TABLE_2[kind][2], kind


def test_spright_zero_copy_within_chain(spright_table):
    """The headline claim: zero copies, zero protocol processing, zero
    serialization within the chain."""
    for kind in (
        OverheadKind.COPY,
        OverheadKind.PROTOCOL_PROCESSING,
        OverheadKind.SERIALIZATION,
        OverheadKind.DESERIALIZATION,
    ):
        assert spright_table.chain_total(kind) == 0


def test_knative_chain_dominates_overheads(knative_table):
    """Takeaway #1: ~80% of the overhead comes from within the chain."""
    for kind in (OverheadKind.COPY, OverheadKind.CONTEXT_SWITCH):
        chain = knative_table.chain_total(kind)
        total = knative_table.total(kind)
        assert chain / total == pytest.approx(0.8)


def test_audit_table_renders():
    table, _, _ = run_chain(KnativeDataplane)
    text = table.render()
    assert "# of copies" in text
    assert "15" in text
