"""End-to-end observability tests: export schema, coverage, reconciliation.

The trace-event JSON is validated against the checked-in schema at
``tests/schemas/trace_event.schema.json`` with a small hand-rolled
validator (no external jsonschema dependency) covering the subset of JSON
Schema the file uses: type, required, properties, items, enum, minimum,
if/then.
"""

import json
from pathlib import Path

import pytest

from repro import cli, obs
from repro.experiments import trace_exp

SCHEMA_PATH = Path(__file__).parent / "schemas" / "trace_event.schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def validate(instance, schema, path="$"):
    """Minimal JSON Schema validator for the subset the trace schema uses."""
    errors = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        ok = isinstance(instance, python_type)
        if expected == "integer" and isinstance(instance, bool):
            ok = False
        if expected == "number" and isinstance(instance, bool):
            ok = False
        if not ok:
            return [f"{path}: expected {expected}, got {type(instance).__name__}"]
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate(instance[key], subschema, f"{path}.{key}"))
        if "if" in schema:
            matches = not validate(instance, schema["if"], path)
            if matches and "then" in schema:
                errors.extend(validate(instance, schema["then"], path))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{index}]"))
    return errors


def test_validator_rejects_bad_payloads():
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate({}, schema)  # missing required keys
    bad_event = {
        "traceEvents": [{"name": "x", "ph": "X", "pid": 1}],  # X without ts/dur
        "displayTimeUnit": "ms",
        "otherData": {"producer": "p", "spanCount": 0, "requestCount": 0},
    }
    assert validate(bad_event, schema)


@pytest.fixture(scope="module")
def traced_run():
    obs.reset_sessions()
    run = trace_exp.run_traced(
        plane="s-spright", workload="boutique", scale=0.05, duration=3.0
    )
    yield run
    obs.reset_sessions()


def test_trace_payload_matches_schema(traced_run):
    schema = json.loads(SCHEMA_PATH.read_text())
    payload = obs.export.trace_event_payload(traced_run.obs.tracer)
    errors = validate(payload, schema)
    assert not errors, errors[:10]
    assert payload["otherData"]["requestCount"] > 0


def test_span_coverage_at_least_95_percent(traced_run):
    coverages = traced_run.coverages()
    assert coverages
    assert min(coverages) >= 0.95


def test_openmetrics_reconciles_with_audit_exactly(traced_run):
    rows = traced_run.reconciliation()
    assert rows
    for kind, registry_count, audited, match in rows:
        assert match, f"{kind}: registry {registry_count} != audit {audited}"


def test_profiler_total_matches_accounting(traced_run):
    profiler = traced_run.obs.profiler
    accounting = traced_run.node.cpu.accounting
    assert profiler.total == pytest.approx(
        sum(accounting.total_busy.values()), rel=1e-9
    )
    folded = profiler.folded()
    assert folded.endswith("\n")
    for line in folded.splitlines():
        stack, weight = line.rsplit(" ", 1)
        assert int(weight) > 0
        assert stack


def test_trace_report_renders(traced_run):
    report = trace_exp.format_trace_report(traced_run)
    assert "coverage >= 0.95   True" in report
    assert "exact" in report
    assert "NO" not in report.split("reconciliation")[1].split("Hottest")[0]


def test_observe_defaults_restored_after_run_traced(traced_run):
    assert obs.default_observe() == (False, False)


def test_traced_run_tables_byte_identical():
    """Tracing+profiling must not change a single byte of the tables."""
    from repro.experiments.common import build_closed_loop
    from repro.workloads import boutique

    def one_run():
        result = build_closed_loop(
            "s-spright",
            boutique.spright_functions(),
            boutique.request_classes(),
            concurrency=8,
            duration=2.0,
            scale=0.05,
            audit=True,
        ).finish()
        return (
            result.auditor.table().render(),
            result.recorder.summary("").as_dict(),
            result.node.counters.as_dict(),
        )

    untraced = one_run()
    obs.set_default_observe(trace=True, profile=True)
    try:
        traced = one_run()
    finally:
        obs.set_default_observe(trace=False, profile=False)
    # The ops/* registry mirror only exists on the traced run; the legacy
    # counters (what reports read) must match exactly.
    assert untraced[0] == traced[0]
    assert untraced[1] == traced[1]
    assert untraced[2] == {
        name: count
        for name, count in traced[2].items()
        if not name.startswith("ops/")
    }


def test_cli_trace_command_writes_valid_artifacts(tmp_path, capsys):
    obs.reset_sessions()
    code = cli.main(
        [
            "trace",
            "--plane",
            "s-spright",
            "--workload",
            "boutique",
            "--duration",
            "2",
            "--scale",
            "0.05",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Traced run" in out
    assert "reconciliation" in out
    trace_path = tmp_path / "sspright-boutique.trace.json"
    metrics_path = tmp_path / "sspright-boutique.metrics.txt"
    folded_path = tmp_path / "sspright-boutique.folded.txt"
    assert trace_path.exists() and metrics_path.exists() and folded_path.exists()
    schema = json.loads(SCHEMA_PATH.read_text())
    payload = json.loads(trace_path.read_text())
    assert not validate(payload, schema)
    metrics_text = metrics_path.read_text()
    assert metrics_text.endswith("# EOF\n")
    assert "spright_ops_sspright_copy_total" in metrics_text
    # Defaults restored: the trace command must not leak tracing.
    assert obs.default_observe() == (False, False)
    obs.reset_sessions()


def test_cli_global_trace_flags_export_artifacts(tmp_path, capsys):
    obs.reset_sessions()
    try:
        code = cli.main(
            [
                "fig5",
                "--max-concurrency",
                "2",
                "--duration",
                "0.5",
                "--trace",
                "--profile",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        traces = list(tmp_path.glob("fig5-node*.trace.json"))
        assert traces, list(tmp_path.iterdir())
        schema = json.loads(SCHEMA_PATH.read_text())
        for path in traces:
            assert not validate(json.loads(path.read_text()), schema)
    finally:
        obs.set_default_observe(trace=False, profile=False)
        obs.reset_sessions()
