"""Scenario schema validation: typed errors, JSON-pointer paths, enum drift."""

import pytest

from repro.scenario import (
    ARRIVAL_PATTERNS,
    EXPERIMENT_NAMES,
    EXPERIMENT_SPECS,
    FAULT_KINDS,
    KEEPALIVE_POLICIES,
    PLACEMENT_POLICIES,
    PLANE_NAMES,
    ScenarioOverrideError,
    ScenarioValidationError,
    apply_overrides,
    resolve,
    validate_scenario,
    validation_errors,
)


def _doc(**extra):
    doc = {"schema": "spright.scenario/1", "name": "t", "experiment": "boutique"}
    doc.update(extra)
    return doc


def _first_error(doc):
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    return excinfo.value


# -- shape violations, each with a precise path --------------------------------
def test_unknown_top_level_key():
    error = _first_error(_doc(wrokload={}))
    assert error.path == "/wrokload"
    assert "unknown key" in error.message
    assert "workload" in error.message  # suggests the known keys


def test_unknown_nested_key():
    error = _first_error(_doc(workload={"durations": 5}))
    assert error.path == "/workload/durations"
    assert "unknown key" in error.message


def test_wrong_scalar_type():
    error = _first_error(_doc(workload={"scale": "big"}))
    assert error.path == "/workload/scale"
    assert "expected number" in error.message


def test_wrong_container_type():
    error = _first_error(_doc(planes="s-spright"))
    assert error.path == "/planes"
    assert "expected array" in error.message


def test_missing_required_sections():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario({"workload": {}})
    paths = {path for path, _ in excinfo.value.errors}
    assert "/" in paths
    messages = " ".join(m for _, m in excinfo.value.errors)
    assert "'name'" in messages and "'experiment'" in messages


def test_bad_plane_name():
    error = _first_error(_doc(planes=["s-spright", "warp-drive"]))
    assert error.path == "/planes/1"
    assert "'warp-drive'" in error.message


def test_duplicate_planes():
    error = _first_error(_doc(planes=["s-spright", "s-spright"]))
    assert error.path == "/planes/1"
    assert "duplicate" in error.message


def test_bad_experiment_name():
    error = _first_error(_doc(experiment="figs"))
    assert error.path == "/experiment"


def test_bad_schema_id():
    error = _first_error(_doc(schema="spright.scenario/99"))
    assert error.path == "/schema"


def test_seed_forms():
    assert validation_errors(_doc(seed=0)) == []
    assert validation_errors(_doc(seed="auto")) == []
    assert validation_errors(_doc(seed=-1))
    assert validation_errors(_doc(seed="random"))
    assert validation_errors(_doc(seed=1.5))


def test_clone_factor_forms():
    def res(value):
        return _doc(experiment="faults", resilience={"clone_factor": value})

    assert validation_errors(res(2)) == []
    assert validation_errors(res("optimal")) == []
    assert validation_errors(res(0))
    assert validation_errors(res("off"))  # CLI spelling, not scenario spelling


def test_inline_fault_plan_validation():
    def plan(**entry):
        return _doc(experiment="faults", faults={"plan": {"faults": [entry]}})

    assert (
        validation_errors(plan(kind="pod_crash", at=1.0, probability=0.5)) == []
    )
    error = _first_error(plan(at=1.0))
    assert error.path.endswith("/faults/0") or "kind" in error.message
    error = _first_error(plan(kind="meteor_strike"))
    assert error.path == "/faults/plan/faults/0/kind"
    error = _first_error(plan(kind="pod_crash", strength=2))
    assert error.path == "/faults/plan/faults/0/strength"


def test_validation_error_collects_every_violation():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(
            _doc(planes=["nope"], workload={"scale": "x"}, bogus=1)
        )
    paths = {path for path, _ in excinfo.value.errors}
    assert {"/planes/0", "/workload/scale", "/bogus"} <= paths


# -- resolve-level cross-checks ------------------------------------------------
def test_section_not_consumed_by_experiment():
    with pytest.raises(ScenarioValidationError) as excinfo:
        resolve(_doc(keepalive={"policies": ["kpa"]}))
    assert excinfo.value.path == "/keepalive"
    assert "boutique" in excinfo.value.message


def test_workload_kind_mismatch():
    with pytest.raises(ScenarioValidationError) as excinfo:
        resolve(_doc(workload={"kind": "motion"}))
    assert excinfo.value.path == "/workload/kind"


def test_trace_plane_constraints():
    with pytest.raises(ScenarioValidationError) as excinfo:
        resolve(_doc(experiment="trace", planes=["knative", "grpc"]))
    assert excinfo.value.path == "/planes"
    with pytest.raises(ScenarioValidationError) as excinfo:
        resolve(_doc(experiment="trace", planes=["lambda-nic"]))
    assert excinfo.value.path == "/planes/0"


# -- conflicting overrides are typed errors ------------------------------------
@pytest.mark.parametrize(
    "assignments,needle",
    [
        (["workload.duration=1", "workload.duration=2"], "already set"),
        (["workload=1", "workload.duration=2"], "nested"),
        (["workload.duration.x=1"], "non-mapping"),
        (["=5"], "section.key=value"),
        (["workload..duration=1"], "empty segment"),
    ],
)
def test_conflicting_overrides(assignments, needle):
    doc = {"name": "b", "experiment": "boutique", "workload": {"duration": 3}}
    with pytest.raises(ScenarioOverrideError) as excinfo:
        apply_overrides(doc, assignments)
    assert needle in str(excinfo.value)
    assert str(excinfo.value).startswith("--set ")


# -- enum drift guards: literals must match the live registries ----------------
def test_experiment_names_match_cli_commands():
    from repro.cli import COMMANDS

    assert set(EXPERIMENT_NAMES) == set(COMMANDS) - {"all"}
    assert set(EXPERIMENT_NAMES) == set(EXPERIMENT_SPECS)


def test_plane_names_match_experiment_registry():
    from repro.experiments.common import PLANES

    assert set(PLANE_NAMES) == set(PLANES)


def test_keepalive_policies_match_registry():
    from repro.traffic.keepalive import POLICIES

    assert set(KEEPALIVE_POLICIES) == set(POLICIES)


def test_placement_policies_match_scheduler():
    from repro.cluster.scheduler import POLICIES

    assert set(PLACEMENT_POLICIES) == {"all"} | set(POLICIES)


def test_fault_kinds_match_injector_enum():
    from repro.faults import FaultKind

    assert set(FAULT_KINDS) == {kind.value for kind in FaultKind}


def test_arrival_patterns_match_cli_choices():
    from repro.cli import build_parser

    parser = build_parser()
    choices = parser._option_string_actions["--patterns"].choices
    assert set(ARRIVAL_PATTERNS) == set(choices)


def test_fault_plan_help_lists_every_named_plan():
    from repro.cli import build_parser
    from repro.faults import NAMED_PLANS

    help_text = build_parser()._option_string_actions["--fault-plan"].help
    for name in NAMED_PLANS:
        assert name in help_text


def test_every_experiment_has_an_entry_point():
    from repro.scenario.run import _entry_points

    entries = _entry_points()
    assert set(entries) == set(EXPERIMENT_NAMES)
    for name, entry in entries.items():
        assert callable(entry), name
