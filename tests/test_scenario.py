"""Scenario engine: parser subset, resolution, overrides, byte-identity."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.scenario import (
    LEGACY_SEED,
    ResolvedScenario,
    ScenarioError,
    ScenarioOverrideError,
    ScenarioParseError,
    apply_overrides,
    check_scenario,
    derive_seed,
    execute,
    find_scenario,
    load_scenario,
    parse_scenario_text,
    parse_yaml,
    resolve,
    run_scenario,
)


# -- YAML-subset parser --------------------------------------------------------
def test_yaml_scalars_and_nesting():
    doc = parse_yaml(
        "\n".join(
            [
                "name: demo",
                "count: 3",
                "rate: 0.5",
                "big: 1e3",
                "on: true",
                "off: false",
                "nothing: null",
                "tilde: ~",
                "quoted: 'hello world'",
                "double: \"a # not a comment\"",
                "nested:",
                "  inner:",
                "    deep: yes-a-bare-string",
            ]
        )
    )
    assert doc["name"] == "demo"
    assert doc["count"] == 3 and isinstance(doc["count"], int)
    assert doc["rate"] == 0.5
    assert doc["big"] == 1000.0
    assert doc["on"] is True and doc["off"] is False
    assert doc["nothing"] is None and doc["tilde"] is None
    assert doc["quoted"] == "hello world"
    assert doc["double"] == "a # not a comment"
    assert doc["nested"]["inner"]["deep"] == "yes-a-bare-string"


def test_yaml_lists_and_flow_collections():
    doc = parse_yaml(
        "\n".join(
            [
                "planes: [knative, s-spright]",
                "mixed: {a: 1, b: [2, 3]}",
                "block:",
                "  - first",
                "  - 2",
                "faults:",
                "  - kind: pod_crash",
                "    at: 5.0",
                "  - kind: packet_drop",
            ]
        )
    )
    assert doc["planes"] == ["knative", "s-spright"]
    assert doc["mixed"] == {"a": 1, "b": [2, 3]}
    assert doc["block"] == ["first", 2]
    assert doc["faults"] == [
        {"kind": "pod_crash", "at": 5.0},
        {"kind": "packet_drop"},
    ]


def test_yaml_comments_and_blank_lines():
    doc = parse_yaml("# header\n\nkey: value  # trailing\nother: 1\n")
    assert doc == {"key": "value", "other": 1}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("key: value\nkey: again\n", "duplicate key"),
        ("\tkey: value\n", "tabs"),
        ("---\nkey: value\n", "multi-document"),
        ("key: [1, 2\n", "']'"),
        ("key: {a: 1,, }\n", "flow"),
        ("- just\n- a\n- list\n", "mapping"),
        ("", "empty"),
    ],
)
def test_yaml_rejections(text, needle):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_yaml(text)
    assert needle in str(excinfo.value)


def test_parse_dispatch_by_extension_and_sniff():
    assert parse_scenario_text('{"a": 1}', source="x.json") == {"a": 1}
    assert parse_scenario_text("a: 1", source="x.yaml") == {"a": 1}
    # unknown extension sniffs the first character
    assert parse_scenario_text('{"a": 1}', source="stdin") == {"a": 1}
    assert parse_scenario_text("a: 1", source="stdin") == {"a": 1}
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario_text("{bad json", source="x.json")
    assert "x.json" in str(excinfo.value)


# -- seeds ---------------------------------------------------------------------
def test_seed_defaults_to_legacy_and_auto_derives_from_name():
    base = {"name": "n", "experiment": "boutique"}
    assert resolve(dict(base)).seed == LEGACY_SEED
    auto = resolve(dict(base, seed="auto"))
    assert auto.seed == derive_seed("n")
    assert derive_seed("n") == derive_seed("n")
    assert derive_seed("n") != derive_seed("m")
    assert 0 <= derive_seed("n") < 2**31


def test_fixed_seed_experiments_reject_custom_seeds():
    ok = resolve({"name": "t", "experiment": "tables", "seed": LEGACY_SEED})
    assert "seed" not in ok.config
    with pytest.raises(ScenarioError) as excinfo:
        resolve({"name": "t", "experiment": "tables", "seed": 7})
    assert getattr(excinfo.value, "path", "") == "/seed"


def test_seedable_experiment_receives_seed_in_config():
    resolved = resolve({"name": "b", "experiment": "boutique", "seed": 5})
    assert resolved.config["seed"] == 5


# -- overrides -----------------------------------------------------------------
def test_overrides_win_over_file_values():
    doc = {
        "name": "b",
        "experiment": "boutique",
        "workload": {"scale": 0.05, "duration": 8},
    }
    merged = apply_overrides(doc, ["workload.duration=2", "seed=auto"])
    assert merged["workload"]["duration"] == 2
    assert merged["workload"]["scale"] == 0.05  # untouched sibling
    assert merged["seed"] == "auto"
    assert doc["workload"]["duration"] == 8  # original untouched


def test_override_parses_flow_values():
    doc = {"name": "f", "experiment": "faults"}
    merged = apply_overrides(doc, ["planes=[s-spright, knative]"])
    assert merged["planes"] == ["s-spright", "knative"]


def test_override_creates_missing_sections():
    merged = apply_overrides(
        {"name": "c", "experiment": "cluster"}, ["cluster.nodes=5"]
    )
    assert merged["cluster"] == {"nodes": 5}


def test_resolved_override_round_trip():
    resolved = load_scenario(
        "scenarios/boutique-baseline.json", overrides=["workload.duration=2"]
    )
    assert isinstance(resolved, ResolvedScenario)
    assert resolved.config["duration"] == 2


# -- execution + byte-identity -------------------------------------------------
def _capture_main(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stderr
    sys.stderr = err
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def test_scenario_stdout_byte_identical_to_flags(tmp_path):
    scenario = tmp_path / "fig2-ident.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "spright.scenario/1",
                "name": "fig2-ident",
                "experiment": "fig2",
                "workload": {"duration": 0.5},
            }
        )
    )
    code, run_out, run_err = _capture_main(["run", str(scenario)])
    assert code == 0
    flag_code, flag_out, _ = _capture_main(["fig2", "--duration", "0.5"])
    assert flag_code == 0
    assert run_out == flag_out
    # scenario metadata goes to stderr only
    assert "scenario fig2-ident" in run_err
    assert "fig2-ident" not in run_out


def test_execute_restores_process_wide_toggles(tmp_path):
    from repro import obs
    from repro.mem import default_sanitize

    scenario = tmp_path / "toggles.yaml"
    scenario.write_text(
        "\n".join(
            [
                "schema: spright.scenario/1",
                "name: toggles",
                "experiment: fig2",
                "workload:",
                "  duration: 0.2",
                "observability:",
                "  sanitize: true",
                "  trace: true",
            ]
        )
    )
    before_observe = obs.default_observe()
    before_sanitize = default_sanitize()
    resolved = load_scenario(str(scenario))
    report = execute(resolved)
    assert "Fig 2" in report or report
    assert obs.default_observe() == before_observe
    assert default_sanitize() == before_sanitize


def test_run_scenario_writes_reports(tmp_path):
    out_dir = tmp_path / "out"
    scenario = tmp_path / "report.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "report",
                "experiment": "fig2",
                "workload": {"duration": 0.2},
                "observability": {"out": str(out_dir)},
            }
        )
    )
    _resolved, report = run_scenario(str(scenario))
    assert (out_dir / "report.txt").read_text() == report + "\n"
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["experiment"] == "fig2"
    assert payload["seed"] == LEGACY_SEED
    assert payload["report"] == report


def test_run_scenario_exports_per_node_artifacts(tmp_path):
    from repro import obs

    from .test_obs_trace import SCHEMA_PATH, validate

    out_dir = tmp_path / "out"
    scenario = tmp_path / "observed.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "observed",
                "experiment": "fig5",
                "workload": {"duration": 0.3, "max_concurrency": 2},
                "observability": {"trace": True, "profile": True, "out": str(out_dir)},
            }
        )
    )
    code, _out, _err = _capture_main(["run", str(scenario)])
    assert code == 0
    trace_path = out_dir / "observed-node1.trace.json"
    assert trace_path.exists(), sorted(out_dir.iterdir())
    schema = json.loads(SCHEMA_PATH.read_text())
    assert not validate(json.loads(trace_path.read_text()), schema)
    assert obs.default_observe() == (False, False)


def test_trace_scenario_writes_artifacts_under_out(tmp_path):
    out_dir = tmp_path / "out"
    scenario = tmp_path / "traced.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "traced",
                "experiment": "trace",
                "workload": {"kind": "boutique", "duration": 0.5, "scale": 0.02},
                "planes": ["s-spright"],
                "observability": {"out": str(out_dir)},
            }
        )
    )
    code, _out, _err = _capture_main(["run", str(scenario)])
    assert code == 0
    assert (out_dir / "sspright-boutique.trace.json").exists()
    assert (out_dir / "traced.txt").exists()


def test_live_sink_snapshot_carries_scenario_name():
    from repro.obs.live import LiveSink

    sink = LiveSink()
    assert sink.snapshot()["scenario"] is None
    sink.set_scenario("boutique-baseline")
    assert sink.snapshot()["scenario"] == "boutique-baseline"


# -- file resolution + the checked-in library ----------------------------------
def test_find_scenario_resolves_bare_names_and_paths():
    assert find_scenario("scenarios/clone-sweep.yaml").name == "clone-sweep.yaml"
    assert find_scenario("clone-sweep").name == "clone-sweep.yaml"
    with pytest.raises(ScenarioError):
        find_scenario("no-such-scenario")


def _library():
    """Every scenario file in the checked-in library, sorted by name."""
    root = Path(__file__).resolve().parent.parent / "scenarios"
    return sorted(
        path for path in root.iterdir() if path.suffix in (".json", ".yaml", ".yml")
    )


def test_checked_in_library_is_valid_and_covers_both_formats():
    library = _library()
    assert len(library) >= 6
    suffixes = {path.suffix for path in library}
    assert ".json" in suffixes and ".yaml" in suffixes
    for path in library:
        assert check_scenario(str(path)) == [], path
        resolved = load_scenario(str(path))
        # library scenarios stay flag-equivalent: legacy seed everywhere
        assert resolved.seed == LEGACY_SEED, path
        assert resolved.name == path.stem, path


def test_library_covers_required_experiment_families():
    families = {load_scenario(str(p)).experiment for p in _library()}
    assert {"boutique", "faults", "recovery", "traffic", "cluster", "cloning"} <= families


# -- CLI plumbing --------------------------------------------------------------
def test_cli_validate_only_reports_ok_and_failures(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"name": "g", "experiment": "tables"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "experiment": "tables", "x": 1}))
    code, out, _ = _capture_main(["run", "--validate-only", str(good), str(bad)])
    assert code == 1
    assert f"{good}: ok" in out
    assert "/x" in out and "unknown key" in out


def test_cli_run_surfaces_scenario_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: b\nexperiment: nope\n")
    code, out, err = _capture_main(["run", str(bad)])
    assert code == 2
    assert out == ""
    assert "/experiment" in err


def test_cli_run_rejects_conflicting_overrides(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"name": "s", "experiment": "fig2"}))
    code, _out, err = _capture_main(
        ["run", str(scenario), "--set", "workload.duration=1", "--set", "workload=2"]
    )
    assert code == 2
    assert "--set workload" in err


def test_override_error_is_a_scenario_error():
    with pytest.raises(ScenarioOverrideError):
        apply_overrides({"name": "x", "experiment": "fig2"}, ["oops"])
    assert issubclass(ScenarioOverrideError, ScenarioError)
