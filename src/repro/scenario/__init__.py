"""Declarative scenario engine: named files instead of argparse piles.

A *scenario* is a small JSON or YAML-subset document that composes the
repo's building blocks — workload + arrival pattern, dataplanes, cluster
topology and placement, fault plan, resilience/cloning policy, keep-alive
policy, admission/SLO targets, observability — into a named, validated,
reproducible experiment::

    spright-repro run scenarios/boutique-baseline.json
    spright-repro run clone-sweep --set workload.duration=5
    spright-repro run --validate-only scenarios/*

Design contract (see DESIGN.md "Scenario engine"):

* **zero dependencies** — strict stdlib JSON plus a minimal hand-rolled
  YAML subset (:mod:`repro.scenario.parser`);
* **validated with precise paths** — a hand-rolled JSON-schema-style
  validator (:mod:`repro.scenario.schema`) rejects unknown keys, wrong
  types, and bad enum members with JSON-pointer-style error paths;
* **flags are scenario keys** — a flag invocation builds a scenario
  document and runs it through the same resolve → execute path, so its
  stdout is byte-identical to the equivalent scenario and the checked-in
  goldens double as scenario regression fixtures;
* **deterministic seeds** — ``seed: auto`` derives the seed from the
  scenario *name*; the default stays the repo-wide legacy seed 2022;
* **resolution order** — file < ``--set`` overrides, and conflicting
  overrides are typed errors, never silent last-writer-wins.
"""

from .parser import (
    ScenarioParseError,
    parse_json,
    parse_scalar,
    parse_scenario_text,
    parse_yaml,
)
from .resolve import (
    KEYS,
    LEGACY_SEED,
    ResolvedScenario,
    SEEDABLE,
    WORKLOAD_KINDS_BY_EXPERIMENT,
    apply_overrides,
    derive_seed,
    resolve,
)
from .run import (
    SCENARIO_DIR,
    check_scenario,
    execute,
    find_scenario,
    iter_library,
    load_document,
    load_scenario,
    run_scenario,
    write_report,
)
from .schema import (
    ARRIVAL_PATTERNS,
    EXPERIMENT_NAMES,
    FAULT_KINDS,
    KEEPALIVE_POLICIES,
    PLACEMENT_POLICIES,
    PLANE_NAMES,
    SCENARIO_SCHEMA,
    SCHEMA_ID,
    ScenarioError,
    ScenarioOverrideError,
    ScenarioValidationError,
    WORKLOAD_KINDS,
    validate_scenario,
    validation_errors,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "EXPERIMENT_NAMES",
    "FAULT_KINDS",
    "KEYS",
    "KEEPALIVE_POLICIES",
    "LEGACY_SEED",
    "PLACEMENT_POLICIES",
    "PLANE_NAMES",
    "ResolvedScenario",
    "SCENARIO_DIR",
    "SCENARIO_SCHEMA",
    "SCHEMA_ID",
    "SEEDABLE",
    "ScenarioError",
    "ScenarioOverrideError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "WORKLOAD_KINDS",
    "WORKLOAD_KINDS_BY_EXPERIMENT",
    "apply_overrides",
    "check_scenario",
    "derive_seed",
    "execute",
    "find_scenario",
    "iter_library",
    "load_document",
    "load_scenario",
    "parse_json",
    "parse_scalar",
    "parse_scenario_text",
    "parse_yaml",
    "resolve",
    "run_scenario",
    "validate_scenario",
    "validation_errors",
    "write_report",
]
