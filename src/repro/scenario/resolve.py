"""Resolution: validated scenario document -> experiment entry-point config.

A scenario names one experiment family and composes sections — workload,
planes, cluster topology, fault plan, resilience/cloning policy,
keep-alive policy, admission/SLO targets, observability. A flag
invocation is a scenario too: the CLI's ``FLAGS`` table turns each flag
into the dotted scenario path it sets. This module:

* maps every consumed dotted path to its ``run_config`` key through one
  table, :data:`KEYS`, and rejects what the experiment does not consume
  at its own JSON pointer — ``/keepalive`` for a whole section on a
  ``boutique`` scenario, ``/workload/scale`` for one key on ``fig2``;
* checks what the table cannot state (the workload kind, one non-NIC
  plane for ``trace``, a custom seed on a fixed-seed experiment);
* applies ``--set key=value`` overrides (resolution order: file <
  overrides; conflicting or type-confused overrides are typed errors);
* derives the deterministic per-scenario seed (``seed: auto`` hashes the
  scenario *name*, so renaming a scenario is the only way to change its
  draw sequence).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field

from .parser import ScenarioParseError, _parse_flow, parse_scalar
from .schema import (
    EXPERIMENT_NAMES,
    ScenarioOverrideError,
    ScenarioValidationError,
    validate_scenario,
)

#: The repo-wide legacy seed: what every experiment defaults to, and what
#: the flag CLI cannot change — scenarios that must stay byte-identical to
#: a flag invocation pin (or default to) this.
LEGACY_SEED = 2022

#: Experiments whose runners accept a seed; the rest bake LEGACY_SEED in.
SEEDABLE = (
    "boutique",
    "motion",
    "parking",
    "faults",
    "recovery",
    "trace",
    "traffic",
    "cluster",
    "cloning",
)


def derive_seed(name: str) -> int:
    """Deterministic 31-bit seed from the scenario name (sha256-based)."""
    digest = hashlib.sha256(f"spright.scenario:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class ResolvedScenario:
    """A runnable scenario: experiment + canonical config + run options."""

    name: str
    experiment: str
    config: dict
    seed: int
    observability: dict = field(default_factory=dict)
    description: str = ""
    doc: dict = field(default_factory=dict)


# -- the key table -------------------------------------------------------------
_TIMED = tuple(name for name in EXPERIMENT_NAMES if name not in ("tables", "ablations"))

#: Every scenario key an experiment consumes: dotted path -> (the
#: ``run_config`` key it becomes, the experiments that consume it). A key
#: outside this table for the scenario's experiment is a bug in the
#: scenario, not dead weight to carry silently: it fails at its own path.
KEYS = {
    "workload.kind": ("workload", ("trace",)),
    "workload.scale": ("scale", ("boutique", "faults", "recovery", "trace")),
    "workload.duration": ("duration", _TIMED),
    "workload.max_concurrency": ("max_concurrency", ("fig5",)),
    "workload.functions": ("functions", ("traffic",)),
    "workload.processes": ("processes", ("traffic",)),
    "planes": ("planes", ("faults", "recovery", "trace", "traffic", "cluster")),
    "cluster.nodes": ("nodes", ("cluster",)),
    "cluster.placement": ("placement", ("cluster",)),
    "faults.plan": ("fault_plan", ("faults",)),
    "resilience.retries": ("retries", ("faults",)),
    "resilience.timeout": ("request_timeout", ("faults",)),
    "resilience.hedge_delay": ("hedge_delay", ("faults",)),
    "resilience.clone_factor": ("clone_factor", ("faults",)),
    "keepalive.policies": ("policies", ("traffic",)),
    "keepalive.patterns": ("patterns", ("traffic",)),
    "admission.overload": ("include_overload", ("recovery",)),
    "slo.threshold_s": ("slo_threshold", ("traffic",)),
}

#: The workload kinds each experiment runs; ``workload.kind`` is checked
#: against these (and passed on only to ``trace``, which runs either).
WORKLOAD_KINDS_BY_EXPERIMENT = {
    "boutique": ("boutique",),
    "motion": ("motion",),
    "parking": ("parking",),
    "faults": ("boutique",),
    "recovery": ("boutique",),
    "trace": ("boutique", "motion"),
    "traffic": ("synthetic-fleet",),
}

#: Sections every scenario may carry regardless of experiment.
_UNIVERSAL_SECTIONS = (
    "schema",
    "name",
    "description",
    "experiment",
    "seed",
    "observability",
)


def _fail(path: str, message: str):
    raise ScenarioValidationError(path, message)


def _config(doc: dict, experiment: str) -> dict:
    """The experiment's ``run_config`` dict, or a path error for any
    section or key it does not consume."""
    kinds = WORKLOAD_KINDS_BY_EXPERIMENT.get(experiment, ())
    consumed = [
        path
        for path, (_, users) in KEYS.items()
        if experiment in users or (path == "workload.kind" and kinds)
    ]
    sections = list(dict.fromkeys(path.split(".")[0] for path in consumed))
    for section in doc:
        if section not in _UNIVERSAL_SECTIONS and section not in sections:
            _fail(
                f"/{section}",
                f"section not consumed by experiment {experiment!r} "
                f"(allowed: {', '.join(sections) or 'none'})",
            )
    config: dict = {}
    for section in sections:
        value = doc.get(section)
        if value is None:
            continue
        entries = value.items() if isinstance(value, dict) else [(None, value)]
        for key, item in entries:
            path = section if key is None else f"{section}.{key}"
            if path not in consumed:
                _fail(
                    "/" + path.replace(".", "/"),
                    f"key not consumed by experiment {experiment!r} (allowed: "
                    f"{', '.join(p for p in consumed if p.startswith(section + '.'))})",
                )
            target, users = KEYS[path]
            if experiment in users:
                config[target] = tuple(item) if isinstance(item, list) else item
    kind = (doc.get("workload") or {}).get("kind")
    if kind is not None and kind not in kinds:
        _fail(
            "/workload/kind",
            f"{kind!r} does not run under experiment {experiment!r} "
            f"(expected {' or '.join(map(repr, kinds))})",
        )
    if experiment == "trace":
        planes = config.pop("planes", None)
        if planes is not None:
            if len(planes) != 1:
                _fail("/planes", "experiment 'trace' runs exactly one plane")
            if planes[0] == "lambda-nic":
                _fail("/planes/0", "experiment 'trace' does not support 'lambda-nic'")
            config["plane"] = planes[0]
        out = (doc.get("observability") or {}).get("out")
        if out:
            config["out"] = out
    return config


def resolve(doc: dict) -> ResolvedScenario:
    """Validate + cross-check + flatten one scenario document."""
    validate_scenario(doc)
    experiment = doc["experiment"]
    config = _config(doc, experiment)

    seed_spec = doc.get("seed", LEGACY_SEED)
    seed = derive_seed(doc["name"]) if seed_spec == "auto" else int(seed_spec)
    if experiment in SEEDABLE:
        config["seed"] = seed
    elif seed != LEGACY_SEED:
        _fail(
            "/seed",
            f"experiment {experiment!r} runs at the fixed seed "
            f"{LEGACY_SEED}; drop the seed key or pin it to {LEGACY_SEED}",
        )

    return ResolvedScenario(
        name=doc["name"],
        experiment=experiment,
        config=config,
        seed=seed,
        observability=dict(doc.get("observability") or {}),
        description=doc.get("description", ""),
        doc=doc,
    )


# -- --set overrides -----------------------------------------------------------
def _parse_override_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return _parse_flow(raw, None, f"--set {key}") if raw.startswith(("[", "{")) else parse_scalar(raw)
    except ScenarioParseError as exc:
        raise ScenarioOverrideError(key, f"unparseable value {raw!r}") from exc


def apply_overrides(doc: dict, assignments) -> dict:
    """Return a deep-copied document with ``--set key=value`` merged in.

    Resolution order is **file < overrides**. Typed failure modes:

    * no ``=`` or an empty key — malformed override;
    * the same dotted path set twice — conflicting overrides;
    * one override path nested under another (``faults`` *and*
      ``faults.plan``) — conflicting overrides;
    * a path segment that traverses a non-mapping value — type conflict,
      reported with the JSON-pointer of the scalar it hit.
    """
    doc = copy.deepcopy(doc)
    seen: dict[tuple, str] = {}
    for raw in assignments or ():
        key, eq, value_text = raw.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ScenarioOverrideError(raw, "override must look like section.key=value")
        parts = tuple(key.split("."))
        if any(not part for part in parts):
            raise ScenarioOverrideError(key, "override path has an empty segment")
        for other in seen:
            if parts == other:
                raise ScenarioOverrideError(
                    key, f"conflicting override: {key!r} is already set"
                )
            overlap = parts[: len(other)] == other or other[: len(parts)] == parts
            if overlap:
                raise ScenarioOverrideError(
                    key,
                    f"conflicting override: nested under or above "
                    f"{'.'.join(other)!r}",
                )
        seen[parts] = value_text
        value = _parse_override_value(key, value_text)
        target = doc
        for depth, part in enumerate(parts[:-1]):
            existing = target.get(part)
            if existing is None:
                existing = target[part] = {}
            if not isinstance(existing, dict):
                pointer = "/" + "/".join(parts[: depth + 1])
                raise ScenarioOverrideError(
                    key, f"cannot descend into non-mapping value at {pointer}"
                )
            target = existing
        target[parts[-1]] = value
    return doc
