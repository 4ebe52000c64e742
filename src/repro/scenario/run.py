"""Scenario execution: load -> override -> resolve -> dispatch -> report.

``spright-repro run <scenario> [--set key=value …]`` lands here, and so
does every flag invocation: ``spright-repro <experiment> [flags]`` builds
the equivalent scenario document and runs it through the same
:func:`resolve` → :func:`execute` path. That is why a scenario's stdout is
byte-identical to the equivalent flag invocation (CI diffs the baseline
boutique scenario against ``tests/goldens/fig910-smoke.txt``).
:func:`_entry_points` is the one experiment registry.

Process-wide toggles from the ``observability`` section (trace, profile,
sanitize) are saved and restored around the run, so embedding
``run_scenario`` in a longer program (or a test suite) cannot leak state
into later experiments. Scenario metadata — name and derived seed — goes
to *stderr* and to the live dashboard (when one is attached), never to
stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

from .. import obs
from ..mem import default_sanitize, set_default_sanitize
from ..obs.live import dashboard_session
from .parser import parse_scenario_text
from .resolve import ResolvedScenario, apply_overrides, resolve
from .schema import ScenarioError, validation_errors

#: Where bare scenario names resolve: ``spright-repro run clone-sweep``
#: looks for ``scenarios/clone-sweep.{json,yaml,yml}`` under the cwd.
SCENARIO_DIR = "scenarios"
_EXTENSIONS = (".json", ".yaml", ".yml")


def _entry_points() -> dict[str, Callable[[dict], str]]:
    """Experiment family -> run_config entry point (imported lazily so
    ``import repro.scenario`` stays cheap for schema-only consumers)."""
    from ..experiments import (
        ablations,
        audits,
        boutique_exp,
        cloning_exp,
        cluster_exp,
        faults_exp,
        fig2,
        fig5,
        motion_exp,
        parking_exp,
        recovery_exp,
        trace_exp,
        traffic_exp,
        xdp_exp,
    )

    return {
        "tables": audits.run_config,
        "fig2": fig2.run_config,
        "fig5": fig5.run_config,
        "boutique": boutique_exp.run_config,
        "motion": motion_exp.run_config,
        "parking": parking_exp.run_config,
        "xdp": xdp_exp.run_config,
        "ablations": ablations.run_config,
        "faults": faults_exp.run_config,
        "recovery": recovery_exp.run_config,
        "trace": trace_exp.run_config,
        "traffic": traffic_exp.run_config,
        "cluster": cluster_exp.run_config,
        "cloning": cloning_exp.run_config,
    }


def find_scenario(spec: str) -> Path:
    """A path as given, or a named scenario under ``scenarios/``."""
    path = Path(spec)
    if path.is_file():
        return path
    if not path.suffix:
        for extension in _EXTENSIONS:
            candidate = Path(SCENARIO_DIR) / f"{spec}{extension}"
            if candidate.is_file():
                return candidate
    raise ScenarioError(
        f"no scenario file {spec!r} (looked for the path itself and "
        f"{SCENARIO_DIR}/{spec}{{{','.join(_EXTENSIONS)}}})"
    )


def load_document(spec: str) -> dict:
    path = find_scenario(spec)
    return parse_scenario_text(path.read_text(), source=str(path))


def load_scenario(spec: str, overrides=()) -> ResolvedScenario:
    """Parse + override + validate + resolve, without running anything."""
    doc = load_document(spec)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return resolve(doc)


def check_scenario(spec: str, overrides=()) -> list:
    """Validation errors for one file (parse errors surface as one entry)."""
    try:
        doc = load_document(spec)
        if overrides:
            doc = apply_overrides(doc, overrides)
    except ScenarioError as exc:
        return [("/", str(exc))]
    errors = validation_errors(doc)
    if errors:
        return errors
    try:
        resolve(doc)
    except ScenarioError as exc:
        path = getattr(exc, "path", "/")
        return [(path, getattr(exc, "message", str(exc)))]
    return []


def execute(resolved: ResolvedScenario) -> str:
    """Run a resolved scenario and return its report (what stdout gets).

    The observability section's process-wide toggles are scoped to this
    call; the active live dashboard (if any) learns the scenario name.
    With ``out``, the report is written there, and so are the per-node
    trace, metrics and folded-stack artifacts of a traced or profiled run.
    """
    entry = _entry_points()[resolved.experiment]
    observability = resolved.observability
    saved_sanitize = default_sanitize()
    saved_observe = obs.default_observe()
    earlier_sessions = obs.active_sessions()
    sink = obs.default_live_sink()
    if sink is not None:
        sink.set_scenario(resolved.name)
    try:
        if "sanitize" in observability:
            set_default_sanitize(observability["sanitize"])
        if observability.get("trace") or observability.get("profile"):
            obs.set_default_observe(
                trace=bool(observability.get("trace")),
                profile=bool(observability.get("profile")),
            )
        if observability.get("serve") and sink is None:
            with dashboard_session() as (serve_sink, _server):
                serve_sink.set_scenario(resolved.name)
                report = entry(resolved.config)
                serve_sink.finalize()
        else:
            report = entry(resolved.config)
    finally:
        set_default_sanitize(saved_sanitize)
        obs.set_default_observe(*saved_observe)
    out = observability.get("out")
    if out:
        directory = Path(out)
        write_report(resolved, report, directory)
        observed = observability.get("trace") or observability.get("profile")
        # ``trace`` writes its own artifacts under ``out``. Only the nodes
        # this run created are exported, so each run of ``all`` numbers its
        # own nodes from 1.
        if observed and resolved.experiment != "trace":
            sessions = [
                session
                for session in obs.active_sessions()
                if not any(session is earlier for earlier in earlier_sessions)
            ]
            for index, session in enumerate(sessions, start=1):
                obs.export.write_artifacts(
                    directory,
                    tracer=session.tracer,
                    registry=session.registry,
                    profiler=session.profiler,
                    basename=f"{resolved.name}-node{index}",
                )
    return report


def run_scenario(spec: str, overrides=()) -> tuple[ResolvedScenario, str]:
    """The ``spright-repro run`` body: load, resolve, execute."""
    resolved = load_scenario(spec, overrides)
    print(
        f"scenario {resolved.name}: experiment={resolved.experiment} "
        f"seed={resolved.seed}",
        file=sys.stderr,
    )
    return resolved, execute(resolved)


def write_report(
    resolved: ResolvedScenario, report: str, directory: Path
) -> list[Path]:
    """Persist the report as ``<name>.txt`` + ``<name>.json`` under ``directory``."""
    from ..stats import write_json

    directory.mkdir(parents=True, exist_ok=True)
    text_path = directory / f"{resolved.name}.txt"
    text_path.write_text(report + "\n")
    json_path = directory / f"{resolved.name}.json"
    write_json(
        json_path,
        {
            "scenario": resolved.name,
            "experiment": resolved.experiment,
            "seed": resolved.seed,
            "config": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in resolved.config.items()
            },
            "report": report,
        },
    )
    return [text_path, json_path]
