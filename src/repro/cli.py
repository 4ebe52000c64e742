"""Command-line entry point: regenerate any table/figure of the paper.

Examples::

    spright-repro tables            # Tables 1 and 2 (overhead audits)
    spright-repro fig5 --max-concurrency 128
    spright-repro boutique --scale 0.1 --duration 60
    spright-repro faults --fault-plan loss-crash --retries 2 --hedge 0.05
    spright-repro trace --plane s-spright --workload boutique --out out/
    spright-repro traffic --policies kpa pinned --patterns bursty
    spright-repro cluster --planes s-spright lambda-nic --sanitize
    spright-repro all               # everything, at smoke-test scale

Flags are scenario keys: ``spright-repro <experiment> [flags]`` builds
the scenario document ``{name: <experiment>, experiment: <experiment>,
…}`` with one key per given flag (see :data:`FLAGS`) and runs it through
the same resolve → execute path as ``run``. Each experiment's
``run_config`` holds its own defaults, and a flag the experiment does not
consume exits 2 with the scenario path it would set.

``run`` executes declarative scenario files (DESIGN.md "Scenario
engine")::

    spright-repro run clone-sweep --set workload.duration=5
    spright-repro run --validate-only scenarios/*.json scenarios/*.yaml

``serve`` wraps any other command with the live dashboard (the URL goes
to stderr; stdout stays byte-identical to a headless run)::

    spright-repro serve --port 8089 --linger 600 -- boutique --trace
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .faults import NAMED_PLANS
from .obs.live import dashboard_session
from .scenario import (
    ARRIVAL_PATTERNS,
    EXPERIMENT_NAMES,
    KEEPALIVE_POLICIES,
    PLACEMENT_POLICIES,
    PLANE_NAMES,
    SCHEMA_ID,
    WORKLOAD_KINDS_BY_EXPERIMENT,
    ScenarioError,
    check_scenario,
    execute,
    resolve,
    run_scenario,
)

#: One row per flag: (flag, the dotted scenario path it sets, argparse
#: kwargs). No row has a default: a flag not given is absent from the
#: document, so each experiment's ``run_config`` owns its defaults.
FLAGS = (
    ("--duration", "workload.duration", dict(type=float, help="simulated seconds per run")),
    ("--scale", "workload.scale", dict(
        type=float, help="boutique scale factor: users and cores shrink together")),
    ("--max-concurrency", "workload.max_concurrency", dict(type=int, help="fig5 sweep ceiling")),
    ("--fault-plan", "faults.plan", dict(
        help=f"faults: named plan ({', '.join(sorted(NAMED_PLANS))}), a JSON file path, "
        "or 'none' for an empty plan")),
    # 'off' is CLI sugar for d=1; a scenario spells it 1.
    ("--clone-factor", "resilience.clone_factor", dict(
        type=lambda text: 1 if text == "off" else int(text) if text.isdigit() else text,
        metavar="D", help="faults: synchronized request clones per attempt — an integer d, "
        "'off' (d=1 everywhere), or 'optimal' (the default: the lab-measured per-plane "
        "optimum, d=2 on the shared-memory planes and d=1 on knative/grpc)")),
    ("--retries", "resilience.retries", dict(
        type=int, help="faults: retry budget per request (0 disables retries)")),
    ("--hedge", "resilience.hedge_delay", dict(
        type=float, metavar="DELAY_S", help="faults: launch a hedged duplicate after this "
        "many seconds without a response (off by default)")),
    ("--request-timeout", "resilience.timeout", dict(
        type=float, help="faults: per-attempt timeout in seconds")),
    ("--planes", "planes", dict(
        nargs="+", choices=PLANE_NAMES,
        help="faults/recovery/traffic/cluster: restrict the suite to these dataplanes")),
    ("--nodes", "cluster.nodes", dict(
        type=int, help="cluster: node count for the multi-node sweep points")),
    ("--placement", "cluster.placement", dict(
        choices=PLACEMENT_POLICIES, help="cluster: restrict the sweep to one placement policy")),
    ("--no-overload", "admission.overload", dict(
        action="store_false", help="recovery: skip the overload/admission-control comparison")),
    ("--plane", "planes", dict(
        action="append", choices=PLANE_NAMES, help="trace: which dataplane to run traced")),
    ("--workload", "workload.kind", dict(
        choices=WORKLOAD_KINDS_BY_EXPERIMENT["trace"], help="trace: which workload to run traced")),
    ("--functions", "workload.functions", dict(
        type=int, help="traffic: number of functions in the synthetic fleet")),
    ("--processes", "workload.processes", dict(
        type=int, help="traffic: worker processes for the fleet runner (output is "
        "byte-identical to the serial run)")),
    ("--policies", "keepalive.policies", dict(
        nargs="+", choices=KEEPALIVE_POLICIES,
        help="traffic: restrict the sweep to these keep-alive policies")),
    ("--patterns", "keepalive.patterns", dict(
        nargs="+", choices=ARRIVAL_PATTERNS,
        help="traffic: restrict the sweep to these fleet arrival patterns")),
    ("--trace", "observability.trace", dict(
        action="store_true", help="enable causal span tracing for every node this run creates "
        "(with --out, writes Chrome/Perfetto trace-event JSON)")),
    ("--profile", "observability.profile", dict(
        action="store_true", help="enable the simulated-CPU profiler for every node this run "
        "creates (with --out, writes folded flamegraph stacks)")),
    ("--out", "observability.out", dict(
        help="also write the report (and a JSON copy) under this directory")),
    ("--sanitize", "observability.sanitize", dict(
        action="store_true", help="run every SPRIGHT chain in memory-safety checked mode: the "
        "generation-tagged sanitizer watches the shared pools, counts violations under "
        "sanitizer/* node counters, and reports buffers leaked at chain teardown")),
)

#: ``all``: every paper table and figure at smoke-test scale. It takes
#: only the observability flags, which are merged into each document.
ALL = (
    ("tables", {}),
    ("fig2", {"workload.duration": 2.0}),
    ("fig5", {"workload.max_concurrency": 64, "workload.duration": 1.0}),
    ("motion", {"workload.duration": 1200.0}),
    ("parking", {"workload.duration": 700.0}),
    ("xdp", {"workload.duration": 1.0}),
    ("ablations", {}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spright-repro", description="Regenerate the SPRIGHT paper's tables and figures."
    )
    parser.add_argument("command", choices=EXPERIMENT_NAMES + ("all",))
    for flag, path, kwargs in FLAGS:
        parser.add_argument(flag, dest=path, default=argparse.SUPPRESS, **kwargs)
    return parser


def _document(experiment: str, keys: dict) -> dict:
    """The scenario document that the dotted-path ``keys`` describe."""
    doc = {"schema": SCHEMA_ID, "name": experiment, "experiment": experiment}
    for path, value in keys.items():
        *sections, key = path.split(".")
        target = doc
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
    return doc


def _serve(argv) -> int:
    """The ``serve`` subcommand: wrap an inner command with the dashboard."""
    parser = argparse.ArgumentParser(
        prog="spright-repro serve",
        description="Serve the live dashboard around any other command: "
        "spright-repro serve [options] -- <command> [args]",
    )
    parser.add_argument(
        "--port", type=int, default=8089, help="dashboard port (0 = ephemeral)"
    )
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep serving this long after the inner command finishes",
    )
    if "--" in argv:
        split = argv.index("--")
        own, inner = argv[:split], argv[split + 1 :]
    else:
        own, inner = argv, []
    args = parser.parse_args(own)
    if not inner:
        parser.error("serve needs a wrapped command: serve [options] -- boutique ...")
    with dashboard_session(args.host, args.port) as (sink, _server):
        code = main(inner)
        sink.finalize()
        if args.linger > 0:
            import time

            print(
                f"spright-repro dashboard: lingering {args.linger:.0f}s "
                "(Ctrl-C to stop)",
                file=sys.stderr,
            )
            with contextlib.suppress(KeyboardInterrupt):
                time.sleep(args.linger)
    return code


def _run(argv) -> int:
    """The ``run`` subcommand: execute or validate declarative scenarios."""
    parser = argparse.ArgumentParser(
        prog="spright-repro run",
        description="Run a declarative scenario: "
        "spright-repro run <scenario> [--set key=value ...]. A scenario is "
        "a JSON or YAML file (or a bare name resolved under scenarios/) "
        "whose output is byte-identical to the equivalent flag invocation.",
    )
    parser.add_argument(
        "scenarios",
        nargs="+",
        metavar="SCENARIO",
        help="scenario file path, or a bare name resolved under scenarios/",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario key by dotted path (e.g. "
        "workload.duration=5); resolution order is file < --set",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="parse + validate + resolve every scenario without running it",
    )
    args = parser.parse_args(argv)
    if args.validate_only:
        failures = 0
        for spec in args.scenarios:
            errors = check_scenario(spec, overrides=args.overrides)
            if errors:
                failures += 1
                for path, message in errors:
                    print(f"{spec}: {path}: {message}")
            else:
                print(f"{spec}: ok")
        return 1 if failures else 0
    if len(args.scenarios) != 1:
        parser.error(
            "run executes exactly one scenario "
            "(use --validate-only to check several at once)"
        )
    try:
        _resolved, report = run_scenario(args.scenarios[0], overrides=args.overrides)
    except ScenarioError as exc:
        print(f"spright-repro run: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    if argv and argv[0] == "run":
        return _run(argv[1:])
    keys = vars(build_parser().parse_args(argv))
    command = keys.pop("command")
    try:
        if command != "all":
            docs = [_document(command, keys)]
        elif any(not path.startswith("observability.") for path in keys):
            raise ScenarioError(f"all takes only observability flags (got {', '.join(keys)})")
        else:
            docs = [_document(name, {**workload, **keys}) for name, workload in ALL]
        scenarios = [resolve(doc) for doc in docs]
    except ScenarioError as exc:
        print(f"spright-repro {command}: {exc}", file=sys.stderr)
        return 2
    print("\n\n".join(execute(scenario) for scenario in scenarios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
