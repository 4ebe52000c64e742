"""Command-line entry point: regenerate any table/figure of the paper.

Examples::

    spright-repro tables            # Tables 1 and 2 (overhead audits)
    spright-repro fig2              # sidecar comparison
    spright-repro fig5 --max-concurrency 128
    spright-repro boutique --scale 0.1 --duration 60
    spright-repro motion --duration 1800
    spright-repro parking
    spright-repro xdp
    spright-repro ablations
    spright-repro faults --fault-plan loss-crash --retries 2 --hedge 0.05
    spright-repro recovery --planes s-spright --duration 30
    spright-repro trace --plane s-spright --workload boutique --out out/
    spright-repro traffic --functions 12 --processes 2
    spright-repro traffic --policies kpa pinned --patterns bursty
    spright-repro cluster --nodes 3 --placement all
    spright-repro cluster --planes s-spright lambda-nic --sanitize
    spright-repro cloning --duration 20   # PS cloning lab: oracle + plane sweep
    spright-repro all               # everything, at smoke-test scale

``run`` executes a declarative scenario file (byte-identical stdout to
the equivalent flag invocation; see DESIGN.md "Scenario engine")::

    spright-repro run scenarios/boutique-baseline.json
    spright-repro run clone-sweep --set workload.duration=5
    spright-repro run --validate-only scenarios/*.json scenarios/*.yaml

Any command also accepts ``--trace``/``--profile``: the run executes with
span tracing / CPU profiling on, and with ``--out`` the Perfetto trace
JSON, OpenMetrics text, and folded flamegraph stacks are written next to
the report.

``serve`` wraps any other command with the live dashboard::

    spright-repro serve --port 8089 -- traffic --functions 12
    spright-repro serve --linger 600 -- boutique --duration 120 --trace

The inner command runs unchanged (stdout stays byte-identical to a
headless run — the dashboard URL goes to stderr) while an SSE server
streams metrics, span waterfalls, SLO burn rates, and economics to the
browser. ``--linger`` keeps the server up after the run completes so the
final state stays inspectable.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import obs
from .mem import set_default_sanitize
from .experiments import (
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
from .faults import NAMED_PLANS

# Each _cmd_* builds a config dict and delegates to the experiment module's
# run_config entry point — the same entry point `spright-repro run <scenario>`
# dispatches to, which is what keeps a scenario's stdout byte-identical to the
# equivalent flag invocation.


def _cmd_tables(_args) -> str:
    return audits.run_config()


def _cmd_fig2(args) -> str:
    return fig2.run_config({"duration": args.duration or 5.0})


def _cmd_fig5(args) -> str:
    return fig5.run_config(
        {
            "max_concurrency": args.max_concurrency,
            "duration": args.duration or 1.0,
        }
    )


def _cmd_boutique(args) -> str:
    return boutique_exp.run_config(
        {"scale": args.scale, "duration": args.duration or 60.0}
    )


def _cmd_motion(args) -> str:
    return motion_exp.run_config({"duration": args.duration or 3600.0})


def _cmd_parking(args) -> str:
    return parking_exp.run_config({"duration": args.duration or 700.0})


def _cmd_xdp(args) -> str:
    return xdp_exp.run_config({"duration": args.duration or 2.0})


def _cmd_ablations(_args) -> str:
    return ablations.run_config()


def _cmd_faults(args) -> str:
    return faults_exp.run_config(
        {
            "fault_plan": args.fault_plan,
            "retries": args.retries,
            "hedge_delay": args.hedge,
            "request_timeout": args.request_timeout,
            "clone_factor": args.clone_factor,
            "scale": args.scale,
            "duration": args.duration or 30.0,
        }
    )


def _cmd_recovery(args) -> str:
    return recovery_exp.run_config(
        {
            "planes": args.planes,
            "scale": args.scale,
            "duration": args.duration or 30.0,
            "include_overload": not args.no_overload,
        }
    )


def _cmd_trace(args) -> str:
    return trace_exp.run_config(
        {
            "plane": args.plane,
            "workload": args.workload,
            "scale": args.scale,
            "duration": args.duration or 10.0,
            "out": args.out,
        }
    )


def _cmd_traffic(args) -> str:
    return traffic_exp.run_config(
        {
            "planes": args.planes,
            "policies": args.policies,
            "patterns": args.patterns,
            "functions": args.functions,
            "duration": args.duration or 14400.0,
            "processes": args.processes,
        }
    )


def _cmd_cluster(args) -> str:
    return cluster_exp.run_config(
        {
            "planes": args.planes,
            "nodes": args.nodes,
            "placement": args.placement,
            "duration": args.duration or 2.0,
        }
    )


def _cmd_cloning(args) -> str:
    return cloning_exp.run_config({"duration": args.duration or 20.0})


def _cmd_all(args) -> str:
    sections = [
        _cmd_tables(args),
        _cmd_fig2(argparse.Namespace(duration=2.0)),
        _cmd_fig5(argparse.Namespace(max_concurrency=64, duration=1.0)),
        _cmd_motion(argparse.Namespace(duration=1200.0)),
        _cmd_parking(argparse.Namespace(duration=700.0)),
        _cmd_xdp(argparse.Namespace(duration=1.0)),
        _cmd_ablations(args),
    ]
    return "\n\n".join(sections)


COMMANDS = {
    "tables": _cmd_tables,
    "fig2": _cmd_fig2,
    "fig5": _cmd_fig5,
    "boutique": _cmd_boutique,
    "motion": _cmd_motion,
    "parking": _cmd_parking,
    "xdp": _cmd_xdp,
    "ablations": _cmd_ablations,
    "faults": _cmd_faults,
    "recovery": _cmd_recovery,
    "trace": _cmd_trace,
    "traffic": _cmd_traffic,
    "cluster": _cmd_cluster,
    "cloning": _cmd_cloning,
    "all": _cmd_all,
}


@contextlib.contextmanager
def dashboard_session(host: str = "127.0.0.1", port: int = 0):
    """Run a live dashboard around a block of simulation work.

    Installs a process-wide :class:`~repro.obs.live.LiveSink` (every node
    created inside the block auto-attaches) and serves it over HTTP/SSE.
    The URL is printed to **stderr** so the wrapped command's stdout stays
    byte-identical to a headless run.
    """
    from .obs.live import DashboardServer, LiveSink

    sink = LiveSink()
    server = DashboardServer(sink, host=host, port=port)
    server.start()
    obs.set_default_live_sink(sink)
    print(f"spright-repro dashboard: {server.url}", file=sys.stderr)
    try:
        yield sink, server
    finally:
        obs.set_default_live_sink(None)
        sink.detach_all()
        server.stop()


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
    from .scenario import ScenarioError, check_scenario, run_scenario

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


def _clone_factor_arg(text: str):
    """``--clone-factor``: an integer d, 'off', or 'optimal'."""
    if text in ("optimal", "off"):
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, 'off', or 'optimal', got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError("clone factor must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spright-repro",
        description="Regenerate the SPRIGHT paper's tables and figures.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument(
        "--duration", type=float, default=None, help="simulated seconds per run"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="boutique scale factor: users and cores shrink together",
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=512, help="fig5 sweep ceiling"
    )
    parser.add_argument(
        "--fault-plan",
        type=str,
        default="loss-crash",
        help="faults: named plan ("
        + ", ".join(sorted(NAMED_PLANS))
        + "), a JSON file path, or 'none' for an empty plan",
    )
    parser.add_argument(
        "--clone-factor",
        type=_clone_factor_arg,
        default="optimal",
        metavar="D",
        help="faults: synchronized request clones per attempt — an integer "
        "d, 'off' (d=1 everywhere), or 'optimal' (the default: the "
        "lab-measured per-plane optimum, d=2 on the shared-memory planes "
        "and d=1 on knative/grpc)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="faults: retry budget per request (0 disables retries)",
    )
    parser.add_argument(
        "--hedge",
        type=float,
        default=None,
        metavar="DELAY_S",
        help="faults: launch a hedged duplicate after this many seconds "
        "without a response (off by default)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=1.0,
        help="faults: per-attempt timeout in seconds",
    )
    parser.add_argument(
        "--planes",
        type=str,
        nargs="+",
        default=None,
        choices=("knative", "grpc", "s-spright", "d-spright", "lambda-nic"),
        help="recovery/cluster: restrict the suite to these dataplanes",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="cluster: node count for the multi-node sweep points",
    )
    parser.add_argument(
        "--placement",
        type=str,
        default="all",
        choices=("all",) + cluster_exp.POLICIES,
        help="cluster: restrict the sweep to one placement policy",
    )
    parser.add_argument(
        "--no-overload",
        action="store_true",
        help="recovery: skip the overload/admission-control comparison",
    )
    parser.add_argument(
        "--plane",
        type=str,
        default="s-spright",
        choices=("knative", "grpc", "s-spright", "d-spright"),
        help="trace: which dataplane to run traced",
    )
    parser.add_argument(
        "--workload",
        type=str,
        default="boutique",
        choices=sorted(trace_exp.WORKLOADS),
        help="trace: which workload to run traced",
    )
    parser.add_argument(
        "--functions",
        type=int,
        default=12,
        help="traffic: number of functions in the synthetic fleet",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="traffic: worker processes for the fleet runner (output is "
        "byte-identical to the serial run)",
    )
    parser.add_argument(
        "--policies",
        type=str,
        nargs="+",
        default=None,
        choices=("fixed", "kpa", "histogram", "pinned"),
        help="traffic: restrict the sweep to these keep-alive policies",
    )
    parser.add_argument(
        "--patterns",
        type=str,
        nargs="+",
        default=None,
        choices=("flat", "diurnal", "bursty"),
        help="traffic: restrict the sweep to these fleet arrival patterns",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable causal span tracing for every node this run creates "
        "(with --out, writes Chrome/Perfetto trace-event JSON)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the simulated-CPU profiler for every node this run "
        "creates (with --out, writes folded flamegraph stacks)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="also write the report (and a JSON copy) under this directory",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every SPRIGHT chain in memory-safety checked mode: the "
        "generation-tagged sanitizer watches the shared pools, counts "
        "violations under sanitizer/* node counters, and reports buffers "
        "leaked at chain teardown",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    if argv and argv[0] == "run":
        return _run(argv[1:])
    args = build_parser().parse_args(argv)
    if args.sanitize:
        set_default_sanitize(True)
    if args.trace or args.profile:
        obs.set_default_observe(trace=args.trace, profile=args.profile)
    report = COMMANDS[args.command](args)
    print(report)
    if args.out:
        from pathlib import Path

        from .stats import write_json

        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{args.command}.txt").write_text(report + "\n")
        write_json(
            directory / f"{args.command}.json",
            {"command": args.command, "report": report},
        )
        if (args.trace or args.profile) and args.command != "trace":
            for index, session in enumerate(obs.active_sessions(), start=1):
                obs.export.write_artifacts(
                    directory,
                    tracer=session.tracer,
                    registry=session.registry,
                    profiler=session.profiler,
                    basename=f"{args.command}-node{index}",
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
