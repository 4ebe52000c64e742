"""Host-speed benchmark of the SPRIGHT simulator: one workload per call.

    python3 bench/run.py --workload boutique-sspright [--seed 2022]
                         [--seconds 15] [--trace 0|1]
    python3 bench/run.py --write-expected

Run from the repository root; nothing needs installing or building. The
simulator is imported from ``src/`` of the same checkout.

With ``--trace 0`` it reports the end-to-end metrics: simulated requests
completed per host second, set-up time and peak memory. Host seconds are
scaled to a reference host's speed (see ``calibrate.py``). With ``--trace 1``
it reports the per-layer metrics instead: a cProfile replay of the same
episodes folded into the simulator's layers, exact per-request work counts
and the microbenchmarks. Every run first checks the seed-2022 reference
episode against ``expected.json`` and every episode's invariants; a run
whose outputs are wrong reports ``"correct": false`` and no numbers, and
exits 1. ``--write-expected`` regenerates ``expected.json``.

Each task runs in its own fresh ``child.py`` process, one at a time. The
last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (simulated requests sent and failed in the measured episodes)
and ``metrics``, each with its value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from layers import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

WORKLOADS = ("boutique-sspright", "boutique-knative", "boutique-grpc", "sspright-chaos")
#: Layers that do work on every workload. Only these get an absolute time
#: per request: for the others it is exactly zero on some workload, and
#: their share already says the same.
BUSY_LAYERS = ("simcore", "kernel", "dataplane", "runtime", "workloads", "stats")
#: Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 5
#: Every child must have finished this many seconds after the start.
DEADLINE_S = 170.0
#: The exit code ``child.py`` reports wrong outputs with.
EXIT_INCORRECT = 3


class ChildError(Exception):
    """A child process failed for a reason other than wrong outputs."""


class Incorrect(Exception):
    """A child found outputs that break the correctness gate."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC_DIR), env.get("PYTHONPATH")) if part
    )
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run ``child.py`` with ``args`` and return the JSON it printed."""
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} did not finish before the deadline") from None
    if done.returncode == EXIT_INCORRECT:
        raise Incorrect(done.stderr.strip())
    if done.returncode != 0:
        raise ChildError(f"child {args} exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> float:
    """Set-up time of one fresh process, scaled to the reference host."""
    speed_before = calibrate.speed()
    started = time.monotonic()
    probe = run_child(["setup", workload, str(seed)], deadline)
    elapsed = probe["first_event_monotonic"] - started
    return elapsed * (speed_before + calibrate.speed()) / 2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(measured: dict, setups: list) -> dict:
    rates = [e["completed"] / e["ref_s"] for e in measured["episodes"]]
    return {
        "sim_req_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
    }


def per_layer(measured: dict) -> dict:
    episodes = measured["episodes"]
    ref_s = sum(e["ref_s"] for e in episodes)
    completed = sum(e["completed"] for e in episodes)
    events = sum(e["events"] for e in episodes)
    share = measured["layer_shares"]
    calls = measured["calls"]
    out = {f"{layer}.share": metric(100 * share[layer], "%") for layer in LAYERS + ("other",)}
    for layer in BUSY_LAYERS:
        out[f"{layer}.us_per_req"] = metric(share[layer] * ref_s / completed * 1e6, "us")
    out.update({
        "simcore.events_per_req": metric(events / completed, "count/req"),
        "simcore.events_per_s": metric(events / ref_s, "1/s"),
        "simcore.ns_per_event": metric(share["simcore"] * ref_s / events * 1e9, "ns"),
        "kernel.bundles_per_req": metric(calls["kernel.bundles"] / completed, "count/req"),
        "ebpf.runs_per_req": metric(calls["ebpf.runs"] / completed, "count/req"),
        "mem.ops_per_req": metric(calls["mem.ops"] / completed, "count/req"),
        "protocols.encodes_per_req": metric(calls["protocols.encodes"] / completed, "count/req"),
        "obs.spans_per_req": metric(sum(e["spans"] for e in episodes) / completed, "count/req"),
        "faults.useful_ratio": metric(
            sum(e["drained"] for e in episodes)
            / sum(e["sent"] + e["clones"] + e["retries"] for e in episodes),
            "ratio",
        ),
        "recovery.restarts": metric(
            sum(e["restarts"] for e in episodes) / len(episodes), "count/episode"
        ),
        "trace.overhead": metric(measured["profiled_ref_s"] / ref_s, "x"),
        "host.speed": metric(ref_s / sum(e["host_s"] for e in episodes), "x"),
    })
    out.update({name: metric(ns, "ns") for name, ns in measured["micro"].items()})
    return out


def benchmark(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measured = run_child(
        ["measure", args.workload, str(args.seed), str(args.seconds), str(args.trace)],
        deadline,
    )
    if args.trace:
        metrics = per_layer(measured)
    else:
        setups = [
            setup_seconds(args.workload, args.seed, deadline) for _ in range(SETUP_PROBES)
        ]
        metrics = end_to_end(measured, setups)
    episodes = measured["episodes"]
    return {
        "correct": True,
        "attempted": sum(e["sent"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "metrics": metrics,
    }


def write_expected() -> None:
    deadline = time.monotonic() + DEADLINE_S * len(WORKLOADS)
    expected = {name: run_child(["reference", name], deadline) for name in WORKLOADS}
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {BENCH_DIR / 'expected.json'}")


def parse_args(argv: list):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {SRC_DIR / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.write_expected:
            write_expected()
            return 0
        result = benchmark(args)
    except ChildError as error:
        print(error, file=sys.stderr)
        return 2
    except Incorrect as error:
        print(error, file=sys.stderr)
        # The gate stops the run at the first wrong output, so the run itself
        # is the one attempt reported, and it failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for name, entry in result["metrics"].items():
        print(f"{args.workload:18s} {name:36s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
