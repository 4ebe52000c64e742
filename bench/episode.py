"""The benchmark's workloads and the episode that runs one of them.

An *episode* is one short boutique simulation on a fresh node: build the
node and plane, time ``node.run(until=duration)`` on the host clock (scaled
to a reference host speed, see ``calibrate.py``), drain for ``DRAIN`` more
simulated seconds untimed, then check the outputs. A
benchmark run repeats episodes with seeds derived from ``--seed`` until its
time is up, so a faster simulator finishes more episodes of identical work
and the per-episode rates can be compared across commits exactly.

All workloads are Table 3 boutique mixes under a Locust closed loop (think
time U(1, 10) s, 0.5 ms client overhead) on ``make_node(scale=0.1)``. Users
spawn at ``users / 5.5`` per second, the closed loop's steady arrival rate,
so an episode a few seconds long already carries the full run's request
rate instead of a ramp.

This module drives the simulator only through public entry points
(``make_node``/``build_plane``, ``ClosedLoopGenerator``/``WeightedMix``,
``NAMED_PLANS``/``default_resilience_for_plane``, the recovery supervisor,
``set_default_observe`` and ``node.run``), so refactors of the request
path behind them cannot break it.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass

import calibrate
from repro.dataplane import SprightParams
from repro.experiments.boutique_exp import knative_boutique_params
from repro.experiments.common import attach_recovery, build_plane, make_node
from repro.experiments.recovery_exp import default_recovery_policy
from repro.faults import NAMED_PLANS, default_resilience_for_plane
from repro.obs import set_default_observe
from repro.stats import LatencyRecorder
from repro.workloads import ClosedLoopGenerator, WeightedMix, boutique

#: Simulated seconds run after the load stops so in-flight requests finish
#: and the conservation and leak checks see a quiesced node.
DRAIN = 10.0

#: Timed slices per episode. Each is ~0.15 host seconds, short enough for
#: the calibration pass after it to see the speed the slice ran at.
SLICES = 16

#: Locust's mean think time, U(1, 10) s: spawning ``users / MEAN_THINK``
#: users per second offers the closed loop's steady rate from the start.
MEAN_THINK = 5.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a boutique closed loop on one plane."""

    plane: str
    users: int
    duration: float
    #: the chaos variant: loss-crash faults, resilience, recovery, tracing
    chaos: bool = False

    @property
    def spawn_rate(self) -> float:
        return self.users / MEAN_THINK


WORKLOADS = {
    # Where the eBPF SK_MSG redirects and the shared-memory pool do work.
    "boutique-sspright": Workload("s-spright", users=2500, duration=3.0),
    # Highest event-queue and kernel OpBundle share; no eBPF, pool or
    # codec work, so it is the control for SPRIGHT-only changes.
    "boutique-knative": Workload("knative", users=500, duration=16.0),
    # The only workload with real HPACK/protobuf/gRPC framing per hop.
    "boutique-grpc": Workload("grpc", users=500, duration=24.0),
    # s-spright through a packet-loss + pod-crash plan with cloning,
    # retries, a breaker, the pod supervisor, span tracing and the CPU
    # profiler: the only workload where obs, faults and recovery work.
    "sspright-chaos": Workload("s-spright", users=500, duration=7.0, chaos=True),
}


class CorrectnessError(Exception):
    """An episode's simulated outputs broke an invariant or a golden."""


@dataclass
class Episode:
    """A built, not yet run, episode."""

    workload: Workload
    node: object
    plane: object
    recorder: LatencyRecorder
    generator: ClosedLoopGenerator


def build(name: str, seed: int) -> Episode:
    """Build the node, plane and load generator of one episode."""
    workload = WORKLOADS[name]
    spright = workload.plane == "s-spright"
    # Pin observability and checked mode so environment variables cannot
    # change what is measured.
    set_default_observe(trace=workload.chaos, profile=workload.chaos)
    try:
        node = make_node(scale=0.1, seed=seed)
    finally:
        set_default_observe(trace=False, profile=False)
    plane = build_plane(
        workload.plane,
        node,
        boutique.spright_functions() if spright else boutique.go_grpc_functions(),
        knative_params=knative_boutique_params() if workload.plane == "knative" else None,
        spright_params=SprightParams(sanitize=False) if spright else None,
    )
    if workload.chaos:
        node.faults.arm(NAMED_PLANS["loss-crash"]())
        plane.use_resilience(default_resilience_for_plane(workload.plane))
        attach_recovery(node, plane, default_recovery_policy())
    recorder = LatencyRecorder()
    generator = ClosedLoopGenerator(
        node,
        plane,
        WeightedMix(boutique.request_classes()),
        recorder,
        concurrency=workload.users,
        duration=workload.duration,
        spawn_rate=workload.spawn_rate,
        think_time=boutique.locust_think_time,
        client_overhead=0.0005,
    )
    generator.start()
    return Episode(workload, node, plane, recorder, generator)


def latency_digest(recorder: LatencyRecorder) -> str:
    """sha256 over every (group, completion ns, latency ns) sample."""
    digest = hashlib.sha256()
    for group in recorder.groups():
        for completed_at, latency in recorder.samples_since(0, group):
            digest.update(
                f"{group}|{round(completed_at * 1e9)}|{round(latency * 1e9)}\n".encode()
            )
    return digest.hexdigest()


def run(name: str, seed: int, profiler=None) -> dict:
    """Run one episode and return its measurements and simulated outputs.

    Only ``node.run(until=duration)`` is timed (and profiled, when a
    ``cProfile.Profile`` is given), in ``SLICES`` equal slices of simulated
    time, each followed by an untimed calibration pass. ``host_s`` is the
    raw host time of the slices; ``ref_s`` is the same time scaled to the
    reference host's speed. Raises :class:`CorrectnessError` when the
    drained outputs break conservation, fail a request or leak a pool slot.
    """
    # Free the previous episode (its pool alone is 128 MiB) before building
    # this one, and start the timed loop from the same collector state.
    gc.collect()
    episode = build(name, seed)
    node, workload = episode.node, episode.workload
    gc.collect()
    host_s = ref_s = 0.0
    for index in range(1, SLICES + 1):
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        node.run(until=workload.duration * index / SLICES)
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        host_s += elapsed
        ref_s += elapsed * calibrate.speed()
    completed = episode.recorder.count("")
    events = node.env.events_processed
    node.run(until=workload.duration + DRAIN)

    generator = episode.generator
    counters = node.counters.as_dict()
    runtime = getattr(episode.plane, "runtime", None)
    tracer = node.obs.tracer
    result = {
        "seed": seed,
        "host_s": host_s,
        "ref_s": ref_s,
        "completed": completed,
        "events": events,
        "sent": generator.requests_sent,
        "failed": generator.requests_failed,
        "drained": episode.recorder.count(""),
        "digest": latency_digest(episode.recorder),
        "leaked_slots": len(runtime.pool.live_handles()) if runtime is not None else 0,
        "clones": counters.get("cloning/clones", 0),
        "retries": counters.get("faults/resilience/retry", 0),
        "restarts": counters.get("recovery/restarts", 0),
        "spans": len(tracer.finished_spans()) if tracer is not None else 0,
    }
    check(name, result)
    return result


def check(name: str, result: dict) -> None:
    """The invariants every episode must meet, whatever its seed."""
    problems = []
    if result["completed"] <= 0:
        problems.append("no request completed in the timed window")
    if result["sent"] != result["drained"] + result["failed"]:
        problems.append(
            f"sent {result['sent']} != completed {result['drained']} "
            f"+ failed {result['failed']} after the drain"
        )
    if result["failed"]:
        problems.append(f"{result['failed']} requests failed")
    if result["leaked_slots"]:
        problems.append(f"{result['leaked_slots']} pool slots still live after the drain")
    if problems:
        raise CorrectnessError(f"{name} seed {result['seed']}: " + "; ".join(problems))


def golden(result: dict) -> dict:
    """The part of an episode's result that ``expected.json`` pins exactly."""
    return {
        "sim_requests": result["drained"],
        "failed": result["failed"],
        "latency_sha256": result["digest"],
    }
