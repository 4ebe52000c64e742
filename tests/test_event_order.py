"""Proof that the events nothing waits on can go without moving the rest.

Detached CPU charges and detached processes schedule no event, so the heap
holds fewer entries. The heap orders by (time, priority, eid) and eids only
break ties, in creation order, so leaving an event out cannot reorder the
events that remain. This test checks that claim on whole episodes.

Each episode runs on the ``step()`` path (a no-op observer is attached) with
``step`` wrapped so it sees every event before processing it. Events with
a non-empty callback list are folded, as ``time|event type|callbacks``, into
a sha256; a callback is its qualified name plus, for a process resume, the
process name. Events with no callback are only counted.

``PARENT_DIGESTS`` were captured, with exactly this filter and these
episodes, at commit c74d1ed, before charges and processes could be
detached, when every discarded charge and every process termination still
went through the heap (``d-spright`` was added later; its comment says
when). ``CALLBACKLESS_EVENTS`` pins how many callback-less
events are left now, so a change that brings them back fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dataplane import SprightParams
from repro.experiments.boutique_exp import knative_boutique_params
from repro.experiments.common import attach_recovery, build_plane, make_node
from repro.experiments.recovery_exp import default_recovery_policy
from repro.faults import NAMED_PLANS, default_resilience_for_plane
from repro.obs import set_default_observe
from repro.simcore import Process
from repro.stats import LatencyRecorder
from repro.workloads import ClosedLoopGenerator, WeightedMix, boutique

#: name -> (plane, users, load seconds, chaos)
EPISODES = {
    "knative": ("knative", 200, 4.0, False),
    "grpc": ("grpc", 200, 4.0, False),
    "s-spright": ("s-spright", 400, 3.0, False),
    "s-spright-chaos": ("s-spright", 200, 4.0, True),
    "d-spright": ("d-spright", 400, 3.0, False),
}

#: Simulated seconds run after the load stops, so in-flight work drains.
DRAIN = 5.0

SEED = 2022

#: sha256 over the events with callbacks, captured before detaching.
PARENT_DIGESTS = {
    "knative": "b811632df562cc60bafb1fd9d9450c05a10554014b6fb4049f93c18823663840",
    "grpc": "cc50a579e2af2802f4d23efbc8f3bf317636d8e2b5fdb2f9c8dc730928103885",
    "s-spright": "8f705677434863f9ae23e6bf5074f698b1f492776034e106a1d1bc68c758354a",
    "s-spright-chaos": "803005de69306ab6d5b368508df4f05be444746a8719b7e83dcda2bc9d123638",
    # Rings and spin chargers: captured at 15bb116, before the SPRIGHT chain
    # runtime got one hop table and transports that own their kind.
    "d-spright": "e602391afc5d6e7ec515af8daf8f1d07e118a6f0a520fc958a6452c1d30ccf87",
}

#: Events processed with no callback now (9457, 2347, 3892 and 4875 before
#: detaching). The chaos run's 16 are awaited charges whose waiter was
#: interrupted when its clone lost the race.
CALLBACKLESS_EVENTS = {
    "knative": 0,
    "grpc": 0,
    "s-spright": 0,
    "s-spright-chaos": 16,
    "d-spright": 0,
}


def build_episode(plane_name: str, users: int, duration: float, chaos: bool):
    spright = plane_name in ("s-spright", "d-spright")
    set_default_observe(trace=chaos, profile=chaos)
    try:
        node = make_node(scale=0.1, seed=SEED)
    finally:
        set_default_observe(trace=False, profile=False)
    plane = build_plane(
        plane_name,
        node,
        boutique.spright_functions() if spright else boutique.go_grpc_functions(),
        knative_params=knative_boutique_params() if plane_name == "knative" else None,
        spright_params=SprightParams(sanitize=False) if spright else None,
    )
    if chaos:
        node.faults.arm(NAMED_PLANS["loss-crash"]())
        plane.use_resilience(default_resilience_for_plane(plane_name))
        attach_recovery(node, plane, default_recovery_policy())
    recorder = LatencyRecorder()
    ClosedLoopGenerator(
        node,
        plane,
        WeightedMix(boutique.request_classes()),
        recorder,
        concurrency=users,
        duration=duration,
        spawn_rate=users / 5.5,
        think_time=boutique.locust_think_time,
        client_overhead=0.0005,
    ).start()
    return node, recorder


def _callback_name(callback) -> str:
    name = getattr(callback, "__qualname__", type(callback).__qualname__)
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        name += f"@{owner.name}"
    return name


def event_stream(name: str) -> tuple[str, int, int]:
    """(callback-event sha256, callback-less events, completed requests)."""
    plane_name, users, duration, chaos = EPISODES[name]
    node, recorder = build_episode(plane_name, users, duration, chaos)
    env = node.env
    digest = hashlib.sha256()
    bare = [0]
    inner_step = env.step

    def step():
        if env._queue:
            when, _, _, event = env._queue[0]
            callbacks = event.callbacks
            if callbacks:
                names = ",".join(_callback_name(cb) for cb in callbacks)
                digest.update(f"{when!r}|{type(event).__name__}|{names}\n".encode())
            else:
                bare[0] += 1
        inner_step()

    env.step = step
    env.add_observer(lambda now: None)
    node.run(until=duration + DRAIN)
    return digest.hexdigest(), bare[0], recorder.count("")


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_events_with_callbacks_keep_their_order(name):
    sha, bare, completed = event_stream(name)
    assert completed > 0
    assert sha == PARENT_DIGESTS[name]
    assert bare == CALLBACKLESS_EVENTS[name]
