"""Proof that the events nothing needs can go without moving the rest.

Detached CPU charges and detached processes schedule no event, and a slot
that :meth:`Resource.grant_now <repro.simcore.Resource.grant_now>` grants
at once schedules no ``ResourceRequest``. The heap orders by (time,
priority, eid) and eids only break ties, in creation order, so leaving an
event out cannot reorder the events that remain. This test checks that
claim on whole episodes.

Each episode runs on the ``step()`` path (a no-op observer is attached) with
``step`` wrapped so it sees every event before processing it. Events with
a non-empty callback list are folded, as ``time|event type|callbacks``, into
a sha256; a callback is its qualified name plus, for a process resume, the
process name. ``ResourceRequest`` events are left out of the fold and only
counted, as are events with no callback.

``PROJECTED_DIGESTS`` and ``PARENT_SLOT_REQUESTS`` were captured with
exactly this filter and these episodes at commit 7b23b61, before any slot
could be granted without an event. Every ``ResourceRequest`` the parent
processed is now either still an event or a ``grant_now`` success, so
their sum must equal the parent count. ``SLOT_EVENTS`` and
``CALLBACKLESS_EVENTS`` pin how many ``ResourceRequest`` and callback-less
events are left, so a change that brings them back fails here.

The digests before that commit folded ``ResourceRequest`` events too. They
were captured at commit c74d1ed, before charges and processes could be
detached (``d-spright`` at 15bb116); CHANGES.md keeps them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.boutique_exp import build_boutique
from repro.experiments.recovery_exp import default_recovery_policy
from repro.faults import NAMED_PLANS, default_resilience_for_plane
from repro.obs import set_default_observe
from repro.simcore import Process, Resource, ResourceRequest

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

#: sha256 over the events with callbacks, ``ResourceRequest`` left out.
PROJECTED_DIGESTS = {
    "knative": "58af870352efad12aabf317bcb6d567c9269439c629292a017053ae2e96e3fbb",
    "grpc": "ab2b0317b9827821a368251de244adb947c3870b8da5083af9e01a68a690272a",
    "s-spright": "208083c15e22fbda329fdea8d51684327e0528d0f06881b58d39f5f680db605c",
    "s-spright-chaos": "fd091d63a678f3b67d0d5197195140cdba57ddf4e8a6c854ce53daec69bd891a",
    "d-spright": "27f38e5354687b9055974e624ed57bf5121fdfeb5838aa3d015c5cfd0e199a99",
}

#: ``ResourceRequest`` events the parent processed, before ``grant_now``.
PARENT_SLOT_REQUESTS = {
    "knative": 9309,
    "grpc": 2199,
    "s-spright": 3583,
    "s-spright-chaos": 4838,
    "d-spright": 3583,
}

#: ``ResourceRequest`` events left now. Chaos's 5 are slot requests made
#: while another event waited at the same instant.
SLOT_EVENTS = {
    "knative": 0,
    "grpc": 0,
    "s-spright": 0,
    "s-spright-chaos": 5,
    "d-spright": 0,
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
    """The episode's boutique run, built and not yet run.

    The caller drives the clock itself, because it wraps ``step``.
    """
    set_default_observe(trace=chaos, profile=chaos)
    try:
        return build_boutique(
            plane_name,
            scale=0.1,
            duration=duration,
            seed=SEED,
            users=users,
            spawn_rate=users / 5.5,
            sanitize=False,
            fault_plan=NAMED_PLANS["loss-crash"]() if chaos else None,
            resilience=default_resilience_for_plane(plane_name) if chaos else None,
            recovery=default_recovery_policy() if chaos else None,
        )
    finally:
        set_default_observe(trace=False, profile=False)


def _callback_name(callback) -> str:
    name = getattr(callback, "__qualname__", type(callback).__qualname__)
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        name += f"@{owner.name}"
    return name


def event_stream(name: str, monkeypatch) -> tuple[str, int, int, int, int]:
    """(projected sha256, callback-less events, ``ResourceRequest`` events,
    ``grant_now`` successes, completed requests)."""
    plane_name, users, duration, chaos = EPISODES[name]
    run = build_episode(plane_name, users, duration, chaos)
    node, recorder = run.node, run.recorder
    env = node.env
    digest = hashlib.sha256()
    bare = [0]
    slot_events = [0]
    grants = [0]
    inner_step = env.step
    inner_grant_now = Resource.grant_now

    def grant_now(resource):
        slot = inner_grant_now(resource)
        if slot is not None:
            grants[0] += 1
        return slot

    def step():
        if env._queue:
            when, _, _, event = env._queue[0]
            callbacks = event.callbacks
            if isinstance(event, ResourceRequest):
                slot_events[0] += 1
            if not callbacks:
                bare[0] += 1
            elif not isinstance(event, ResourceRequest):
                names = ",".join(_callback_name(cb) for cb in callbacks)
                digest.update(f"{when!r}|{type(event).__name__}|{names}\n".encode())
        inner_step()

    monkeypatch.setattr(Resource, "grant_now", grant_now)
    env.step = step
    env.add_observer(lambda now: None)
    node.run(until=duration + DRAIN)
    return digest.hexdigest(), bare[0], slot_events[0], grants[0], recorder.count("")


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_events_with_callbacks_keep_their_order(name, monkeypatch):
    sha, bare, slot_events, grants, completed = event_stream(name, monkeypatch)
    assert completed > 0
    assert sha == PROJECTED_DIGESTS[name]
    assert slot_events + grants == PARENT_SLOT_REQUESTS[name]
    assert slot_events == SLOT_EVENTS[name]
    assert bare == CALLBACKLESS_EVENTS[name]
