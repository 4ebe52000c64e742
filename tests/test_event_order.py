"""Proof that the events nothing needs can go without moving the rest.

Detached CPU charges and detached processes schedule no event, a slot that
:meth:`Resource.grant_now <repro.simcore.Resource.grant_now>` grants at
once schedules no ``ResourceRequest``, and a SPRIGHT descriptor starts its
handler inline from its member's :class:`Wake` instead of from a
``StoreGet`` and an ``Initialize``. The heap orders by (time, priority,
eid) and eids only break ties, in creation order, so leaving an event out
cannot reorder the events that remain. This test checks that claim on
whole episodes.

Each episode runs on the ``step()`` path (a no-op observer is attached) with
``step`` wrapped so it sees every event before processing it. Events with
a non-empty callback list are folded, as ``time|event type|callbacks``, into
a sha256 (``PROJECTED_DIGESTS``); a callback is its qualified name plus, for
a process resume, the process name. ``ResourceRequest`` events are left out
of the fold and only counted, as are events with no callback.

Eliding a resume changes that fold by construction, so the proof is a
second fold over what the simulated system does: every CPU booking, in call
order, as (now, tag, duration, core index), and every request completion
(``BOOKING_DIGESTS``). It is built by wrapping :meth:`Charge.book
<repro.simcore.Charge.book>`, the one booking function every CPU charge
goes through (``CpuSet.execute`` included), and the recorder here; no
flag in ``src/`` serves it.

``BOOKING_DIGESTS``, ``PARENT_STORE_GETS`` and ``PARENT_INITIALIZES`` were
captured at commit 369c040, before direct delivery; the booking digests
must not move. Each ``StoreGet`` the parent processed is now a ``Wake``,
and each of its ``Initialize`` events is either still one (a process
started with an event) or an inline start. ``PARENT_SLOT_REQUESTS`` was
captured at commit 7b23b61, before any slot could be granted without an
event: ``ResourceRequest`` events left plus ``grant_now`` successes must
equal it. ``SLOT_EVENTS`` and ``CALLBACKLESS_EVENTS`` pin how many
``ResourceRequest`` and callback-less events are left, so a change that
brings them back fails here.

The SPRIGHT ``PROJECTED_DIGESTS`` were re-captured at direct delivery; the
knative and gRPC ones, whose code it does not touch, are those of commit
7b23b61. CHANGES.md keeps every earlier digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dataplane.spright.chain import Wake
from repro.experiments.boutique_exp import build_boutique
from repro.experiments.recovery_exp import default_recovery_policy
from repro.faults import NAMED_PLANS, default_resilience_for_plane
from repro.obs import set_default_observe
from repro.simcore import Charge, Environment, Process, Resource, ResourceRequest, StoreGet
from repro.simcore.process import Initialize

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
    "s-spright": "4b8ef03ca89ff347c0635771c0c41a84bda0bd62d91eddad2cad937115cd3c87",
    "s-spright-chaos": "a34370b92382ab3ee176bc42eadbb5f50d17d547857a64e72259c80c71a7bdb5",
    "d-spright": "c1901db7dd3e6e1d52f7cb5382ab7056b75e6b7636fd87d76adb9a311711b4f0",
}

#: sha256 over every CPU booking and request completion, captured at
#: commit 369c040, before descriptors were delivered straight to handlers.
BOOKING_DIGESTS = {
    "knative": "6d2f0c79db6461455f2d8626b0d462934a501f1f39ba56f576f148f345a89794",
    "grpc": "5a5170b05b6863013bc0d9c6c79e425a91b1764d6032ef5b64539263b4738bd4",
    "s-spright": "6ecf7eb6120072cbce5acb79b3aa94ced2c3745a9c8853fde158fa4d143ad60f",
    "s-spright-chaos": "4657cad4455a2957f2ce904847b0bf279cb7981f32e9363bd04ab9401e7668fe",
    "d-spright": "358938eee6e978367be2e483a29f87d7d29dde6d2b21e2e534c4cb4afb2dba56",
}

#: ``StoreGet`` and ``Initialize`` events processed at commit 369c040.
PARENT_STORE_GETS = {
    "knative": 0,
    "grpc": 0,
    "s-spright": 3342,
    "s-spright-chaos": 4372,
    "d-spright": 0,
}
PARENT_INITIALIZES = {
    "knative": 382,
    "grpc": 382,
    "s-spright": 4005,
    "s-spright-chaos": 5104,
    "d-spright": 4016,
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


def event_stream(name: str, monkeypatch) -> dict:
    """Run one episode on the ``step()`` path and return what it proves:

    - ``projected``: sha256 over the events with callbacks,
      ``ResourceRequest`` left out;
    - ``booking``: sha256 over every CPU booking, in call order, as
      (now, tag, duration, core index), and every request completion;
    - counts: callback-less events, ``ResourceRequest`` events,
      ``grant_now`` successes, completed requests, and the ``StoreGet``,
      ``Initialize`` and :class:`Wake` events and inline process starts.
    """
    plane_name, users, duration, chaos = EPISODES[name]
    run = build_episode(plane_name, users, duration, chaos)
    node, recorder = run.node, run.recorder
    env = node.env
    digest = hashlib.sha256()
    booking = hashlib.sha256()
    counts = dict.fromkeys(
        ("bare", "slot_events", "grants", "store_gets", "initializes", "wakes",
         "inline_starts"),
        0,
    )
    inner_step = env.step
    inner_grant_now = Resource.grant_now
    inner_book = Charge.book
    inner_start_inline = Environment.start_inline
    inner_record = recorder.record

    def grant_now(resource):
        slot = inner_grant_now(resource)
        if slot is not None:
            counts["grants"] += 1
        return slot

    def book(charge, duration, op=None, detached=False):
        cores = charge.cores
        before = [core.next_free for core in cores]
        result = inner_book(charge, duration, op, detached)
        # The booked core is the one whose calendar moved (-1: nothing booked).
        index = next(
            (i for i, core in enumerate(cores) if core.next_free is not before[i]), -1
        )
        booking.update(f"{env.now!r}|{charge.tag}|{duration!r}|{index}\n".encode())
        return result

    def start_inline(environment, generator, name=""):
        counts["inline_starts"] += 1
        inner_start_inline(environment, generator, name)

    def record(completion_time, latency, group=""):
        booking.update(f"done|{completion_time!r}|{latency!r}|{group}\n".encode())
        inner_record(completion_time, latency, group=group)

    def step():
        if env._queue:
            when, _, _, event = env._queue[0]
            callbacks = event.callbacks
            kind = type(event)
            if kind is ResourceRequest:
                counts["slot_events"] += 1
            elif kind is StoreGet:
                counts["store_gets"] += 1
            elif kind is Initialize:
                counts["initializes"] += 1
            elif kind is Wake:
                counts["wakes"] += 1
            if not callbacks:
                counts["bare"] += 1
            elif kind is not ResourceRequest:
                names = ",".join(_callback_name(cb) for cb in callbacks)
                digest.update(f"{when!r}|{kind.__name__}|{names}\n".encode())
        inner_step()

    monkeypatch.setattr(Resource, "grant_now", grant_now)
    monkeypatch.setattr(Charge, "book", book)
    monkeypatch.setattr(Environment, "start_inline", start_inline)
    recorder.record = record
    env.step = step
    env.add_observer(lambda now: None)
    node.run(until=duration + DRAIN)
    return dict(
        counts,
        projected=digest.hexdigest(),
        booking=booking.hexdigest(),
        completed=recorder.count(""),
    )


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_events_with_callbacks_keep_their_order(name, monkeypatch):
    stream = event_stream(name, monkeypatch)
    assert stream["completed"] > 0
    assert stream["booking"] == BOOKING_DIGESTS[name]
    assert stream["projected"] == PROJECTED_DIGESTS[name]
    assert stream["slot_events"] + stream["grants"] == PARENT_SLOT_REQUESTS[name]
    assert stream["slot_events"] == SLOT_EVENTS[name]
    assert stream["bare"] == CALLBACKLESS_EVENTS[name]
    # Each StoreGet the parent processed is now a wake, and each of its
    # Initialize events either is still one or became an inline start.
    assert stream["store_gets"] == 0
    assert stream["wakes"] == PARENT_STORE_GETS[name]
    assert (
        stream["initializes"] + stream["inline_starts"] == PARENT_INITIALIZES[name]
    )
