"""Unit tests for stores, resources, CPU set, and random streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    CpuSet,
    Environment,
    Interrupt,
    RandomStreams,
    Resource,
    Store,
)
from repro.simcore.resources import SlotGrant


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(5, "late")]


def test_bounded_store_blocks_put_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put(1)
        log.append(("put1", env.now))
        yield store.put(2)
        log.append(("put2", env.now))

    def consumer(env):
        yield env.timeout(4)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put1", 0), ("put2", 4)]


def test_store_try_put_and_try_get():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("x")
    assert not store.try_put("y")
    ok, item = store.try_get()
    assert ok and item == "x"
    ok, _ = store.try_get()
    assert not ok


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_filtered_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get(filter=lambda value: value % 2 == 0)
        got.append(item)

    def producer(env):
        yield store.put(1)
        yield store.put(3)
        yield store.put(4)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_resource_serializes_users():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(env, name, hold):
        request = resource.request()
        yield request
        log.append((name, "start", env.now))
        yield env.timeout(hold)
        resource.release(request)
        log.append((name, "end", env.now))

    env.process(user(env, "a", 2))
    env.process(user(env, "b", 1))
    env.run()
    assert log == [
        ("a", "start", 0),
        ("a", "end", 2),
        ("b", "start", 2),
        ("b", "end", 3),
    ]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    resource = Resource(env, capacity=2)
    ends = []

    def user(env):
        with (yield resource.request()) if False else resource.request() as request:
            yield request
            yield env.timeout(1)
        ends.append(env.now)

    for _ in range(2):
        env.process(user(env))
    env.run()
    assert ends == [1, 1]


# -- grant_now: a free slot without an event ---------------------------------


def _acquire(resource):
    """The call-site pattern: take a free slot at once, else queue for it."""
    slot = resource.grant_now()
    if slot is None:
        slot = resource.request()
        try:
            yield slot
        except Interrupt:
            resource.release(slot)
            raise
    return slot


def test_grant_now_takes_a_free_slot_when_nothing_else_could_run_first():
    env = Environment()
    resource = Resource(env, capacity=1)
    got = []

    def user(env):
        got.append(resource.grant_now())
        yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert isinstance(got[0], SlotGrant)
    assert resource.users == got
    resource.release(got[0])
    assert resource.count == 0
    # The start, the timeout and the process's end: no ResourceRequest.
    assert env.events_processed == 3


def test_grant_now_falls_back_when_an_event_waits_at_now():
    env = Environment()
    resource = Resource(env, capacity=2)
    got = []

    def user(env):
        got.append(resource.grant_now())
        yield env.timeout(1)

    # Both start at 0: while the first runs, the second's start is on the
    # heap at now, so only the second may skip the event.
    env.process(user(env))
    env.process(user(env))
    env.run()
    assert got[0] is None
    assert isinstance(got[1], SlotGrant)


def test_grant_now_falls_back_in_a_callback_that_is_not_its_events_last():
    env = Environment()
    resource = Resource(env, capacity=2)
    gate = env.event()
    got = []

    def waiter(env):
        yield gate
        got.append(resource.grant_now())
        yield env.timeout(1)

    def opener(env):
        yield env.timeout(1)
        gate.succeed()
        yield env.timeout(1)

    env.process(waiter(env))
    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert got[0] is None
    assert isinstance(got[1], SlotGrant)


def test_grant_now_falls_back_when_a_waiter_is_queued():
    env = Environment()
    resource = Resource(env, capacity=1)
    got = []

    def holder(env):
        slot = resource.request()
        yield slot
        yield env.timeout(5)
        resource.release(slot)

    def late(env):
        yield env.timeout(1)
        # Room for one more, but a waiter queued first keeps its place.
        resource.capacity = 2
        got.append(resource.grant_now())

    env.process(holder(env))
    env.process(holder(env))
    env.process(late(env))
    env.run()
    assert got == [None]


def test_grant_now_falls_back_at_full_capacity():
    env = Environment()
    resource = Resource(env, capacity=1)
    got = []

    def holder(env):
        slot = yield from _acquire(resource)
        yield env.timeout(5)
        resource.release(slot)

    def late(env):
        yield env.timeout(1)
        got.append(resource.grant_now())

    env.process(holder(env))
    env.process(late(env))
    env.run()
    assert got == [None]
    assert resource.count == 0


#: One process: (start delay, [(resource index, hold, wait on the gate)]).
_PROCESS = st.tuples(
    st.integers(0, 2),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.booleans()),
        min_size=1,
        max_size=4,
    ),
)


def _slot_trace(capacities, processes, gate_at, interrupts, observed):
    """(time, process, step, what) of every slot step, plus the end state."""
    env = Environment()
    if observed:
        env.add_observer(lambda now: None)
    resources = [Resource(env, capacity) for capacity in capacities]
    gate = env.event()
    trace = []

    def worker(env, pid, start, plan):
        try:
            yield env.timeout(start)
        except Interrupt:
            trace.append((env.now, pid, -1, "interrupted"))
        for step, (index, hold, wait) in enumerate(plan):
            resource = resources[index % len(resources)]
            try:
                if wait:
                    yield gate
                trace.append((env.now, pid, step, "asked"))
                slot = yield from _acquire(resource)
                trace.append((env.now, pid, step, "got"))
                try:
                    yield env.timeout(hold)
                finally:
                    resource.release(slot)
                trace.append((env.now, pid, step, "released"))
            except Interrupt:
                trace.append((env.now, pid, step, "interrupted"))

    def opener(env):
        yield env.timeout(gate_at)
        gate.succeed()

    def interrupter(env, procs):
        for when, pid in interrupts:
            yield env.timeout(when)
            target = procs[pid % len(procs)]
            if target.is_alive:
                target.interrupt()

    procs = [
        env.process(worker(env, pid, start, plan))
        for pid, (start, plan) in enumerate(processes)
    ]
    env.process(opener(env), detached=True)
    env.process(interrupter(env, procs), detached=True)
    env.run()
    state = [(len(r.users), len(r._waiters)) for r in resources]
    return trace, state, env.now


@settings(max_examples=300, deadline=None)
@given(
    capacities=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    processes=st.lists(_PROCESS, min_size=1, max_size=5),
    gate_at=st.integers(0, 3),
    interrupts=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=3
    ),
    observed=st.booleans(),
)
def test_grant_now_runs_exactly_like_the_event_path(
    capacities, processes, gate_at, interrupts, observed
):
    args = (capacities, processes, gate_at, interrupts, observed)
    inline = _slot_trace(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Resource, "grant_now", lambda resource: None)
        evented = _slot_trace(*args)
    assert inline == evented


def test_cpu_execute_charges_busy_time():
    env = Environment()
    cpu = CpuSet(env, cores=2, bucket_width=1.0)

    def work(env):
        yield cpu.execute(0.5, tag="fn")

    env.process(work(env))
    env.run()
    assert cpu.accounting.total_busy["fn"] == pytest.approx(0.5)
    assert cpu.accounting.usage_percent("fn", 0) == pytest.approx(50.0)


def test_cpu_contention_queues_work():
    env = Environment()
    cpu = CpuSet(env, cores=1)
    completions = []

    def work(env, name):
        yield cpu.execute(1.0, tag=name)
        completions.append((name, env.now))

    env.process(work(env, "a"))
    env.process(work(env, "b"))
    env.run()
    assert completions == [("a", 1.0), ("b", 2.0)]


def test_cpu_two_cores_run_in_parallel():
    env = Environment()
    cpu = CpuSet(env, cores=2)
    completions = []

    def work(env, name):
        yield cpu.execute(1.0, tag=name)
        completions.append((name, env.now))

    env.process(work(env, "a"))
    env.process(work(env, "b"))
    env.run()
    assert [time for _, time in completions] == [1.0, 1.0]


def test_cpu_bucket_splitting_across_boundaries():
    env = Environment()
    cpu = CpuSet(env, cores=1, bucket_width=1.0)

    def work(env):
        yield env.timeout(0.6)
        yield cpu.execute(0.8, tag="fn")

    env.process(work(env))
    env.run()
    # 0.4 s lands in bucket 0, 0.4 s in bucket 1.
    assert cpu.accounting.usage_percent("fn", 0) == pytest.approx(40.0)
    assert cpu.accounting.usage_percent("fn", 1) == pytest.approx(40.0)


def test_random_streams_are_independent_and_reproducible():
    streams_one = RandomStreams(root_seed=7)
    streams_two = RandomStreams(root_seed=7)
    draw_a = streams_one.stream("alpha").random()
    # Interleave a different stream; "alpha" in streams_two must still match.
    streams_two.stream("beta").random()
    draw_b = streams_two.stream("alpha").random()
    assert draw_a == draw_b


def test_random_streams_differ_across_names():
    streams = RandomStreams(root_seed=7)
    assert streams.stream("a").random() != streams.stream("b").random()


def test_lognormal_service_mean_roughly_matches():
    streams = RandomStreams(root_seed=11)
    samples = [streams.lognormal_service("svc", mean=0.010, cv=0.3) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 0.009 < mean < 0.011


def test_exponential_requires_positive_mean():
    streams = RandomStreams()
    with pytest.raises(ValueError):
        streams.exponential("x", 0)
