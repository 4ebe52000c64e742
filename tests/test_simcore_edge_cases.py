"""Edge-case coverage for the DES core: conditions, failures, dedication."""

import pytest

from repro.simcore import (
    Condition,
    CpuSet,
    Environment,
    Event,
    Resource,
    SimulationError,
    Store,
)


def test_condition_failure_propagates_to_waiter():
    env = Environment()
    left = env.event()
    right = env.event()
    caught = []

    def waiter(env):
        try:
            yield left & right
        except RuntimeError as error:
            caught.append(str(error))

    def failer(env):
        yield env.timeout(1)
        right.fail(RuntimeError("half failed"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["half failed"]


def test_all_of_empty_list_fires_immediately():
    env = Environment()
    done = []

    def waiter(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(waiter(env))
    env.run()
    assert done == [0]


def test_condition_rejects_mixed_environments():
    env_a = Environment()
    env_b = Environment()
    with pytest.raises(ValueError, match="different environments"):
        Condition(env_a, Condition.all_events, [Event(env_a), Event(env_b)])


def test_event_trigger_copies_outcome():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.succeed("payload")
    env.run()
    mirror.trigger(source)
    assert mirror.triggered
    assert mirror.value == "payload"


def test_event_trigger_copies_failure_and_defuses():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.fail(ValueError("bad"))
    mirror.defuse()
    mirror.trigger(source)
    assert source.defused
    assert not mirror.ok
    # Drain the queue; the defused failures must not crash the run.
    env.run()


def test_condition_value_mapping_api():
    env = Environment()
    results = {}

    def proc(env):
        fast = env.timeout(1, value="f")
        slow = env.timeout(2, value="s")
        outcome = yield fast & slow
        results["contains"] = fast in outcome
        results["getitem"] = outcome[fast]
        results["dict_len"] = len(outcome.todict())

    env.process(proc(env))
    env.run()
    assert results == {"contains": True, "getitem": "f", "dict_len": 2}


def test_condition_value_keyerror_for_foreign_event():
    env = Environment()
    errors = []

    def proc(env):
        fast = env.timeout(1)
        outcome = yield env.all_of([fast])
        foreign = env.event()
        try:
            outcome[foreign]
        except KeyError:
            errors.append("keyerror")

    env.process(proc(env))
    env.run()
    assert errors == ["keyerror"]


def test_store_filtered_get_waits_for_matching_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get(filter=lambda value: value == "wanted")
        got.append((env.now, item))

    def producer(env):
        yield store.put("noise")
        yield env.timeout(3)
        yield store.put("wanted")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(3, "wanted")]
    assert list(store.items) == ["noise"]


def test_resource_release_of_waiting_request_cancels_it():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def holder(env):
        request = resource.request()
        yield request
        yield env.timeout(5)
        resource.release(request)

    def canceller(env):
        request = resource.request()  # queued behind holder
        yield env.timeout(1)
        resource.release(request)     # cancel while still waiting
        order.append("cancelled")

    def third(env):
        yield env.timeout(2)
        request = resource.request()
        yield request
        order.append(("third", env.now))
        resource.release(request)

    env.process(holder(env))
    env.process(canceller(env))
    env.process(third(env))
    env.run()
    # The cancelled waiter never blocks the third user.
    assert ("third", 5) in order


def test_resource_context_manager_releases():
    env = Environment()
    resource = Resource(env, capacity=1)
    times = []

    def user(env):
        with resource.request() as request:
            yield request
            yield env.timeout(1)
        times.append(env.now)

    env.process(user(env))
    env.process(user(env))
    env.run()
    assert times == [1, 2]


def test_cpu_zero_duration_completes_immediately():
    env = Environment()
    cpu = CpuSet(env, cores=1)
    done = cpu.execute(0.0, "x")
    assert done.triggered
    assert cpu.accounting.total_busy.get("x", 0.0) == 0.0


def test_cpu_negative_duration_rejected():
    env = Environment()
    cpu = CpuSet(env, cores=1)
    with pytest.raises(ValueError):
        cpu.execute(-1.0, "x")


def test_cannot_interrupt_self():
    env = Environment()
    errors = []

    def proc(env):
        this = env.active_process
        try:
            this.interrupt()
        except SimulationError:
            errors.append("refused")
        yield env.timeout(1)

    env.process(proc(env))
    env.run()
    assert errors == ["refused"]


def test_accounting_mean_percent_zero_duration():
    env = Environment()
    cpu = CpuSet(env, cores=1)
    assert cpu.accounting.mean_percent("any", 0.0) == 0.0
