"""Unit tests for the DES engine: events, processes, run loop."""

import pytest

from repro.simcore import (
    EmptySchedule,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_value_is_delivered():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1, value="payload")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["payload"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_horizon():
    env = Environment()
    ticks = []

    def clock(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(clock(env))
    env.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 5))
    env.run(until=4)
    with pytest.raises(ValueError):
        env.run(until=1)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_process_waits_on_custom_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(3)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(3, "open")]


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as error:
            caught.append(str(error))

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_interrupt_is_delivered_with_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt(cause="teardown")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2, "teardown")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    victim = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        victim.interrupt()


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        first = env.timeout(1, value="a")
        second = env.timeout(3, value="b")
        result = yield first & second
        times.append(env.now)
        values = result.todict()
        assert set(values.values()) == {"a", "b"}

    env.process(proc(env))
    env.run()
    assert times == [3]


def test_any_of_fires_on_first_event():
    env = Environment()
    times = []

    def proc(env):
        slow = env.timeout(9)
        fast = env.timeout(2, value="fast")
        result = yield slow | fast
        times.append(env.now)
        assert fast in result

    env.process(proc(env))
    env.run()
    assert times == [2]


def test_equal_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def make(tag):
        def proc(env):
            yield env.timeout(1)
            order.append(tag)

        return proc

    for tag in ("a", "b", "c"):
        env.process(make(tag)(env))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_process_return_value_propagates_to_waiter():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == ["child-result"]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 17

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()
