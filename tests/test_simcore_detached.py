"""Detached CPU charges, detached processes and the unobserved run loop.

Work nobody waits on books the core calendar and the CPU ledger but puts no
event on the heap. An unobserved ``run()`` processes events in one local
loop instead of through :meth:`Environment.step`; both paths must make the
same checks and produce the same run.
"""

from __future__ import annotations

import pytest

from repro.simcore import CpuSet, Environment, Process, SimulationError
from tests.test_event_order import DRAIN, EPISODES, build_episode


def _observe(env: Environment, observed: bool) -> None:
    if observed:
        env.add_observer(lambda now: None)


# -- detached CPU charges -------------------------------------------------------

def _charge_then_wait(detached: bool):
    env = Environment()
    cpu = CpuSet(env, cores=1, bucket_width=0.5)
    queue_before = list(env._queue)
    result = cpu.execute(0.7, "bg", op="background", detached=detached)
    queue_after = list(env._queue)
    following = cpu.execute(0.1, "fg")
    env.run(until=following)
    return env, cpu, result, queue_before, queue_after


def test_detached_charge_books_like_an_awaited_one():
    env_d, cpu_d, result_d, before_d, after_d = _charge_then_wait(detached=True)
    env_a, cpu_a, result_a, before_a, after_a = _charge_then_wait(detached=False)
    assert result_d is None
    assert after_d == before_d
    assert len(after_a) == len(before_a) + 1
    assert dict(cpu_d.accounting.total_busy) == dict(cpu_a.accounting.total_busy)
    for tag in ("bg", "fg"):
        for bucket in (0, 1):
            usage_d = cpu_d.accounting.usage_percent(tag, bucket)
            assert usage_d == cpu_a.accounting.usage_percent(tag, bucket)
    assert cpu_d._cores[0].next_free == cpu_a._cores[0].next_free == pytest.approx(0.8)
    # The awaited charge queued behind the detached one either way.
    assert env_d.now == env_a.now == pytest.approx(0.8)


def test_zero_detached_charge_is_a_no_op():
    env = Environment()
    cpu = CpuSet(env, cores=2)
    assert cpu.execute(0.0, "bg", detached=True) is None
    assert env._queue == []
    assert dict(cpu.accounting.total_busy) == {}
    assert [core.next_free for core in cpu._cores] == [0.0, 0.0]


def test_negative_detached_charge_still_raises():
    cpu = CpuSet(Environment(), cores=1)
    with pytest.raises(ValueError):
        cpu.execute(-1e-6, "bg", detached=True)


def test_run_without_until_stops_at_last_waited_event():
    """Behaviour change: the clock stops at the last event with callbacks;
    detached background work is still booked past it."""
    env = Environment()
    cpu = CpuSet(env, cores=1)

    def worker(env):
        yield env.timeout(1.0)
        cpu.execute(3.0, "bg", detached=True)

    env.process(worker(env), detached=True)
    env.run()
    assert env.now == 1.0
    assert cpu.accounting.total_busy["bg"] == 3.0
    assert cpu._cores[0].next_free == 4.0


# -- detached processes -----------------------------------------------------------

def test_finished_detached_process_leaves_no_heap_entry():
    def body(env, log):
        yield env.timeout(1.0)
        log.append(env.now)
        return "done"

    queues = {}
    for detached in (True, False):
        env = Environment()
        log = []
        process = Process(env, body(env, log), detached=detached)
        env.step()  # Initialize
        env.step()  # the timeout: the generator returns
        assert log == [1.0]
        assert not process.is_alive and process.value == "done"
        queues[detached] = list(env._queue)
    assert queues[True] == []
    assert [entry[3] for entry in queues[False]] == [process]


def test_detached_spawn_returns_nothing_to_wait_on():
    env = Environment()

    def body(env):
        yield env.timeout(1.0)

    assert env.process(body(env), detached=True) is None
    assert isinstance(env.process(body(env)), Process)


@pytest.mark.parametrize("observed", [False, True])
def test_detached_process_failure_propagates_at_once(observed):
    env = Environment()
    _observe(env, observed)

    def boom(env):
        yield env.timeout(2.5)
        raise KeyError("boom")

    env.process(boom(env), detached=True)
    env.timeout(5.0)
    with pytest.raises(KeyError):
        env.run()
    assert env.now == 2.5


# -- the unobserved loop equals step() ----------------------------------------------

@pytest.mark.parametrize("name", ["s-spright-chaos", "knative"])
def test_unobserved_loop_equals_step(name):
    def run(observed: bool):
        plane, users, duration, chaos = EPISODES[name]
        episode = build_episode(plane, users, duration, chaos)
        node, recorder = episode.node, episode.recorder
        _observe(node.env, observed)
        node.run(until=duration + DRAIN)
        samples = [
            list(recorder.samples_since(0, group)) for group in recorder.groups()
        ]
        return (
            samples,
            node.counters.as_dict(),
            dict(node.cpu.accounting.total_busy),
            node.env.now,
            node.env.events_processed,
        )

    fast, stepped = run(observed=False), run(observed=True)
    assert fast[0] and fast[-1] > 0
    assert fast == stepped


@pytest.mark.parametrize("observed", [False, True])
def test_run_until_event_returns_its_value(observed):
    env = Environment()
    _observe(env, observed)

    def worker(env):
        yield env.timeout(2.0)
        return 42

    process = env.process(worker(env))
    env.timeout(10.0)
    assert env.run(until=process) == 42
    assert env.now == 2.0
    assert env.events_processed == 2  # Initialize and the timeout


@pytest.mark.parametrize("observed", [False, True])
def test_undefused_failed_event_raises(observed):
    env = Environment()
    _observe(env, observed)
    env.event().fail(ZeroDivisionError("lost"))
    with pytest.raises(ZeroDivisionError, match="lost"):
        env.run()
    assert env.events_processed == 0


@pytest.mark.parametrize("observed", [False, True])
def test_double_schedule_raises(observed):
    env = Environment()
    _observe(env, observed)
    event = env.event()
    event.succeed("once")
    env.schedule(event)
    with pytest.raises(SimulationError, match="scheduled twice"):
        env.run()
    assert env.events_processed == 1


# -- a process that yields a non-event ------------------------------------------------

def test_process_recovering_from_non_event_yield_is_resumed():
    env = Environment()
    log = []

    def process(env):
        try:
            yield 42
        except SimulationError:
            yield env.timeout(1)
            log.append(("resumed", env.now))

    proc = env.process(process(env))
    env.run()
    assert log == [("resumed", 1.0)]
    assert not proc.is_alive
