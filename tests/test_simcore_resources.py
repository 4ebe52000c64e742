"""Unit tests for stores, resources, CPU set, and random streams."""

import pytest

from repro.simcore import (
    CpuSet,
    Environment,
    RandomStreams,
    Resource,
    Store,
)


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


def test_dedicated_core_charges_wall_time():
    env = Environment()
    cpu = CpuSet(env, cores=2)
    handle = cpu.dedicate(tag="dpdk")
    assert cpu.shared_cores == 1

    def later(env):
        yield env.timeout(10)
        handle.release()

    env.process(later(env))
    env.run()
    assert cpu.accounting.total_busy["dpdk"] == pytest.approx(10.0)
    assert cpu.shared_cores == 2


def test_dedicated_core_checkpoint_flushes_partial_time():
    env = Environment()
    cpu = CpuSet(env, cores=1)
    # With the only core dedicated, execute() must fail.
    handle = cpu.dedicate(tag="poll")

    def sampler(env):
        yield env.timeout(3)
        handle.checkpoint()

    env.process(sampler(env))
    env.run()
    assert cpu.accounting.total_busy["poll"] == pytest.approx(3.0)
    with pytest.raises(RuntimeError):
        cpu.execute(0.1, tag="x")


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


def test_cycles_conversion():
    env = Environment()
    cpu = CpuSet(env, cores=1, freq_hz=2.2e9)
    assert cpu.cycles_to_seconds(2.2e9) == pytest.approx(1.0)


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
