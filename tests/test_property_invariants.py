"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.faults import ResiliencePolicy
from repro.kernel.ebpf import ArrayMap, HashMap
from repro.mem import RteRing, SharedMemoryPool
from repro.simcore import CpuSet, Environment, RandomStreams, Store
from repro.stats import percentile, summarize


# -- DES engine ----------------------------------------------------------------

@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=24))
def test_event_ordering_matches_delays(delays):
    """Completions occur in nondecreasing time order regardless of input order."""
    env = Environment()
    order = []

    def waiter(env, delay):
        yield env.timeout(delay)
        order.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert order == sorted(order)
    assert len(order) == len(delays)
    assert env.now == max(delays)


@given(
    items=st.lists(st.integers(), min_size=1, max_size=30),
    capacity=st.integers(min_value=1, max_value=8),
)
def test_store_preserves_fifo_under_any_capacity(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@given(
    durations=st.lists(
        st.floats(min_value=1e-6, max_value=0.5), min_size=1, max_size=20
    ),
    cores=st.integers(min_value=1, max_value=8),
)
def test_cpu_busy_time_conserved(durations, cores):
    """Total recorded busy time equals total submitted work, exactly."""
    env = Environment()
    cpu = CpuSet(env, cores=cores)

    def work(env, duration):
        yield cpu.execute(duration, "w")

    for duration in durations:
        env.process(work(env, duration))
    env.run()
    assert abs(cpu.accounting.total_busy["w"] - sum(durations)) < 1e-9
    # Work conservation: makespan >= total work / cores (no magic speedup).
    assert env.now >= sum(durations) / cores - 1e-9


# -- shared memory pool ------------------------------------------------------------

@given(
    payloads=st.lists(st.binary(min_size=0, max_size=128), min_size=1, max_size=40)
)
def test_pool_alloc_free_conservation(payloads):
    """Free+in-use always equals capacity; reads return exact writes."""
    pool = SharedMemoryPool("p", "pfx", buffer_size=128, capacity=16)
    handles = []
    for payload in payloads:
        if pool.free_count == 0:
            handle = handles.pop(0)
            pool.free(handle)
        handle = pool.alloc()
        pool.write(handle, payload)
        assert pool.read(handle) == payload
        handles.append(handle)
        assert pool.free_count + pool.in_use_count == 16
    for handle in handles:
        pool.free(handle)
    assert pool.in_use_count == 0
    assert pool.stats.allocs == pool.stats.frees


@given(data=st.data())
def test_pool_buffers_never_overlap(data):
    """Two live buffers occupy disjoint byte ranges."""
    pool = SharedMemoryPool("p", "pfx", buffer_size=64, capacity=8)
    count = data.draw(st.integers(min_value=2, max_value=8))
    handles = [pool.alloc() for _ in range(count)]
    ranges = sorted((handle.offset, handle.offset + 64) for handle in handles)
    for (start_a, end_a), (start_b, _end_b) in zip(ranges, ranges[1:]):
        assert end_a <= start_b


# -- rings ------------------------------------------------------------------------------

@given(
    operations=st.lists(
        st.one_of(st.integers(min_value=0, max_value=1000), st.none()),
        min_size=1,
        max_size=200,
    )
)
def test_ring_conservation(operations):
    """enqueued == dequeued + still-in-ring + drops never lose an item."""
    ring = RteRing("r", size=16)
    accepted = 0
    dequeued = 0
    for operation in operations:
        if operation is None:
            ok, _ = ring.dequeue()
            if ok:
                dequeued += 1
        else:
            if ring.enqueue(operation):
                accepted += 1
    assert accepted == dequeued + ring.count
    assert ring.enqueued == accepted
    assert ring.dequeued == dequeued


@given(items=st.lists(st.integers(), min_size=1, max_size=64))
def test_ring_fifo_property(items):
    ring = RteRing("r", size=64)
    for item in items:
        assert ring.enqueue(item)
    out = [ring.dequeue()[1] for _ in items]
    assert out == items
    assert ring.count == 0


# -- maps -----------------------------------------------------------------------------------

@given(
    entries=st.dictionaries(
        keys=st.integers(min_value=0, max_value=2**32 - 1),
        values=st.integers(min_value=0, max_value=2**63),
        min_size=0,
        max_size=32,
    )
)
def test_hashmap_model_equivalence(entries):
    """The BPF hash map behaves exactly like a dict within capacity."""
    table = HashMap(max_entries=64)
    for key, value in entries.items():
        table.update(key, value)
    for key, value in entries.items():
        assert table.lookup(key) == value
    assert len(table) == len(entries)
    for key in list(entries):
        table.delete(key)
    assert len(table) == 0


@given(
    adds=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-1000, max_value=1000),
        ),
        max_size=50,
    )
)
def test_array_map_add_is_sum(adds):
    array = ArrayMap(max_entries=4)
    expected = [0, 0, 0, 0]
    for index, delta in adds:
        array.add(index, delta)
        expected[index] += delta
    for index in range(4):
        assert array.lookup(index) == expected[index]


# -- statistics ----------------------------------------------------------------------------

@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_percentiles_are_monotone_and_bounded(samples):
    ordered = sorted(samples)
    p50 = percentile(ordered, 0.5)
    p95 = percentile(ordered, 0.95)
    p99 = percentile(ordered, 0.99)
    # One-ulp slack throughout: interpolating between equal floats (and
    # averaging identical values) can exceed the endpoints by rounding.
    tolerance = 1e-9 * max(1.0, abs(ordered[-1]))
    assert ordered[0] - tolerance <= p50 <= p95 + tolerance
    assert p95 <= p99 + tolerance
    assert p99 <= ordered[-1] + tolerance
    summary = summarize(samples)
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance


# -- resilience jitter determinism --------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    attempts=st.integers(min_value=1, max_value=10),
    jitter=st.floats(min_value=0.0, max_value=1.0),
)
def test_backoff_and_hedge_jitter_deterministic_per_seed(seed, attempts, jitter):
    """Same seed -> byte-identical delay sequences across fresh Environments.

    The resilience policy's only nondeterminism is its named RNG streams, so
    two independent simulations with the same root seed must schedule every
    retry backoff and hedge trigger at exactly the same instants.
    """
    policy = ResiliencePolicy(
        timeout=1.0, retries=9, hedge_delay=0.01, backoff_jitter=jitter
    )
    # Fresh Environment per replica: the streams live on the node/rng, not
    # the clock, and must not entangle with simulation state.
    runs = []
    for _ in range(2):
        Environment()  # fresh sim world, unused by the policy on purpose
        rng = RandomStreams(seed)
        backoffs = [policy.backoff_delay(rng, n) for n in range(1, attempts + 1)]
        hedges = [policy.hedge_jitter(rng) for _ in range(attempts)]
        runs.append((backoffs, hedges))
    assert runs[0] == runs[1]

    backoffs, hedges = runs[0]
    for n, delay in enumerate(backoffs, start=1):
        ceiling = min(policy.backoff_base * 2.0 ** (n - 1), policy.backoff_cap)
        assert ceiling * (1.0 - jitter) - 1e-12 <= delay
        assert delay <= ceiling * (1.0 + jitter) + 1e-12
    for delay in hedges:
        assert policy.hedge_delay * (1.0 - jitter) - 1e-12 <= delay
        assert delay <= policy.hedge_delay * (1.0 + jitter) + 1e-12


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_distinct_streams_do_not_entangle(seed):
    """Interleaving hedge draws must not perturb the backoff sequence."""
    policy = ResiliencePolicy(timeout=1.0, retries=4, hedge_delay=0.02)
    plain = RandomStreams(seed)
    interleaved = RandomStreams(seed)
    expected = [policy.backoff_delay(plain, n) for n in range(1, 5)]
    got = []
    for n in range(1, 5):
        policy.hedge_jitter(interleaved)  # extra draws on the *other* stream
        got.append(policy.backoff_delay(interleaved, n))
    assert got == expected
