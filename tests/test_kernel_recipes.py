"""Recipe charges against the op-by-op oracle in ``tests/kernel_reference.py``.

``KernelOps.commit`` prices a recipe once per size and books the core
inline, and ``OpBundle`` prices the same steps added one call at a time;
the reference counts and sums op by op and books through the old loop.
Seconds are compared by ``float.hex``, so all three must agree bit for bit,
along with every audit count, ``ops/*`` counter, profiler sample, core
calendar and completion-event heap key.
"""

from __future__ import annotations

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import RequestTrace, Stage
from repro.kernel import CostModel, KernelOps
from repro.kernel import ops as kernel_ops
from repro.obs import CpuProfiler, Observability
from repro.simcore import CpuAccounting, CpuSet, Environment
from tests.kernel_reference import (
    REFERENCE_SHAPES,
    ReferenceProfiler,
    reference_charge,
    reference_execute,
    reference_record,
)

TAG = "kn/gw/broker"
#: Recipes whose call sites pass a run-time argument (an instruction count).
WITH_ARG = {"SK_MSG_SEND", "SK_MSG_SEND_DROPPED"}

SIZES = st.one_of(st.integers(0, 2**20), st.sampled_from([0, 1, 64, 1500, 2**20]))
CHARGES = st.lists(
    st.tuples(st.sampled_from(sorted(REFERENCE_SHAPES)), SIZES, st.integers(0, 4096)),
    min_size=1,
    max_size=6,
)


def _ledger(accounting: CpuAccounting) -> tuple:
    busy = {tag: seconds.hex() for tag, seconds in accounting.total_busy.items()}
    # An empty series, as resolving a charge handle or reading a tag's
    # usage leaves, reads as zero everywhere, the same as no series.
    buckets = {
        tag: {index: seconds.hex() for index, seconds in series.items()}
        for tag, series in accounting._buckets.items()
        if series
    }
    return busy, buckets


def _heap(env: Environment) -> list:
    return sorted((when.hex(), priority, eid) for when, priority, eid, _ in env._queue)


def _side(profile: bool, detailed: bool):
    env = Environment()
    cpu = CpuSet(env, cores=2)
    obs = Observability(env)
    if profile:
        obs.enable_profiling(cpu.accounting)
    if detailed:
        obs.enable_tracing()
    return env, cpu, obs, KernelOps(env, cpu, CostModel(), TAG, obs=obs)


def _log_profiler_calls(obs: Observability) -> list:
    """Every ``record`` the profiler receives, components in order."""
    calls: list = []
    profiler = obs.profiler
    if profiler is not None:
        inner = profiler.record

        def record(tag, op, seconds):
            parts = op if op is None or isinstance(op, str) else [(n, s.hex()) for n, s in op]
            calls.append((tag, parts, seconds.hex()))
            inner(tag, op, seconds)

        profiler.record = record
    return calls


@settings(max_examples=150, deadline=None)
@given(charges=CHARGES, traced=st.booleans(), profile=st.booleans(), detailed=st.booleans())
def test_recipes_charge_what_the_op_by_op_bundle_charged(charges, traced, profile, detailed):
    results = []
    for way in ("recipe", "op_bundle", "reference"):
        env, cpu, obs, ops = _side(profile, detailed)
        calls = _log_profiler_calls(obs)
        trace = RequestTrace() if traced else None
        stage = Stage.STEP_3 if traced else None
        for name, nbytes, insns in charges:
            arg = insns if name in WITH_ARG else None
            if way == "recipe":
                ops.commit(getattr(kernel_ops, name), nbytes, trace, stage, arg=arg)
            elif way == "op_bundle":
                bundle = ops.bundle()
                REFERENCE_SHAPES[name](bundle, nbytes, trace, stage, arg)
                bundle.commit()
            else:
                reference_charge(ops, name, nbytes, trace, stage, arg)
        profiler = obs.profiler
        results.append(
            (
                _ledger(cpu.accounting),
                _heap(env),
                [core.next_free.hex() for core in cpu._cores],
                # Lists, not dicts: the order counts were first taken in
                # is the recipe's step order.
                None
                if trace is None
                else [(s, list(k.items())) for s, k in trace.counts.items()],
                list(obs.registry.as_dict().items()),
                calls,
                None
                if profiler is None
                else (
                    profiler.total.hex(),
                    {key: seconds.hex() for key, seconds in profiler.samples.items()},
                ),
            )
        )
    assert results[0] == results[2]
    assert results[1] == results[2]


def test_every_recipe_has_a_reference_shape():
    recipes = {
        name
        for name, value in vars(kernel_ops).items()
        if name.isupper() and not name.startswith("_") and isinstance(value, tuple)
    }
    assert recipes == set(REFERENCE_SHAPES)


def test_commit_prices_once_per_size_and_schedules_every_charge():
    env, cpu, _, ops = _side(profile=False, detailed=False)
    for nbytes in (10, 10, 20):
        ops.commit(kernel_ops.KERNEL_TX, nbytes)
    assert len(ops._priced) == 2
    assert len(env._queue) == 3


@st.composite
def _records(draw, width: float):
    index = draw(st.integers(0, 200))
    start = draw(
        st.one_of(
            st.just(index * width),
            st.floats(0.0, 20.0, allow_nan=False),
            st.just(index * width + width / 2),
        )
    )
    to_edge = (int(start / width) + 1) * width - start
    duration = draw(
        st.one_of(
            st.floats(0.0, 3.0, allow_nan=False),
            st.sampled_from([0.0, 1e-16, 1e-15, 2e-15, width, 2 * width]),
            st.just(to_edge),
            st.just(to_edge + 1e-15),
            st.just(to_edge * (1 - 1e-12)),
        )
    )
    return draw(st.sampled_from(["a", "b"])), start, duration


@settings(max_examples=300, deadline=None)
@given(width=st.sampled_from([0.1, 0.5, 1.0]), data=st.data())
def test_record_matches_the_slicing_loop(width, data):
    records = data.draw(st.lists(_records(width), min_size=1, max_size=8))
    fast, loop = CpuAccounting(width), CpuAccounting(width)
    for tag, start, duration in records:
        fast.record(tag, start, duration)
        reference_record(loop, tag, start, duration)
    assert _ledger(fast) == _ledger(loop)


DURATIONS = st.one_of(
    st.floats(0.0, 2.0, allow_nan=False), st.sampled_from([0.0, 1e-16, 0.25, 0.5])
)
#: Two tags that share their first segment and their op names, so a profiler
#: key that left out the tag (or part of it) would merge their samples.
BOOKING_TAGS = ("kn/gw/broker", "kn/fn/a")
#: A charge's profiler attribution: none, an op name, or a recipe's
#: per-operation breakdown.
BOOKING_OPS = st.one_of(
    st.none(),
    st.sampled_from(["compute", "copy", ""]),
    st.lists(
        st.tuples(st.sampled_from(["copy", "interrupt", "compute"]), DURATIONS),
        min_size=1,
        max_size=4,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(
    cores=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    width=st.sampled_from([0.1, 0.5, 1.0]),
    profile=st.booleans(),
    charges=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_nan=False)),
            DURATIONS,
            st.booleans(),
            st.sampled_from(BOOKING_TAGS),
            st.integers(0, 1),
            BOOKING_OPS,
            st.booleans(),
        ),
        min_size=1,
        max_size=16,
    ),
)
def test_execute_matches_the_reference_booking(cores, width, profile, charges):
    """Handles resolved at wiring and ``CpuSet.execute`` against the old
    booking loop and the unmemoized profiler, on two core sets that report
    into one ledger."""
    results = []
    for side in ("fast", "reference"):
        env = Environment()
        accounting = CpuAccounting(width)
        if profile:
            accounting.profiler = CpuProfiler() if side == "fast" else ReferenceProfiler()
        cpus = [CpuSet(env, cores=count, accounting=accounting) for count in cores]
        handles = {
            (which, tag): cpus[which].charge(tag) for which in (0, 1) for tag in BOOKING_TAGS
        }
        completions = []
        for advance, duration, detached, tag, which, op, via_handle in charges:
            if advance > 0:
                env.run(until=env.now + advance)
            if side == "reference":
                done = reference_execute(cpus[which], duration, tag, op=op, detached=detached)
            elif via_handle:
                done = handles[which, tag].book(duration, op, detached=detached)
            else:
                done = cpus[which].execute(duration, tag, op=op, detached=detached)
            if done is not None:
                completions.extend(
                    (when.hex(), eid) for when, _, eid, event in env._queue if event is done
                )
        env.run()
        profiler = accounting.profiler
        results.append(
            (
                [[core.next_free.hex() for core in cpu._cores] for cpu in cpus],
                _ledger(accounting),
                completions,
                env.now.hex(),
                None
                if profiler is None
                else (
                    profiler.total.hex(),
                    # A list: the order keys were first added in counts.
                    [(key, seconds.hex()) for key, seconds in profiler.samples.items()],
                ),
            )
        )
    assert results[0] == results[1]


def test_record_finishes_when_a_slice_ends_on_a_rounded_down_boundary():
    # 4.3 / 0.1 == 42.99999999999999, and bucket 42 ends at 43 * 0.1 == 4.3:
    # a charge reaching 4.3 used to slice zero seconds forever there.
    assert int(4.3 / 0.1) == 42 and 43 * 0.1 == 4.3
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        accounting = CpuAccounting(0.1)
        accounting.record("a", 1.35, 3.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    buckets = accounting._buckets["a"]
    assert accounting.total_busy["a"] == 3.0
    assert sum(buckets.values()) == pytest.approx(3.0)
    assert min(buckets) == 13 and max(buckets) == 43
    assert buckets[43] == pytest.approx(0.05)


def _too_slow(signum, frame):
    raise TimeoutError("record() did not finish")
