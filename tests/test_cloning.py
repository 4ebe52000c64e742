"""Tests for the request-cloning lab: PS queue, oracle, clone semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloning import (
    expected_min_service,
    optimal_clone_factor,
    ps_response_time,
    run_clone_point,
)
from repro.faults import ResiliencePolicy, clone_cost_for_plane
from repro.simcore import Environment, PsServer


# -- the processor-sharing queue ---------------------------------------------------

def test_ps_lone_job_runs_at_full_speed():
    env = Environment()
    server = PsServer(env)
    job = server.submit(0.01, "t")
    env.run(until=1.0)
    assert job.finished
    assert env.now == pytest.approx(1.0)
    assert server.busy_time == pytest.approx(0.01)


def test_ps_two_jobs_split_capacity():
    env = Environment()
    server = PsServer(env)
    a = server.submit(0.01, "t")
    b = server.submit(0.01, "t")
    done_at = {}
    a.done.callbacks.append(lambda event: done_at.setdefault("a", env.now))
    b.done.callbacks.append(lambda event: done_at.setdefault("b", env.now))
    env.run(until=1.0)
    # Equal work, started together: both stretch to 2x and finish together.
    assert done_at["a"] == pytest.approx(0.02)
    assert done_at["b"] == pytest.approx(0.02)


def test_ps_cancel_returns_share_to_survivors():
    env = Environment()
    server = PsServer(env)
    survivor = server.submit(0.02, "t")
    victim = server.submit(0.02, "t")
    finished_at = {}
    survivor.done.callbacks.append(lambda event: finished_at.setdefault("s", env.now))

    def cancel_at(when):
        yield env.timeout(when)
        assert server.cancel(victim) is True
        assert server.cancel(victim) is False  # idempotent

    env.process(cancel_at(0.01))
    env.run(until=1.0)
    # 0.01 s shared (0.005 done) + 0.015 remaining at full speed = 0.025.
    assert finished_at["s"] == pytest.approx(0.025)
    assert victim.cancelled and not victim.finished
    assert server.jobs_cancelled == 1


def test_ps_zero_work_completes_immediately():
    env = Environment()
    server = PsServer(env)
    job = server.submit(0.0, "t")
    assert job.finished
    assert server.jobs_completed == 1


def test_ps_per_job_cap_limits_lone_job():
    env = Environment()
    server = PsServer(env, capacity=4.0, per_job_cap=1.0)
    job = server.submit(0.01, "t")
    done_at = []
    job.done.callbacks.append(lambda event: done_at.append(env.now))
    env.run(until=1.0)
    # capacity 4 but one job is capped at one core-equivalent.
    assert done_at[0] == pytest.approx(0.01)


# -- the analytic oracle -----------------------------------------------------------

def test_expected_min_service_closed_forms():
    assert expected_min_service(1.0, 4, "exp") == pytest.approx(0.25)
    assert expected_min_service(1.0, 4, "deterministic") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expected_min_service(1.0, 4, "lognormal")
    with pytest.raises(ValueError):
        expected_min_service(1.0, 0, "exp")


def test_ps_response_time_and_stability():
    # M/M/1-PS sanity at d=1: T = S / (1 - rho).
    assert ps_response_time(500.0, 1e-3, 1, "exp") == pytest.approx(2e-3)
    # cloning to 2 halves the effective service under exp
    assert ps_response_time(500.0, 1e-3, 2, "exp") == pytest.approx(
        0.5e-3 / (1 - 0.25)
    )
    assert ps_response_time(1000.0, 1e-3, 1, "exp") == float("inf")  # rho = 1


def test_optimal_clone_factor_regimes():
    # exponential at modest load: min-of-d keeps winning, d* > 1
    d_exp, _ = optimal_clone_factor(200.0, 1e-3, 4, "exp")
    assert d_exp > 1
    # deterministic: extra copies are pure waste, d* = 1
    d_det, _ = optimal_clone_factor(200.0, 1e-3, 4, "deterministic")
    assert d_det == 1


# -- DES vs oracle (the validated regimes) -----------------------------------------

def test_lab_matches_oracle_exp_regime():
    smin = expected_min_service(1e-3, 2, "exp")
    result = run_clone_point(
        0.5 / smin, 1e-3, 2, dist="exp", duration=8.0, warmup=1.0
    )
    assert result.failed == 0
    assert result.within(0.05), (
        f"exp regime off by {result.relative_error:.1%}"
    )


def test_lab_matches_oracle_deterministic_regime():
    smin = expected_min_service(1e-3, 2, "deterministic")
    result = run_clone_point(
        0.5 / smin, 1e-3, 2, dist="deterministic", duration=8.0, warmup=1.0
    )
    assert result.failed == 0
    assert result.within(0.05), (
        f"deterministic regime off by {result.relative_error:.1%}"
    )


# -- clone semantics ---------------------------------------------------------------

def test_clones_race_and_losers_cancel_cleanly():
    result = run_clone_point(300.0, 1e-3, 3, dist="exp", duration=2.0, warmup=0.0)
    counters = result.node.counters.as_dict()
    rounds = counters["cloning/win_clone"] + counters["cloning/win_primary"]
    assert rounds == result.completed
    # every round launched d-1 = 2 clones...
    assert counters["cloning/clones"] == 2 * rounds
    # ...and cancelled its losers (ties can complete together, hence <=)
    assert 0 < counters["cloning/cancelled"] <= counters["cloning/clones"]
    # with exp service the clone wins a decent share of races
    assert counters["cloning/win_clone"] > 0


def test_cancelled_clones_leak_nothing_from_ps_pods():
    result = run_clone_point(300.0, 1e-3, 3, dist="exp", duration=2.0, warmup=0.0)
    # quiesce: no in-flight requests, no queued PS jobs, no held slots
    result.node.run(until=3.0)
    assert result.pods
    for pod in result.pods:
        assert pod.in_flight == 0
        assert pod._ps is not None and not pod._ps._jobs


def test_clone_cost_models_per_plane():
    spright = clone_cost_for_plane("s-spright")
    knative = clone_cost_for_plane("knative")
    grpc = clone_cost_for_plane("grpc")
    assert spright.kind == "descriptor" and spright.per_byte == 0.0
    assert knative.kind == "marshal" and knative.per_byte > 0.0
    # descriptors don't scale with payload; marshals dwarf them at 16 KB
    assert spright.cost(16384) < 1e-6 < knative.cost(16384)
    assert grpc.cost(16384) < knative.cost(16384)
    with pytest.raises(KeyError):
        clone_cost_for_plane("mystery-plane")
    with pytest.raises(ValueError):
        ResiliencePolicy(clone_factor=0)


# -- determinism + conservation properties -----------------------------------------

@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_same_seed_same_clone_decisions_and_completion_order(seed):
    """Byte-identical replay: same seed => same clone wins, same completion
    order (samples append in completion order), same counters."""
    runs = [
        run_clone_point(400.0, 1e-3, 2, dist="exp", duration=1.0, warmup=0.0, seed=seed)
        for _ in range(2)
    ]
    assert runs[0].samples == runs[1].samples
    first, second = (
        {
            name: count
            for name, count in run.node.counters.as_dict().items()
            if name.startswith("cloning/")
        }
        for run in runs
    )
    assert first == second


@settings(max_examples=20, deadline=None)
@given(
    works=st.lists(
        st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_ps_conserves_total_work_vs_fcfs(works):
    """A batch released together finishes when the total work is done —
    PS reorders completions but never creates or destroys work, so the
    makespan equals the FCFS makespan (sum of service times)."""
    env = Environment()
    server = PsServer(env)
    jobs = [server.submit(work, "t") for work in works]
    env.run(until=sum(works) + 1.0)
    assert all(job.finished for job in jobs)
    assert server.busy_time == pytest.approx(sum(works), rel=1e-9)
    # work conservation: the last completion lands exactly at sum(works)
    assert env.now >= sum(works)


# -- clone storm under the sanitizer (leak guard) ----------------------------------

def test_clone_storm_sanitize_reports_zero_leaks():
    from repro.experiments.cloning_exp import sweep_function, sweep_request_class
    from repro.experiments.common import build_closed_loop

    result = build_closed_loop(
        "s-spright",
        [sweep_function()],
        [sweep_request_class()],
        concurrency=4,
        duration=2.0,
        scale=0.1,
        client_overhead=0.002,
        sanitize=True,
        resilience=ResiliencePolicy(
            clone_factor=3, clone_cost=clone_cost_for_plane("s-spright")
        ),
    ).finish()
    counters = result.node.counters.as_dict()
    assert counters.get("cloning/clones", 0) > 0, "the storm must actually clone"
    # quiesce so the teardown check is honest, then: zero leaked slots and
    # zero orphan reclaims — cancelled clones freed their own handles.
    result.node.run(until=3.0)
    runtime = result.plane_obj.runtime
    assert runtime.sanitizer is not None
    leaked = runtime.sanitizer.check_teardown(runtime.pool)
    assert len(leaked) == 0
    assert runtime.sanitizer.orphan_reclaims == 0
    assert counters.get("sanitizer/orphan_reclaims", 0) == 0
