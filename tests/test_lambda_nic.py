"""λ-NIC single-node plane: eligibility, fallback, and determinism."""

from repro.dataplane import RequestClass
from repro.experiments.common import build_closed_loop
from repro.dataplane.spright.xdp_accel import NicComputeEngine, NicComputeModel
from repro.kernel import NodeConfig
from repro.runtime import FunctionSpec, WorkerNode


def _engine(model=None):
    return NicComputeEngine(WorkerNode(NodeConfig()), model)


SHORT = [
    FunctionSpec("kv-get", 4e-6, nic_offloadable=True, nic_insns=64),
    FunctionSpec("kv-check", 3e-6, nic_offloadable=True, nic_insns=48),
]
MIXED = SHORT + [FunctionSpec("render", 200e-6)]  # over the NIC ceiling


def _run(functions, concurrency=8, duration=0.5, seed=2022, **kwargs):
    return build_closed_loop(
        "lambda-nic",
        functions,
        [RequestClass("seq", sequence=[f.name for f in functions])],
        concurrency=concurrency,
        duration=duration,
        seed=seed,
        **kwargs,
    ).finish()


# --- offload decision -------------------------------------------------------


def test_eligibility_requires_both_flag_and_ceiling():
    engine = _engine()
    assert engine.eligible(FunctionSpec("short", 10e-6, nic_offloadable=True))
    assert not engine.eligible(FunctionSpec("short-host", 10e-6))
    assert not engine.eligible(
        FunctionSpec("heavy", 200e-6, nic_offloadable=True)
    )
    # Exactly at the ceiling is still NIC-admissible.
    ceiling = engine.model.offload_ceiling
    assert engine.eligible(
        FunctionSpec("edge", ceiling, nic_offloadable=True)
    )


def test_nic_model_defaults_come_from_the_cost_model():
    node = WorkerNode(NodeConfig())
    engine = NicComputeEngine(node)
    costs = node.config.costs
    assert engine.model.cores == costs.nic_compute_cores
    assert engine.model.slowdown == costs.nic_compute_slowdown
    assert engine.model.offload_ceiling == costs.nic_offload_ceiling
    assert node.nic.offload_engine is engine


def test_reserve_release_respects_the_core_budget():
    engine = _engine(NicComputeModel(cores=2.0))
    assert engine.try_reserve()
    assert engine.try_reserve()
    assert not engine.try_reserve()  # third concurrent claim over budget
    assert engine.budget_fallbacks == 1
    engine.release()
    assert engine.try_reserve()
    counters = engine.node.counters.as_dict()
    assert counters["nic/budget_fallbacks"] == 1


# --- end-to-end plane behavior ----------------------------------------------


def test_all_short_chain_offloads_with_near_zero_host_cpu():
    result = _run(SHORT)
    counters = result.node.counters.as_dict()
    assert counters["lambdanic/offloaded"] > 0
    assert result.recorder.count("") > 0
    # fn/ pods never ran: the host served only budget-fallback residue.
    host_fn_cpu = result.cpu_percent("fn/")
    fallbacks = counters.get("lambdanic/host_fallbacks", 0)
    if fallbacks == 0:
        assert host_fn_cpu == 0.0
    engine = result.node.nic.offload_engine
    assert engine.nic_cpu_cores(result.duration) > 0.0


def _host_served(result, names):
    deployments = result.plane_obj.deployments
    return sum(pod.served for name in names for pod in deployments[name].pods)


def test_heavy_function_runs_on_the_host_and_short_ones_on_the_nic():
    result = _run(MIXED, duration=0.3)
    counters = result.node.counters.as_dict()
    completed = result.recorder.count("")
    assert completed > 0
    # One heavy function keeps the request off the NIC-to-NIC path ...
    assert counters.get("lambdanic/offloaded", 0) == 0
    # ... but offload is per function: the heavy one runs on host pods, the
    # short ones on the NIC engine unless its cores are all busy.
    assert _host_served(result, ["render"]) >= completed
    fallbacks = counters.get("lambdanic/host_fallbacks", 0)
    short_on_host = _host_served(result, ["kv-get", "kv-check"])
    assert short_on_host <= fallbacks
    engine = result.node.nic.offload_engine
    assert engine.offloaded + short_on_host >= 2 * completed
    assert engine.offloaded > short_on_host


def test_budget_exhaustion_falls_back_deterministically():
    def burst():
        return _run(SHORT, concurrency=48, duration=0.2, client_overhead=0.0)

    first = burst()
    second = burst()
    for result in (first, second):
        counters = result.node.counters.as_dict()
        assert counters["nic/budget_fallbacks"] > 0
        assert (
            counters["lambdanic/host_fallbacks"]
            == counters["nic/budget_fallbacks"]
        )
        assert counters["lambdanic/offloaded"] > 0
    # Same seed => same offload set: counters and latencies replay exactly.
    assert (
        first.node.counters.as_dict() == second.node.counters.as_dict()
    )
    assert first.recorder.count("") == second.recorder.count("")
    assert first.recorder.summary("").p99 == second.recorder.summary("").p99


def test_different_seeds_change_the_interleaving_not_the_contract():
    result = _run(SHORT, concurrency=48, duration=0.2, seed=7, client_overhead=0.0)
    counters = result.node.counters.as_dict()
    assert counters["lambdanic/offloaded"] > 0
    assert (
        counters.get("lambdanic/host_fallbacks", 0)
        == counters.get("nic/budget_fallbacks", 0)
    )
