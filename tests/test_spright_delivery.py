"""Differential tests: direct descriptor delivery and the one-pass pick.

:class:`Member` must start every handler at the same instant and in the
same place among same-instant events as the dispatch loop it replaced,
kept as ``tests/spright_reference.py::reference_worker``. Each example
runs one member both ways, with puts at random instants and in
same-instant bursts, puts before the member is armed, a member that dies
with descriptors queued, handlers that wait zero or more seconds, and with
or without an observer. The logs, which interleave every handler step with
the steps of the putting processes, must be equal.

``DfrRoutingTable.pick_instance`` must pick the pod the three-list version
(``reference_pick_instance``) picks.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.spright.chain import Member
from repro.dataplane.spright.routing import DfrRoutingTable
from repro.mem import RteRing
from repro.simcore import Environment

from tests.spright_reference import (
    reference_endpoint,
    reference_pick_instance,
    reference_worker,
)

TICK = 1e-3
INSTANTS = st.integers(min_value=0, max_value=4).map(lambda k: k * TICK)

SCENARIOS = st.fixed_dictionaries(
    {
        "poll_interval": st.sampled_from([None, TICK, 0.5 * TICK]),
        "arm_at": INSTANTS,
        "pre_arm_puts": st.integers(min_value=0, max_value=2),
        "bursts": st.lists(
            st.tuples(INSTANTS, st.integers(min_value=1, max_value=3)),
            max_size=6,
        ),
        "delays": st.lists(st.sampled_from([0.0, TICK, 2.5 * TICK]), min_size=1, max_size=4),
        "dies_at": st.none() | INSTANTS,
        "observed": st.booleans(),
    }
)


def run(scenario: dict, direct: bool) -> list:
    """One member's log: every put, handler step and death, in order."""
    env = Environment()
    if scenario["observed"]:
        env.add_observer(lambda now: None)
    poll_interval = scenario["poll_interval"]
    log = []
    dead = [False]
    delays = scenario["delays"]
    if direct:
        endpoint = RteRing("member", size=1024)
        put = endpoint.enqueue
    else:
        endpoint, put = reference_endpoint(env, poll_interval)

    def handler(item):
        log.append(("start", env.now, item))
        yield env.timeout(delays[item % len(delays)])
        log.append(("end", env.now, item))

    def alive():
        return not dead[0]

    def make_handler():
        log.append(("armed", env.now))
        return handler

    names = iter(range(1000))

    def put_all(count, tag):
        for _ in range(count):
            item = next(names)
            put(item)
            log.append((tag, env.now, item))

    def start_member():
        yield env.timeout(scenario["arm_at"])
        if direct:
            Member(env, endpoint, make_handler, alive, "member", poll_interval)
        else:
            env.process(
                reference_worker(env, endpoint, make_handler, alive, poll_interval),
                detached=True,
            )
        # Puts in the member's own starting step land before it is armed.
        put_all(scenario["pre_arm_puts"], "pre-arm")

    def burst(at, count, index):
        yield env.timeout(at)
        put_all(count, f"burst{index}")
        yield env.timeout(0)
        log.append((f"after{index}", env.now))

    def die(at):
        yield env.timeout(at)
        dead[0] = True
        log.append(("dies", env.now))

    env.process(start_member())
    for index, (at, count) in enumerate(scenario["bursts"]):
        env.process(burst(at, count, index))
    if scenario["dies_at"] is not None:
        env.process(die(scenario["dies_at"]))
    env.run()
    return log


@settings(max_examples=400, deadline=None)
@given(SCENARIOS)
def test_member_starts_handlers_where_the_dispatch_loop_did(scenario):
    assert run(scenario, direct=True) == run(scenario, direct=False)


def test_a_dead_member_never_wakes_again():
    scenario = {
        "poll_interval": None, "arm_at": 0.0, "pre_arm_puts": 0,
        "bursts": [(TICK, 2), (3 * TICK, 1)], "delays": [0.0],
        "dies_at": TICK, "observed": False,
    }
    log = run(scenario, direct=True)
    assert log == run(scenario, direct=False)
    # The burst at TICK lands before the death at TICK: the wake takes one
    # descriptor, finds the member dead and starts that handler, and the
    # rest stay queued for good.
    starts = [entry for entry in log if entry[0] == "start"]
    assert starts == [("start", TICK, 0)]


# -- pick_instance ---------------------------------------------------------------

POD = st.fixed_dictionaries(
    {
        "servable": st.booleans(),
        "responsive": st.booleans(),
        "claimed": st.booleans(),
        "capacity": st.sampled_from([0.0, 1.0, 2.5, float("inf"), -3.0]),
    }
)


def make_pod(instance_id: int, spec: dict):
    return SimpleNamespace(
        instance_id=instance_id,
        is_servable=spec["servable"],
        responsive=spec["responsive"],
        residual_capacity=lambda now, capacity=spec["capacity"]: capacity,
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(POD, max_size=7), st.sampled_from(["none", "empty", "claims"]))
def test_pick_instance_matches_the_three_list_pick(specs, exclusion):
    pods = [make_pod(instance_id, spec) for instance_id, spec in enumerate(specs, 1)]
    exclude = {
        "none": None,
        "empty": set(),
        "claims": {pod.instance_id for pod, spec in zip(pods, specs) if spec["claimed"]},
    }[exclusion]
    node = SimpleNamespace(env=Environment(initial_time=3.0))
    table = DfrRoutingTable(node, "chain")
    for pod in pods:
        table.register_instance("fn", pod)
    expected = reference_pick_instance({"fn": pods}, "fn", 3.0, exclude)
    assert table.pick_instance("fn", exclude) is expected
    assert table.pick_instance("other", exclude) is None
