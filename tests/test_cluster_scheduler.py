"""Cluster placement policies: shapes, diagnostics, and determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    POLICIES,
    ClusterScheduler,
    NodeDescriptor,
    PlacementError,
    function_core_request,
    function_memory_request,
)
from repro.experiments import cluster_exp
from repro.runtime import ChainSpec, FunctionSpec


def _nodes(count, cores=2.0, memory_mb=1024.0):
    return [
        NodeDescriptor(name=f"worker-{i + 1}", cores=cores, memory_mb=memory_mb)
        for i in range(count)
    ]


def _place(chain, policy, count=3, cores=2.0):
    return ClusterScheduler(_nodes(count, cores=cores)).place(chain, policy)


# --- core/memory requests ----------------------------------------------------


def test_core_requests_are_asymmetric_and_capped():
    light = FunctionSpec("light", 30e-6)
    heavy = FunctionSpec("heavy", 200e-6)
    huge = FunctionSpec("huge", 5e-3)
    assert function_core_request(light) == 0.5
    assert function_core_request(heavy) == 1.5
    assert function_core_request(huge) == 2.0  # capped
    assert function_memory_request(light) > light.memory_mb


# --- the engineered experiment chain ----------------------------------------


def test_mixed_chain_policies_produce_3_4_6_transitions():
    """The experiment's acceptance geometry: locality < bin_pack < spread."""
    chain = cluster_exp.mixed_chain()
    sequence = chain.function_names
    hops = {
        policy: _place(chain, policy).transitions(sequence)
        for policy in POLICIES
    }
    assert hops == {"chain_locality": 3, "bin_pack": 4, "spread": 6}


def test_chain_locality_yields_contiguous_segments():
    chain = cluster_exp.mixed_chain()
    placement = _place(chain, "chain_locality")
    # Walking the chain, each node appears as one contiguous segment.
    walked = [placement.node_of(name) for name in chain.function_names]
    seen = []
    for node in walked:
        if not seen or seen[-1] != node:
            assert node not in seen, f"{node} re-entered: {walked}"
            seen.append(node)


def test_single_node_placement_has_zero_transitions():
    chain = cluster_exp.mixed_chain()
    for policy in POLICIES:
        placement = _place(chain, policy, count=1, cores=8.0)
        assert placement.nodes_used() == ["worker-1"]
        assert placement.transitions(chain.function_names) == 0


def test_response_leg_counts_when_chain_ends_off_ingress():
    chain = ChainSpec(
        "tail", [FunctionSpec("a", 30e-6), FunctionSpec("b", 30e-6)]
    )
    placement = _place(chain, "spread", count=2, cores=0.5)
    assert len(placement.nodes_used()) == 2
    # a->b boundary plus the response leg back to a's node.
    assert placement.transitions(chain.function_names) == 2


def test_unknown_policy_rejected():
    with pytest.raises(PlacementError):
        _place(cluster_exp.mixed_chain(), "random")


# --- failure diagnostics (satellite: PlacementError payload) ----------------


def test_cluster_placement_error_carries_shortfalls():
    chain = ChainSpec("big", [FunctionSpec("whale", 1e-3)])  # wants 2.0 cores
    with pytest.raises(PlacementError) as excinfo:
        _place(chain, "bin_pack", count=2, cores=1.0)
    diag = excinfo.value.diagnostics
    assert diag["subject"] == "big/whale"
    assert diag["cores_requested"] == 2.0
    assert [c["node"] for c in diag["candidates"]] == ["worker-1", "worker-2"]
    for candidate in diag["candidates"]:
        assert candidate["core_shortfall"] == 1.0
        assert candidate["memory_shortfall_mb"] == 0.0


# --- determinism (satellite: policies are functions of the topology) --------

_SERVICE_TIMES = (4e-6, 20e-6, 35e-6, 80e-6, 200e-6, 400e-6)


@st.composite
def _topology_and_chain(draw):
    node_count = draw(st.integers(min_value=1, max_value=5))
    cores = draw(st.sampled_from((2.0, 3.0, 4.0, 8.0)))
    length = draw(st.integers(min_value=1, max_value=8))
    times = draw(
        st.lists(
            st.sampled_from(_SERVICE_TIMES),
            min_size=length,
            max_size=length,
        )
    )
    chain = ChainSpec(
        "prop",
        [FunctionSpec(f"fn{i}", t) for i, t in enumerate(times)],
    )
    return node_count, cores, chain


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_topology_and_chain(), policy=st.sampled_from(POLICIES))
def test_policies_are_deterministic_functions_of_topology(case, policy):
    node_count, cores, chain = case
    try:
        first = _place(chain, policy, count=node_count, cores=cores)
    except PlacementError:
        # Doesn't fit (or fragments); the failure itself must be stable.
        with pytest.raises(PlacementError):
            _place(chain, policy, count=node_count, cores=cores)
        return
    second = _place(chain, policy, count=node_count, cores=cores)
    assert first.assignments == second.assignments
    assert first.digest() == second.digest()
    # Commitments respected: no node over its capacity.
    committed = {}
    for name, node in first.assignments.items():
        committed[node] = committed.get(node, 0.0) + function_core_request(
            chain.function(name)
        )
    assert all(total <= cores + 1e-9 for total in committed.values())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_topology_and_chain())
def test_chain_locality_minimizes_walk_boundaries(case):
    """Locality's same-node segment count is minimal among the policies.

    Compared on walk boundaries (node changes along the call sequence),
    which is what the greedy stay-while-fits walk provably minimizes; the
    response leg back to the ingress is a separate term.
    """
    node_count, cores, chain = case

    def boundaries(policy):
        try:
            placement = _place(chain, policy, count=node_count, cores=cores)
        except PlacementError:
            return None
        walked = [placement.node_of(name) for name in chain.function_names]
        return sum(1 for a, b in zip(walked, walked[1:]) if a != b)

    locality = boundaries("chain_locality")
    if locality is None:
        return
    for rival in ("bin_pack", "spread"):
        rival_boundaries = boundaries(rival)
        if rival_boundaries is not None:
            assert locality <= rival_boundaries
