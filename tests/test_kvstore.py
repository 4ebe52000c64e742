"""Tests for the in-memory KV substrate (Fig 8a's in-memory DB)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import KvError, KvStore, shared_store
from repro.workloads.kvstore import GET_COST, PUT_COST


def test_put_get_roundtrip_with_costs():
    store = KvStore()
    put_cost = store.put("k", b"value")
    value, get_cost = store.get("k")
    assert value == b"value"
    assert put_cost >= PUT_COST
    assert get_cost >= GET_COST


def test_miss_returns_none_and_counts():
    store = KvStore()
    value, cost = store.get("absent")
    assert value is None
    assert cost == GET_COST
    assert store.stats.misses == 1


def test_lru_eviction_order():
    store = KvStore(max_entries=2)
    store.put("a", b"1")
    store.put("b", b"2")
    store.get("a")          # touch a: now b is the LRU entry
    store.put("c", b"3")    # evicts b
    assert store.get("b")[0] is None
    assert store.get("a")[0] == b"1"
    assert store.stats.evictions == 1


def test_delete():
    store = KvStore()
    store.put("k", b"v")
    existed, _ = store.delete("k")
    assert existed
    existed, _ = store.delete("k")
    assert not existed


def test_larger_values_cost_more():
    store = KvStore()
    small_cost = store.put("a", b"x")
    big_cost = store.put("b", b"x" * 10_000)
    assert big_cost > small_cost


def test_capacity_validation():
    with pytest.raises(KvError):
        KvStore(max_entries=0)


def test_shared_store_is_per_context_singleton():
    context = {}
    first = shared_store(context, "db")
    second = shared_store(context, "db")
    other = shared_store(context, "other-db")
    assert first is second
    assert first is not other


@given(
    operations=st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.binary(max_size=32)),
        min_size=1,
        max_size=60,
    )
)
def test_kv_matches_dict_model_within_capacity(operations):
    store = KvStore(max_entries=1000)
    model = {}
    for key, value in operations:
        store.put(key, value)
        model[key] = value
    for key, value in model.items():
        assert store.get(key)[0] == value
    assert len(store) == len(model)


def test_cart_behavior_uses_db_and_reports_cost():
    from repro.runtime import FunctionResult
    from repro.workloads.boutique import _cart_behavior

    context = {}
    result = _cart_behavior(b"\x01" * 16, context)
    assert isinstance(result, FunctionResult)
    assert result.extra_service_time > 0
    assert context["cart-db"].stats.puts == 1


def test_extra_service_time_charged_to_pod():
    """DB access time shows up in the pod's measured service latency."""
    from repro.runtime import FunctionResult, FunctionSpec, Kubelet, WorkerNode

    def db_heavy(payload, context):
        return FunctionResult(payload=payload, extra_service_time=0.05)

    node = WorkerNode()
    kubelet = Kubelet(node, cold_start_enabled=False)
    pod = kubelet.create_pod(
        FunctionSpec(name="f", service_time=0.0, behavior=db_heavy), "t/fn/f"
    )
    times = []

    def client(env):
        yield pod.ready
        yield env.process(pod.serve(b"x"))
        times.append(env.now)

    node.env.process(client(node.env))
    node.run(until=1.0)
    assert times[0] >= 0.05
