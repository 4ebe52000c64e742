"""Tests for the generation-tagged memory sanitizer (repro.mem.sanitizer).

Covers the violation classes it must catch — use-after-free (stale handles
and stale descriptors), double free, stale free, cross-pool confusion,
boundary-straddling descriptor ranges, and teardown leaks with allocation
sites — plus end-to-end checked-mode runs of both SPRIGHT dataplanes.
"""

import pytest

from repro.dataplane import (
    DSprightDataplane,
    Request,
    RequestClass,
    SprightParams,
    SSprightDataplane,
)
from repro.mem import (
    PacketDescriptor,
    PoolError,
    PoolRegistry,
    PoolSanitizer,
    SanitizerError,
    SharedMemoryManager,
    SharedMemoryPool,
    ViolationKind,
    default_sanitize,
    set_default_sanitize,
)
from repro.obs import MetricsRegistry
from repro.runtime import FunctionSpec, WorkerNode


def make_sanitized_pool(**kwargs):
    defaults = dict(name="p", file_prefix="pfx", buffer_size=128, capacity=4)
    defaults.update(kwargs)
    pool = SharedMemoryPool(**defaults)
    sanitizer = PoolSanitizer(counter=MetricsRegistry())
    pool.attach_sanitizer(sanitizer)
    return pool, sanitizer


# -- violation classes ---------------------------------------------------------

def test_use_after_free_counted():
    pool, sanitizer = make_sanitized_pool()
    handle = pool.alloc(site="test/uaf")
    pool.free(handle)
    pool.alloc()  # recycle the slot
    with pytest.raises(PoolError):
        pool.read(handle)
    assert sanitizer.counter.get("sanitizer/use_after_free") == 1
    assert sanitizer.counts() == {"use_after_free": 1}


def test_double_free_counted():
    pool, sanitizer = make_sanitized_pool()
    handle = pool.alloc()
    pool.free(handle)
    with pytest.raises(PoolError, match="double free"):
        pool.free(handle)
    assert sanitizer.counter.get("sanitizer/double_free") == 1


def test_stale_free_counted_and_new_owner_protected():
    pool, sanitizer = make_sanitized_pool()
    h1 = pool.alloc()
    pool.free(h1)
    h2 = pool.alloc()
    pool.write(h2, b"owner")
    with pytest.raises(PoolError, match="stale"):
        pool.free(h1)
    assert sanitizer.counter.get("sanitizer/stale_free") == 1
    assert pool.read(h2) == b"owner"


def test_cross_pool_confusion_counted():
    pool_a, sanitizer_a = make_sanitized_pool(name="a")
    pool_b, sanitizer_b = make_sanitized_pool(name="b")
    handle = pool_a.alloc()
    with pytest.raises(PoolError, match="belongs to pool"):
        pool_b.read(handle)
    assert sanitizer_b.counter.get("sanitizer/cross_pool") == 1
    assert sanitizer_a.total_violations == 0


# -- descriptor resolution ----------------------------------------------------

def test_descriptor_resolution_happy_path():
    pool, sanitizer = make_sanitized_pool()
    handle = pool.alloc()
    pool.write(handle, b"payload")
    descriptor = PacketDescriptor(
        next_fn=1,
        shm_offset=handle.offset,
        length=handle.size,
        generation=handle.generation,
    )
    assert pool.resolve_descriptor(descriptor) == b"payload"
    assert sanitizer.total_violations == 0


def test_stale_descriptor_generation_rejected():
    """The ABA case on the wire: descriptor outlives its buffer's lifetime."""
    pool, sanitizer = make_sanitized_pool()
    h1 = pool.alloc()
    pool.write(h1, b"old")
    stale = PacketDescriptor(
        next_fn=1, shm_offset=h1.offset, length=3, generation=h1.generation
    )
    pool.free(h1)
    h2 = pool.alloc()  # same slot, bumped generation
    pool.write(h2, b"new")
    with pytest.raises(PoolError, match="stale descriptor"):
        pool.resolve_descriptor(stale)
    assert sanitizer.counter.get("sanitizer/use_after_free") == 1


def test_descriptor_to_freed_buffer_rejected():
    pool, sanitizer = make_sanitized_pool()
    handle = pool.alloc()
    descriptor = PacketDescriptor(
        next_fn=1, shm_offset=handle.offset, length=0, generation=handle.generation
    )
    pool.free(handle)
    with pytest.raises(PoolError, match="freed buffer"):
        pool.resolve_descriptor(descriptor)
    assert sanitizer.counter.get("sanitizer/use_after_free") == 1


def test_descriptor_range_straddle_rejected():
    pool, sanitizer = make_sanitized_pool(buffer_size=128)
    handle = pool.alloc()
    straddling = PacketDescriptor(
        next_fn=1,
        shm_offset=handle.offset,
        length=129,  # one byte into the neighbouring buffer
        generation=handle.generation,
    )
    with pytest.raises(PoolError, match="straddles"):
        pool.resolve_descriptor(straddling)
    assert sanitizer.counter.get("sanitizer/range_straddle") == 1


def test_unsanitized_pool_still_raises():
    """The identity/generation checks are the fix, not an opt-in feature."""
    pool = SharedMemoryPool(name="p", file_prefix="x", buffer_size=64, capacity=2)
    h1 = pool.alloc()
    pool.free(h1)
    pool.alloc()
    with pytest.raises(PoolError):
        pool.read(h1)


# -- strict mode ----------------------------------------------------------------

def test_strict_mode_raises_sanitizer_error():
    pool = SharedMemoryPool(name="p", file_prefix="x", buffer_size=64, capacity=2)
    pool.attach_sanitizer(PoolSanitizer(strict=True))
    handle = pool.alloc()
    pool.free(handle)
    with pytest.raises(SanitizerError, match="double_free"):
        pool.free(handle)


# -- leak detection at chain teardown ---------------------------------------------

def test_teardown_reports_leak_with_allocation_site():
    registry = PoolRegistry()
    manager = SharedMemoryManager(registry, "chain-leaky")
    memory = manager.initialize(capacity=8)
    sanitizer = PoolSanitizer(counter=MetricsRegistry())
    memory.pool.attach_sanitizer(sanitizer)

    leaked = memory.pool.alloc(site="gateway/handle_request")
    memory.pool.write(leaked, b"never freed")
    freed = memory.pool.alloc(site="gateway/other")
    memory.pool.free(freed)

    manager.teardown()
    leaks = sanitizer.leaks()
    assert len(leaks) == 1
    assert leaks[0].site == "gateway/handle_request"
    assert leaks[0].kind is ViolationKind.LEAK
    assert sanitizer.counter.get("sanitizer/leak") == 1
    assert "gateway/handle_request" in sanitizer.report()


def test_clean_teardown_reports_zero_leaks():
    registry = PoolRegistry()
    manager = SharedMemoryManager(registry, "chain-clean")
    memory = manager.initialize(capacity=8)
    sanitizer = PoolSanitizer(counter=MetricsRegistry())
    memory.pool.attach_sanitizer(sanitizer)
    handle = memory.pool.alloc(site="gateway")
    memory.pool.free(handle)
    manager.teardown()
    assert sanitizer.leaks() == []
    assert sanitizer.total_violations == 0
    assert sanitizer.report() == "sanitizer: 0 violations"


# -- checked-mode chain runs (both dataplanes) --------------------------------------

def run_chain(plane_cls, count=3):
    node = WorkerNode()
    functions = [
        FunctionSpec(name="fn-1", service_time=10e-6),
        FunctionSpec(name="fn-2", service_time=10e-6),
    ]
    plane = plane_cls(node, functions, params=SprightParams(sanitize=True))
    plane.deploy()
    request_class = RequestClass(name="t", sequence=["fn-1", "fn-2"], payload_size=5)

    def driver(env):
        for _ in range(count):
            request = Request(
                request_class=request_class, payload=b"hello", created_at=env.now
            )
            yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=10.0)
    return node, plane


@pytest.mark.parametrize("plane_cls", [SSprightDataplane, DSprightDataplane])
def test_chain_runs_clean_under_sanitizer(plane_cls):
    node, plane = run_chain(plane_cls)
    sanitizer = plane.runtime.sanitizer
    assert sanitizer is not None
    assert sanitizer.total_violations == 0
    assert not any(
        name.startswith("sanitizer/") for name in node.counters.as_dict()
    )
    plane.runtime.teardown()  # all buffers were freed: no leaks either
    assert sanitizer.leaks() == []


def test_chain_teardown_leak_detected_end_to_end():
    node, plane = run_chain(SSprightDataplane)
    pool = plane.runtime.pool
    pool.alloc(site="test/intentional-leak")  # never freed
    plane.runtime.teardown()
    sanitizer = plane.runtime.sanitizer
    assert len(sanitizer.leaks()) == 1
    assert sanitizer.leaks()[0].site == "test/intentional-leak"
    assert node.counters.get("sanitizer/leak") == 1


def test_env_default_parsing():
    from repro.mem.sanitizer import _env_default

    assert _env_default(None) is False
    assert _env_default("") is False
    assert _env_default("0") is False
    assert _env_default("false") is False
    assert _env_default("no") is False
    assert _env_default("1") is True
    assert _env_default("true") is True
    assert _env_default("yes") is True


def test_default_sanitize_toggle():
    assert default_sanitize() is False
    try:
        set_default_sanitize(True)
        node = WorkerNode()
        plane = SSprightDataplane(
            node, [FunctionSpec(name="fn-1", service_time=0.0)]
        )
        plane.deploy()
        assert plane.runtime.sanitizer is not None
    finally:
        set_default_sanitize(False)
    node = WorkerNode()
    plane = SSprightDataplane(node, [FunctionSpec(name="fn-1", service_time=0.0)])
    plane.deploy()
    assert plane.runtime.sanitizer is None
