"""Tests for shared memory pools, descriptors, rings, and chain managers."""

import pytest

from repro.mem import (
    DescriptorError,
    IsolationError,
    PacketDescriptor,
    PoolError,
    PoolRegistry,
    RingError,
    RteRing,
    SharedMemoryManager,
    SharedMemoryPool,
)


# -- descriptors -----------------------------------------------------------

def test_descriptor_roundtrip():
    descriptor = PacketDescriptor(
        next_fn=3, shm_offset=65536, length=1500, generation=7
    )
    raw = descriptor.pack()
    assert len(raw) == 24
    assert PacketDescriptor.unpack(raw) == descriptor


def test_descriptor_is_exactly_24_bytes():
    with pytest.raises(DescriptorError, match="24 bytes"):
        PacketDescriptor.unpack(b"\x00" * 16)


def test_descriptor_version_checked():
    raw = bytearray(PacketDescriptor(next_fn=1, shm_offset=0, length=0).pack())
    raw[0] = 1  # the paper's v1 16-byte layout never had this header
    with pytest.raises(DescriptorError, match="version"):
        PacketDescriptor.unpack(bytes(raw))


def test_descriptor_field_ranges():
    with pytest.raises(DescriptorError):
        PacketDescriptor(next_fn=2**32, shm_offset=0, length=0)
    with pytest.raises(DescriptorError):
        PacketDescriptor(next_fn=0, shm_offset=-1, length=0)
    with pytest.raises(DescriptorError):
        PacketDescriptor(next_fn=0, shm_offset=0, length=0, generation=2**32)


def test_descriptor_readdressing():
    descriptor = PacketDescriptor(next_fn=1, shm_offset=100, length=10, generation=3)
    forwarded = descriptor.addressed_to(2)
    assert forwarded.next_fn == 2
    assert forwarded.shm_offset == 100
    assert forwarded.generation == 3
    assert descriptor.next_fn == 1  # original unchanged


# -- pools -------------------------------------------------------------------

def make_pool(**kwargs):
    defaults = dict(name="p", file_prefix="pfx", buffer_size=128, capacity=4)
    defaults.update(kwargs)
    return SharedMemoryPool(**defaults)


def test_pool_alloc_write_read_free():
    pool = make_pool()
    handle = pool.alloc()
    pool.write(handle, b"hello world")
    assert pool.read(handle) == b"hello world"
    pool.free(handle)
    assert pool.free_count == 4


def test_pool_zero_copy_identity():
    """Payload written once is readable at the same offset — no copies."""
    pool = make_pool()
    handle = pool.alloc()
    pool.write(handle, b"payload")
    assert pool.read_at(handle.offset, 7) == b"payload"
    assert pool.stats.writes == 1  # a single copy-in, as in Table 2


def test_pool_exhaustion():
    pool = make_pool(capacity=2)
    pool.alloc()
    pool.alloc()
    with pytest.raises(PoolError, match="exhausted"):
        pool.alloc()
    assert pool.stats.alloc_failures == 1


def test_pool_double_free_detected():
    pool = make_pool()
    handle = pool.alloc()
    pool.free(handle)
    with pytest.raises(PoolError, match="double free"):
        pool.free(handle)


def test_pool_use_after_free_detected():
    pool = make_pool()
    handle = pool.alloc()
    pool.free(handle)
    with pytest.raises(PoolError, match="freed buffer"):
        pool.read(handle)


def test_pool_stale_handle_aba_read_detected():
    """Regression: a freed handle whose slot was re-allocated must not pass
    the liveness check on offset alone (classic ABA use-after-free)."""
    pool = make_pool()
    h1 = pool.alloc()
    pool.write(h1, b"first owner")
    pool.free(h1)
    h2 = pool.alloc()  # LIFO free list: h2 recycles h1's slot
    assert h2.offset == h1.offset
    pool.write(h2, b"second owner")
    with pytest.raises(PoolError, match="stale handle"):
        pool.read(h1)
    with pytest.raises(PoolError, match="stale handle"):
        pool.write(h1, b"clobber")
    assert pool.read(h2) == b"second owner"  # new owner undisturbed


def test_pool_stale_handle_free_detected():
    """Freeing through a stale handle must not free the new owner's buffer."""
    pool = make_pool()
    h1 = pool.alloc()
    pool.free(h1)
    h2 = pool.alloc()
    with pytest.raises(PoolError, match="stale handle"):
        pool.free(h1)
    assert pool.read(h2) == b""  # h2 still live


def test_pool_generation_bumps_per_slot():
    pool = make_pool(capacity=1)
    generations = []
    for _ in range(3):
        handle = pool.alloc()
        generations.append(handle.generation)
        pool.free(handle)
    assert generations == [1, 2, 3]


def test_pool_read_at_negative_length_rejected():
    pool = make_pool()
    reads_before = pool.stats.reads
    with pytest.raises(PoolError, match="negative read length"):
        pool.read_at(16, -8)
    assert pool.stats.reads == reads_before  # rejected reads are not counted


def test_pool_oversized_write_rejected():
    pool = make_pool(buffer_size=8)
    handle = pool.alloc()
    with pytest.raises(PoolError, match="exceeds buffer size"):
        pool.write(handle, b"X" * 9)


def test_pool_cross_pool_handles_rejected():
    pool_a = make_pool(name="a")
    pool_b = make_pool(name="b")
    handle = pool_a.alloc()
    with pytest.raises(PoolError, match="belongs to pool"):
        pool_b.read(handle)


def test_pool_read_outside_bounds_rejected():
    pool = make_pool()
    with pytest.raises(PoolError, match="outside pool"):
        pool.read_at(pool.total_bytes - 4, 8)


def test_pool_hugepage_backing():
    pool = make_pool(buffer_size=4096, capacity=1024)  # 4 MiB
    assert pool.hugepages_backing == 2


def test_pool_peak_in_use_tracked():
    pool = make_pool()
    handles = [pool.alloc() for _ in range(3)]
    for handle in handles:
        pool.free(handle)
    assert pool.stats.peak_in_use == 3


# -- registry / isolation -------------------------------------------------------

def test_registry_primary_secondary_attach():
    registry = PoolRegistry()
    registry.create("pool-chain1", file_prefix="chain1-secret")
    pool = registry.attach("pool-chain1", "chain1-secret")
    assert pool.name == "pool-chain1"


def test_registry_wrong_prefix_isolated():
    registry = PoolRegistry()
    registry.create("pool-chain1", file_prefix="chain1-secret")
    with pytest.raises(IsolationError, match="does not own"):
        registry.attach("pool-chain1", "chain2-guess")


def test_registry_duplicate_pool_rejected():
    registry = PoolRegistry()
    registry.create("p", file_prefix="x")
    with pytest.raises(PoolError, match="already exists"):
        registry.create("p", file_prefix="y")


def test_manager_lifecycle_and_unique_prefixes():
    registry = PoolRegistry()
    manager_one = SharedMemoryManager(registry, "chain-1")
    manager_two = SharedMemoryManager(registry, "chain-2")
    assert manager_one.file_prefix != manager_two.file_prefix
    memory = manager_one.initialize(capacity=16)
    assert memory.pool.capacity == 16
    # Attach with the right prefix works; with the other chain's fails.
    manager_one.attach(manager_one.file_prefix)
    with pytest.raises(IsolationError):
        manager_one.attach(manager_two.file_prefix)
    manager_one.teardown()
    assert len(registry) == 0


def test_manager_ring_assignment():
    registry = PoolRegistry()
    manager = SharedMemoryManager(registry, "chain-1")
    manager.initialize()
    ring = manager.create_ring("fn-1", size=64)
    assert ring.size == 64
    with pytest.raises(RuntimeError, match="already owns"):
        manager.create_ring("fn-1")


# -- rings ------------------------------------------------------------------------

def test_ring_size_must_be_power_of_two():
    with pytest.raises(RingError):
        RteRing("r", size=100)


def test_ring_fifo_and_counters():
    ring = RteRing("r", size=4)
    assert ring.enqueue("a")
    assert ring.enqueue("b")
    ok, item = ring.dequeue()
    assert ok and item == "a"
    assert ring.enqueued == 2
    assert ring.dequeued == 1


def test_ring_full_drops():
    ring = RteRing("r", size=2)
    assert ring.enqueue(1)
    assert ring.enqueue(2)
    assert not ring.enqueue(3)
    assert ring.drops == 1
