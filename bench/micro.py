"""Per-operation microbenchmarks, one or more per layer.

Each benchmark times one hot-loop operation with ``timeit`` and reports
the median over ``REPEATS`` repeats in nanoseconds per operation, each
repeat scaled to the reference host's speed (see ``calibrate.py``).
Unlike the layer fold, which says how much of a workload a layer takes,
these say how fast the layer's unit of work is on its own, so a change to
one operation shows up without the rest of the simulation around it.

Run on its own with ``PYTHONPATH=src python bench/micro.py``.
"""

from __future__ import annotations

import statistics
import timeit

import calibrate
from repro.experiments.common import make_node
from repro.kernel.ebpf import MapRegistry, SockMap, Vm, programs
from repro.mem import PoolSanitizer, SharedMemoryPool
from repro.protocols import GrpcCall, ProtoMessage
from repro.protocols.http1 import HttpRequest, decode_request, encode_request
from repro.protocols.http2 import HpackCodec, encode_grpc_request, grpc_request_headers
from repro.simcore import Environment

REPEATS = 7
#: Host seconds each repeat aims to take.
REPEAT_SECONDS = 0.03

PAYLOAD = b"x" * 128


class _Socket:
    """A sockmap value: what ``bpf_msg_redirect_map`` delivers to."""

    def deliver_descriptor(self, item) -> None:
        pass


def _timeout_step():
    env = Environment()

    def op():
        env.timeout(1e-6)
        env.step()

    return op


def _bundle_commit():
    node = make_node(scale=0.1)
    ops = node.ops("bench/kernel")
    step = node.env.step

    def op():
        ops.bundle().syscall().context_switch().interrupt().commit()
        step()

    return op


def _sproxy_run():
    registry = MapRegistry()
    sockmap = SockMap(max_entries=16, name="bench_sockmap")
    fd = registry.create(sockmap)
    sockmap.update(2, _Socket())
    vm = Vm(registry)
    program = programs.sproxy_redirect(sockmap_fd=fd)
    ctx = programs.encode_descriptor_ctx(
        next_fn_id=2, shm_offset=16384, payload_len=len(PAYLOAD), sender_id=1
    )

    def op():
        vm.run(program, data=ctx)

    return op


def _alloc_free(sanitized: bool):
    pool = SharedMemoryPool("bench", "bench-prefix", buffer_size=16384, capacity=64)
    if sanitized:
        pool.attach_sanitizer(PoolSanitizer())

    def op():
        pool.free(pool.alloc(site="bench"))

    return op


def _grpc_encode():
    codec = HpackCodec()

    def op():
        call = GrpcCall(
            service="hipstershop.CartService",
            method="Invoke",
            message=ProtoMessage().set(1, PAYLOAD),
        )
        encode_grpc_request(codec, call.path, call.encode(), stream_id=1)

    return op


def _hpack_roundtrip():
    encoder, decoder = HpackCodec(), HpackCodec()
    headers = grpc_request_headers("/hipstershop.CartService/Invoke")

    def op():
        decoder.decode(encoder.encode(headers))

    return op


def _http1_roundtrip():
    request = HttpRequest(
        method="POST", path="/cart", headers={"content-type": "application/json"}, body=PAYLOAD
    )

    def op():
        decode_request(encode_request(request))

    return op


#: metric name -> factory returning the zero-argument operation to time
BENCHMARKS = {
    "simcore.micro_timeout_step_ns": _timeout_step,
    "kernel.micro_bundle_commit_ns": _bundle_commit,
    "ebpf.micro_sproxy_run_ns": _sproxy_run,
    "mem.micro_alloc_free_ns": lambda: _alloc_free(sanitized=False),
    "mem.micro_alloc_free_sanitized_ns": lambda: _alloc_free(sanitized=True),
    "protocols.micro_grpc_encode_ns": _grpc_encode,
    "protocols.micro_hpack_roundtrip_ns": _hpack_roundtrip,
    "protocols.micro_http1_roundtrip_ns": _http1_roundtrip,
}


def measure(factory) -> float:
    """Median ns per call of the operation ``factory`` builds, scaled to
    the reference host's speed like the episodes' host time."""
    timer = timeit.Timer(factory())
    number = 64
    while True:
        seconds = timer.timeit(number)
        if seconds >= REPEAT_SECONDS / 4:
            break
        number *= 4
    number = max(1, int(number * REPEAT_SECONDS / seconds))
    samples = []
    for _ in range(REPEATS):
        seconds = timer.timeit(number)
        samples.append(seconds * calibrate.speed())
    return statistics.median(samples) / number * 1e9


def run_all() -> dict:
    return {name: measure(factory) for name, factory in BENCHMARKS.items()}


if __name__ == "__main__":
    for name, ns in run_all().items():
        print(f"{name:40s} {ns:10.1f} ns")
