"""Sidecar proxy models for the §2 comparison (Fig. 2).

Four pod configurations around the same NGINX HTTP server function:

* ``Null``  — no sidecar (the baseline);
* ``QP``    — Knative's queue proxy;
* ``Envoy`` — Istio's Envoy sidecar;
* ``OFW``   — OpenFaaS's of-watchdog.

Each sidecar adds two loopback crossings (2 copies, 2 context switches,
2 interrupts per §2's audit of step ④) plus its own proxy CPU. Per-request
CPU budgets are calibrated against Fig. 2's cycles/request bars at 2.2 GHz,
split into the figure's three categories (sidecar container, NGINX
container, kernel stack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..audit import Stage
from ..kernel import KernelOps
from ..simcore import CpuSet, Resource
from .legs import external_arrival, leg_localhost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import WorkerNode


@dataclass(frozen=True)
class SidecarSpec:
    """Per-request CPU budget of one pod configuration (seconds)."""

    name: str
    sidecar_path: float      # proxy work on the critical path
    sidecar_bg: float        # proxy background work (metrics, buffers)
    nginx_path: float        # NGINX request handling
    nginx_bg: float          # NGINX worker bookkeeping
    kernel_bg: float         # extra kernel-stack work the proxy induces
    has_sidecar: bool = True


# Calibrated against Fig 2: a 3x-7x RPS/latency spread between Null and the
# sidecars, with the kernel stack carrying ~50% of the sidecar CPU cycles.
NULL_SIDECAR = SidecarSpec(
    "Null", sidecar_path=0.0, sidecar_bg=0.0,
    nginx_path=55e-6, nginx_bg=120e-6, kernel_bg=150e-6, has_sidecar=False,
)
QUEUE_PROXY = SidecarSpec(
    "QP", sidecar_path=200e-6, sidecar_bg=500e-6,
    nginx_path=55e-6, nginx_bg=120e-6, kernel_bg=400e-6,
)
ENVOY = SidecarSpec(
    "Envoy", sidecar_path=350e-6, sidecar_bg=1000e-6,
    nginx_path=55e-6, nginx_bg=120e-6, kernel_bg=700e-6,
)
OF_WATCHDOG = SidecarSpec(
    "OFW", sidecar_path=140e-6, sidecar_bg=350e-6,
    nginx_path=55e-6, nginx_bg=120e-6, kernel_bg=300e-6,
)

ALL_SIDECARS = (NULL_SIDECAR, QUEUE_PROXY, ENVOY, OF_WATCHDOG)


class SidecarPod:
    """One function pod (NGINX + optional sidecar) pinned to a CPU quota.

    The pod carries the k8s-style CPU limit real deployments set (the reason
    the measured RPS plateaus); both containers share it.
    """

    def __init__(
        self,
        node: "WorkerNode",
        spec: SidecarSpec,
        pod_cores: int = 4,
        concurrency: int = 64,
    ) -> None:
        self.node = node
        self.spec = spec
        self.cpu = CpuSet(
            node.env,
            cores=pod_cores,
            bucket_width=node.config.cpu_bucket_width,
            accounting=node.cpu.accounting,
        )
        prefix = f"sidecar/{spec.name}"
        self.tag_sidecar = f"{prefix}/sidecar"
        self.tag_nginx = f"{prefix}/nginx"
        self.tag_kernel = f"{prefix}/kernel"
        self.ops = KernelOps(node.env, self.cpu, node.config.costs, self.tag_kernel)
        self.charge_sidecar = self.cpu.charge(self.tag_sidecar)
        self.charge_nginx = self.cpu.charge(self.tag_nginx)
        self._slots = Resource(node.env, capacity=concurrency)
        self.requests_served = 0

    def handle_request(self, nbytes: int, trace=None):
        """Generator: one HTTP request through the pod; returns latency-start."""
        slot = self._slots.grant_now()
        if slot is None:
            slot = self._slots.request()
            yield slot
        try:
            # Arrival at the pod over the kernel (client is on-node, wrk).
            yield from external_arrival(self.ops, nbytes, trace, Stage.STEP_1)

            if self.spec.has_sidecar:
                # Inbound through the sidecar: one loopback crossing, proxy work.
                yield from leg_localhost(self.ops, nbytes, trace, Stage.STEP_4)
                yield self.charge_sidecar.book(self.spec.sidecar_path / 2, "sidecar_path")

            # NGINX serves the request.
            yield self.charge_nginx.book(self.spec.nginx_path, "nginx_path")
            self.charge_nginx.book(self.spec.nginx_bg, "nginx_bg", detached=True)
            if self.spec.kernel_bg > 0:
                self.ops.charge.book(self.spec.kernel_bg, "kernel_bg", detached=True)

            if self.spec.has_sidecar:
                # Outbound back through the sidecar.
                yield self.charge_sidecar.book(self.spec.sidecar_path / 2, "sidecar_path")
                yield from leg_localhost(self.ops, nbytes, trace, Stage.STEP_4)
                self.charge_sidecar.book(self.spec.sidecar_bg, "sidecar_bg", detached=True)

            # Response towards the client.
            yield self.ops.serialize(nbytes, trace, None)
            yield self.ops.copy(nbytes, trace, None)
            yield self.ops.protocol_processing(nbytes, trace, None)
            self.requests_served += 1
        finally:
            self._slots.release(slot)

    def cycles_per_request(self) -> dict[str, float]:
        """Fig 2's right panel: cycles/request by category."""
        if self.requests_served == 0:
            raise ValueError("no requests served yet")
        accounting = self.node.cpu.accounting
        freq = self.node.config.costs.cpu_freq_hz
        return {
            "sidecar container": accounting.total_busy.get(self.tag_sidecar, 0.0)
            * freq
            / self.requests_served,
            "NGINX container": accounting.total_busy.get(self.tag_nginx, 0.0)
            * freq
            / self.requests_served,
            "kernel stack": accounting.total_busy.get(self.tag_kernel, 0.0)
            * freq
            / self.requests_served,
        }
