"""The cluster fabric: nodes on one simulated clock, linked by real legs.

§3.8 of the paper discusses multi-node SPRIGHT deployments; this module
builds the substrate: several :class:`~repro.runtime.WorkerNode`\\ s sharing
one :class:`~repro.simcore.Environment`, joined by point-to-point links of
one latency and bandwidth. A cross-node transfer is not a magic
timeout — the payload leaves shared memory, is framed by a *real* protocol
codec (gRPC length-prefixed frames or HTTP/1.1), pays the sender's tx stack
and the receiver's rx stack as audited :class:`~repro.kernel.KernelOps`
bundles plus a NIC DMA on each end, and is routed through the sender's
simulated FIB exactly like single-node traffic.

Every cross-node leg counts ``cluster/xnode_hops`` and a per-link byte
counter (``cluster/<src>-><dst>/bytes``) in the sending node's metrics
registry, and opens a ``leg:xnode`` span on the request when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..kernel import FiveTuple, NodeConfig
from ..kernel.ops import KERNEL_RX, KERNEL_TX
from ..protocols import HttpRequest, ProtoMessage, decode_frame, decode_request
from ..protocols import encode_bytes_field, encode_frame, encode_request
from ..runtime import WorkerNode
from ..simcore import DeliveryError, Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataplane import Request
    from ..kernel import KernelOps

#: field number carrying the payload in the cross-node Invoke proto message
_PAYLOAD_FIELD = 1
_XNODE_PORT = 8080


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a node-to-node link (ToR switch hop by default)."""

    latency: float = 25e-6          # propagation + switching
    bandwidth_bps: float = 10e9     # serialization rate on the wire

    def wire_time(self, nbytes: int) -> float:
        return self.latency + (nbytes * 8.0) / self.bandwidth_bps

    @classmethod
    def from_costs(cls, costs) -> "LinkSpec":
        return cls(
            latency=costs.xnode_link_latency,
            bandwidth_bps=costs.xnode_bandwidth_bps,
        )


def encode_wire(payload: bytes, protocol: str) -> bytes:
    """Frame a payload for the wire with the real codec for ``protocol``."""
    if protocol == "grpc":
        return encode_frame(encode_bytes_field(_PAYLOAD_FIELD, payload))
    if protocol == "http":
        request = HttpRequest(
            method="POST",
            path="/invoke",
            headers={"content-type": "application/octet-stream"},
            body=payload,
        )
        return encode_request(request)
    raise ValueError(f"unknown cross-node protocol {protocol!r}")


def decode_wire(wire: bytes, protocol: str) -> bytes:
    """Recover the payload on the receiving node (round-trip checked)."""
    if protocol == "grpc":
        message, _compressed = decode_frame(wire)
        return ProtoMessage.decode(message).get_bytes(_PAYLOAD_FIELD)
    if protocol == "http":
        return decode_request(wire).body
    raise ValueError(f"unknown cross-node protocol {protocol!r}")


class ClusterFabric:
    """Node registry + IP plan + links; moves payloads between nodes.

    Nodes must share one :class:`Environment` (see :func:`build_cluster`).
    Registration assigns each node a cluster IP (``10.10.<idx>.1``) and
    installs bidirectional FIB routes through the physical NICs, so every
    transfer resolves its egress interface with a real
    :meth:`~repro.kernel.FibTable.lookup` — no route, no delivery.
    """

    def __init__(
        self, env: Environment, default_link: Optional[LinkSpec] = None
    ) -> None:
        self.env = env
        self.default_link = default_link or LinkSpec()
        self.nodes: dict[str, WorkerNode] = {}
        self.ips: dict[str, str] = {}
        self.xnode_hops = 0
        self.bytes_moved = 0

    # -- topology -----------------------------------------------------------
    def add_node(self, node: WorkerNode) -> WorkerNode:
        if node.env is not self.env:
            raise ValueError(f"node {node.name!r} is not on the fabric's clock")
        if node.name in self.nodes:
            raise ValueError(f"node {node.name!r} already registered")
        ip = f"10.10.{len(self.nodes) + 1}.1"
        for peer_name, peer in self.nodes.items():
            peer.fib.add_route(ip, peer.nic.ifindex)
            node.fib.add_route(self.ips[peer_name], node.nic.ifindex)
        self.nodes[node.name] = node
        self.ips[node.name] = ip
        return node

    # -- data movement ------------------------------------------------------
    def transfer(
        self,
        src: WorkerNode,
        dst: WorkerNode,
        payload: bytes,
        ops_tx: "KernelOps",
        ops_rx: "KernelOps",
        request: Optional["Request"] = None,
        protocol: str = "grpc",
        nic_terminated: bool = False,
        nic_sourced: bool = False,
    ):
        """Generator: one cross-node leg; returns the decoded payload.

        Sender side: marshal through the protocol codec, copy into the tx
        stack, protocol processing, 2 interrupts, NIC tx DMA — unless
        ``nic_sourced``, where the payload already sits in the sending
        SmartNIC's SRAM and the NIC frames it itself (XDP cost, zero host
        tx work). Wire: link latency + bytes/bandwidth. Receiver side: rx
        DMA then either the full rx stack (protocol processing, 2
        interrupts, copy, 2 context switches, unmarshal) or —
        ``nic_terminated`` — just the XDP parse, because the frame stays on
        the receiving SmartNIC (λ-NIC ingress).
        """
        costs_tx = src.config.costs
        costs_rx = dst.config.costs
        wire = encode_wire(payload, protocol)
        nbytes = len(wire)
        flow = FiveTuple(
            src_ip=self.ips[src.name],
            dst_ip=self.ips[dst.name],
            src_port=40000,
            dst_port=_XNODE_PORT,
        )
        if src.fib.lookup(flow) is None:
            raise DeliveryError(
                "no_route", f"no FIB route {src.name} -> {dst.name}"
            )
        span = None
        if request is not None:
            span = request.span_begin(
                "leg:xnode",
                "leg",
                src=src.name,
                dst=dst.name,
                bytes=nbytes,
                protocol=protocol,
            )
        if nic_sourced:
            # The sending NIC frames and transmits straight from SRAM.
            yield self.env.timeout(costs_tx.xdp_fixed)
        else:
            yield ops_tx.commit(KERNEL_TX, nbytes)
            yield self.env.timeout(costs_tx.nic_dma)

        link = self.default_link
        yield self.env.timeout(link.wire_time(nbytes))

        yield self.env.timeout(costs_rx.nic_dma)
        if nic_terminated:
            # The frame lands in the receiving SmartNIC's SRAM and is
            # consumed there: XDP parse only, zero host rx cost.
            yield self.env.timeout(costs_rx.xdp_fixed)
        else:
            yield ops_rx.commit(KERNEL_RX, nbytes)

        self.xnode_hops += 1
        self.bytes_moved += nbytes
        src.counters.incr("cluster/xnode_hops")
        src.counters.incr(f"cluster/{src.name}->{dst.name}/bytes", nbytes)
        if request is not None:
            request.span_end(span)
        return decode_wire(wire, protocol)


def build_cluster(
    node_count: int,
    scale: float = 1.0,
    seed: int = 2022,
    cores: int = 40,
    link: Optional[LinkSpec] = None,
) -> ClusterFabric:
    """A full-mesh cluster of ``node_count`` workers on one clock.

    Per-node RNG roots are decorrelated (``seed + 101 * idx``) so two nodes
    never replay each other's service-time draws; node 0's root is exactly
    ``seed``, which keeps a 1-node cluster's draw sequences identical to a
    single-node :func:`~repro.experiments.common.make_node` run — the
    byte-identity guarantee the golden tests pin down.
    """
    env = Environment()
    config0 = NodeConfig(root_seed=seed)
    fabric = ClusterFabric(
        env, default_link=link or LinkSpec.from_costs(config0.costs)
    )
    for idx in range(node_count):
        config = NodeConfig(root_seed=seed + 101 * idx)
        config.cores = max(4, int(round(cores * scale)))
        fabric.add_node(
            WorkerNode(config, env=env, name=f"worker-{idx + 1}")
        )
    return fabric
