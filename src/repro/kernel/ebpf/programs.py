"""The actual eBPF programs SPRIGHT loads, written in our bytecode.

Context layouts (little-endian):

SK_MSG descriptor context (24 bytes)::

    [ 0: 4]  next_fn_id   (u32)   who the descriptor is addressed to
    [ 4:12]  shm_offset   (u64)   payload location in the shared pool
    [12:16]  payload_len  (u32)
    [16:20]  sender_id    (u32)   filled in by the kernel, not the sender
    [20:24]  generation   (u32)   buffer allocation generation (ABA defence)

XDP/TC packet context (16 bytes)::

    [ 0: 4]  pkt_len        (u32)
    [ 4: 8]  ingress_ifindex(u32)
    [ 8:16]  reserved

Metric slots in the EPROXY/SPROXY array maps::

    slot 0: packets/requests seen
    slot 1: bytes seen
"""

from __future__ import annotations

import struct

from .assembler import Assembler
from .isa import (
    Program,
    ProgramType,
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    SK_DROP,
    SK_PASS,
    TC_ACT_OK,
    TC_ACT_REDIRECT,
    XDP_PASS,
    XDP_REDIRECT,
)
from .vm import (
    HELPER_ARRAY_ADD,
    HELPER_FIB_LOOKUP,
    HELPER_MAP_LOOKUP,
    HELPER_MSG_REDIRECT_MAP,
)

# Context field offsets (keep in sync with the docstring).
DESC_NEXT_FN = 0
DESC_SHM_OFFSET = 4
DESC_LEN = 12
DESC_SENDER = 16
DESC_GENERATION = 20
DESC_CTX_BYTES = 24

PKT_LEN = 0
PKT_IFINDEX = 4
PKT_CTX_BYTES = 16

METRIC_SLOT_COUNT = 0
METRIC_SLOT_BYTES = 1


def sproxy_redirect(sockmap_fd: int, name: str = "sproxy_redirect") -> Program:
    """SK_MSG program: steer a packet descriptor to the next function's socket.

    Reads the next-function instance ID from the descriptor, resolves the
    target socket via the sockmap, and short-circuits the kernel protocol
    stack with ``bpf_msg_redirect_map`` — the core of S-SPRIGHT (§3.2.1).
    """
    asm = Assembler(name)
    asm.mov_reg(R6, R1)                      # keep ctx across the call
    asm.ld32(R2, R6, DESC_NEXT_FN)           # key = next_fn_id
    asm.mov_imm(R1, sockmap_fd)
    asm.call(HELPER_MSG_REDIRECT_MAP)        # R0 = SK_PASS / SK_DROP
    asm.exit_()
    return asm.build(ProgramType.SK_MSG)


def sproxy_filtered_redirect(
    filter_map_fd: int, sockmap_fd: int, name: str = "sproxy_filtered"
) -> Program:
    """SK_MSG program with DFR security filtering (§3.4).

    Looks up ``(sender_id << 16) | next_fn_id`` in the filtering map; a miss
    means the sender is not authorized to reach that destination, so the
    descriptor is dropped before any redirection happens.
    """
    asm = Assembler(name)
    asm.mov_reg(R6, R1)
    # key = (sender << 16) | next_fn
    asm.ld32(R3, R6, DESC_SENDER)
    asm.lsh_imm(R3, 16)
    asm.ld32(R4, R6, DESC_NEXT_FN)
    asm.mov_reg(R2, R3)
    asm.or_reg(R2, R4)
    asm.mov_imm(R1, filter_map_fd)
    asm.call(HELPER_MAP_LOOKUP)              # R0 = 1 if allowed, 0 if miss
    asm.jeq_imm(R0, 0, "drop")
    asm.ld32(R2, R6, DESC_NEXT_FN)
    asm.mov_imm(R1, sockmap_fd)
    asm.call(HELPER_MSG_REDIRECT_MAP)
    asm.exit_()
    asm.label("drop")
    asm.mov_imm(R0, SK_DROP)
    asm.exit_()
    return asm.build(ProgramType.SK_MSG)


def sproxy_l7_metrics(metrics_fd: int, name: str = "sproxy_metrics") -> Program:
    """SK_MSG metrics program: count requests and payload bytes (§3.3)."""
    asm = Assembler(name)
    asm.mov_reg(R6, R1)
    asm.mov_imm(R1, metrics_fd)
    asm.mov_imm(R2, METRIC_SLOT_COUNT)
    asm.mov_imm(R3, 1)
    asm.call(HELPER_ARRAY_ADD)               # requests += 1
    asm.mov_imm(R1, metrics_fd)
    asm.mov_imm(R2, METRIC_SLOT_BYTES)
    asm.ld32(R3, R6, DESC_LEN)
    asm.call(HELPER_ARRAY_ADD)               # bytes += payload_len
    asm.mov_imm(R0, SK_PASS)
    asm.exit_()
    return asm.build(ProgramType.SK_MSG)


def eproxy_l3_metrics(metrics_fd: int, name: str = "eproxy_metrics") -> Program:
    """TC metrics program at the gateway: packet rate and bytes received."""
    asm = Assembler(name)
    asm.mov_reg(R6, R1)
    asm.mov_imm(R1, metrics_fd)
    asm.mov_imm(R2, METRIC_SLOT_COUNT)
    asm.mov_imm(R3, 1)
    asm.call(HELPER_ARRAY_ADD)
    asm.mov_imm(R1, metrics_fd)
    asm.mov_imm(R2, METRIC_SLOT_BYTES)
    asm.ld32(R3, R6, PKT_LEN)
    asm.call(HELPER_ARRAY_ADD)
    asm.mov_imm(R0, TC_ACT_OK)
    asm.exit_()
    return asm.build(ProgramType.TC)


def xdp_fib_forward(name: str = "xdp_forward") -> Program:
    """XDP program on the physical NIC: FIB lookup + raw-frame redirect (§3.5).

    A FIB hit places the destination ifindex in the run scratch and returns
    ``XDP_REDIRECT``; a miss falls back to ``XDP_PASS`` so the packet takes
    the ordinary kernel path.
    """
    asm = Assembler(name)
    asm.mov_reg(R6, R1)
    asm.call(HELPER_FIB_LOOKUP)              # 0 = hit (ifindex in scratch)
    asm.jne_imm(R0, 0, "pass")
    asm.mov_imm(R0, XDP_REDIRECT)
    asm.exit_()
    asm.label("pass")
    asm.mov_imm(R0, XDP_PASS)
    asm.exit_()
    return asm.build(ProgramType.XDP)


def tc_fib_forward(name: str = "tc_forward") -> Program:
    """TC program on veth-host RX: redirect pod egress without iptables."""
    asm = Assembler(name)
    asm.mov_reg(R6, R1)
    asm.call(HELPER_FIB_LOOKUP)
    asm.jne_imm(R0, 0, "ok")
    asm.mov_imm(R0, TC_ACT_REDIRECT)
    asm.exit_()
    asm.label("ok")
    asm.mov_imm(R0, TC_ACT_OK)
    asm.exit_()
    return asm.build(ProgramType.TC)


_DESCRIPTOR_CTX = struct.Struct("<IQIII")
_PACKET_CTX = struct.Struct("<II8x")


def encode_descriptor_ctx(
    next_fn_id: int,
    shm_offset: int,
    payload_len: int,
    sender_id: int,
    generation: int = 0,
) -> bytes:
    """Build the 24-byte SK_MSG context for one descriptor send."""
    try:
        return _DESCRIPTOR_CTX.pack(next_fn_id, shm_offset, payload_len, sender_id, generation)
    except struct.error as error:  # a field does not fit its width
        raise OverflowError(str(error)) from None


def encode_packet_ctx(pkt_len: int, ingress_ifindex: int) -> bytes:
    """Build the 16-byte XDP/TC context for one frame."""
    try:
        return _PACKET_CTX.pack(pkt_len, ingress_ifindex)
    except struct.error as error:
        raise OverflowError(str(error)) from None
