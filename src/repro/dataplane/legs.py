"""Canonical kernel-path 'legs' whose operation counts build Tables 1 and 2.

A *leg* is one message transfer over the kernel between two endpoints. Two
shapes cover every hop in Fig. 1's pipeline:

* :func:`leg_kernel` — a veth/stack crossing between containers or pods
  (sender tx stack + receiver rx stack): 2 copies, 2 context switches,
  4 interrupts, 2 protocol traversals, 1 serialization, 1 deserialization.
* :func:`leg_localhost` — sidecar <-> user container over loopback inside
  one pod: 2 copies, 2 context switches, 2 interrupts, 1 protocol
  traversal, 1 serialization, 1 deserialization.

One broker->pod delivery is ``leg_kernel + leg_localhost`` = 4/4/6/3/2/2,
exactly one within-chain column of Table 1. The external arrival
(:func:`external_arrival`) is column ① (1/1/3/1/1/0) and a plain
``leg_kernel`` is column ② (2/2/4/2/1/1).

Operations inside a leg are audited individually but charged to the CPU as
one transmit charge and one receive charge (sender's cores and receiver's
cores respectively), each a recipe from :mod:`repro.kernel.ops`, which keeps
the event count per request low enough to simulate the paper's full runs.
"""

from __future__ import annotations

from typing import Optional

from ..audit import RequestTrace, Stage
from ..kernel import KernelOps
from ..kernel.ops import EXTERNAL_ARRIVAL, KERNEL_RX, KERNEL_TX, LOOPBACK
from ..simcore import DeliveryError


def _check_loss(ops: KernelOps, point: str) -> None:
    """Fault injection on a costed leg: the CPU work is already charged
    (the sender paid for a transfer that went nowhere), then the message
    is lost or corrupted — surfaced as a typed, retryable failure."""
    faults = ops.faults
    if faults is None or not faults.active:
        return
    if faults.drop_packet(point, ops.tag):
        raise DeliveryError("drop", f"frame lost on {point} leg at {ops.tag}")
    if faults.corrupt_packet(point, ops.tag):
        raise DeliveryError("corrupt", f"frame corrupted on {point} leg at {ops.tag}")


def external_arrival(
    ops: KernelOps,
    nbytes: int,
    trace: Optional[RequestTrace],
    stage: Optional[Stage],
):
    """Step ①: a client request arrives at the ingress gateway from the NIC.

    NIC hardirq + softirq + wakeup (3 interrupts), one rx protocol
    traversal, one kernel->user copy, one context switch into the gateway,
    and one serialization as the gateway re-emits the request.
    """
    yield ops.commit(EXTERNAL_ARRIVAL, nbytes, trace, stage)
    _check_loss(ops, "leg_external")


def leg_kernel(
    ops_rx: KernelOps,
    nbytes: int,
    trace: Optional[RequestTrace],
    stage: Optional[Stage],
    ops_tx: Optional[KernelOps] = None,
):
    """A pod-to-pod (or container-to-container) transfer across veths.

    Transmit-side work (marshal, copy in, tx stack) runs on the sender's
    cores (``ops_tx``, defaulting to the receiver's); receive-side work (rx
    stack, copy out, wakeups, unmarshal) runs on the receiver's.
    """
    sender = ops_tx or ops_rx
    yield sender.commit(KERNEL_TX, nbytes, trace, stage)
    _check_loss(sender, "leg_kernel")
    yield ops_rx.commit(KERNEL_RX, nbytes, trace, stage)


def leg_localhost(
    ops: KernelOps,
    nbytes: int,
    trace: Optional[RequestTrace],
    stage: Optional[Stage],
):
    """Sidecar <-> user container over loopback within one pod."""
    yield ops.commit(LOOPBACK, nbytes, trace, stage)
    _check_loss(ops, "leg_localhost")


_CHAIN_STEPS = {0: Stage.STEP_3, 1: Stage.STEP_4, 2: Stage.STEP_5}


def chain_step_stage(event_index: int) -> Optional[Stage]:
    """Audit-stage for the i-th within-chain transfer event.

    The paper's audit labels the first three within-chain transfers ③, ④,
    ⑤ and stops there (the response side is excluded); later transfers in
    longer chains are costed but not staged.
    """
    return _CHAIN_STEPS.get(event_index)
