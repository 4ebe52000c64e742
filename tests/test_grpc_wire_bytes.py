"""The wire bytes themselves, pinned: a sha256 over every encoded message.

The latency digests and goldens only see ``len(wire)``, so a codec change
that kept every length but moved a byte would pass them. This test folds
every byte string two seeded boutique episodes put on the wire into a
sha256:

* one node, gRPC plane: every ``GrpcDataplane.encode_call`` result (HEADERS
  with HPACK, DATA with the gRPC frame and protobuf message);
* three nodes, gRPC plane, ``spread`` placement: every ``encode_call``
  result plus every ``cluster.fabric.encode_wire`` result for the payloads
  that crossed a node boundary, framed as gRPC (what ``transfer`` sends)
  and as HTTP/1.1.

``PARENT_DIGESTS`` were captured, with exactly these episodes and this
fold, at commit 2f52213, before the codecs were made cheaper (hash-indexed HPACK, header-block
reuse, struct-packed frames).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import build_cluster, fabric as fabric_module
from repro.dataplane.grpc_mode import GrpcDataplane
from repro.experiments.cluster_exp import place_chain
from repro.experiments.common import build_plane, make_node
from repro.runtime import ChainSpec
from repro.stats import LatencyRecorder
from repro.workloads import ClosedLoopGenerator, WeightedMix, boutique

SEED = 2022
USERS = 60
LOAD_SECONDS = 1.5
DRAIN = 3.0

#: episode -> (sha256 over the wire byte strings, number of strings folded)
PARENT_DIGESTS = {
    "single-node": (
        "9aa7341d61d3c5a00fc59fe32c5f68a9ecbdb982792e5382b24c8d62da34f958",
        2891,
    ),
    "three-node": (
        "ccedc3129598a902ed93441a7f5e3b636ef2858ecdb81a949cc36243840bc279",
        15905,
    ),
}


def _drive(node, plane, until: float) -> LatencyRecorder:
    recorder = LatencyRecorder()
    ClosedLoopGenerator(
        node,
        plane,
        WeightedMix(boutique.request_classes()),
        recorder,
        concurrency=USERS,
        duration=LOAD_SECONDS,
        spawn_rate=USERS / 1.0,
        think_time=lambda node: node.rng.uniform("boutique/think", 0.05, 0.2),
        client_overhead=0.0005,
    ).start()
    node.env.run(until=until)
    return recorder


def wire_digest(episode: str, monkeypatch) -> tuple[str, int, int]:
    """(sha256, byte strings folded, completed requests) for one episode."""
    digest = hashlib.sha256()
    folded = [0]

    def fold(tag: str, wire: bytes) -> None:
        digest.update(f"{tag}:{len(wire)}:".encode() + wire)
        folded[0] += 1

    encode_call = GrpcDataplane.encode_call

    def recording_encode_call(self, function_name, payload):
        wire = encode_call(self, function_name, payload)
        fold(f"call/{function_name}", wire)
        return wire

    encode_wire = fabric_module.encode_wire

    def recording_encode_wire(payload, protocol):
        wire = encode_wire(payload, protocol)
        fold(f"wire/{protocol}", wire)
        fold("wire/http", encode_wire(payload, "http"))
        return wire

    monkeypatch.setattr(GrpcDataplane, "encode_call", recording_encode_call)
    monkeypatch.setattr(fabric_module, "encode_wire", recording_encode_wire)

    functions = boutique.go_grpc_functions()
    if episode == "single-node":
        node = make_node(scale=0.1, seed=SEED)
        plane = build_plane("grpc", node, functions)
    else:
        fabric = build_cluster(3, seed=SEED, cores=8)
        placement = place_chain(
            fabric, ChainSpec("boutique", functions), "spread", capacity=8.0
        )
        node = fabric.nodes[placement.node_of(functions[0].name)]
        plane = build_plane("grpc", node, functions, placement=placement)
    recorder = _drive(node, plane, LOAD_SECONDS + DRAIN)
    return digest.hexdigest(), folded[0], recorder.count("")


@pytest.mark.parametrize("episode", sorted(PARENT_DIGESTS))
def test_wire_bytes_match_the_parent_codecs(episode, monkeypatch):
    sha, folded, completed = wire_digest(episode, monkeypatch)
    assert completed > 0
    assert (sha, folded) == PARENT_DIGESTS[episode]
