"""Differential tests: the gRPC wire codecs against their reference versions.

``tests/protocols_reference.py`` holds the encoders and decoders as they
were before the encode path was made cheap (linear static-table scans, one
``Frame`` object per frame, byte-at-a-time varints). Every test here runs
both on the same input and requires byte-identical output and, for stateful
HPACK codecs, identical dynamic tables after every step. Decoders are
compared on valid input only: the package's decoders reject some input the
reference accepts (unknown frame types, compressed flags other than 0/1,
table-size updates over the limit).
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.fabric import encode_wire
from repro.dataplane.grpc_mode import GrpcDataplane, GrpcParams
from repro.protocols import grpc_codec, http2
from repro.runtime import FunctionSpec, WorkerNode
from tests import protocols_reference as ref

DIFFERENTIAL = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# -- header lists ----------------------------------------------------------------

#: A small alphabet, so header lists repeat names and values often.
_names = st.sampled_from(
    [":path", ":authority", "content-type", "te", "x-a", "x-b", "accept", "cookie"]
)
_values = st.sampled_from(["", "1", "trailers", "/", "/svc/Method", "application/grpc"])
header = st.one_of(
    st.sampled_from(http2.STATIC_TABLE),  # exact static hits
    st.tuples(st.sampled_from([name for name, _ in http2.STATIC_TABLE]), _values),
    st.tuples(_names, _values),
    st.tuples(st.text("abc-", min_size=1, max_size=4), st.text("xyz", max_size=6)),
)
header_list = st.lists(header, max_size=8)

#: One step of a codec's life: encode a list (or the last one again), decode
#: a block, take a dynamic-table size update, or be reconfigured.
step = st.one_of(
    st.tuples(st.just("encode"), header_list),
    st.tuples(st.just("repeat"), st.just(None)),
    st.tuples(st.just("decode"), header_list),
    st.tuples(st.just("size-update"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("configure"), st.integers(min_value=0, max_value=400)),
)


def assert_same_table(codec: http2.HpackCodec, reference: ref.HpackCodec) -> None:
    assert codec._dynamic == reference._dynamic
    assert codec._dynamic_size == reference._dynamic_size
    assert codec.max_table_size == reference.max_table_size


@DIFFERENTIAL
@given(
    table_size=st.integers(min_value=0, max_value=400),
    steps=st.lists(step, min_size=1, max_size=12),
)
def test_hpack_matches_reference_through_interleaved_steps(table_size, steps):
    codec, reference = http2.HpackCodec(table_size), ref.HpackCodec(table_size)
    last: list = []
    for kind, argument in steps:
        if kind == "repeat":  # the same list again: the reuse path
            kind, argument = "encode", list(last)
        if kind == "encode":
            last = argument
            assert codec.encode(argument) == reference.encode(argument)
        elif kind == "decode":
            # A block encoded against a copy of the codec's own table is
            # valid input however the table got where it is.
            block = copy.deepcopy(reference).encode(argument)
            assert codec.decode(block) == reference.decode(block) == argument
        elif kind == "size-update":
            size = min(argument, codec.max_table_size)  # valid input only
            block = http2.encode_integer(size, 5, 0x20)
            assert codec.decode(block) == reference.decode(block) == []
        else:
            codec.max_table_size = reference.max_table_size = argument
        assert_same_table(codec, reference)


@DIFFERENTIAL
@given(table_size=st.integers(min_value=0, max_value=200), lists=st.lists(header_list, max_size=6))
def test_hpack_roundtrip_matches_reference_on_both_ends(table_size, lists):
    encoder, decoder = http2.HpackCodec(table_size), http2.HpackCodec(table_size)
    ref_encoder, ref_decoder = ref.HpackCodec(table_size), ref.HpackCodec(table_size)
    for headers in lists + lists:  # every list twice: the second may be reused
        block = encoder.encode(headers)
        assert block == ref_encoder.encode(headers)
        assert decoder.decode(block) == ref_decoder.decode(block) == headers
        assert_same_table(encoder, ref_encoder)
        assert_same_table(decoder, ref_decoder)


def test_reused_block_is_dropped_when_a_decode_changes_the_table():
    codec, reference = http2.HpackCodec(), ref.HpackCodec()
    headers = http2.grpc_request_headers("/svc/Method")
    for _ in range(3):
        assert codec.encode(headers) == reference.encode(headers)
    block = ref.HpackCodec().encode([("x-new", "1")])
    codec.decode(block)
    reference.decode(block)
    # The table gained an entry, so the indexes of the older ones moved.
    assert codec.encode(headers) == reference.encode(headers)
    assert codec.encode(headers) == bytes.fromhex("8386c2c1c0bf")


def test_grpc_channel_settles_on_six_indexed_bytes():
    codec = http2.HpackCodec()
    headers = http2.grpc_request_headers("/hipstershop.CartService/Invoke")
    first = codec.encode(headers)
    assert first == ref.HpackCodec().encode(headers)
    for _ in range(3):
        assert codec.encode(headers) == bytes.fromhex("8386c1c0bfbe")


# -- HPACK integers, varints --------------------------------------------------------

@given(value=st.integers(min_value=0, max_value=2**40), prefix=st.integers(min_value=1, max_value=8))
def test_hpack_integer_matches_reference(value, prefix):
    raw = http2.encode_integer(value, prefix, 0)
    assert raw == ref.encode_integer(value, prefix, 0)
    assert http2.decode_integer(raw, 0, prefix) == ref.decode_integer(raw, 0, prefix)


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**14, 2**32, 2**63 - 1, 2**63])
def test_varint_edges_match_reference(value):
    raw = grpc_codec.encode_varint(value)
    assert raw == ref.encode_varint(value)
    assert grpc_codec.decode_varint(raw) == ref.decode_varint(raw)


@given(value=st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_matches_reference(value):
    raw = grpc_codec.encode_varint(value)
    assert raw == ref.encode_varint(value)
    assert grpc_codec.decode_varint(raw) == ref.decode_varint(raw)


def test_negative_varint_rejected_by_both():
    for encode in (grpc_codec.encode_varint, ref.encode_varint):
        with pytest.raises(grpc_codec.GrpcError):
            encode(-1)


# -- HTTP/2 frames --------------------------------------------------------------------

frame_types = st.sampled_from(list(http2.FrameType))
stream_ids = st.integers(min_value=0, max_value=2**31 - 1)


@DIFFERENTIAL
@given(
    frames=st.lists(
        st.tuples(
            frame_types,
            st.integers(min_value=0, max_value=255),
            stream_ids,
            st.binary(max_size=64),
        ),
        max_size=5,
    )
)
def test_frames_match_reference(frames):
    raw = b""
    for frame_type, flags, stream_id, payload in frames:
        encoded = http2.Frame(frame_type, flags, stream_id, payload).encode()
        assert encoded == ref.Frame(frame_type, flags, stream_id, payload).encode()
        raw += encoded
    assert http2.decode_frames(raw) == [
        http2.Frame(f.frame_type, f.flags, f.stream_id, f.payload)
        for f in ref.decode_frames(raw)
    ]


@pytest.mark.parametrize("stream_id", [0, 1, 2**31 - 1])
def test_frame_at_the_length_and_stream_edges_matches_reference(stream_id):
    payload = bytes(2**24 - 1)
    encoded = http2.Frame(http2.FrameType.DATA, 0, stream_id, payload).encode()
    assert encoded == ref.Frame(http2.FrameType.DATA, 0, stream_id, payload).encode()
    assert encoded[:3] == b"\xff\xff\xff"


@pytest.mark.parametrize(
    "stream_id, length", [(2**31, 0), (-1, 0), (0, 2**24)], ids=["sid-31bit", "sid-neg", "len-24bit"]
)
def test_frames_past_the_edges_are_rejected_by_both(stream_id, length):
    for frame_cls in (http2.Frame, ref.Frame):
        with pytest.raises(http2.Http2Error):
            frame_cls(http2.FrameType.DATA, 0, stream_id, bytes(length)).encode()


# -- gRPC over HTTP/2 -------------------------------------------------------------------

@DIFFERENTIAL
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["/a.S/M", "/hipstershop.CartService/Invoke", "/b.T/N"]),
            st.binary(max_size=300),
            stream_ids,
            st.integers(min_value=1, max_value=128),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_grpc_request_matches_reference(calls):
    codec, reference = http2.HpackCodec(), ref.HpackCodec()
    decoder, ref_decoder = http2.HpackCodec(), ref.HpackCodec()
    for path, grpc_frame, stream_id, max_frame_size in calls:
        wire = http2.encode_grpc_request(codec, path, grpc_frame, stream_id, max_frame_size)
        assert wire == ref.encode_grpc_request(
            reference, path, grpc_frame, stream_id, max_frame_size
        )
        decoded = http2.decode_grpc_request(decoder, wire)
        assert decoded == ref.decode_grpc_request(ref_decoder, wire) == (path, grpc_frame)


def test_grpc_request_at_the_frame_size_boundary_matches_reference():
    for length in (0, 16383, 16384, 16385, 3 * 16384):
        grpc_frame = bytes(range(256)) * (length // 256) + bytes(length % 256)
        wire = http2.encode_grpc_request(http2.HpackCodec(), "/s/M", grpc_frame)
        assert wire == ref.encode_grpc_request(ref.HpackCodec(), "/s/M", grpc_frame)


# -- protobuf and gRPC framing ----------------------------------------------------------

field_values = st.one_of(
    st.integers(min_value=0, max_value=2**63), st.binary(max_size=200), st.text(max_size=20)
)


@DIFFERENTIAL
@given(fields=st.dictionaries(st.integers(min_value=1, max_value=2**20), field_values, max_size=8))
def test_proto_message_matches_reference(fields):
    message, reference = grpc_codec.ProtoMessage(), ref.ProtoMessage()
    for number, value in fields.items():
        message.set(number, value)
        reference.set(number, value)
    raw = message.encode()
    assert raw == reference.encode()
    assert grpc_codec.ProtoMessage.decode(raw).fields == ref.ProtoMessage.decode(raw).fields


@given(number=st.integers(min_value=1, max_value=2**29), data=st.binary(max_size=300))
def test_bytes_field_matches_reference_message(number, data):
    assert grpc_codec.encode_bytes_field(number, data) == ref.ProtoMessage().set(number, data).encode()


@given(message=st.binary(max_size=600), compressed=st.booleans())
def test_grpc_frame_matches_reference(message, compressed):
    raw = grpc_codec.encode_frame(message, compressed)
    assert raw == ref.encode_frame(message, compressed)
    assert grpc_codec.decode_frame(raw) == ref.decode_frame(raw)


@given(payload=st.binary(max_size=600))
def test_fabric_grpc_wire_matches_reference(payload):
    assert encode_wire(payload, "grpc") == ref.encode_grpc_wire(payload)


# -- the gRPC plane's per-hop encode --------------------------------------------------

_FUNCTIONS = ["cart", "product-catalog", "checkout", "ad"]


@DIFFERENTIAL
@given(
    calls=st.lists(
        st.tuples(st.sampled_from(_FUNCTIONS), st.binary(max_size=300)), min_size=1, max_size=12
    ),
    framing=st.booleans(),
)
def test_plane_encode_call_matches_reference(calls, framing):
    plane = GrpcDataplane(
        WorkerNode(),
        [FunctionSpec(name=name) for name in _FUNCTIONS],
        params=GrpcParams(use_http2_framing=framing),
    )
    hpack: dict = {}
    streams: dict = {}
    for function_name, payload in calls:
        assert plane.encode_call(function_name, payload) == ref.encode_call(
            hpack, streams, function_name, payload, use_http2_framing=framing
        )
