"""Tests for HTTP/2 framing and HPACK (the gRPC transport layer)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.http2 import (
    CONNECTION_PREFACE,
    DEFAULT_MAX_FRAME_SIZE,
    Flags,
    Frame,
    FrameType,
    HpackCodec,
    Http2Error,
    decode_frames,
    decode_grpc_request,
    decode_integer,
    encode_grpc_request,
    encode_integer,
    grpc_request_headers,
)


# -- frames ---------------------------------------------------------------------

def test_frame_roundtrip():
    frame = Frame(FrameType.DATA, flags=Flags.END_STREAM, stream_id=3, payload=b"abc")
    decoded, offset = Frame.decode(frame.encode())
    assert decoded == frame
    assert offset == 9 + 3


def test_frame_stream_id_31_bits():
    with pytest.raises(Http2Error):
        Frame(FrameType.DATA, stream_id=2**31).encode()


def test_frame_truncated_payload():
    raw = Frame(FrameType.DATA, stream_id=1, payload=b"abcdef").encode()[:-2]
    with pytest.raises(Http2Error, match="truncated frame payload"):
        Frame.decode(raw)


def test_decode_frames_sequence():
    raw = (
        Frame(FrameType.SETTINGS).encode()
        + Frame(FrameType.HEADERS, stream_id=1, payload=b"h").encode()
        + Frame(FrameType.DATA, stream_id=1, payload=b"d").encode()
    )
    frames = decode_frames(raw)
    assert [frame.frame_type for frame in frames] == [
        FrameType.SETTINGS,
        FrameType.HEADERS,
        FrameType.DATA,
    ]


def test_unsupported_frame_type_is_an_http2_error():
    # A PRIORITY (0x2) frame: a valid HTTP/2 type this subset does not model.
    raw = bytes.fromhex("000005" "02" "00" "00000001") + bytes(5)
    with pytest.raises(Http2Error, match="unsupported frame type 0x2"):
        decode_frames(raw)


def test_connection_preface_constant():
    assert CONNECTION_PREFACE.startswith(b"PRI * HTTP/2.0")


# -- HPACK integers ---------------------------------------------------------------

def test_hpack_integer_small_fits_prefix():
    assert encode_integer(10, 5) == bytes([10])


def test_hpack_integer_rfc_example():
    # RFC 7541 C.1.2: 1337 with 5-bit prefix -> 1f 9a 0a
    assert encode_integer(1337, 5) == bytes([0x1F, 0x9A, 0x0A])
    value, offset = decode_integer(bytes([0x1F, 0x9A, 0x0A]), 0, 5)
    assert value == 1337
    assert offset == 3


@given(value=st.integers(min_value=0, max_value=2**30), prefix=st.integers(min_value=1, max_value=8))
def test_hpack_integer_roundtrip_property(value, prefix):
    raw = encode_integer(value, prefix)
    decoded, offset = decode_integer(raw, 0, prefix)
    assert decoded == value
    assert offset == len(raw)


# -- HPACK headers ---------------------------------------------------------------

def test_hpack_static_table_fully_indexed():
    codec = HpackCodec()
    block = codec.encode([(":method", "POST")])
    assert block == bytes([0x80 | 3])  # static index 3, one byte


def test_hpack_roundtrip_with_dynamic_table():
    encoder = HpackCodec()
    decoder = HpackCodec()
    headers = grpc_request_headers("/hipstershop.CartService/AddItem")
    block_one = encoder.encode(headers)
    assert decoder.decode(block_one) == headers
    # Second identical request compresses much better (dynamic table hits).
    block_two = encoder.encode(headers)
    assert len(block_two) < len(block_one)
    assert decoder.decode(block_two) == headers
    assert encoder.dynamic_entries == decoder.dynamic_entries


def test_hpack_dynamic_table_eviction():
    codec = HpackCodec(max_table_size=40)  # each entry is 36 bytes: 1 fits
    codec.encode([("x-a", "1"), ("x-b", "2"), ("x-c", "3")])
    assert codec.dynamic_entries == 1  # older entries evicted


def test_hpack_decoder_rejects_bad_index():
    codec = HpackCodec()
    with pytest.raises(Http2Error, match="beyond table"):
        codec.decode(bytes([0x80 | 0x7F, 0x7F]))  # enormous index


def test_hpack_size_update_over_the_limit_is_a_decoding_error():
    codec = HpackCodec()  # 4096 bytes
    with pytest.raises(Http2Error, match="exceeds the limit 4096"):
        codec.decode(bytes.fromhex("3fe1ff03"))  # size update to 65536
    assert codec.max_table_size == 4096


def test_hpack_size_update_within_the_limit_can_shrink_and_regrow():
    codec = HpackCodec()
    codec.decode(encode_integer(100, 5, 0x20))
    assert codec.max_table_size == 100
    codec.decode(encode_integer(4096, 5, 0x20))  # the limit is unchanged
    assert codec.max_table_size == 4096


def test_hpack_rejects_huffman():
    codec = HpackCodec()
    # Literal with incremental indexing, new name, H bit set.
    raw = bytes([0x40, 0x81, 0xFF])
    with pytest.raises(Http2Error, match="Huffman"):
        codec.decode(raw)


@given(
    headers=st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="-"),
                min_size=1,
                max_size=20,
            ),
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="/-_."),
                max_size=40,
            ),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_hpack_roundtrip_property(headers):
    encoder = HpackCodec()
    decoder = HpackCodec()
    for _ in range(2):  # decoding twice exercises the dynamic table
        block = encoder.encode(headers)
        assert decoder.decode(block) == headers


# -- gRPC over HTTP/2 -----------------------------------------------------------------

def test_grpc_request_roundtrip():
    encoder = HpackCodec()
    decoder = HpackCodec()
    from repro.protocols import GrpcCall, ProtoMessage

    call = GrpcCall(
        service="hipstershop.CurrencyService",
        method="Convert",
        message=ProtoMessage().set(1, "USD").set(2, 1999),
    )
    wire = encode_grpc_request(encoder, call.path, call.encode())
    path, frame = decode_grpc_request(decoder, wire)
    assert path == "/hipstershop.CurrencyService/Convert"
    decoded = GrpcCall.decode(path, frame)
    assert decoded.message.get_int(2) == 1999


def test_grpc_large_message_splits_into_data_frames():
    codec = HpackCodec()
    payload = b"z" * (DEFAULT_MAX_FRAME_SIZE + 100)
    wire = encode_grpc_request(codec, "/svc/Method", payload)
    frames = decode_frames(wire)
    data_frames = [frame for frame in frames if frame.frame_type is FrameType.DATA]
    assert len(data_frames) == 2
    assert data_frames[0].flags & Flags.END_STREAM == 0
    assert data_frames[1].flags & Flags.END_STREAM
    _, body = decode_grpc_request(HpackCodec(), wire)
    assert body == payload


def test_grpc_request_requires_path():
    with pytest.raises(Http2Error, match=":path"):
        decode_grpc_request(
            HpackCodec(), Frame(FrameType.DATA, stream_id=1, payload=b"x").encode()
        )
