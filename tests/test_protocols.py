"""Unit tests for the protocol codecs."""

import pytest

from repro.protocols import (
    CloudEvent,
    CloudEventError,
    CoapCode,
    CoapError,
    CoapMessage,
    CoapType,
    ConnackPacket,
    ConnectPacket,
    GrpcCall,
    GrpcError,
    HttpError,
    HttpRequest,
    HttpResponse,
    MqttError,
    PacketType,
    ProtoMessage,
    PubackPacket,
    PublishPacket,
    decode_frame,
    decode_request,
    decode_response,
    decode_varint,
    encode_frame,
    encode_request,
    encode_response,
    encode_varint,
    packet_type,
)


# -- HTTP/1.1 -----------------------------------------------------------------

def test_http_request_roundtrip():
    request = HttpRequest(
        method="POST",
        path="/cart/checkout",
        headers={"content-type": "application/json"},
        body=b'{"user": 7}',
    )
    decoded = decode_request(encode_request(request))
    assert decoded.method == "POST"
    assert decoded.path == "/cart/checkout"
    assert decoded.body == b'{"user": 7}'
    assert decoded.header("Content-Type") == "application/json"


def test_http_get_has_no_content_length_requirement():
    raw = encode_request(HttpRequest(method="GET", path="/"))
    decoded = decode_request(raw)
    assert decoded.body == b""


def test_http_response_roundtrip():
    response = HttpResponse(status=404, body=b"nope")
    decoded = decode_response(encode_response(response))
    assert decoded.status == 404
    assert decoded.reason == "Not Found"
    assert decoded.body == b"nope"


def test_http_rejects_unknown_method():
    with pytest.raises(HttpError):
        encode_request(HttpRequest(method="BREW"))
    with pytest.raises(HttpError):
        decode_request(b"BREW / HTTP/1.1\r\n\r\n")


def test_http_rejects_missing_terminator():
    with pytest.raises(HttpError, match="incomplete"):
        decode_request(b"GET / HTTP/1.1\r\nhost: x\r\n")


def test_http_rejects_truncated_body():
    raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"
    with pytest.raises(HttpError, match="truncated"):
        decode_request(raw)


def test_http_malformed_header_line():
    with pytest.raises(HttpError, match="malformed header"):
        decode_request(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")


def test_http_binary_body_preserved():
    body = bytes(range(256))
    raw = encode_request(HttpRequest(method="POST", path="/img", body=body))
    assert decode_request(raw).body == body


# -- gRPC / protobuf --------------------------------------------------------------

def test_varint_roundtrip_small_and_large():
    for value in (0, 1, 127, 128, 300, 2**32, 2**63 - 1):
        raw = encode_varint(value)
        decoded, offset = decode_varint(raw)
        assert decoded == value
        assert offset == len(raw)


def test_varint_truncated():
    with pytest.raises(GrpcError, match="truncated"):
        decode_varint(b"\x80")


def test_proto_message_roundtrip():
    message = ProtoMessage().set(1, 42).set(2, "currency").set(3, b"\x01\x02")
    decoded = ProtoMessage.decode(message.encode())
    assert decoded.get_int(1) == 42
    assert decoded.get_str(2) == "currency"
    assert decoded.get_bytes(3) == b"\x01\x02"


def test_proto_field_number_validation():
    with pytest.raises(GrpcError):
        ProtoMessage().set(0, 1)


def test_grpc_frame_roundtrip():
    message, compressed = decode_frame(encode_frame(b"payload"))
    assert message == b"payload"
    assert not compressed


def test_grpc_frame_truncation_detected():
    raw = encode_frame(b"payload")[:-2]
    with pytest.raises(GrpcError, match="truncated"):
        decode_frame(raw)


def test_grpc_frame_rejects_a_compressed_flag_other_than_0_or_1():
    raw = bytes([7]) + (1).to_bytes(4, "big") + b"x"
    with pytest.raises(GrpcError, match="compressed flag must be 0 or 1, got 7"):
        decode_frame(raw)
    assert decode_frame(encode_frame(b"x", compressed=True)) == (b"x", True)


def test_grpc_call_roundtrip():
    call = GrpcCall(
        service="hipstershop.CurrencyService",
        method="Convert",
        message=ProtoMessage().set(1, "USD").set(2, 1999),
    )
    decoded = GrpcCall.decode(call.path, call.encode())
    assert decoded.service == "hipstershop.CurrencyService"
    assert decoded.method == "Convert"
    assert decoded.message.get_int(2) == 1999


def test_grpc_bad_path():
    with pytest.raises(GrpcError, match="malformed gRPC path"):
        GrpcCall.decode("noslash", encode_frame(b""))


# -- MQTT -----------------------------------------------------------------------

def test_mqtt_varlen_roundtrip():
    from repro.protocols.mqtt import decode_varlen, encode_varlen

    for value in (0, 127, 128, 16383, 16384, 268_435_455):
        raw = encode_varlen(value)
        decoded, offset = decode_varlen(raw)
        assert decoded == value
        assert offset == len(raw)


def test_mqtt_connect_roundtrip():
    packet = ConnectPacket(client_id="motion-sensor-7", keep_alive=30)
    decoded = ConnectPacket.decode(packet.encode())
    assert decoded.client_id == "motion-sensor-7"
    assert decoded.keep_alive == 30
    assert decoded.clean_start


def test_mqtt_connack_roundtrip():
    decoded = ConnackPacket.decode(ConnackPacket(reason_code=0).encode())
    assert decoded.reason_code == 0


def test_mqtt_publish_qos1_roundtrip():
    packet = PublishPacket(topic="sensors/motion/42", payload=b"ON", qos=1, packet_id=77)
    decoded = PublishPacket.decode(packet.encode())
    assert decoded.topic == "sensors/motion/42"
    assert decoded.payload == b"ON"
    assert decoded.packet_id == 77


def test_mqtt_publish_qos0_has_no_packet_id():
    packet = PublishPacket(topic="t", payload=b"x", qos=0)
    decoded = PublishPacket.decode(packet.encode())
    assert decoded.qos == 0
    assert decoded.packet_id == 0


def test_mqtt_puback_roundtrip():
    decoded = PubackPacket.decode(PubackPacket(packet_id=77).encode())
    assert decoded.packet_id == 77


def test_mqtt_packet_type_dispatch():
    assert packet_type(PublishPacket(topic="t", payload=b"").encode()) == PacketType.PUBLISH
    assert packet_type(ConnectPacket(client_id="c").encode()) == PacketType.CONNECT


def test_mqtt_wrong_type_rejected():
    with pytest.raises(MqttError, match="expected CONNECT"):
        ConnectPacket.decode(PublishPacket(topic="t", payload=b"").encode())


# -- CoAP ---------------------------------------------------------------------------

def test_coap_roundtrip_with_options_and_payload():
    message = CoapMessage(
        code=CoapCode.POST,
        message_id=4242,
        token=b"\xde\xad",
        uri_path=["sensors", "motion"],
        content_format=42,
        payload=b'{"state": "on"}',
    )
    decoded = CoapMessage.decode(message.encode())
    assert decoded.code == CoapCode.POST
    assert decoded.message_id == 4242
    assert decoded.token == b"\xde\xad"
    assert decoded.uri_path == ["sensors", "motion"]
    assert decoded.content_format == 42
    assert decoded.payload == b'{"state": "on"}'
    assert decoded.path == "/sensors/motion"


def test_coap_empty_payload_roundtrip():
    message = CoapMessage(code=CoapCode.GET, message_id=1)
    decoded = CoapMessage.decode(message.encode())
    assert decoded.payload == b""
    assert decoded.msg_type == CoapType.CON


def test_coap_token_too_long():
    with pytest.raises(CoapError, match="token"):
        CoapMessage(code=CoapCode.GET, message_id=1, token=b"123456789").encode()


def test_coap_truncated_rejected():
    with pytest.raises(CoapError):
        CoapMessage.decode(b"\x40\x01")


def test_coap_long_uri_segment_uses_extended_option_length():
    segment = "x" * 300
    message = CoapMessage(code=CoapCode.GET, message_id=2, uri_path=[segment])
    assert CoapMessage.decode(message.encode()).uri_path == [segment]


# -- CloudEvents -----------------------------------------------------------------------

def test_cloudevent_missing_required_attribute():
    with pytest.raises(CloudEventError, match="required"):
        CloudEvent(id="", source="/s", type="t")
